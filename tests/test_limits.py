"""Limiting cross sections, asymptotic laws, marker angles, deviation metric."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from latscat.bogoliubov import (
    BogoliubovState,
    bog_inelastic_cs,
    solve_depletion,
)
from latscat.errors import UndefinedDeviationError
from latscat.exact import diagonalize, exact_cross_section
from latscat.limits import (
    ExactAngleSet,
    SlopeResult,
    deviation_delta_cs,
    elastic_cs,
    exact_angles,
    fit_small_u_slope,
    high_probe_energy,
    largeL_bog_cs,
    largeL_sf_inelastic,
    lattice_sum_sq_derivative,
    mi_inelastic,
    sf_inelastic,
    slope_lambda,
)
from latscat.model import (
    LatticeSpec,
    ProbeSpec,
    bloch_dispersion,
    form_factor,
    kappa_elastic,
    lattice_sum_sq,
    quasimomentum_grid,
)

J = 0.0065
V0 = 15.0


def frozen_condensate_state(L, n, u):
    """Bogoliubov state with the depletion forced to zero (n0 = n)."""
    spec = LatticeSpec(L=L, n=n, U=u * J / n, J=J)
    q = quasimomentum_grid(L)
    eps = bloch_dispersion(q, J)
    Un0 = spec.U * n
    omega = eps * np.sqrt(1.0 + 2.0 * Un0 / eps) if Un0 else eps
    return BogoliubovState(
        lattice=spec,
        n0=n,
        depletion_fraction=0.0,
        omega_table=omega,
        healing_ok=True,
    )


# ------------------------------------------------------------ free-gas limit


def test_sf_equals_quasiparticle_formula_bitwise_at_zero_interaction():
    state = solve_depletion(LatticeSpec(L=7, n=2.0, U=0.0, J=J))
    for theta in np.linspace(0.0, np.pi / 2, 19):
        probe = ProbeSpec(E0=2.0, theta=float(theta))
        assert bog_inelastic_cs(state, probe, V0) == sf_inelastic(7, 2.0, float(theta))


def test_sf_zero_at_forward_angle():
    assert sf_inelastic(9, 2.0, 0.0) == 0.0


# ---------------------------------------------------------------- elastic


def test_elastic_coherent_peak():
    assert elastic_cs(9, 9, 2.0, 0.0) == 81.0  # N^2 at theta = 0


def test_elastic_interference_zero():
    # kappa_el = -2*pi/L, the first zero of the interference sum
    L, E0 = 9, 2.0
    theta = float(np.arcsin(2.0 / (L * np.sqrt(E0))))
    assert elastic_cs(L, 9, E0, theta) == pytest.approx(0.0, abs=1e-22)


def test_elastic_bragg_revival():
    # kappa_el = -2*pi: full revival damped only by the orbital form factor
    cs = elastic_cs(5, 5, 4.0, np.pi / 2)
    assert_allclose(cs, 25 * form_factor(2 * np.pi, V0) ** 2, rtol=1e-12)
    assert_allclose(cs / 25, 0.7724**2, atol=2e-4)


# --------------------------------------------------------------- Mott limit


def test_mi_channel_closes_at_probe_energy():
    assert mi_inelastic(9, 1.0, 2.0, 0.7, U=2.0) == 0.0
    assert mi_inelastic(9, 1.0, 2.0, 0.7, U=5.0) == 0.0


def test_mi_zero_at_forward_angle():
    assert mi_inelastic(9, 1.0, 2.0, 0.0, U=0.5) == 0.0


def test_mi_is_orbital_suppressed_relative_to_sf():
    # neighbouring-orbital overlap at V0 = 15 suppresses the Mott inelastic
    # channel by ~8 orders of magnitude
    ratio = mi_inelastic(9, 1.0, 2.0, 0.7) / sf_inelastic(9, 2.0, 0.7)
    assert 1e-9 < ratio < 1e-6


def test_mi_nearest_neighbour_dominates():
    # separation-m overlaps fall off as exp(-m^2 pi^2 sqrt(V0)/2): the m=1
    # term alone reproduces the truncated pair sum to far better than 1e-6
    L, n, E0, theta, U = 9, 1.0, 2.0, 0.7, 0.5
    C = np.sqrt(1 - U / E0)
    kel = kappa_elastic(ProbeSpec(E0=E0, theta=theta))
    nn_only = (
        n * (n + 1) * C * form_factor(kel * C, V0) ** 2
        * 2 * (L - 1) * np.exp(-np.pi**2 * np.sqrt(V0) / 2.0) / L
    )
    assert_allclose(mi_inelastic(L, n, E0, theta, U=U), nn_only, rtol=1e-6)


# ------------------------------------------------------------ large-L forms


def test_high_probe_energy_switch():
    assert high_probe_energy(2.0, J)
    assert not high_probe_energy(0.3, J)
    # interaction raises the quasiparticle scale and postpones the shortcut
    assert not high_probe_energy(0.65, J, u=0.0) or high_probe_energy(0.66, J, u=0.0)
    assert not high_probe_energy(0.66, J, u=30.0)


def test_largeL_sf_high_energy_shortcut_value():
    # kappa_el = -pi at E0 = 5: the cross section is the squared form factor
    theta = float(np.arcsin(1.0 / np.sqrt(5.0)))
    got = largeL_sf_inelastic(5.0, theta)
    assert_allclose(got, form_factor(np.pi, V0) ** 2, rtol=1e-12)


def test_largeL_sf_zeros():
    assert largeL_sf_inelastic(5.0, 0.0) == 0.0
    theta_bragg = float(np.arcsin(2.0 / np.sqrt(5.0)))  # kappa_el = -2*pi
    assert largeL_sf_inelastic(5.0, theta_bragg) == 0.0


def test_largeL_sf_general_branch_matches_finite_sum_on_average():
    # below the shortcut regime the kinematic-root form is used; finite-L
    # values oscillate around it, so compare angle averages
    thetas = np.linspace(0.3, 1.2, 61)
    finite = np.mean([sf_inelastic(1000, 0.3, float(t)) for t in thetas])
    asymptotic = np.mean([largeL_sf_inelastic(0.3, float(t)) for t in thetas])
    assert_allclose(asymptotic, finite, rtol=1e-2)


def test_largeL_bog_free_gas_reduces_to_form_factor():
    state = solve_depletion(LatticeSpec(L=50, n=1.0, U=0.0, J=J))
    probe = ProbeSpec(E0=5.0, theta=0.7)
    got = largeL_bog_cs(state, probe, V0)
    assert_allclose(got, form_factor(kappa_elastic(probe), V0) ** 2, rtol=1e-12)


def test_largeL_bog_zero_at_forward_angle():
    state = solve_depletion(LatticeSpec(L=50, n=1.0, U=0.05 * J, J=J))
    assert largeL_bog_cs(state, ProbeSpec(E0=5.0, theta=0.0), V0) == 0.0


def test_largeL_bog_tracks_finite_chain_pointwise():
    # 1000-site chain with a percent-level depletion: the asymptotic formula
    # follows the finite sum to <2% away from the Bragg angle (where the
    # finite chain dips to zero over a width ~1/L)
    spec = LatticeSpec(L=1000, n=1.0, U=0.01 * J, J=J)
    state = solve_depletion(spec)
    bragg = float(np.arcsin(2.0 / np.sqrt(5.0)))
    for theta in np.linspace(0.1, 1.4, 131):
        if abs(theta - bragg) < 0.02:
            continue
        probe = ProbeSpec(E0=5.0, theta=float(theta))
        finite = bog_inelastic_cs(state, probe, V0)
        asymptotic = largeL_bog_cs(state, probe, V0)
        assert abs(asymptotic - finite) / finite < 0.02


# ------------------------------------------------------------- decay slope


def test_interference_sum_derivative_matches_finite_difference():
    rng = np.random.default_rng(5)
    h = 1e-6
    for L in (3, 7, 12):
        for k in rng.uniform(-7, 7, 30):
            if abs(np.sin(k / 2)) < 1e-3:
                continue
            fd = (lattice_sum_sq(k + h, L) - lattice_sum_sq(k - h, L)) / (2 * h)
            assert_allclose(lattice_sum_sq_derivative(k, L), fd, rtol=1e-5, atol=1e-5)


def test_interference_sum_derivative_near_singularity():
    # Taylor branch: d/dk |Sigma|^2 -> -L^2(L^2-1) k/6 as k -> 0
    L = 12
    assert_allclose(
        lattice_sum_sq_derivative(1e-12, L), -(L**2) * (L**2 - 1) / 6 * 1e-12, rtol=1e-12
    )
    assert lattice_sum_sq_derivative(0.0, L) == 0.0


def test_slope_matches_finite_difference_of_cross_section():
    # second-order one-sided stencil at u -> 0+ on the analytic curve
    L, E0, theta = 5, 2.0, np.pi / 4
    result = slope_lambda(L, E0, theta)

    def cs(u):
        spec = LatticeSpec(L=L, n=2.0, U=u * J / 2.0, J=J)
        return bog_inelastic_cs(solve_depletion(spec), ProbeSpec(E0=E0, theta=theta), V0)

    h = 1e-4
    fd = (-3 * cs(0.0) + 4 * cs(h) - cs(2 * h)) / (2 * h)
    assert_allclose(-result.lambda_, fd, rtol=1e-6)


def test_slope_intercept_is_free_gas_value():
    result = slope_lambda(5, 2.0, np.pi / 4)
    assert result.gamma_sf == sf_inelastic(5, 2.0, np.pi / 4)
    assert result.gamma_sf >= 0


def test_slope_large_l_coefficient_at_zone_edge():
    # kappa_el = -pi: 1/(4 sin^2(pi/2)) = 1/4, times the form factor
    theta = float(np.arcsin(1.0 / np.sqrt(5.0)))
    result = slope_lambda(10, 5.0, theta)
    assert_allclose(result.large_l_slope, form_factor(np.pi, V0) ** 2 / 4.0, rtol=1e-12)


def test_slope_diverges_on_reciprocal_vector():
    result = slope_lambda(10, 5.0, 0.0)
    assert np.isinf(result.large_l_slope)
    # the clamped cross section is identically zero in u there
    assert result.lambda_ == 0.0
    # same at a nonzero reciprocal vector (Bragg condition)
    bragg = slope_lambda(10, 5.0, float(np.arcsin(2.0 / np.sqrt(5.0))))
    assert np.isinf(bragg.large_l_slope)
    assert bragg.lambda_ == 0.0 and bragg.gamma_sf == 0.0


def test_slope_is_density_independent_through_the_fit():
    # the fitted small-u slope of the analytic curve cannot depend on n
    grid = np.linspace(1e-4, 1e-2, 21)

    def fitted(n):
        vals = [
            bog_inelastic_cs(
                solve_depletion(LatticeSpec(L=5, n=n, U=u * J / n, J=J)),
                ProbeSpec(E0=2.0, theta=np.pi / 4),
                V0,
            )
            for u in grid
        ]
        return fit_small_u_slope(grid, vals)

    assert_allclose(fitted(2.0), fitted(5.0), rtol=1e-8)


def test_fit_recovers_polynomial_slope_exactly():
    rng = np.random.default_rng(11)
    u = np.sort(rng.uniform(1e-4, 1e-2, 15))
    cs = 3.0 - 2.0 * u + 7.0 * u**2 - 40.0 * u**3
    assert_allclose(fit_small_u_slope(u, cs), -2.0, rtol=1e-10)


def test_frozen_condensate_fit_hits_the_large_l_coefficient():
    # with the depletion frozen out, the fitted slope of the asymptotic
    # cross section lands on |W|^2/(4 sin^2(kappa_el/2)) to ~1e-10; the
    # full solver misses it because the depletion has an infrared kink
    probe = ProbeSpec(E0=5.0, theta=0.7)
    kel = kappa_elastic(probe)
    target = form_factor(kel, V0) ** 2 / (4 * np.sin(kel / 2) ** 2)
    grid = np.linspace(1e-4, 1e-2, 21)
    vals = [largeL_bog_cs(frozen_condensate_state(50, 50.0, u), probe, V0) for u in grid]
    assert_allclose(-fit_small_u_slope(grid, vals), target, rtol=1e-5)


# ------------------------------------------------------------ marker angles


def test_exact_angles_landmark():
    aset = exact_angles(10, 4.0, 1.0, j=0)
    assert isinstance(aset, ExactAngleSet)
    assert aset.angles.size == 9  # all of s = 1..9 reachable
    assert_allclose(aset.angles[aset.s_values == 5], np.pi / 6, rtol=1e-14)
    assert aset.window == (float(aset.angles[0]), float(aset.angles[-1]))


def test_exact_angles_filter_and_empty_set():
    # E0 = 0.1: arcsine argument 2*sqrt(10)*s/L > 1 for every s
    aset = exact_angles(5, 0.1, 1.0, j=0)
    assert aset.angles.size == 0
    assert aset.window is None
    # j = 1 at E0 = 5, L = 10: only low s survive
    aset = exact_angles(10, 5.0, 1.0, j=1)
    assert 0 < aset.angles.size < 9
    assert aset.window is None


def test_exact_angles_are_interference_zeros():
    # at theta_s the elastic transfer folds onto the momentum grid, where
    # the interference sum vanishes identically
    aset = exact_angles(10, 5.0, 1.0, j=0)
    for theta in aset.angles:
        kel = kappa_elastic(ProbeSpec(E0=5.0, theta=float(theta)))
        assert lattice_sum_sq(kel, 10) == pytest.approx(0.0, abs=1e-18)


# ----------------------------------------------------------- deviation map


def test_deviation_trivial_cases():
    grid = np.linspace(0.0, np.pi / 2, 10)
    fn = lambda t: np.sin(t) + 0.1
    assert deviation_delta_cs(fn, fn, grid) == 0.0
    assert_allclose(deviation_delta_cs(fn, lambda t: 2 * fn(t), grid), 1.0, rtol=1e-14)


def test_deviation_floor_excludes_forward_zero():
    grid = np.linspace(0.0, np.pi / 2, 10)
    ref = lambda t: np.sin(t)  # exactly zero at theta = 0
    val = deviation_delta_cs(ref, lambda t: 1.1 * np.sin(t), grid)
    assert_allclose(val, 0.1, rtol=1e-12)


def test_deviation_undefined_when_reference_vanishes():
    grid = np.linspace(0.0, np.pi / 2, 10)
    with pytest.raises(UndefinedDeviationError):
        deviation_delta_cs(lambda t: 0.0, lambda t: 1.0, grid)


def test_deviation_interior_minimum_in_interaction():
    # quasiparticle theory agrees best with the exact chain at intermediate
    # repulsion: the angle-averaged deviation dips at U/J = 5 between the
    # weaker and stronger couplings
    grid = np.linspace(0.0, np.pi / 2, 91)
    deltas = {}
    for u_over_j in (1.0, 5.0, 10.0):
        spec = LatticeSpec(L=5, n=2.0, U=u_over_j * J, J=J)
        spectrum = diagonalize(spec)
        state = solve_depletion(spec)
        exact_fn = lambda t: exact_cross_section(
            spectrum, spec, ProbeSpec(E0=2.0, theta=float(t))
        ).inelastic / spec.N
        bog_fn = lambda t: bog_inelastic_cs(state, ProbeSpec(E0=2.0, theta=float(t)), V0)
        deltas[u_over_j] = deviation_delta_cs(exact_fn, bog_fn, grid)
    assert deltas[5.0] < deltas[1.0]
    assert deltas[5.0] < deltas[10.0]


def test_slope_result_is_a_dataclass():
    result = slope_lambda(5, 2.0, 0.5)
    assert isinstance(result, SlopeResult)
