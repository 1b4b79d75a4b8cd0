"""Acceptance gate: one pass/fail line per shipped guarantee.

Each checker below pins a quantitative contract of the library at desk
scale.  Three of them (06, 07, 11) encode idealized reference values that
the implemented formulas reach only asymptotically; they are kept at their
nominal tolerances and fail with the measured deviation in the message
rather than being loosened to pass.  The asymptotic regimes themselves are
verified by companion tests in test_limits.py and test_bogoliubov.py.
"""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latscat import LatticeSpec, ProbeSpec
from latscat.bogoliubov import (
    bog_inelastic_cs,
    solve_depletion,
    two_qp_contribution,
)
from latscat.exact import diagonalize, exact_cross_section
from latscat.limits import (
    exact_angles,
    fit_small_u_slope,
    largeL_bog_cs,
    largeL_sf_inelastic,
    mi_inelastic,
    sf_inelastic,
    slope_lambda,
)
from latscat.model import DEFAULT_J, DEFAULT_V0, form_factor, kappa_elastic

J = DEFAULT_J
V0 = DEFAULT_V0


def _lattice(L, n, u):
    """Lattice at dimensionless interaction u = U n / J."""
    return LatticeSpec(L=L, n=n, U=u * J / n)


def criterion_01_depletion_reference_points():
    # (L, n, U, expected depletion fraction)
    cases = [
        (100, 1.0, 0.02 * J, 0.012),
        (10, 10.0, 2.0 * J, 0.080),
        (100, 5.0, 0.5 * J, 0.098),
        (1000, 1.0, 0.01 * J, 0.027),
        (100, 5.0, 0.01 * J, 5e-3),
        (1000, 50.0, J / 50.0, 0.011),  # u = 1
        (100, 5.0, J / 5.0, 0.054),  # u = 1
    ]
    for L, n, U, expected in cases:
        state = solve_depletion(LatticeSpec(L=L, n=n, U=U))
        got = state.depletion_fraction
        assert got == pytest.approx(expected, abs=1.5e-3), (
            f"depletion at L={L}, n={n}, U/J={U / J:g}: "
            f"got {got:.4f}, expected {expected}"
        )


def criterion_02_interaction_free_equivalence():
    thetas = np.linspace(0.0, np.pi / 2, 181)
    for L in (5, 100):
        state = solve_depletion(LatticeSpec(L=L, n=1.0, U=0.0))
        for theta in thetas:
            probe = ProbeSpec(E0=2.0, theta=float(theta))
            bog = bog_inelastic_cs(state, probe, V0)
            sf = sf_inelastic(L, 2.0, float(theta))
            if sf == 0.0:
                assert bog == 0.0
            else:
                assert abs(bog - sf) <= 1e-12 * sf, (
                    f"L={L}, theta={theta}: bog={bog!r} vs sf={sf!r}"
                )


def criterion_03_exact_oracle_at_zero_interaction():
    thetas = np.linspace(0.0, np.pi / 2, 20)
    for N in (5, 10):
        lattice = LatticeSpec(L=5, n=N / 5.0, U=0.0)
        spectrum = diagonalize(lattice)
        for theta in thetas:
            probe = ProbeSpec(E0=2.0, theta=float(theta))
            per_particle = exact_cross_section(spectrum, lattice, probe).inelastic / N
            reference = sf_inelastic(5, 2.0, float(theta))
            assert_allclose(
                per_particle,
                reference,
                rtol=1e-8,
                atol=0.0,
                err_msg=f"N={N}, theta={theta}",
            )


def criterion_04_interaction_decay_desk_scale():
    probe = ProbeSpec(E0=2.0, theta=np.pi / 4)
    exact_curve, bog_curve = [], []
    grid = (0.1, 1.0, 5.0, 10.0, 20.0)
    for u in grid:
        lattice = _lattice(5, 2.0, u)
        spectrum = diagonalize(lattice)
        exact_curve.append(exact_cross_section(spectrum, lattice, probe).inelastic / lattice.N)
        state = solve_depletion(lattice)
        bog_curve.append(bog_inelastic_cs(state, probe, V0))
    assert all(a > b for a, b in zip(exact_curve, exact_curve[1:])), exact_curve
    assert all(a > b for a, b in zip(bog_curve, bog_curve[1:])), bog_curve
    for u, ex, bog in zip(grid, exact_curve, bog_curve):
        if u <= 10.0:
            rel = abs(bog - ex) / ex
            assert rel < 0.10, f"u={u}: relative gap {rel:.4f}"


def _fitted_bog_slope(L, n, E0, theta):
    grid = np.linspace(1e-4, 1e-2, 21)
    values = []
    for u in grid:
        state = solve_depletion(_lattice(L, n, float(u)))
        values.append(bog_inelastic_cs(state, ProbeSpec(E0=E0, theta=theta), V0))
    return fit_small_u_slope(grid, np.array(values))


def criterion_05_linear_decay_slope():
    theta = np.pi / 4
    slope_n2 = _fitted_bog_slope(5, 2.0, 2.0, theta)
    reference = slope_lambda(5, 2.0, theta)
    assert_allclose(slope_n2, -reference.lambda_, rtol=1e-3)
    slope_n5 = _fitted_bog_slope(5, 5.0, 2.0, theta)
    assert_allclose(slope_n2, slope_n5, rtol=1e-8)


def criterion_06_large_lattice_slope():
    theta, E0 = 0.7, 5.0
    fitted = -_fitted_bog_slope(1000, 50.0, E0, theta)
    kel = kappa_elastic(ProbeSpec(E0=E0, theta=theta))
    reference = form_factor(kel, V0) ** 2 / (4.0 * math.sin(kel / 2.0) ** 2)
    rel = (fitted - reference) / reference
    assert abs(rel) <= 0.01, (
        f"fitted slope {fitted:.6f} vs infinite-lattice reference "
        f"{reference:.6f} ({rel:+.1%}): the self-consistent condensate "
        f"fraction at L=1000 carries an infrared sqrt(u) correction that "
        f"contributes to the fit at the same order as the linear term; the "
        f"reference is recovered to 3e-10 once the condensate fraction is "
        f"frozen (see the frozen-condensate companion test in test_limits)"
    )


def criterion_07_interference_marker_angles():
    L, E0 = 10, 5.0
    worst = (0.0, None, None)
    count = 0
    for j in range(4):
        for theta in exact_angles(L, E0, 1.0, j):
            finite = sf_inelastic(L, E0, float(theta))
            asymptotic = largeL_sf_inelastic(E0, float(theta))
            rel = abs(asymptotic - finite) / finite
            count += 1
            if rel > worst[0]:
                worst = (rel, j, float(theta))
    assert count > 0
    assert worst[0] <= 1e-10, (
        f"worst marker deviation {worst[0]:.3e} at j={worst[1]}, "
        f"theta={worst[2]:.6f} (tolerance 1e-10): at these angles the "
        f"interference factor is stationary but the kinematic back-action "
        f"denominator of the infinite-lattice form stays O(J/E0) away from "
        f"unity, so the two expressions coincide only in the high-probe-"
        f"energy regime (exact identity verified there in test_limits)"
    )


def criterion_08_structure_factor_sum_rule():
    lattice = LatticeSpec(L=4, n=1.0, U=J)
    spectrum = diagonalize(lattice)
    from latscat.exact import enumerate_basis

    basis = enumerate_basis(4, 4)
    V = spectrum.eigenvectors
    g = V[:, spectrum.ground_index]
    sites = np.arange(1, 5)
    rng = np.random.default_rng(808)
    for kappa in rng.uniform(-3 * np.pi, 3 * np.pi, size=10):
        a_diag = basis.states @ np.exp(1j * kappa * sites)
        ground_amp = a_diag * g
        projections = V.T @ ground_amp
        projections[spectrum.ground_index] = 0.0
        lhs = float(np.sum(np.abs(projections) ** 2))
        mean = complex(g @ ground_amp)
        rhs = float(g @ (np.abs(a_diag) ** 2 * g)) - abs(mean) ** 2
        assert_allclose(lhs, rhs, rtol=1e-8, err_msg=f"kappa={kappa}")


def criterion_09_reciprocal_vector_zeros():
    # forward direction, and two distinct realizations of kappa_el = -2 pi
    bragg_probes = [
        ProbeSpec(E0=2.0, theta=0.0),
        ProbeSpec(E0=9.0, theta=math.asin(2.0 / 3.0)),
        ProbeSpec(E0=4.0, theta=np.pi / 2),
    ]
    lattice = _lattice(4, 1.0, 1.0)
    spectrum = diagonalize(lattice)
    state = solve_depletion(lattice)
    for probe in bragg_probes:
        kel = kappa_elastic(probe)
        assert abs(math.sin(kel / 2.0)) < 1e-9  # sanity: on a reciprocal vector
        values = {
            "exact": exact_cross_section(spectrum, lattice, probe).inelastic,
            "bogoliubov": bog_inelastic_cs(state, probe, V0),
            "two-qp": two_qp_contribution(state, probe, V0),
            "sf-limit": sf_inelastic(4, probe.E0, probe.theta),
            "mi-limit": mi_inelastic(4, 1.0, probe.E0, probe.theta, U=J),
            "largeL-sf": largeL_sf_inelastic(probe.E0, probe.theta),
            "largeL-bog": largeL_bog_cs(state, probe, V0),
        }
        for name, value in values.items():
            assert value == 0.0, f"{name} at theta={probe.theta}: {value!r}"


def criterion_10_two_quasiparticle_scaling():
    probe = ProbeSpec(E0=2.0, theta=0.7)
    totals = {}
    for n in (1.0, 2.0):
        lattice = _lattice(20, n, 1.0)
        state = solve_depletion(lattice)
        one_qp_total = lattice.N * bog_inelastic_cs(state, probe, V0)
        totals[n] = (one_qp_total, two_qp_contribution(state, probe, V0))
    ratio = totals[2.0][0] / totals[1.0][0]
    assert abs(ratio - 2.0) <= 0.05 * 2.0, f"one-QP doubling ratio {ratio:.4f}"
    drift = abs(totals[2.0][1] - totals[1.0][1]) / totals[1.0][1]
    assert drift < 0.20, f"two-QP term drifted by {drift:.4f}"


def criterion_11_depletion_quadratic_coefficient():
    worst = (0.0, None, None)
    for L, N in ((5, 20), (9, 9)):
        n = N / L
        alpha = (L**4 + 10 * L**2 - 11) / (2880.0 * N)
        for u in (0.05, 0.1, 0.2):
            state = solve_depletion(_lattice(L, n, u))
            quadratic = alpha * u**2
            rel = abs(state.depletion_fraction - quadratic) / quadratic
            if rel > worst[0]:
                worst = (rel, (L, N), u)
    assert worst[0] <= 0.05, (
        f"worst quadratic-law deviation {worst[0]:.1%} at (L, N)={worst[1]}, "
        f"u={worst[2]} (tolerance 5%): the quadratic coefficient is the "
        f"u -> 0 limit of the solver and the next-order correction is "
        f"already this large at u = 0.2; the asymptote itself is verified "
        f"at u <= 1e-2 in test_bogoliubov"
    )


_CRITERIA = [
    criterion_01_depletion_reference_points,
    criterion_02_interaction_free_equivalence,
    criterion_03_exact_oracle_at_zero_interaction,
    criterion_04_interaction_decay_desk_scale,
    criterion_05_linear_decay_slope,
    criterion_06_large_lattice_slope,
    criterion_07_interference_marker_angles,
    criterion_08_structure_factor_sum_rule,
    criterion_09_reciprocal_vector_zeros,
    criterion_10_two_quasiparticle_scaling,
    criterion_11_depletion_quadratic_coefficient,
]


@pytest.mark.parametrize(
    "check", _CRITERIA, ids=lambda fn: fn.__name__.replace("_", "-")
)
def test_acceptance(check):
    check()
