"""Kinematics, dispersion, form factors and the interference sum.

The Gaussian form-factor routines are checked against direct quadrature of
the underlying site orbital, and the interference sum against an explicit
complex phase sum, so the closed forms never certify themselves.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from latscat.errors import BadParameterError
from latscat.limits import mi_inelastic
from latscat.model import (
    DEFAULT_J,
    LatticeSpec,
    ProbeSpec,
    bloch_dispersion,
    fold_to_zone,
    form_factor,
    is_reciprocal,
    kappa_elastic,
    lattice_sum_sq,
    quasimomentum_grid,
)


def gaussian_orbital_sigma2(V0):
    # Ground-state variance of the harmonic expansion of a depth-V0 lattice
    # well in recoil units: sigma^2 = 1 / (2 pi^2 sqrt(V0)).
    return 1.0 / (2.0 * np.pi**2 * np.sqrt(V0))


def orbital(x, V0):
    s2 = gaussian_orbital_sigma2(V0)
    return (2.0 * np.pi * s2) ** -0.25 * np.exp(-(x**2) / (4.0 * s2))


def overlap_by_quadrature(kappa, V0, xa, xb, **options):
    """Numerically integrate w(x-xa) w(x-xb) e^{i kappa x} dx; options go to quad."""

    def integrand_re(x):
        return orbital(x - xa, V0) * orbital(x - xb, V0) * np.cos(kappa * x)

    def integrand_im(x):
        return orbital(x - xa, V0) * orbital(x - xb, V0) * np.sin(kappa * x)

    lo, hi = min(xa, xb) - 10.0, max(xa, xb) + 10.0
    re, _ = quad(integrand_re, lo, hi, limit=400, **options)
    im, _ = quad(integrand_im, lo, hi, limit=400, **options)
    return re + 1j * im


# ---------------------------------------------------------------- specs


def test_lattice_spec_validation():
    with pytest.raises(BadParameterError):
        LatticeSpec(L=1, n=1.0)
    with pytest.raises(BadParameterError):
        LatticeSpec(L=5.0, n=1.0)  # integer sites only
    with pytest.raises(BadParameterError):
        LatticeSpec(L=5, n=0.0)
    with pytest.raises(BadParameterError):
        LatticeSpec(L=5, n=1.0, U=-0.1)
    with pytest.raises(BadParameterError):
        LatticeSpec(L=5, n=1.0, J=0.0)
    with pytest.raises(BadParameterError):
        LatticeSpec(L=5, n=1.0, V0=-15.0)


def test_lattice_spec_particle_number_rounds():
    assert LatticeSpec(L=5, n=2.0).N == 10
    assert LatticeSpec(L=9, n=1.0).N == 9
    assert LatticeSpec(L=3, n=0.6).N == 2  # round(1.8)
    spec = LatticeSpec(L=3, n=0.6)
    assert spec.realized_n == pytest.approx(2.0 / 3.0)


def test_lattice_spec_dimensionless_interaction():
    spec = LatticeSpec(L=5, n=2.0, U=0.013, J=0.0065)
    assert spec.u_dimensionless == pytest.approx(4.0)


def test_probe_spec_validation():
    ProbeSpec(E0=2.0, theta=np.pi / 2)  # boundary angle is allowed
    with pytest.raises(BadParameterError):
        ProbeSpec(E0=0.0, theta=0.3)
    with pytest.raises(BadParameterError):
        ProbeSpec(E0=2.0, theta=1.8)
    with pytest.raises(BadParameterError):
        ProbeSpec(E0=2.0, theta=0.3, mass_ratio=0.0)


# ----------------------------------------------------- momenta and bands


def test_quasimomentum_grid_small_cases():
    assert_allclose(quasimomentum_grid(2), [np.pi])
    assert_allclose(quasimomentum_grid(4), [np.pi / 2, np.pi, 3 * np.pi / 2])
    grid = quasimomentum_grid(5)
    assert grid.shape == (4,)
    assert_allclose(grid[-1], 8 * np.pi / 5)
    assert np.all(grid > 0) and np.all(grid < 2 * np.pi)


def test_quasimomentum_grid_rejects_bad_sizes():
    with pytest.raises(BadParameterError):
        quasimomentum_grid(1)
    with pytest.raises(BadParameterError):
        quasimomentum_grid(4.0)


def test_bloch_dispersion_landmarks():
    assert bloch_dispersion(0.0, DEFAULT_J) == 0.0
    assert_allclose(bloch_dispersion(np.pi, DEFAULT_J), 4 * DEFAULT_J)
    assert_allclose(bloch_dispersion(np.pi / 2, 0.0065), 0.013)


def test_bloch_dispersion_symmetry_and_periodicity():
    rng = np.random.default_rng(7)
    q = rng.uniform(0, 2 * np.pi, size=64)
    assert_allclose(bloch_dispersion(q, 0.3), bloch_dispersion(2 * np.pi - q, 0.3), rtol=1e-12)
    assert_allclose(bloch_dispersion(q, 0.3), bloch_dispersion(q + 2 * np.pi, 0.3), rtol=1e-12)


def test_kappa_elastic_landmarks():
    assert kappa_elastic(ProbeSpec(E0=2.0, theta=0.0)) == 0.0
    assert_allclose(kappa_elastic(ProbeSpec(E0=1.0, theta=np.pi / 2)), -np.pi)
    assert_allclose(kappa_elastic(ProbeSpec(E0=4.0, theta=np.pi / 6)), -np.pi)
    # heavier probe (m/M = 4) doubles the transfer at fixed E0
    assert_allclose(
        kappa_elastic(ProbeSpec(E0=1.0, theta=np.pi / 2, mass_ratio=4.0)), -2 * np.pi
    )


# ------------------------------------------------------------ form factors


def test_form_factor_landmarks():
    assert form_factor(0.0, 15.0) == 1.0
    assert_allclose(form_factor(np.pi, 15.0), 0.9375, atol=5e-5)
    assert_allclose(form_factor(2 * np.pi, 15.0), 0.7724, atol=5e-5)
    # even in kappa
    assert form_factor(-1.3, 15.0) == form_factor(1.3, 15.0)


@pytest.mark.parametrize("kappa", [0.0, 1.3, np.pi, -2.7, 2 * np.pi])
@pytest.mark.parametrize("V0", [5.0, 15.0])
def test_form_factor_matches_orbital_quadrature(kappa, V0):
    numeric = overlap_by_quadrature(kappa, V0, 0.0, 0.0)
    assert abs(numeric.imag) < 1e-10
    assert_allclose(form_factor(kappa, V0), numeric.real, rtol=1e-8)


# The Wannier overlap of sites j and l, W_jl(kappa), has the magnitude
# |W(kappa)| exp(-(j-l)^2 pi^2 sqrt(V0)/4): mi_inelastic inlines the factor
# |W_jl(kappa)|^2 / |W(kappa)|^2 = exp(-(j-l)^2 pi^2 sqrt(V0)/2) of each pair.


def pair_factor(separation, V0):
    return np.exp(-(separation**2) * np.pi**2 * np.sqrt(V0) / 2.0)


def test_wannier_overlap_landmark_magnitudes():
    # neighbouring sites at V0 = 15: |W_{j,j+1}/W| ~ 7.1e-5, as mi_inelastic
    # weighs them: on two sites, the pair sum is 2 of these factors over L = 2
    probe = ProbeSpec(E0=2.0, theta=0.3)
    w2 = form_factor(kappa_elastic(probe), 15.0) ** 2
    factor = mi_inelastic(2, 1.0, probe.E0, probe.theta, 15.0) / (1 * 2 * w2)
    assert_allclose(np.sqrt(factor), 7.1e-5, rtol=5e-3)
    assert_allclose(factor, pair_factor(1, 15.0), rtol=1e-14)
    # two sites apart ~ 2.5e-17
    assert_allclose(np.sqrt(pair_factor(2, 15.0)), 2.5e-17, rtol=2e-2)


@pytest.mark.parametrize("kappa", [0.0, 1.3, -2.7])
@pytest.mark.parametrize("separation", [1, -1, 2])
def test_wannier_overlap_matches_orbital_quadrature(kappa, separation):
    # epsabs=0: two sites apart the overlap is ~1e-17, below quad's default
    # absolute tolerance
    pair = overlap_by_quadrature(kappa, 15.0, 0.0, float(separation), epsabs=0.0)
    onsite = overlap_by_quadrature(kappa, 15.0, 0.0, 0.0)
    assert_allclose(abs(pair) ** 2 / abs(onsite) ** 2, pair_factor(separation, 15.0), rtol=1e-6)


# ------------------------------------------------------ interference sum


def explicit_phase_sum_sq(k, L):
    j = np.arange(1, L + 1)
    return abs(np.sum(np.exp(1j * k * j))) ** 2


def test_lattice_sum_sq_landmarks():
    assert lattice_sum_sq(0.0, 7) == 49.0
    assert lattice_sum_sq(2 * np.pi, 5) == 25.0
    assert lattice_sum_sq(2 * np.pi / 5, 5) == pytest.approx(0.0, abs=1e-24)
    # just inside the singular window the coherent value is used
    assert lattice_sum_sq(2 * np.pi + 1e-12, 5) == 25.0


@pytest.mark.parametrize("L", [2, 3, 5, 8, 16, 33])
def test_lattice_sum_sq_matches_explicit_sum(L):
    rng = np.random.default_rng(1234 + L)
    ks = rng.uniform(-8.0, 8.0, size=40)
    for k in ks:
        if abs(np.sin(k / 2)) < 1e-6:
            continue
        assert_allclose(lattice_sum_sq(k, L), explicit_phase_sum_sq(k, L), rtol=1e-10)


def test_lattice_sum_sq_vectorized():
    k = np.array([0.0, 0.1, np.pi])
    out = lattice_sum_sq(k, 4)
    assert out.shape == (3,)
    assert out[0] == 16.0


@pytest.mark.parametrize("L", [3, 7, 20])
def test_lattice_sum_sq_zone_average_identity(L):
    # summing |Sigma|^2 over one zone's worth of shifts k - 2 pi t / L
    # always gives exactly L^2, for any k
    rng = np.random.default_rng(99)
    for k in rng.uniform(-5.0, 5.0, size=12):
        shifts = k - 2.0 * np.pi * np.arange(L) / L
        total = np.sum(lattice_sum_sq(shifts, L))
        assert_allclose(total, L * L, rtol=1e-9)


# ------------------------------------------------------------ zone helpers


def test_fold_to_zone():
    assert_allclose(fold_to_zone(-np.pi / 2), 3 * np.pi / 2)
    assert_allclose(fold_to_zone(5 * np.pi), np.pi)
    assert fold_to_zone(0.0) == 0.0


def test_is_reciprocal():
    assert is_reciprocal(0.0)
    assert is_reciprocal(2 * np.pi)
    assert is_reciprocal(-4 * np.pi)
    assert is_reciprocal(1e-10)
    assert not is_reciprocal(np.pi)
    assert not is_reciprocal(2 * np.pi / 5)
