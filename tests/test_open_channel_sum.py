"""The open-channel sums agree with their earlier, self-contained bodies.

exact_cross_section, bog_inelastic_cs, two_qp_contribution and slope_lambda
now sum through model.open_channel_sum, and largeL_sf_inelastic is
largeL_bog_cs at U = 0.  The references below are the bodies these
functions had before, copied verbatim, so each kept its own reciprocal
check, channel mask and kinematics.  Exact, Bogoliubov and slope values
must agree bit for bit, because the benchmark compares U = 0 identities
whose difference is rounding noise.  Two-quasiparticle emission went from a
masked 2-D sum to a 1-D one, and the large-L free gas gains a Jacobian
factor eps/omega = 1, so those two agree to rounding.  Low probe energies
close channels, which no golden dataset does.
"""
from functools import lru_cache

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from latscat.bogoliubov import (
    bog_inelastic_cs,
    solve_depletion,
    two_qp_contribution,
)
from latscat.exact import basis_dimension, diagonalize, exact_cross_section
from latscat.limits import (
    _kinematic_root,
    high_probe_energy,
    largeL_sf_inelastic,
    lattice_sum_sq_derivative,
    slope_lambda,
)
from latscat.model import (
    LatticeSpec,
    ProbeSpec,
    bloch_dispersion,
    form_factor,
    is_reciprocal,
    kappa_elastic,
    lattice_sum_sq,
    quasimomentum_grid,
)

J = 0.0065
V0 = 15.0
RTOL = 1e-13

u_over_j = st.one_of(st.just(0.0), st.floats(0.0, 300.0))
energies = st.floats(0.01, 6.0)
angles = st.one_of(st.just(0.0), st.floats(-np.pi / 2, np.pi / 2))
probes = st.lists(st.builds(ProbeSpec, E0=energies, theta=angles), min_size=1, max_size=4)


# ------------------------------------------------------------- references


def ref_exact_inelastic(spectrum, lattice, probe):
    table = spectrum.density_elements
    L = lattice.L
    x = np.arange(1, L + 1, dtype=float)
    kel = kappa_elastic(probe)

    dE = spectrum.eigenvalues - spectrum.ground_energy
    open_mask = dE < probe.E0
    open_mask[spectrum.ground_index] = False
    contributing = int(np.count_nonzero(open_mask))

    if is_reciprocal(kel) or contributing == 0:
        return 0.0, contributing

    weights = 1.0 - dE[open_mask] / probe.E0
    kappa_e = kel * np.sqrt(weights)
    phases = np.exp(1j * np.outer(kappa_e, x))
    amps = np.einsum("ej,ej->e", phases, table[open_mask])
    inelastic = float(
        np.sum(np.sqrt(weights) * form_factor(kappa_e, lattice.V0) ** 2 * np.abs(amps) ** 2)
    )
    return inelastic, contributing


def ref_bog_inelastic_cs(state, probe, V0):
    lattice = state.lattice
    kel = kappa_elastic(probe)
    if is_reciprocal(kel):
        return 0.0
    grid = quasimomentum_grid(lattice.L)
    eps = bloch_dispersion(grid, lattice.J)
    omega = state.omega_table
    open_mask = omega < probe.E0
    if not np.any(open_mask):
        return 0.0
    eps, omega, q = eps[open_mask], omega[open_mask], grid[open_mask]
    weight = 1.0 - omega / probe.E0
    kq = kel * np.sqrt(weight)
    contrib = (
        np.sqrt(weight)
        * (state.n0 / lattice.n)
        * (eps / omega)
        * lattice_sum_sq(kq - q, lattice.L)
        * form_factor(kq, V0) ** 2
    )
    return float(np.sum(contrib)) / lattice.L**2


def ref_pair_coupling(eps_q, eps_p, Un0, same_mode):
    omega_q = eps_q * np.sqrt(1.0 + 2.0 * Un0 / eps_q) if Un0 else eps_q
    omega_p = eps_p * np.sqrt(1.0 + 2.0 * Un0 / eps_p) if Un0 else eps_p
    numer = eps_q * eps_p + Un0 * (eps_q + eps_p) + 2.0 * Un0**2 - omega_q * omega_p
    return numer / ((1.0 + np.asarray(same_mode, dtype=float)) * omega_q * omega_p)


def ref_two_qp_contribution(state, probe, V0):
    lattice = state.lattice
    kel = kappa_elastic(probe)
    if is_reciprocal(kel):
        return 0.0
    L = lattice.L
    grid = quasimomentum_grid(L)
    eps = bloch_dispersion(grid, lattice.J)
    omega = state.omega_table

    eq = eps[:, None]
    ep = eps[None, :]
    osum = omega[:, None] + omega[None, :]
    open_mask = osum < probe.E0
    if not np.any(open_mask):
        return 0.0
    weight = np.where(open_mask, 1.0 - osum / probe.E0, 0.0)
    kpair = kel * np.sqrt(weight)
    qsum = grid[:, None] + grid[None, :]
    same = np.eye(L - 1, dtype=bool)
    f = ref_pair_coupling(eq, ep, state.Un0, same)
    contrib = np.where(
        open_mask,
        np.sqrt(weight) * f * lattice_sum_sq(kpair - qsum, L) * form_factor(kpair, V0) ** 2,
        0.0,
    )
    return float(np.sum(contrib)) / (2.0 * L**2)


def ref_slope_lambda(L, E0, theta, V0, mass_ratio, J):
    kel = kappa_elastic(ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio))
    if is_reciprocal(kel):
        return 0.0

    grid = quasimomentum_grid(L)
    eps = bloch_dispersion(grid, J)
    open_mask = eps < E0
    grid, eps = grid[open_mask], eps[open_mask]
    weight = np.sqrt(1.0 - eps / E0)
    kq = kel * weight
    sig2 = lattice_sum_sq(kq - grid, L)
    w2 = form_factor(kq, V0) ** 2
    G = sig2 * w2
    dG = lattice_sum_sq_derivative(kq - grid, L) * w2 + sig2 * (
        -kq / (np.pi**2 * np.sqrt(V0))
    ) * w2
    total = np.sum((2.0 * E0 - eps) / (eps * weight) * G + kel * dG)
    return J / (2.0 * L**2 * E0) * float(total)


def ref_largeL_sf_inelastic(E0, theta, V0, mass_ratio, J):
    kel = kappa_elastic(ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio))
    if is_reciprocal(kel):
        return 0.0
    if high_probe_energy(E0, J):
        return float(form_factor(kel, V0)) ** 2

    root = _kinematic_root(kel, E0, lambda q: float(bloch_dispersion(q, J)))
    if is_reciprocal(root):
        return 0.0
    eps = float(bloch_dispersion(root, J))
    if eps >= E0:
        return 0.0
    weight = np.sqrt(1.0 - eps / E0)
    denom = abs(1.0 + kel * J * np.sin(root) / (E0 * weight))
    return weight * float(form_factor(root, V0)) ** 2 / denom


# ------------------------------------------------------------------ tests


@lru_cache(maxsize=None)
def _spectrum(lattice):
    return diagonalize(lattice)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.integers(2, 8), N=st.integers(1, 8), u=u_over_j, probes=probes)
def test_exact_inelastic_sum_is_bit_identical(L, N, u, probes):
    assume(basis_dimension(N, L) <= 300)
    lattice = LatticeSpec(L=L, n=N / L, U=u * J, J=J, V0=V0)
    spectrum = _spectrum(lattice)
    for probe in probes:
        cs = exact_cross_section(spectrum, lattice, probe)
        assert (cs.inelastic, cs.contributing_states) == ref_exact_inelastic(
            spectrum, lattice, probe
        )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    L=st.integers(2, 60),
    n=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    u=u_over_j,
    probes=probes,
)
def test_quasiparticle_sums_match_their_references(L, n, u, probes):
    lattice = LatticeSpec(L=L, n=n, U=u * J, J=J, V0=V0)
    state = solve_depletion(lattice)
    eps = bloch_dispersion(quasimomentum_grid(L), J)
    Un0 = state.Un0
    omega = eps if Un0 == 0.0 else eps * np.sqrt(1.0 + 2.0 * Un0 / eps)
    assert np.array_equal(state.omega_table, omega)
    for p in probes:
        assert bog_inelastic_cs(state, p, V0) == ref_bog_inelastic_cs(state, p, V0)
        assert slope_lambda(L, p.E0, p.theta, V0, 1.0, J).lambda_ == ref_slope_lambda(
            L, p.E0, p.theta, V0, 1.0, J
        )
        assert_allclose(
            two_qp_contribution(state, p, V0),
            ref_two_qp_contribution(state, p, V0),
            rtol=RTOL,
            atol=0,
        )
        assert_allclose(
            largeL_sf_inelastic(p.E0, p.theta, V0, 1.0, J),
            ref_largeL_sf_inelastic(p.E0, p.theta, V0, 1.0, J),
            rtol=RTOL,
            atol=0,
        )
