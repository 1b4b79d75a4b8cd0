"""Fock basis, dense Bose-Hubbard spectra and the exact cross section.

Analytic landmarks (single-particle Bloch energies, free-gas ground energy,
atomic-limit product states) anchor the Hamiltonian; a second eigensolver
and an explicitly-built structure-factor sum serve as independent oracles.
"""
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from latscat import exact

from latscat.errors import (
    BadParameterError,
    CapacityError,
    DegenerateGroundStateError,
    NumericalError,
)
from latscat.exact import (
    ExactCrossSection,
    FockBasis,
    basis_dimension,
    build_hamiltonian,
    density_elements,
    diagonalize,
    enumerate_basis,
    exact_cross_section,
    full_spectrum,
)
from latscat.model import LatticeSpec, ProbeSpec, form_factor, kappa_elastic

J = 0.0065


# ----------------------------------------------------------------- basis


def test_basis_dimensions():
    assert basis_dimension(2, 2) == 3
    assert basis_dimension(5, 5) == 126
    assert basis_dimension(10, 5) == 1001


def test_enumerate_basis_counts_and_order():
    basis = enumerate_basis(2, 2)
    assert basis.dim == 3
    # lexicographic in the occupation vector
    assert [tuple(s) for s in basis.states] == [(0, 2), (1, 1), (2, 0)]
    big = enumerate_basis(5, 5)
    assert big.dim == 126
    order = [tuple(s) for s in big.states]
    assert order == sorted(order)


def test_enumerate_basis_on_a_long_chain():
    # one state per site, built without recursing once per site
    basis = enumerate_basis(1, 1500)
    assert basis.states.shape == (1500, 1500)
    assert np.array_equal(basis.states, np.eye(1500, dtype=np.int64)[::-1])
    assert basis.ranks(basis.states[-1]) == 1499


def test_enumerate_basis_index_roundtrip():
    basis = enumerate_basis(4, 3)
    for i, state in enumerate(basis.states):
        assert basis.ranks(state) == i
    assert np.all(basis.states.sum(axis=1) == 4)


def test_enumerate_basis_refuses_by_memory(monkeypatch):
    # dimension C(5,3) = 10: its arrays need about 5 * 8 * 10 * 3 = 1200 bytes
    monkeypatch.setattr(exact, "_available_bytes", lambda: 1199)
    with pytest.raises(
        CapacityError, match="N=3, L=3: basis enumeration of dimension 10 needs about 1200 bytes"
    ):
        enumerate_basis(3, 3)
    monkeypatch.setattr(exact, "_available_bytes", lambda: 1200)
    assert enumerate_basis(3, 3).dim == 10


@pytest.mark.parametrize("N, L", [(20000, 20000), (10**6, 10**6), (1, 10**9)])
@pytest.mark.parametrize("solve", [
    exact.require_capacity,
    enumerate_basis,
    lambda N, L: diagonalize(LatticeSpec(L=L, n=N / L)),
], ids=["require_capacity", "enumerate_basis", "diagonalize"])
def test_a_hopeless_lattice_is_refused_without_its_exact_binomial(monkeypatch, solve, N, L):
    def never(*args):
        raise AssertionError("an exact count was computed")

    monkeypatch.setattr(exact, "_available_bytes", lambda: 8 * 2**30)
    for name in ("basis_dimension", "orbit_count"):
        monkeypatch.setattr(exact, name, never)
    monkeypatch.setattr(exact.math, "comb", never)
    with pytest.raises(CapacityError, match=f"N={N}, L={L}: ") as refusal:
        solve(N, L)
    assert len(str(refusal.value)) < 200


def test_dense_memory_gate_comes_before_the_basis(monkeypatch):
    # dimension 3000 needs 180 MB dense; refused before its basis is built
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: 2**20)

    def never(N, L):
        raise AssertionError("the basis was built before the gate")

    monkeypatch.setattr("latscat.exact.enumerate_basis", never)
    with pytest.raises(CapacityError, match="N=1, L=3000: dense diagonalization"):
        diagonalize(LatticeSpec(L=3000, n=1 / 3000))


def test_enumerate_basis_bad_parameters():
    with pytest.raises(BadParameterError):
        enumerate_basis(0, 4)
    with pytest.raises(BadParameterError):
        enumerate_basis(3, 1)


# ------------------------------------------------------------ Hamiltonian


def test_single_particle_spectrum_is_bloch():
    basis = enumerate_basis(1, 3)
    H = build_hamiltonian(basis, J=J, U=123.0)  # U irrelevant for one particle
    w = np.linalg.eigvalsh(H)
    assert_allclose(w, [-2 * J, J, J], atol=1e-14)


def test_free_gas_ground_energy():
    # U=0: all N bosons condense into the q=0 Bloch state of energy -2J
    for N, L in [(3, 4), (5, 5)]:
        basis = enumerate_basis(N, L)
        H = build_hamiltonian(basis, J=J, U=0.0)
        w = np.linalg.eigvalsh(H)
        assert_allclose(w[0], -2 * J * N, rtol=1e-12)


def test_atomic_limit_unit_filling():
    # J=0 at unit filling: Fock product ground state, energy 0, gap U
    basis = enumerate_basis(4, 4)
    H = build_hamiltonian(basis, J=0.0, U=0.7)
    w = np.linalg.eigvalsh(H)
    assert_allclose(w[0], 0.0, atol=1e-15)
    assert_allclose(w[1] - w[0], 0.7, rtol=1e-12)


def test_hamiltonian_is_bitwise_symmetric():
    basis = enumerate_basis(3, 4)
    H = build_hamiltonian(basis, J=J, U=2 * J)
    assert np.array_equal(H, H.T)


def test_hamiltonian_rejects_negative_couplings():
    # and non-finite ones, where they enter; J = 0 is the atomic limit
    basis = enumerate_basis(2, 3)
    for bad in [-1.0, np.nan, np.inf]:
        with pytest.raises(BadParameterError, match="tunneling"):
            build_hamiltonian(basis, J=bad, U=0.0)
        with pytest.raises(BadParameterError, match="interaction"):
            build_hamiltonian(basis, J=1.0, U=bad)


# --------------------------------------------------------------- spectrum


def test_hamiltonian_refuses_a_basis_whose_dense_solve_would_not_fit(monkeypatch):
    basis = enumerate_basis(3, 3)  # dimension 10: about 2.5 * 8 * 10^2 = 2000 bytes
    monkeypatch.setattr(exact, "_available_bytes", lambda: 1999)
    with pytest.raises(CapacityError, match="dimension 10 needs about 2000 bytes.* 1999 bytes"):
        build_hamiltonian(basis, J, 0.0)
    monkeypatch.setattr(exact, "_available_bytes", lambda: 2000)
    assert build_hamiltonian(basis, J, 0.0).shape == (10, 10)


def test_memory_gate_is_skipped_where_available_memory_is_unknown(monkeypatch):
    monkeypatch.setattr(exact, "_available_bytes", lambda: None)
    assert build_hamiltonian(enumerate_basis(3, 3), J, 0.0).shape == (10, 10)


def test_available_memory_reads_none_without_meminfo():
    # and without the physical memory of os.sysconf
    with mock.patch("builtins.open", side_effect=OSError("no such file")):
        with mock.patch("os.sysconf", side_effect=ValueError("unknown name")):
            assert exact._available_bytes() is None
    available = exact._available_bytes()
    assert available is None or available > 0


def test_available_memory_falls_back_to_the_physical_memory():
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    with mock.patch("builtins.open", side_effect=OSError("no such file")):
        assert exact._available_bytes() == physical > 0


def test_full_spectrum_against_second_solver():
    basis = enumerate_basis(2, 3)
    H = build_hamiltonian(basis, J=J, U=J)
    result = full_spectrum(H)
    w_numpy = np.linalg.eigvalsh(H)  # independent LAPACK driver path
    assert_allclose(result.eigenvalues, w_numpy, atol=1e-10)
    assert result.ground_index == 0
    assert result.ground_energy == result.eigenvalues[0]
    assert np.all(np.diff(result.eigenvalues) >= 0)


def test_full_spectrum_flags_degenerate_ground_state():
    with pytest.raises(DegenerateGroundStateError):
        full_spectrum(np.diag([1.0, 1.0, 2.0]))


def test_full_spectrum_trivial_matrix():
    result = full_spectrum(np.array([[3.5]]))
    assert result.eigenvalues[0] == 3.5


# ------------------------------------------------------- in-place solve


@pytest.fixture
def eigh_inputs(monkeypatch):
    """Spy on scipy.linalg.eigh: (matrix, overwrite_a) of each call, in order."""
    solve, seen = scipy.linalg.eigh, []

    def spy(a, *args, **kwargs):
        seen.append((a, kwargs.get("overwrite_a", False)))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return seen


def test_full_spectrum_solves_in_H_and_leaves_it_bit_identical(eigh_inputs):
    basis = enumerate_basis(6, 4)
    H = build_hamiltonian(basis, J=J, U=1.7 * J)
    before = H.copy()
    result = full_spectrum(H)
    a, overwrite = eigh_inputs[0]
    assert overwrite and np.shares_memory(a, H)  # no dim x dim copy
    assert np.array_equal(H, before)
    w, V = scipy.linalg.eigh(before)
    assert np.array_equal(result.eigenvalues, w) and np.array_equal(result.eigenvectors, V)


def test_full_spectrum_restores_H_when_the_solve_raises(monkeypatch):
    # the fake spoils what LAPACK may destroy, its input's lower triangle with
    # the diagonal (H's upper triangle), and fails
    def spoil(a, *args, lower=True, **kwargs):
        assert kwargs.get("overwrite_a") and lower
        a[np.tril_indices(a.shape[0])] = np.nan
        raise np.linalg.LinAlgError("the solve failed")

    monkeypatch.setattr(scipy.linalg, "eigh", spoil)
    H = build_hamiltonian(enumerate_basis(3, 5), J=J, U=J)  # dimension 35: several strips
    before = H.copy()
    with pytest.raises(np.linalg.LinAlgError, match="the solve failed"):
        full_spectrum(H)
    assert np.array_equal(H, before)


def _read_only(H):
    H.flags.writeable = False
    return H


@pytest.mark.parametrize("make", [
    _read_only, np.asfortranarray, lambda H: H.astype(np.float32),
], ids=["read-only", "F-ordered", "float32"])
def test_a_matrix_that_cannot_be_solved_in_place_is_refused(eigh_inputs, make):
    # full_spectrum makes no copy: such a matrix is refused before any solve
    H = make(build_hamiltonian(enumerate_basis(3, 4), J=J, U=0.6 * J))
    before = H.copy()
    with pytest.raises(BadParameterError, match="writeable, C-contiguous float64"):
        full_spectrum(H)
    assert not eigh_inputs
    assert np.array_equal(H, before) and H.dtype == before.dtype


def _one_ulp_off(H):
    H[0, 1] = np.nextafter(H[0, 1], np.inf)
    return H


@pytest.mark.parametrize("make, match", [
    (_one_ulp_off, "exactly symmetric"),
    (lambda H: H.astype(complex), "must be real"),
    (lambda H: H[:, 1:], "must be square"),
], ids=["not-symmetric", "complex", "not-square"])
def test_a_matrix_that_is_not_real_square_and_symmetric_is_refused(eigh_inputs, make, match):
    H = make(build_hamiltonian(enumerate_basis(3, 4), J=J, U=0.6 * J))
    before = H.copy()
    with pytest.raises(BadParameterError, match=match):
        full_spectrum(H)
    assert not eigh_inputs
    assert np.array_equal(H, before)


@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_an_exactly_symmetric_matrix_with_an_infinity_is_refused(eigh_inputs, where):
    # the solve skips SciPy's finiteness pass: H's sparse copy is read instead
    H = build_hamiltonian(enumerate_basis(3, 4), J=J, U=0.6 * J)
    H[where] = H[where[::-1]] = -np.inf
    before = H.copy()
    with pytest.raises(BadParameterError, match="finite"):
        full_spectrum(H)
    assert not eigh_inputs
    assert np.array_equal(H, before)


def test_full_spectrum_refuses_by_memory_before_any_dense_allocation(monkeypatch):
    # it needs 8 * 300^2 bytes of eigenvectors and 36 per nonzero of the sparse copy
    A = np.random.default_rng(7).standard_normal((300, 300))
    A = A + A.T
    monkeypatch.setattr(exact, "_available_bytes", lambda: 8 * 300 * 300 + 36 * A.size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="dimension 300 with 90000 nonzeros"):
            full_spectrum(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 300 * 300 // 10
    # one byte more solves it
    monkeypatch.setattr(exact, "_available_bytes", lambda: 8 * 300 * 300 + 36 * A.size)
    assert full_spectrum(A).eigenvalues.size == 300


def test_a_hamiltonian_that_diagonalize_admits_passes_the_gate_of_full_spectrum(monkeypatch):
    H = build_hamiltonian(enumerate_basis(10, 5), J, 0.9 * J)  # dimension 1001
    assert full_spectrum(H).eigenvalues.size == 1001  # the memory of this machine
    monkeypatch.setattr(exact, "_available_bytes", lambda: exact.dense_bytes(1001))
    assert full_spectrum(H).eigenvalues.size == 1001  # the least diagonalize admits


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    L=st.integers(2, 7),
    N=st.integers(1, 6),
    u_over_j=st.one_of(st.just(0.0), st.floats(0.01, 30.0)),
)
def test_in_place_solve_is_scipy_on_a_copy_bit_for_bit(L, N, u_over_j):
    basis = enumerate_basis(N, L)
    assume(basis.dim <= 300)
    U = u_over_j * J
    H = build_hamiltonian(basis, J, U)
    source, target, root = exact._hops(basis, np.arange(basis.dim))
    hop = np.zeros((basis.dim, basis.dim))
    np.add.at(hop, (target, source), -J * root)
    reference = hop + hop.T
    reference[np.diag_indices(basis.dim)] += 0.5 * U * np.sum(basis.states * (basis.states - 1), axis=1)
    assert np.array_equal(H, reference)

    w, V = scipy.linalg.eigh(H.copy())
    result = full_spectrum(H)
    assert np.array_equal(result.eigenvalues, w) and np.array_equal(result.eigenvectors, V)
    assert np.array_equal(H, reference)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    L=st.integers(2, 7),
    N=st.integers(1, 6),
    u_over_j=st.one_of(st.just(0.0), st.floats(0.01, 30.0)),
)
def test_the_sparse_residual_is_the_dense_product_to_rounding(L, N, u_over_j):
    # full_spectrum takes its residual from the sparse copy of H; the dense
    # product H @ V of the same eigenpairs gives the same number to rounding
    basis = enumerate_basis(N, L)
    assume(basis.dim <= 300)
    H = build_hamiltonian(basis, J, u_over_j * J)
    result = full_spectrum(H)
    w = result.eigenvalues
    dense = exact._worst_residual(H, result.eigenvectors, w) / max(abs(w[0]), abs(w[-1]))
    assert abs(result.residual - dense) <= 1e-14


def test_a_perturbed_eigenpair_is_still_refused(monkeypatch):
    solve = scipy.linalg.eigh

    def shifted(a, *args, **kwargs):
        w, V = solve(a, *args, **kwargs)
        w[w.size // 2] += 1e-6 * max(abs(w[0]), abs(w[-1]))
        return w, V

    monkeypatch.setattr(scipy.linalg, "eigh", shifted)
    H = build_hamiltonian(enumerate_basis(4, 4), J=J, U=1.3 * J)
    before = H.copy()
    with pytest.raises(NumericalError, match="eigenpair residual"):
        full_spectrum(H)
    assert np.array_equal(H, before)


@pytest.mark.parametrize("N, L", [(10, 5), (7, 7)])  # dimensions 1001 and 1716
def test_dense_memory_gate_is_the_measured_peak(N, L):
    # the gate's DENSE_MATRICES is a measured count, neither far above nor below
    dim = basis_dimension(N, L)
    lattice = LatticeSpec(L=L, n=N / L, U=0.9 * J, J=J)
    tracemalloc.start()
    try:
        diagonalize(lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.8 * exact.dense_bytes(dim) <= peak <= exact.dense_bytes(dim)


# -------------------------------------------------------- density elements


def test_ground_density_sums_to_particle_number():
    spec = LatticeSpec(L=4, n=1.0, U=J, J=J)
    result = diagonalize(spec)
    row = result.density_elements[result.ground_index]
    assert_allclose(np.sum(row), 4.0, atol=1e-10)
    assert_allclose(row, 1.0, atol=1e-10)  # N/L at every site


def test_atomic_limit_density_elements_vanish():
    # J=0 unit filling: the ground state is a single Fock state, so every
    # off-ground matrix element of the (diagonal) density operator is zero.
    basis = enumerate_basis(4, 4)
    H = build_hamiltonian(basis, J=0.0, U=1.0)
    result = full_spectrum(H)
    table = density_elements(result, basis)
    off = np.delete(table, result.ground_index, axis=0)
    assert np.max(np.abs(off)) < 1e-12


def test_density_elements_requires_vectors():
    result = full_spectrum(np.diag([0.0, 1.0, 2.0]))
    result.eigenvectors = None
    with pytest.raises(BadParameterError):
        density_elements(result, enumerate_basis(2, 2))


# ------------------------------------------------------ cross section


def condensate_inelastic_per_particle(L, E0, theta, V0, J):
    """Independent evaluation of the free-gas inelastic formula.

    Built from explicit phase sums rather than the library's closed-form
    interference sum, so it can serve as an oracle.
    """
    kel = -np.pi * np.sin(theta) * np.sqrt(E0)
    sites = np.arange(1, L + 1)
    total = 0.0
    for s in range(1, L):
        q = 2 * np.pi * s / L
        eps = 4 * J * np.sin(q / 2) ** 2
        if eps >= E0:
            continue
        root = np.sqrt(1 - eps / E0)
        kq = kel * root
        sigma = np.sum(np.exp(1j * (kq - q) * sites))
        w = np.exp(-(kq**2) / (4 * np.pi**2 * np.sqrt(V0)))
        total += root * abs(sigma) ** 2 * w**2
    return total / L**2


def test_exact_cross_section_free_gas_matches_independent_formula():
    spec = LatticeSpec(L=5, n=1.0, U=0.0, J=J)
    result = diagonalize(spec)
    for theta in [np.pi / 4, 0.3, 1.1]:
        probe = ProbeSpec(E0=2.0, theta=theta)
        cs = exact_cross_section(result, spec, probe)
        oracle = condensate_inelastic_per_particle(5, 2.0, theta, spec.V0, J)
        assert_allclose(cs.inelastic / spec.N, oracle, rtol=1e-8)


def test_exact_elastic_free_gas_is_coherent_peak():
    spec = LatticeSpec(L=5, n=1.0, U=0.0, J=J)
    result = diagonalize(spec)
    sites = np.arange(1, 6)
    for theta in [0.0, np.pi / 4, 0.9]:
        probe = ProbeSpec(E0=2.0, theta=theta)
        cs = exact_cross_section(result, spec, probe)
        kel = kappa_elastic(probe)
        sigma2 = abs(np.sum(np.exp(1j * kel * sites))) ** 2
        expected = (spec.N**2 / 25) * sigma2 * form_factor(kel, spec.V0) ** 2
        assert_allclose(cs.elastic, expected, rtol=1e-10, atol=1e-20)


def test_inelastic_exactly_zero_at_forward_angle():
    spec = LatticeSpec(L=4, n=1.0, U=5 * J, J=J)
    result = diagonalize(spec)
    cs = exact_cross_section(result, spec, ProbeSpec(E0=2.0, theta=0.0))
    assert cs.inelastic == 0.0
    assert cs.elastic > 0


def test_inelastic_exactly_zero_at_reciprocal_transfer():
    # pick theta so that kappa_el = -2*pi exactly
    spec = LatticeSpec(L=4, n=1.0, U=J, J=J)
    result = diagonalize(spec)
    E0 = 9.0
    theta = float(np.arcsin(2 * np.pi / (np.pi * np.sqrt(E0))))
    cs = exact_cross_section(result, spec, ProbeSpec(E0=E0, theta=theta))
    assert cs.inelastic == 0.0


def test_contributing_states_filter():
    spec = LatticeSpec(L=3, n=1.0, U=J, J=J)
    result = diagonalize(spec)
    wide = exact_cross_section(result, spec, ProbeSpec(E0=1e6, theta=0.4))
    assert wide.contributing_states == result.eigenvalues.size - 1
    # probe too soft to excite anything: the lowest excitation is ~J
    narrow = exact_cross_section(result, spec, ProbeSpec(E0=1e-6, theta=0.4))
    assert narrow.contributing_states == 0
    assert narrow.inelastic == 0.0


def test_monotone_decay_with_interaction():
    # at fixed angle the inelastic signal decreases as repulsion grows
    spec0 = LatticeSpec(L=5, n=2.0, U=0.0, J=J)
    probe = ProbeSpec(E0=2.0, theta=np.pi / 4)
    values = []
    for u in [0.01, 0.1, 1.0, 5.0, 10.0, 20.0]:
        spec = LatticeSpec(L=5, n=2.0, U=u * J / 2.0, J=J)  # U = u*J/n
        result = diagonalize(spec)
        values.append(exact_cross_section(result, spec, probe).inelastic)
    assert spec0.N == 10
    assert np.all(np.diff(values) < 0)


def test_strong_repulsion_suppresses_inelastic():
    # deep repulsive side at unit filling: inelastic all but vanishes
    spec = LatticeSpec(L=5, n=1.0, U=1e4 * J, J=J)
    result = diagonalize(spec)
    probe = ProbeSpec(E0=2.0, theta=np.pi / 4)
    cs = exact_cross_section(result, spec, probe)
    w2 = form_factor(kappa_elastic(probe), spec.V0) ** 2
    assert cs.inelastic / spec.N < 1e-3 * w2


def test_sum_rule_all_channels_open():
    # with every weight set to one, completeness ties the excited-state sum
    # to two ground-state expectation values of the phase-weighted density
    spec = LatticeSpec(L=4, n=1.0, U=J, J=J)
    basis = enumerate_basis(4, 4)
    H = build_hamiltonian(basis, J=J, U=J)
    result = full_spectrum(H)
    V = result.eigenvectors
    g = V[:, 0]
    rng = np.random.default_rng(2024)
    sites = np.arange(1, 5)
    for kappa in rng.uniform(-3 * np.pi, 3 * np.pi, size=10):
        a_diag = basis.states @ np.exp(1j * kappa * sites)  # A|F> = a_F |F>
        proj = V.T @ (a_diag * g)
        lhs = np.sum(np.abs(proj[1:]) ** 2)
        rhs = np.sum(np.abs(a_diag) ** 2 * g**2) - abs(proj[0]) ** 2
        assert_allclose(lhs, rhs, rtol=1e-8)


def test_cross_section_rejects_mismatched_lattice():
    spec4 = LatticeSpec(L=4, n=1.0, U=J, J=J)
    result = diagonalize(spec4)
    spec5 = LatticeSpec(L=5, n=1.0, U=J, J=J)
    with pytest.raises(BadParameterError):
        exact_cross_section(result, spec5, ProbeSpec(E0=2.0, theta=0.3))
