"""The momentum-sector solver against the dense oracle and the sum rules.

exact.sector_spectrum solves a lattice in its sectors K = 2 pi m / L, each
block real, and returns one channel (energy, K, weight) per eigenstate,
which is how every scan run solves; diagonalize (build_hamiltonian,
full_spectrum, density_elements) stays dense and is the oracle here.  Past
the oracle's sizes the f-sum rule and the zeroth moment, which every sector
solve checks, are the oracle: mutated copies of the solver must fail them.
The two solvers share one hop enumeration, so the dense matrix is also
pinned, bit for bit, against the row-by-row loop it replaced.
"""
import inspect
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latscat import exact
from latscat.errors import BadParameterError, CapacityError, NumericalError
from latscat.exact import (
    basis_dimension,
    build_hamiltonian,
    diagonalize,
    enumerate_basis,
    exact_cross_section,
    exact_inelastic_curve,
    orbit_count,
    sector_spectrum,
)
from latscat.model import LatticeSpec, ProbeSpec
from latscat.scans import ScanConfig, cache_path, cache_spectra, load_spectrum, run

J = 0.0065
V0 = 15.0

# Cross sections agree to REL_TOL of their size, or to FLOOR of the forward
# elastic peak N^2 |W(0)|^2 = N^2 where a channel's lattice phases nearly
# cancel (a destructive-interference zero carries only rounding).
REL_TOL = 1e-11
FLOOR = 1e-14


def row_loop_hamiltonian(basis, J, U):
    """The dense matrix as it was built before the hop enumeration: row by row."""
    dim, L = basis.states.shape
    hop = np.zeros((dim, dim))
    for row, occ in enumerate(basis.states):
        for j in range(L):
            l = (j + 1) % L
            nj = occ[j]
            if nj == 0:
                continue
            target = occ.copy()
            target[j] -= 1
            target[l] += 1
            hop[basis.ranks(target), row] += -J * math.sqrt(nj * (occ[l] + 1))
    H = hop + hop.T
    H[np.diag_indices(dim)] += 0.5 * U * np.sum(basis.states * (basis.states - 1), axis=1)
    return H


@pytest.mark.parametrize("N, L", [(1, 2), (5, 2), (3, 3), (4, 4), (10, 5), (3, 7), (1, 30)])
def test_dense_hamiltonian_is_the_row_loop_bit_for_bit(N, L):
    basis = enumerate_basis(N, L)
    for couplings in [(J, 2.7 * J), (1.0, 0.3), (0.0, 0.7)]:
        assert np.array_equal(build_hamiltonian(basis, *couplings), row_loop_hamiltonian(basis, *couplings))


def test_rank_refuses_a_state_outside_the_basis():
    basis = enumerate_basis(4, 3)
    assert np.array_equal(basis.ranks(basis.states[::-1]), np.arange(basis.dim)[::-1])


@pytest.mark.parametrize("N, L", [(1, 2), (4, 2), (3, 3), (6, 3), (4, 4), (6, 4), (10, 5), (6, 6), (3, 8), (1, 12)])
def test_orbit_count_is_the_number_of_translation_orbits(N, L):
    orbits = {min(tuple(np.roll(s, d)) for d in range(L)) for s in enumerate_basis(N, L).states}
    assert orbit_count(N, L) == len(orbits)
    dim = basis_dimension(N, L)
    assert exact.sector_bytes(N, L) == 8 * exact.SECTOR_MATRICES * len(orbits) ** 2 + (
        8 * exact.BASIS_ARRAYS * dim * L
    )


def test_sector_solve_refuses_by_memory(monkeypatch):
    # dimension C(5,3) = 10 in 4 orbits: 6 * 8 * 4^2 + 5 * 8 * 10 * 3 = 1968 bytes
    monkeypatch.setattr(exact, "_available_bytes", lambda: 1967)
    with pytest.raises(
        CapacityError, match="N=3, L=3: sector diagonalization of dimension 10 needs about 1968 bytes"
    ):
        sector_spectrum(LatticeSpec(L=3, n=1.0))


def test_a_solve_past_thirty_thousand_states_passes_every_check():
    # dimension C(59, 3) = 32509 in 571 orbits: a gate of about 90 MB
    lattice = LatticeSpec(L=57, n=3 / 57, U=J, J=J)
    spectrum = sector_spectrum(lattice)
    assert spectrum.weights.size == basis_dimension(3, 57) == 32509
    assert spectrum.residual <= exact.RESIDUAL_TOL
    assert spectrum.fsum_residual <= exact.FSUM_TOL
    assert spectrum.ground_gap > 0
    assert exact.ground_channel_fault(spectrum.momenta[0], spectrum.weights[0], 3, 57) is None


def test_sector_table_is_real_and_keeps_the_ground_row():
    # the channels replace the table: real arrays, one entry per eigenstate,
    # the ground channel first with K = 0 and weight (N/L)^2
    lattice = LatticeSpec(L=6, n=1.0, U=2 * J, J=J)
    spectrum = sector_spectrum(lattice)
    dim = basis_dimension(6, 6)
    for name in ("eigenvalues", "momenta", "weights"):
        values = getattr(spectrum, name)
        assert values.dtype == np.float64 and values.shape == (dim,), name
    assert spectrum.momenta[0] == 0.0 and spectrum.weights[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(spectrum.weights >= 0)
    steps = spectrum.momenta * 6 / (2 * np.pi)
    assert np.array_equal(steps, np.rint(steps)) and np.all(np.abs(spectrum.momenta) <= np.pi)
    # rho_0 |g> = N |g>: no excited K = 0 state carries weight
    assert np.all(spectrum.weights[1:][spectrum.momenta[1:] == 0] == 0.0)
    # a level of 0 < |K| < pi is a +-K pair of equal weight
    for K in 2 * np.pi * np.arange(1, 3) / 6:
        assert np.array_equal(spectrum.weights[spectrum.momenta == K], spectrum.weights[spectrum.momenta == -K])
    assert spectrum.eigenvectors is None and spectrum.density_elements is None
    assert spectrum.residual <= exact.RESIDUAL_TOL and spectrum.ground_gap > 0
    assert spectrum.fsum_residual <= 1e-12


sizes = [(N, L) for L in range(2, 9) for N in range(1, 40) if basis_dimension(N, L) <= 800]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    size=st.sampled_from(sizes),
    u_over_j=st.one_of(st.just(0.0), st.floats(0.01, 30.0)),
    probes=st.lists(
        st.builds(
            ProbeSpec,
            E0=st.floats(0.005, 5.0),
            theta=st.floats(-np.pi / 2, np.pi / 2),
            mass_ratio=st.sampled_from([1.0, 7.0, 94.3]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_sectors_equal_the_dense_oracle(size, u_over_j, probes):
    N, L = size
    lattice = LatticeSpec(L=L, n=N / L, U=u_over_j * J, J=J, V0=V0)
    dense, sectors = diagonalize(lattice), sector_spectrum(lattice)
    norm = np.max(np.abs(dense.eigenvalues))
    assert np.max(np.abs(sectors.eigenvalues - dense.eigenvalues)) <= 1e-12 * norm
    # the elastic term is the closed form for both; the oracle checks what it
    # stands for, the ground channel's weight against the dense ground row
    weight = sectors.weights[sectors.ground_index]
    ground_row = dense.density_elements[dense.ground_index]
    assert np.all(np.abs(ground_row**2 - weight) <= REL_TOL * weight), (ground_row, weight)
    floor = FLOOR * N**2
    curves = [exact_inelastic_curve(s, lattice, probes) for s in (dense, sectors)]
    for p, a, b in zip(probes, *curves):
        want, got = exact_cross_section(dense, lattice, p), exact_cross_section(sectors, lattice, p)
        assert got.contributing_states == want.contributing_states
        assert got.elastic == want.elastic
        assert (want.inelastic, got.inelastic) == (a, b)
        assert abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + floor, (a, b)


def test_channel_cross_sections_refuse_another_lattice():
    spectrum = sector_spectrum(LatticeSpec(L=4, n=1.0, U=J, J=J))
    for other in (LatticeSpec(L=8, n=0.5, U=J, J=J), LatticeSpec(L=5, n=0.8, U=J, J=J)):
        with pytest.raises(BadParameterError, match="35 channels"):
            exact_inelastic_curve(spectrum, other, [ProbeSpec(E0=2.0, theta=0.3)])


def test_a_spectrum_does_not_depend_on_the_blas_thread_count(tmp_path):
    # dimension 1001: its excited states come in +-K pairs, which a dense
    # solve mixes differently on different thread counts; the channel
    # weights of a pair do not depend on that mixing
    lattice = "LatticeSpec(L=5, n=2.0, U=1.3, J=1.0)"
    tables = []
    for threads in ("1", "2"):
        code = (
            "from latscat.model import LatticeSpec\n"
            "from latscat.scans import cache_spectra\n"
            f"next(cache_spectra([{lattice}], {str(tmp_path / threads)!r}))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        spec = LatticeSpec(L=5, n=2.0, U=1.3, J=1.0)
        tables.append(load_spectrum(cache_path(tmp_path / threads, spec), spec))
    one, two = tables
    assert np.max(np.abs(one.eigenvalues - two.eigenvalues)) <= 1e-12 * np.max(np.abs(one.eigenvalues))
    assert np.array_equal(one.momenta, two.momenta)
    scale = np.max(one.weights)
    assert np.max(np.abs(one.weights - two.weights)) <= 1e-12 * scale


def test_every_command_writes_the_same_bytes_for_one_lattice(tmp_path):
    lattice = LatticeSpec(L=4, n=1.0, U=2.0 * J, J=J)  # u = U n / J = 2
    run(ScanConfig(command="u-scan", L_values=(4,), n=1.0, u_grid=(2.0,), cache_dir=str(tmp_path / "u")))
    run(
        ScanConfig(
            command="deviation-map", L_values=(4,), n=1.0, u_grid=(2.0,), theta_grid=3,
            cache_dir=str(tmp_path / "d"),
        )
    )
    next(cache_spectra([lattice], tmp_path / "c"))
    blobs = {cache_path(tmp_path / d, lattice).read_bytes() for d in "udc"}
    assert len(blobs) == 1


fsum_sizes = [(N, L) for L in range(2, 10) for N in range(1, 60) if 300 <= basis_dimension(N, L) <= 6500]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(size=st.sampled_from(fsum_sizes), u_over_j=st.one_of(st.just(0.0), st.floats(0.01, 30.0)))
def test_the_f_sum_rule_holds_past_the_dense_oracle(size, u_over_j):
    N, L = size
    spectrum = sector_spectrum(LatticeSpec(L=L, n=N / L, U=u_over_j * J, J=J, V0=V0))
    assert spectrum.fsum_residual <= 1e-12


def test_the_f_sum_rule_reaches_the_largest_sizes():
    spectrum = sector_spectrum(LatticeSpec(L=8, n=1.0, U=3 * J, J=J))  # dimension 6435
    assert spectrum.eigenvalues.size == 6435 and spectrum.fsum_residual <= 1e-12


def test_a_lost_pair_weight_breaks_the_f_sum_rule():
    lattice = LatticeSpec(L=5, n=1.0, U=J, J=J)
    spectrum = sector_spectrum(lattice)
    w, K, weights = spectrum.eigenvalues, spectrum.momenta, spectrum.weights
    # the intact channels give both right-hand sides: <g|rho_{-K} rho_K|g>
    # at every K, and <g|H_hop|g> from the f-sum rule at K = 2 pi / 5
    m = np.rint(K * 5 / (2 * np.pi)).astype(np.int64) % 5
    direct = np.bincount(m, weights, 5)
    hopping = -25 * np.sum((w - w[0]) * weights * (m == 1)) / (1 - np.cos(2 * np.pi / 5))
    assert max(exact.moment_residuals(w, K, weights, hopping, direct, lattice)) <= 1e-12
    lost = np.where(K < 0, 0.0, weights)
    fsum, s0 = exact.moment_residuals(w, K, lost, hopping, direct, lattice)
    assert fsum > 0.1 and s0 == 1.0


@pytest.mark.parametrize("L", [3, 4, 6])
def test_deep_mott_solves_hold_the_f_sum_rule(L):
    # at N = L the ground vector's components off the Mott state are of
    # order J/U and carry an absolute rounding; the f-sum scale counts it,
    # so these correct solves pass every check
    for u_over_j in (1e6, 1e7, 1e8, 1e9, 1e10):
        spectrum = sector_spectrum(LatticeSpec(L=L, n=1.0, U=u_over_j * J, J=J))
        assert spectrum.fsum_residual <= 1e-12, u_over_j


@pytest.mark.parametrize("L", [6, 7, 8])
def test_deep_mott_solves_hold_the_zeroth_moment(L):
    # <g|rho_{-K} rho_K|g> falls as (J/U)^2, below the rounding floor
    # (eps N/L)^2 that the parity basis leaves in S0; the zeroth-moment
    # scale counts it, so these correct solves pass every check
    for u_over_j in (1e11, 1e12):
        spectrum = sector_spectrum(LatticeSpec(L=L, n=1.0, U=u_over_j * J, J=J))
        assert spectrum.s0_residual <= 1e-12 and spectrum.fsum_residual <= 1e-12, u_over_j


def mutant(old: str, new: str):
    """A copy of latscat.exact, in memory only, with one line of its source changed."""
    source = inspect.getsource(exact)
    assert source.count(old) == 1, old
    module = types.ModuleType("latscat._exact_mutant")
    module.__package__ = "latscat"
    sys.modules[module.__name__] = module
    try:
        exec(compile(source.replace(old, new), exact.__file__, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


MUTATIONS = {
    "parity phase sign": (
        "phase = np.exp(0.5j * K * turned[members[low]])",
        "phase = np.exp(-0.5j * K * turned[members[low]])",
    ),
    "odd parity": (
        "coef = np.stack([scale, scale * np.where(x == low, 1j, -1j) * pair], axis=1)",
        "coef = 1j * np.stack([scale, scale * np.where(x == low, 1j, -1j) * pair], axis=1)",
    ),
    "no period factor": (
        "amplitude = -J * root * np.sqrt(period[source] / period[into])",
        "amplitude = -J * root",
    ),
    "weight on +K only": (
        "weights.append(np.repeat(weight, copies))",
        "weights.append(np.stack([weight, 0 * weight], axis=1)[:, :copies].ravel())",
    ),
    # the zeroth moment alone does not catch this one: any orthonormal basis
    # of a sector gives the same S0(K), and only the energies see the block
    "no momentum phase at K = pi": (
        "hop = amplitude[keep] * np.exp(1j * K * turn[keep])",
        "hop = amplitude[keep] * np.exp(1j * K * turn[keep] * (2 * m != L))",
    ),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_broken_sector_solver_fails_the_f_sum_rule(name):
    broken = mutant(*MUTATIONS[name])
    # L = 6, N = 6 has orbits of every period 1, 2, 3 and 6, and mirror pairs
    lattice = LatticeSpec(L=6, n=1.0, U=1.7 * J, J=J)
    assert broken.sector_spectrum is not sector_spectrum
    with pytest.raises(NumericalError, match="f-sum residual"):
        broken.sector_spectrum(lattice)


S0_MUTATIONS = {
    "lost sqrt 2 on a mirror pair": (
        "scale = np.where(pair, math.sqrt(0.5), 1.0) * phase",
        "scale = np.where(pair, 1.0, 1.0) * phase",
    ),
    "parity phase sign": MUTATIONS["parity phase sign"],
}


def test_the_zeroth_moment_holds_to_rounding():
    # at the three lattices of its first measurement; the f-sum check is off
    # in the mutants below, so this check alone must refuse them
    for L, N, u_over_j in [(5, 10, 1.3), (6, 6, 0.7), (8, 8, 5.0)]:
        spectrum = sector_spectrum(LatticeSpec(L=L, n=N / L, U=u_over_j * J, J=J))
        assert spectrum.s0_residual <= 1e-14


@pytest.mark.parametrize("name", sorted(S0_MUTATIONS))
def test_a_broken_sector_solver_fails_the_zeroth_moment(name):
    broken = mutant(*S0_MUTATIONS[name])
    broken.FSUM_TOL = math.inf
    # mirror pairs at K = pi/3 and 2 pi/3; at U/J <= 5 the lost sqrt(2)
    # pulls a K != 0 level under the ground state, and the gap check refuses
    # it first
    lattice = LatticeSpec(L=6, n=1.0, U=30 * J, J=J)
    with pytest.raises(NumericalError, match="zeroth-moment residual"):
        broken.sector_spectrum(lattice)
