"""The momentum-sector solver against the dense oracle.

exact.sector_spectrum solves a lattice in its sectors K = 2 pi m / L, which
is how every scan run solves; diagonalize (build_hamiltonian, full_spectrum,
density_elements) stays dense and is the oracle here.  The two share one hop
enumeration, so the dense matrix is also pinned, bit for bit, against the
row-by-row loop it replaced.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latscat import exact
from latscat.errors import CapacityError
from latscat.exact import (
    basis_dimension,
    build_hamiltonian,
    diagonalize,
    enumerate_basis,
    exact_cross_sections,
    orbit_count,
    sector_spectrum,
)
from latscat.model import LatticeSpec, ProbeSpec
from latscat.scans import ScanConfig, cache_path, cache_spectrum, load_spectrum, run

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
            hop[basis.rank(target), row] += -J * math.sqrt(nj * (occ[l] + 1))
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
    for occupation in [(1, 1, 1), (5, -1, 0), (4, 0), (0, 0, 0, 4)]:
        with pytest.raises(KeyError):
            basis.rank(occupation)
    assert np.array_equal(basis.ranks(basis.states[::-1]), np.arange(basis.dim)[::-1])


@pytest.mark.parametrize("N, L", [(1, 2), (4, 2), (3, 3), (6, 3), (4, 4), (6, 4), (10, 5), (6, 6), (3, 8), (1, 12)])
def test_orbit_count_is_the_number_of_translation_orbits(N, L):
    orbits = {min(tuple(np.roll(s, d)) for d in range(L)) for s in enumerate_basis(N, L).states}
    assert orbit_count(N, L) == len(orbits)
    dim = basis_dimension(N, L)
    assert exact.sector_bytes(N, L) == 16 * exact.SECTOR_MATRICES * len(orbits) ** 2 + (
        8 * exact.BASIS_ARRAYS * dim * L
    )


def test_sector_solve_keeps_the_basis_cap():
    with pytest.raises(CapacityError, match="exceeds the cap"):
        sector_spectrum(LatticeSpec(L=5, n=8.0))  # C(44, 40) = 135751 states


def test_sector_table_is_real_and_keeps_the_ground_row():
    lattice = LatticeSpec(L=6, n=1.0, U=2 * J, J=J)
    spectrum = sector_spectrum(lattice)
    table = spectrum.density_elements
    assert table.dtype == np.float64 and table.shape == (basis_dimension(6, 6), 6)
    assert np.all(table[0] == table[0, 0]) and table[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert spectrum.eigenvectors is None
    assert spectrum.residual <= exact.RESIDUAL_TOL and spectrum.ground_gap > 0


sizes = [(N, L) for L in range(2, 8) for N in range(1, 40) if basis_dimension(N, L) <= 800]


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
    floor = FLOOR * N**2
    for want, got in zip(
        exact_cross_sections(dense, lattice, probes), exact_cross_sections(sectors, lattice, probes)
    ):
        assert got.contributing_states == want.contributing_states
        for side in ("elastic", "inelastic"):
            a, b = getattr(want, side), getattr(got, side)
            assert abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + floor, (side, a, b)


def test_a_spectrum_does_not_depend_on_the_blas_thread_count(tmp_path):
    # dimension 1001: its excited states come in +-K pairs, which a dense
    # solve mixes differently on different thread counts
    lattice = "LatticeSpec(L=5, n=2.0, U=1.3, J=1.0)"
    tables = []
    for threads in ("1", "2"):
        code = (
            "from latscat.model import LatticeSpec\n"
            "from latscat.scans import cache_spectrum\n"
            f"cache_spectrum({lattice}, {str(tmp_path / threads)!r})\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        spec = LatticeSpec(L=5, n=2.0, U=1.3, J=1.0)
        tables.append(load_spectrum(cache_path(tmp_path / threads, spec), spec))
    one, two = tables
    assert np.max(np.abs(one.eigenvalues - two.eigenvalues)) <= 1e-12 * np.max(np.abs(one.eigenvalues))
    scale = np.max(np.abs(one.density_elements))
    assert np.max(np.abs(one.density_elements - two.density_elements)) <= 1e-12 * scale


def test_every_command_writes_the_same_bytes_for_one_lattice(tmp_path):
    lattice = LatticeSpec(L=4, n=1.0, U=2.0 * J, J=J)  # u = U n / J = 2
    run(ScanConfig(command="u-scan", L_values=(4,), n=1.0, u_grid=(2.0,), cache_dir=str(tmp_path / "u")))
    run(
        ScanConfig(
            command="deviation-map", L_values=(4,), n=1.0, u_grid=(2.0,), theta_points=3,
            cache_dir=str(tmp_path / "d"),
        )
    )
    cache_spectrum(lattice, tmp_path / "c")
    blobs = {cache_path(tmp_path / d, lattice).read_bytes() for d in "udc"}
    assert len(blobs) == 1
