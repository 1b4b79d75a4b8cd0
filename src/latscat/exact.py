"""Exact canonical diagonalization of the Bose-Hubbard chain.

Builds the fixed-N Fock basis, the dense Hamiltonian

    H = -J sum_<j,j'> c_j^dag c_j' + (U/2) sum_j n_j (n_j - 1),

its full spectrum, and the many-body cross section assembled from the
density matrix elements <e| n_j |g>.  The chemical-potential term is
dropped: at fixed N it shifts all eigenvalues equally and cancels from
every energy difference.  Like every open-channel sum, the inelastic one
goes through model.open_channel_sum, which takes the probes of a curve at
once; non-finite parameters are refused.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParameterError,
    CapacityError,
    DegenerateGroundStateError,
    NumericalError,
)
from .model import (
    LatticeSpec,
    ProbeSpec,
    form_factor,
    kappa_elastic,
    open_channel_sum,
)

# Refuse basis sizes past this point: the dense solver needs all
# eigenpairs, and memory grows as dim^2.
BASIS_CAP = 30_000

# Dense diagonalization holds about this many dim x dim double matrices at
# once: the Hamiltonian, the eigenvectors and the solver's workspace.
DENSE_MATRICES = 3

# Ground-state gap below this fraction of the spectral range is treated
# as a degeneracy (the cross section presumes a unique ground state).
DEGENERACY_TOL = 1e-10

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class FockBasis:
    """Ordered occupation-number basis at fixed particle number.

    States are occupation vectors (n_1..n_L) in lexicographic order;
    ``index`` maps an occupation tuple back to its row for O(1) lookup.
    """

    N: int
    L: int
    states: np.ndarray
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def rank(self, occupation) -> int:
        return self.index[tuple(int(x) for x in occupation)]


def basis_dimension(N: int, L: int) -> int:
    """Number of N-particle states on L sites, C(N+L-1, N)."""
    return math.comb(N + L - 1, N)


def enumerate_basis(N: int, L: int) -> FockBasis:
    """All occupation vectors with sum N on L sites, lexicographically ordered.

    A basis larger than BASIS_CAP is refused before it is built.
    """
    if N < 1:
        raise BadParameterError(f"need at least one particle, got N={N}")
    if L < 2:
        raise BadParameterError(f"need at least two sites, got L={L}")
    dim = _refuse_past_cap(N, L)

    # Stars and bars: the gaps between L-1 bars among N+L-1 slots are the
    # occupations; bars in lexicographic order give states in that order.
    bars = itertools.chain.from_iterable(itertools.combinations(range(N + L - 1), L - 1))
    bars = np.fromiter(bars, np.int64, dim * (L - 1)).reshape(dim, L - 1)
    states = np.diff(bars, axis=1, prepend=-1, append=N + L - 1) - 1
    index = {tuple(map(int, s)): i for i, s in enumerate(states)}
    return FockBasis(N=N, L=L, states=states, index=index)


def _refuse_past_cap(N: int, L: int) -> int:
    """Dimension of the (N, L) basis; CapacityError past BASIS_CAP."""
    dim = basis_dimension(N, L)
    if dim > BASIS_CAP:
        raise CapacityError(
            f"basis dimension {dim} = C({N + L - 1},{N}) exceeds the cap {BASIS_CAP} "
            f"(N={N}, L={L})"
        )
    return dim


def dense_bytes(dim: int) -> int:
    """Memory one dense diagonalization of dimension dim holds at once, in bytes."""
    return DENSE_MATRICES * 8 * dim * dim


def _refuse_past_memory(dim: int) -> None:
    """CapacityError when a dense diagonalization of dimension dim would not fit
    in the available memory; no check where that cannot be read."""
    need = dense_bytes(dim)
    available = _available_bytes()
    if available is not None and need > available:
        raise CapacityError(
            f"dense diagonalization of dimension {dim} needs about {need} bytes, "
            f"but only {available} bytes of memory are available"
        )


def require_capacity(N: int, L: int) -> int:
    """Dimension of the (N, L) basis, once it passes both refusals of diagonalize:
    BASIS_CAP and the memory gate of build_hamiltonian."""
    dim = _refuse_past_cap(N, L)
    _refuse_past_memory(dim)
    return dim


def _available_bytes() -> int | None:
    """MemAvailable of /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def build_hamiltonian(basis: FockBasis, J: float, U: float) -> np.ndarray:
    """Dense symmetric Bose-Hubbard matrix on the given basis.

    Hopping runs over the periodic bonds j -> j+1 mod L.  For L=2 the two
    wrap-around bonds connect the same pair of sites, so the effective
    hopping amplitude doubles to 2J there (this matches the two-site Bloch
    spectrum); L >= 3 is the recommended regime.  Before the matrix is
    allocated, a basis whose dense diagonalization would not fit in the
    available memory (about DENSE_MATRICES * 8 * dim^2 bytes) is refused;
    where the available memory cannot be read, the check is skipped.
    """
    if J < 0:
        raise BadParameterError(f"tunneling must be non-negative, got J={J}")
    if U < 0:
        raise BadParameterError(f"interaction must be non-negative, got U={U}")
    dim, L = basis.states.shape
    _refuse_past_memory(dim)
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
            col = basis.index[tuple(map(int, target))]
            hop[col, row] += -J * math.sqrt(nj * (occ[l] + 1))
    H = hop + hop.T
    diag = 0.5 * U * np.sum(basis.states * (basis.states - 1), axis=1)
    H[np.diag_indices(dim)] += diag
    return H


@dataclass
class SpectrumResult:
    """Full spectrum plus the density matrix elements against the ground state.

    ``density_elements[e, j]`` holds <e| n_j |g>; the ground row is the
    ground-state density profile.  ``eigenvectors`` is None when the result
    was reconstructed from a cache file or handed back by a worker process
    (the cross section does not need it).  ``residual`` (the worst eigenpair
    residual over ||H||) and ``ground_gap`` (E_1 - E_0) are the checks of
    full_spectrum, None where the spectrum was not solved here.  Instances
    are treated as immutable once construction has filled them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    ground_energy: float
    ground_index: int
    density_elements: np.ndarray | None = None
    residual: float | None = None
    ground_gap: float | None = None


def full_spectrum(H: np.ndarray, basis: FockBasis | None = None) -> SpectrumResult:
    """All eigenpairs of a dense symmetric matrix, with sanity checks.

    Verifies the per-pair residual ||Hv - lambda v|| <= 1e-8 ||H|| and that
    the ground state is unique (gap above 1e-10 of the spectral range).
    When a basis is supplied the density matrix elements are filled in.
    SciPy is imported here, the only place that needs it, so a run that
    never diagonalizes never loads it.
    """
    import scipy.linalg

    dim = H.shape[0]
    if H.shape != (dim, dim):
        raise BadParameterError(f"matrix must be square, got shape {H.shape}")
    if dim > BASIS_CAP:
        raise CapacityError(f"matrix dimension {dim} exceeds the cap {BASIS_CAP}")
    w, V = scipy.linalg.eigh(H)

    norm = max(abs(w[0]), abs(w[-1]), 1e-300)  # spectral norm of symmetric H
    worst = 0.0
    for start in range(0, dim, 512):
        block = slice(start, min(start + 512, dim))
        R = H @ V[:, block] - V[:, block] * w[block]
        worst = max(worst, float(np.max(np.linalg.norm(R, axis=0))))
    if worst > RESIDUAL_TOL * norm:
        raise NumericalError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} * ||H|| = "
            f"{RESIDUAL_TOL * norm:.3e}"
        )

    gap = None
    if dim > 1:
        spread = w[-1] - w[0]
        gap = float(w[1] - w[0])
        if spread <= 0 or gap < DEGENERACY_TOL * spread:
            raise DegenerateGroundStateError(
                f"ground-state gap {gap:.3e} is below {DEGENERACY_TOL:.0e} of the "
                f"spectral range {spread:.3e}; cross section needs a unique ground state"
            )

    result = SpectrumResult(
        eigenvalues=w,
        eigenvectors=V,
        ground_energy=float(w[0]),
        ground_index=0,
        residual=float(worst / norm),
        ground_gap=gap,
    )
    if basis is not None:
        density_elements(result, basis)
    return result


def density_elements(result: SpectrumResult, basis: FockBasis) -> np.ndarray:
    """Table of <e| n_j |g> for every eigenstate e and site j.

    n_j is diagonal in the Fock basis, so the table is a single contraction
    of the (real) eigenvector matrix with the occupation table.  The ground
    row is checked against particle-number conservation and translation
    invariance of the unique ground state.
    """
    if result.density_elements is not None:
        return result.density_elements
    if result.eigenvectors is None:
        raise BadParameterError("spectrum carries no eigenvectors (cache-loaded?)")
    V = result.eigenvectors
    g = V[:, result.ground_index]
    occ = basis.states.astype(float)
    table = V.T @ (occ * g[:, None])

    fault = ground_density_fault(table[result.ground_index], basis.N, basis.L)
    if fault:
        raise NumericalError(fault)
    result.density_elements = table
    return table


def ground_density_fault(ground_row, N: int, L: int) -> str | None:
    """Why a ground row <g|n_j|g> cannot belong to the unique ground state, or None.

    The row must sum to N (particle-number conservation) and be uniform at
    N/L (translation invariance), both to 1e-10 max(1, N).
    """
    tol = 1e-10 * max(1.0, float(N))
    if not abs(float(np.sum(ground_row)) - N) <= tol:
        return f"ground-state density sums to {np.sum(ground_row)!r}, expected N={N}"
    if not np.max(np.abs(ground_row - N / L)) <= tol:
        return "ground-state density profile is not uniform; translation symmetry looks broken"
    return None


def diagonalize(lattice: LatticeSpec) -> SpectrumResult:
    """Basis, Hamiltonian, spectrum and density elements for one lattice."""
    basis = enumerate_basis(lattice.N, lattice.L)
    H = build_hamiltonian(basis, lattice.J, lattice.U)
    return full_spectrum(H, basis)


@dataclass(frozen=True)
class ExactCrossSection:
    """Elastic/inelastic cross section (units a_s^2) at one deflection angle."""

    theta: float
    elastic: float
    inelastic: float
    contributing_states: int


def exact_cross_section(
    spectrum: SpectrumResult, lattice: LatticeSpec, probe: ProbeSpec
) -> ExactCrossSection:
    """Many-body cross section from the full spectrum, diagonal orbital terms.

    elastic   = |W(k_el)|^2 |sum_j e^{i k_el x_j} <g|n_j|g>|^2
    inelastic = sum over states with dE < E0 of
                sqrt(1 - dE/E0) |W(k_e)|^2 |sum_j e^{i k_e x_j} <e|n_j|g>|^2

    with k_e the energy-rescaled momentum transfer.  When k_el sits on a
    reciprocal lattice vector (theta = 0 included) the lattice phases
    interfere destructively and the inelastic part is exactly zero.
    """
    return exact_cross_sections(spectrum, lattice, [probe])[0]


def exact_cross_sections(spectrum: SpectrumResult, lattice: LatticeSpec, probes) -> list:
    """exact_cross_section at every probe, in one open-channel sum."""
    if spectrum.density_elements is None:
        raise BadParameterError("spectrum has no density elements; diagonalize first")
    table = spectrum.density_elements
    L = lattice.L
    if table.shape[1] != L:
        raise BadParameterError(
            f"spectrum was computed for {table.shape[1]} sites, lattice has {L}"
        )
    x = np.arange(1, L + 1, dtype=float)
    dE = spectrum.eigenvalues - spectrum.ground_energy
    dE[spectrum.ground_index] = np.inf  # the ground state is not a channel

    def summand(open_, root, kappa_e, kel, E0):
        phases = np.exp(1j * (kappa_e[..., None] * x))
        amps = np.einsum("pej,ej->pe", phases, table[open_])
        return root * form_factor(kappa_e, lattice.V0) ** 2 * np.abs(amps) ** 2

    inelastic = open_channel_sum(probes, dE, summand)
    ground_row = table[spectrum.ground_index]
    results = []
    # the elastic term stays per probe: abs() of a complex scalar and
    # np.abs of an array round differently, and the values must not move
    for probe, inel in zip(probes, inelastic):
        kel = kappa_elastic(probe)
        amp_el = np.sum(np.exp(1j * kel * x) * ground_row)
        elastic = float(form_factor(kel, lattice.V0) ** 2 * abs(amp_el) ** 2)
        contributing = int(np.count_nonzero(dE < probe.E0))
        results.append(ExactCrossSection(probe.theta, elastic, float(inel), contributing))
    return results
