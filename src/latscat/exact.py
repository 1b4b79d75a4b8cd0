"""Exact canonical diagonalization of the Bose-Hubbard chain.

Builds the fixed-N Fock basis and the Hamiltonian

    H = -J sum_<j,j'> c_j^dag c_j' + (U/2) sum_j n_j (n_j - 1),

its full spectrum, and the many-body cross section assembled from the
density matrix elements <e| n_j |g>.  The chemical-potential term is
dropped: at fixed N it shifts all eigenvalues equally and cancels from
every energy difference.  Like every open-channel sum, the inelastic one
goes through model.open_channel_sum, which takes the probes of a curve at
once; non-finite parameters are refused.

The spectrum is solved two ways.  ``diagonalize`` builds the dense matrix
and hands it to SciPy's eigensolver; it is the oracle.  ``sector_spectrum``
splits the chain into its lattice-momentum sectors K = 2 pi m / L, built
straight from the representatives of the translation orbits (Sandvik,
arXiv:1101.3281), so each block has about dim / L states.  Both share one
hop enumeration, which ranks Fock states by a combinatorial code (Zhang &
Dong, arXiv:1102.4006), and both return the same real table: an eigenstate
of momentum K has <e|n_j|g> = e^{iKj} <e|n_0|g>, which the sector solver
writes as a real row per state.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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

# The sector solve holds about this many complex matrices of its largest
# block at once (the block beside numpy.linalg.eigh's copy, workspaces and
# eigenvectors), and this many dim x L arrays of 8 bytes (the basis, its
# rotations and their ranks, the table).  Measured peaks: 5.3 blocks at
# 2704 orbits (L = N = 9), and 5.0 arrays at L = 244, N = 2.
SECTOR_MATRICES = 6
BASIS_ARRAYS = 5

# Ground-state gap below this fraction of the spectral range is treated
# as a degeneracy (the cross section presumes a unique ground state).
DEGENERACY_TOL = 1e-10

RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class FockBasis:
    """Ordered occupation-number basis at fixed particle number.

    States are occupation vectors (n_1..n_L) in lexicographic order.  The
    row of a state is its integer code: the number of basis states that
    precede it, counted with binomials, so ranking needs no lookup table.
    """

    N: int
    L: int
    states: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @cached_property
    def _at_most(self) -> np.ndarray:
        """_at_most[s, k] = C(k + s, s): the states of s sites holding at most k particles."""
        table = np.ones((self.L, self.N + 1), dtype=np.int64)
        for s in range(1, self.L):
            table[s] = np.cumsum(table[s - 1])
        return table

    def ranks(self, states) -> np.ndarray:
        """Rows of occupation vectors (..., L) that lie in the basis.

        A state precedes another when it holds fewer particles on the first
        site where they differ.  So each site j adds the states that agree
        with the vector before j and hold fewer than n_j particles at j:
        those whose sites after j hold at most R_j particles, less those
        that hold at most R_j - n_j, with R_j the particles on sites j..L-1.
        """
        states = np.asarray(states)
        after = self.N - np.cumsum(states, axis=-1)  # particles right of each site
        sites = np.arange(self.L - 1, -1, -1)  # sites right of each site
        table = self._at_most
        return np.sum(table[sites, after + states] - table[sites, after], axis=-1)

    def rank(self, occupation) -> int:
        """Row of one occupation vector; KeyError when it is not a basis state."""
        occupation = np.asarray(occupation)
        if occupation.shape != (self.L,) or occupation.min() < 0 or occupation.sum() != self.N:
            raise KeyError(tuple(int(x) for x in occupation.ravel()))
        return int(self.ranks(occupation))


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
    return FockBasis(N=N, L=L, states=states)


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


def orbit_count(N: int, L: int) -> int:
    """Translation orbits of the (N, L) basis: the size of the K = 0 sector,
    the largest one, since every orbit has a state of zero momentum.

    By Burnside's lemma: a shift by s fixes the states that repeat their
    first g = gcd(s, L) sites, which hold N g / L particles.
    """
    fixed = 0
    for shift in range(L):
        g = math.gcd(shift, L)
        if N * g % L == 0:
            fixed += math.comb(N * g // L + g - 1, g - 1)
    return fixed // L


def sector_bytes(N: int, L: int) -> int:
    """Memory the sector solve of (N, L) holds at once, in bytes: SECTOR_MATRICES
    complex matrices the size of the largest block, and BASIS_ARRAYS dim x L
    arrays."""
    blocks = SECTOR_MATRICES * 16 * orbit_count(N, L) ** 2
    return blocks + BASIS_ARRAYS * 8 * basis_dimension(N, L) * L


def _refuse_past_memory(what: str, need: int) -> None:
    """CapacityError when a solve (``what``) needing about ``need`` bytes would
    not fit in the available memory; no check where that cannot be read."""
    available = _available_bytes()
    if available is not None and need > available:
        raise CapacityError(
            f"{what} needs about {need} bytes, "
            f"but only {available} bytes of memory are available"
        )


def require_capacity(N: int, L: int) -> int:
    """Dimension of the (N, L) basis, once it passes both refusals of
    sector_spectrum: BASIS_CAP on the full dimension, and the memory gate
    on the largest block."""
    dim = _refuse_past_cap(N, L)
    _refuse_past_memory(
        f"sector diagonalization of dimension {dim} (largest block {orbit_count(N, L)})",
        sector_bytes(N, L),
    )
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


def _hops(basis: FockBasis, rows: np.ndarray):
    """Every hop c_{j+1}^dag c_j out of the given rows, j + 1 taken mod L.

    Returns, hop by hop in the order of the rows and within a row of j: the
    index of its source among ``rows``, the row of its target, and
    sqrt(n_j (n_{j+1} + 1)).  The reverse hops are the transpose.
    """
    occ = basis.states[rows]
    source, j = np.nonzero(occ)
    l = (j + 1) % basis.L
    root = np.sqrt(occ[source, j] * (occ[source, l] + 1))
    target = occ[source]
    hop = np.arange(source.size)
    target[hop, j] -= 1
    target[hop, l] += 1
    return source, basis.ranks(target), root


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
    dim = basis.dim
    _refuse_past_memory(f"dense diagonalization of dimension {dim}", dense_bytes(dim))
    source, target, root = _hops(basis, np.arange(dim))
    hop = np.zeros((dim, dim))
    np.add.at(hop, (target, source), -J * root)
    H = hop + hop.T
    diag = 0.5 * U * np.sum(basis.states * (basis.states - 1), axis=1)
    H[np.diag_indices(dim)] += diag
    return H


@dataclass
class SpectrumResult:
    """Full spectrum plus the density matrix elements against the ground state.

    ``density_elements[e, j]`` holds <e| n_j |g>; the ground row is the
    ground-state density profile.  ``eigenvectors`` is None when the result
    was reconstructed from a cache file or solved in sectors (the cross
    section does not need it).  ``residual`` (the worst eigenpair residual
    over ||H||) and ``ground_gap`` (E_1 - E_0) are the checks of the solve,
    None where the spectrum was not solved here.  Instances
    are treated as immutable once construction has filled them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    ground_energy: float
    ground_index: int
    density_elements: np.ndarray | None = None
    residual: float | None = None
    ground_gap: float | None = None


def _worst_residual(H: np.ndarray, V: np.ndarray, w: np.ndarray) -> float:
    """Largest ||H v - lambda v|| over the eigenpairs, in blocks of 512 columns."""
    worst = 0.0
    for start in range(0, w.size, 512):
        block = slice(start, min(start + 512, w.size))
        R = H @ V[:, block] - V[:, block] * w[block]
        worst = max(worst, float(np.max(np.linalg.norm(R, axis=0))))
    return worst


def _checked(w: np.ndarray, worst: float):
    """(worst / ||H||, E_1 - E_0) of an ascending spectrum w whose eigenpairs
    have residuals up to ``worst``.

    Refuses a residual above RESIDUAL_TOL ||H|| and a ground-state gap
    below DEGENERACY_TOL of the spectral range; the gap is None for one state.
    """
    norm = max(abs(w[0]), abs(w[-1]), 1e-300)  # spectral norm of symmetric H
    if worst > RESIDUAL_TOL * norm:
        raise NumericalError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} * ||H|| = "
            f"{RESIDUAL_TOL * norm:.3e}"
        )
    gap = None
    if w.size > 1:
        spread = w[-1] - w[0]
        gap = float(w[1] - w[0])
        if spread <= 0 or gap < DEGENERACY_TOL * spread:
            raise DegenerateGroundStateError(
                f"ground-state gap {gap:.3e} is below {DEGENERACY_TOL:.0e} of the "
                f"spectral range {spread:.3e}; cross section needs a unique ground state"
            )
    return float(worst / norm), gap


def full_spectrum(H: np.ndarray, basis: FockBasis | None = None) -> SpectrumResult:
    """All eigenpairs of a dense symmetric matrix, with sanity checks.

    Verifies the per-pair residual ||Hv - lambda v|| <= 1e-8 ||H|| and that
    the ground state is unique (gap above 1e-10 of the spectral range).
    When a basis is supplied the density matrix elements are filled in.
    SciPy is imported here, the only place that needs it, so a scan run,
    which solves in sectors, never loads it.
    """
    import scipy.linalg

    dim = H.shape[0]
    if H.shape != (dim, dim):
        raise BadParameterError(f"matrix must be square, got shape {H.shape}")
    if dim > BASIS_CAP:
        raise CapacityError(f"matrix dimension {dim} exceeds the cap {BASIS_CAP}")
    w, V = scipy.linalg.eigh(H)
    residual, gap = _checked(w, _worst_residual(H, V, w))
    result = SpectrumResult(
        eigenvalues=w,
        eigenvectors=V,
        ground_energy=float(w[0]),
        ground_index=0,
        residual=residual,
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


def _orbits(basis: FockBasis):
    """The translation orbits of the basis, T shifting each occupation one site on.

    Returns the representative rows (the lowest row of each orbit), their
    periods, and for every row its orbit and the smallest shift d with
    row = T^d representative.
    """
    states, L = basis.states, basis.L
    reps = np.arange(basis.dim)
    for d in range(1, L):  # a row that some shift lowers represents nothing
        reps = reps[basis.ranks(np.roll(states[reps], d, axis=1)) >= reps]
    turns = np.stack([basis.ranks(np.roll(states[reps], d, axis=1)) for d in range(L)], axis=1)
    period = L // np.sum(turns == reps[:, None], axis=1)
    orbit = np.empty(basis.dim, dtype=np.int64)
    shift = np.empty(basis.dim, dtype=np.int64)
    for d in range(L - 1, -1, -1):  # the smallest shift is written last
        orbit[turns[:, d]] = np.arange(reps.size)
        shift[turns[:, d]] = d
    return reps, period, orbit, shift


def sector_spectrum(lattice: LatticeSpec) -> SpectrumResult:
    """The spectrum and density table of one lattice, solved in momentum sectors.

    Sector K = 2 pi m / L holds one state |r, K> per translation orbit r
    whose period p has m p = 0 mod L.  The hops out of each representative
    give its block, Hermitian (real at K = 0 and pi), which
    numpy.linalg.eigh solves.  Only m = 0..L//2 are solved: sector L - m is
    the complex conjugate of sector m.

    The ground state g is the lowest of K = 0, and a state e of sector K
    has <e|n_j|g> = e^{iKj} c with c = <e|n_0|g>.  With the phase of c
    taken out, the table holds the row |c| at K = 0, |c| (-1)^j at K = pi,
    and the rows sqrt(2)|c| cos(Kj) and sqrt(2)|c| sin(Kj) for a pair +-K:
    real rows of a valid eigenbasis, with the cross sections of the complex
    ones, and canonical, since no eigenvector phase reaches them.  States
    are in ascending order of energy.

    The refusals of require_capacity come first.  The checks are those of
    full_spectrum (every block's residual against the ||H|| of the whole
    spectrum, and the ground-state gap) and of density_elements (the
    ground row).  ``eigenvectors`` is None.
    """
    N, L, J = lattice.N, lattice.L, lattice.J
    require_capacity(N, L)
    basis = enumerate_basis(N, L)
    reps, period, orbit, shift = _orbits(basis)
    source, target, root = _hops(basis, reps)
    into, turn = orbit[target], shift[target]  # target = T^turn reps[into]
    amplitude = -J * root * np.sqrt(period[source] / period[into])
    occ = basis.states[reps]
    onsite = 0.5 * lattice.U * np.sum(occ * (occ - 1), axis=1)
    transform = np.fft.fft(occ, axis=1) / L  # (1/L) sum_j e^{-iKj} n_j of each orbit
    sites = np.arange(L)

    values, rows, worst, ground = [], [], 0.0, None
    for m in range(L // 2 + 1):
        K = 2 * np.pi * m / L
        real = 2 * m % L == 0
        members = np.flatnonzero(m * period % L == 0)
        position = np.full(reps.size, -1)
        position[members] = np.arange(members.size)
        keep = (position[source] >= 0) & (position[into] >= 0)
        phase = np.cos(K * turn[keep]) if real else np.exp(1j * K * turn[keep])
        block = np.zeros((members.size, members.size), dtype=float if real else complex)
        np.add.at(block, (position[into[keep]], position[source[keep]]), amplitude[keep] * phase)
        block = block + block.conj().T
        block[np.diag_indices(members.size)] += onsite[members]
        w, C = np.linalg.eigh(block)
        worst = max(worst, _worst_residual(block, C, w))
        if m == 0:
            ground = C[:, 0].copy()  # every orbit has a K = 0 state
        c = np.abs(C.conj().T @ (ground[members] * transform[members, m]))
        del block, C  # before the next sector's block is built
        if real:
            values.append(w)
            rows.append(c[:, None] * np.cos(K * sites))
        else:
            values.append(np.repeat(w, 2))
            pair = np.stack([np.cos(K * sites), np.sin(K * sites)])
            rows.append((math.sqrt(2) * c[:, None, None] * pair).reshape(-1, L))

    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    w, table = values[order], np.concatenate(rows)[order]
    residual, gap = _checked(w, worst)
    fault = ground_density_fault(table[0], N, L)
    if fault:
        raise NumericalError(fault)
    return SpectrumResult(
        eigenvalues=w,
        eigenvectors=None,
        ground_energy=float(w[0]),
        ground_index=0,
        density_elements=table,
        residual=residual,
        ground_gap=gap,
    )


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
