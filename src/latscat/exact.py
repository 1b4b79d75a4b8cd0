"""Exact canonical diagonalization of the Bose-Hubbard chain.

Builds the fixed-N Fock basis and the Hamiltonian

    H = -J sum_<j,j'> c_j^dag c_j' + (U/2) sum_j n_j (n_j - 1),

its full spectrum, and the many-body cross section assembled from the
density matrix elements <e| n_j |g>.  The chemical-potential term is
dropped: at fixed N it shifts all eigenvalues equally and cancels from
every energy difference.  The inelastic curve, exact_inelastic_curve,
is one float per probe; exact_cross_section is its one-probe record.
The elastic term is the closed form every provenance shares
(model.elastic_curve): the ground state's <g|n_j|g> = N/L, which both
solvers check, makes it exact.  Like every open-channel sum, the
inelastic one goes through model.open_channel_sum(probes, channels_at,
summand), which takes the probes of a curve at once, asks channels_at
(here spectrum.channels) for the entry of their energy and hands it to
summand(channels, kappa, kel); non-finite parameters are refused.  Every
allocation that grows with the input is charged to one memory gate,
require_memory, before it is made; only a lattice far past memory is
refused ahead of it, from a math.lgamma estimate of its dimension.
A spectrum keeps one entry, the open channels of the last probe energy it
was asked for (SpectrumResult.channels): their roots and count, and their
momenta and weights or their rows of the density table.  It is at most the
size of those arrays, is replaced when another energy is asked for, and
holds no cross section.  A dense entry also keeps its sorted distinct roots
(OpenChannels.distinct): states of one energy share one rescaled transfer,
so the dense summand takes one complex exponential per (probe, distinct
root, site).

The spectrum is solved two ways.  ``diagonalize`` builds the dense matrix
and hands its own storage to SciPy's eigensolver, which writes it during
the call; full_spectrum restores it afterwards from the sparse copy it
takes for its checks, about 12 bytes a nonzero, so one matrix must not be
shared by threads that solve it at the same time.  This path is the
oracle, and its result carries the dim x L table of <e|n_j|g>.
``sector_spectrum`` splits the chain into its lattice-momentum sectors
K = 2 pi m / L, built straight from the representatives of the
translation orbits (Sandvik, arXiv:1101.3281), so each block has about
dim / L states, and every block is real.  Both share one hop enumeration, which ranks Fock states by a
combinatorial code (Zhang & Dong, arXiv:1102.4006).  An eigenstate of
momentum K has <e|n_j|g> = e^{iKj} c with c = <e|n_0|g>, so the sector
solver returns one channel per eigenstate instead of a table: its energy,
its momentum K and its weight |c|^2.
"""
from __future__ import annotations

import itertools
import math
import os
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
    OpenChannels,
    ProbeSpec,
    elastic_curve,
    form_factor,
    last_channels,
    lattice_sum_sq,
    open_channel_sum,
    open_channels,
)

# Dense diagonalization holds about this many dim x dim double matrices at
# once: the Hamiltonian and the eigenvectors, plus the strips of the
# residual check.  No dense copy of H is made: full_spectrum solves in H's own
# storage, which it writes during the call and restores before it returns,
# so one H must not be shared by threads that call full_spectrum at the
# same time.  Measured tracemalloc peaks of diagonalize: 2.10, 2.05 and
# 2.02 matrices at dims 1001, 1716 and 3003.
DENSE_MATRICES = 2.5

# The residual check works in strips of this many eigenvector columns, so
# its temporaries stay small beside the matrices: each is dim x BLOCK,
# 0.4 MB at dim 3003.
BLOCK = 16

# The sector solve holds about this many real matrices of its largest
# block at once (the block beside numpy.linalg.eigh's copy, workspaces and
# eigenvectors), and this many dim x L arrays of 8 bytes (the basis, its
# rotations, reflections and their ranks).  Measured peaks: 5.4 blocks at
# 2704 orbits (L = N = 9), and 5.0 arrays at L = 244, N = 2.
SECTOR_MATRICES = 6
BASIS_ARRAYS = 5

# A scan run holds at most this many bytes a point of its grid, a (site,
# probe, provenance) triple: the largest tracemalloc slope of scans.execute
# over every command, with its default and with every provenance it allows,
# at most 490 bytes a point (86 on deviation-map), plus 56 for Python 3.10's
# larger objects, plus a quarter, rounded up to 100 bytes.  Every grid is
# charged at it: a counted angle or u grid, each of whose points is at least
# one point of the run, before any layout, and the run's own points once
# laid out.
POINT_BYTES = 700

# A condensate holds at least this many bytes a mode.  The tracemalloc peak
# of scans.run at 3 angles, from L = 2e4 to 8e4, grows by 37 bytes a mode on
# depletion and largeL, the least measured, 73 on bogoliubov and sf-limit,
# 168 on slope and 185 on u-scan with bogoliubov,linear.
MODE_BYTES = 32

# Ground-state gap below this fraction of the spectral range is treated
# as a degeneracy (the cross section presumes a unique ground state).
DEGENERACY_TOL = 1e-10

RESIDUAL_TOL = 1e-8

# The f-sum rule of every sector solve must hold to this fraction of its
# rounding scale, ||H|| S0(K) + (1 - cos K) ||H_hop|| (see moment_residuals).
FSUM_TOL = 1e-10

# The zeroth moment of every sector solve must equal <g|rho_{-K} rho_K|g>
# to this residual, relative above a rounding floor (see moment_residuals).
# Measured over the 79 lattices of L = 2..9, N <= 11, dim <= 7000 at 13
# interactions from U/J = 0 to 1e13: at most 1.2e-14, in every solve that
# the ground-state gap check does not refuse.
S0_TOL = 1e-10


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
        """_at_most[s, k] = C(k + s, s): the states of s sites holding at most k particles.

        Its largest entry is C(N + L - 1, L - 1) = dim.  The memory gate of
        enumerate_basis keeps dim <= MemAvailable / (40 L), far below the
        2^63 of int64.
        """
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


def basis_dimension(N: int, L: int) -> int:
    """Number of N-particle states on L sites, C(N+L-1, N)."""
    return math.comb(N + L - 1, N)


def enumerate_basis(N: int, L: int) -> FockBasis:
    """All occupation vectors with sum N on L sites, lexicographically ordered.

    A basis whose arrays would not fit in the available memory is refused
    before it is built.
    """
    if N < 1:
        raise BadParameterError(f"need at least one particle, got N={N}")
    if L < 2:
        raise BadParameterError(f"need at least two sites, got L={L}")
    _refuse_past_memory("basis enumeration", N, L, lambda dim: _basis_bytes(dim, L))
    dim = basis_dimension(N, L)

    # Stars and bars: the gaps between L-1 bars among N+L-1 slots are the
    # occupations; bars in lexicographic order give states in that order.
    bars = itertools.chain.from_iterable(itertools.combinations(range(N + L - 1), L - 1))
    bars = np.fromiter(bars, np.int64, dim * (L - 1)).reshape(dim, L - 1)
    states = np.diff(bars, axis=1, prepend=-1, append=N + L - 1) - 1
    return FockBasis(N=N, L=L, states=states)


def dense_bytes(dim: int) -> int:
    """Memory one dense diagonalization of dimension dim holds at once, in bytes."""
    return round(8 * DENSE_MATRICES) * dim * dim


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


def _basis_bytes(dim, L: int):
    """Memory of BASIS_ARRAYS dim x L arrays of 8 bytes."""
    return BASIS_ARRAYS * 8 * dim * L


def sector_bytes(N: int, L: int) -> int:
    """Memory the sector solve of (N, L) holds at once, in bytes: SECTOR_MATRICES
    real matrices the size of the largest block, and BASIS_ARRAYS dim x L
    arrays."""
    return SECTOR_MATRICES * 8 * orbit_count(N, L) ** 2 + _basis_bytes(basis_dimension(N, L), L)


def _refuse_past_memory(what: str, N: int, L: int, need) -> None:
    """CapacityError when ``what`` on the (N, L) basis, holding need(dim)
    bytes at once, would not fit in the available memory; no check where
    that cannot be read.

    Every need is at least half the basis arrays (_basis_bytes; dense
    20 dim^2 >= 20 dim L, as dim >= L).  So a lattice whose arrays, at the
    dimension estimated from math.lgamma, take more than three times the
    available memory is refused at once, with no exact binomial and no
    orbit count; otherwise dim and L are small, and the need is counted
    exactly and put to require_memory.
    """
    available = _available_bytes()
    if available is None:
        return
    where = f"N={N}, L={L}: {what}"
    log_dim = math.lgamma(N + L) - math.lgamma(N + 1) - math.lgamma(L)
    if _basis_bytes(math.exp(min(log_dim, 300.0)), L) > 3 * available:  # e^300 states fit nowhere
        raise CapacityError(
            f"{where} of about 10^{log_dim / math.log(10):.1f} states needs more than "
            f"the {available} bytes of memory available"
        )
    dim = basis_dimension(N, L)
    require_memory(f"{where} of dimension {dim}", need(dim))


def require_capacity(N: int, L: int) -> None:
    """The refusal of sector_spectrum: CapacityError when its solve would not
    fit in the available memory (sector_bytes)."""
    _refuse_past_memory("sector diagonalization", N, L, lambda dim: sector_bytes(N, L))


def require_grid_capacity(count: int, what: str) -> int:
    """count, or CapacityError when that many grid points, at POINT_BYTES
    each, would not fit in memory."""
    require_memory(f"a {what} of {count} points", count * POINT_BYTES)
    return count


def require_memory(what: str, needed: int) -> None:
    """The memory gate: CapacityError when ``what``, holding ``needed`` bytes
    at once, would not fit in the available memory; no check where that
    cannot be read.  The message gives both byte counts."""
    available = _available_bytes()
    if available is not None and needed > available:
        raise CapacityError(
            f"{what} needs about {needed} bytes, but only {available} bytes of memory are available"
        )


def _available_bytes() -> int | None:
    """MemAvailable of /proc/meminfo in bytes; where that cannot be read, the
    physical memory (os.sysconf); None where neither can."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * size if pages > 0 and size > 0 else None


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
    if not 0 <= J < math.inf:
        raise BadParameterError(f"tunneling must be non-negative and finite, got J={J}")
    if not 0 <= U < math.inf:
        raise BadParameterError(f"interaction must be non-negative and finite, got U={U}")
    dim = basis.dim
    _refuse_past_memory("dense diagonalization", basis.N, basis.L, dense_bytes)
    source, target, root = _hops(basis, np.arange(dim))
    # Both directions go into one matrix, with no hop + hop.T temporary.  No
    # element takes more than two hops (two only at L = 2, where a pair of
    # states is linked once each way round the ring), and a sum of two terms
    # does not depend on their order, so H is hop + hop.T bit for bit.
    H = np.zeros((dim, dim))
    np.add.at(H, (target, source), -J * root)
    np.add.at(H, (source, target), -J * root)
    diag = 0.5 * U * np.sum(basis.states * (basis.states - 1), axis=1)
    H[np.diag_indices(dim)] += diag
    return H


@dataclass
class SpectrumResult:
    """Full spectrum plus what the cross section needs of each eigenstate.

    density_elements fills ``density_elements[e, j]`` = <e| n_j |g>, whose
    ground row is the ground-state density profile.  A sector solve fills
    the channels instead: ``momenta[e]``, the lattice momentum K of state e
    in (-pi, pi], and ``weights[e]`` = |<e|n_0|g>|^2.  ``eigenvectors`` is
    None when the result was reconstructed from a cache file or solved in
    sectors (the cross section does not need it).  ``residual`` (the worst
    eigenpair residual over ||H||), ``ground_gap`` (E_1 - E_0),
    ``fsum_residual`` and ``s0_residual`` (the worst f-sum and zeroth-moment
    residuals, sector solves only) are the checks of the solve, None where
    the spectrum was not solved here.
    Instances are treated as immutable once construction has filled them.
    A spectrum also keeps the open channels of the last probe energy asked
    for (``channels``), one entry that holds no cross section.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    ground_energy: float
    ground_index: int
    density_elements: np.ndarray | None = None
    residual: float | None = None
    ground_gap: float | None = None
    momenta: np.ndarray | None = None
    weights: np.ndarray | None = None
    fsum_residual: float | None = None
    s0_residual: float | None = None

    def channels(self, E0: float) -> OpenChannels:
        """The excited states with E - E_ground < E0, kept for the last E0 asked for.

        count is the number of them.  A sector spectrum's rows are the
        momenta and weights of those that carry weight (no excited K = 0
        state does), a dense spectrum's row is their part of the table of
        <e|n_j|g>.
        """
        return last_channels(self, E0, self._open_states)

    def _open_states(self, E0: float) -> OpenChannels:
        dE = self.eigenvalues - self.ground_energy
        dE[self.ground_index] = np.inf  # the ground state is not a channel
        count = int(np.count_nonzero(dE < E0))
        if self.weights is None:
            return open_channels(dE, E0, (self.density_elements,), count)
        dE[~(self.weights > 0)] = np.inf  # nor is a state that carries no weight
        return open_channels(dE, E0, (self.momenta, self.weights), count)


def _worst_residual(A, V: np.ndarray, w: np.ndarray) -> float:
    """Largest ||A v - lambda v|| of the eigenpairs, A dense or sparse, in BLOCK-column strips."""
    worst = 0.0
    for start in range(0, w.size, BLOCK):
        block = slice(start, start + BLOCK)
        R = A @ V[:, block] - V[:, block] * w[block]
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


def full_spectrum(H: np.ndarray) -> SpectrumResult:
    """All eigenpairs of a dense real symmetric matrix, with sanity checks.

    H is solved in its own storage or refused.  A matrix that is not
    square, or not a writeable, C-contiguous float64 array, is refused with
    BadParameterError.  CapacityError refuses the call when the eigenvectors
    and the sparse copy of H, 36 bytes per nonzero at its peak (measured
    with tracemalloc at dims 300 to 3003, dense or not), would not fit in
    the available memory.  Only then is SciPy imported, the only place that
    needs it, so a scan run, which solves in sectors, never loads it.

    The sparse copy S (about 12 bytes per nonzero) refuses a matrix that is
    not finite and exactly symmetric, before the solve, and gives the
    residuals.  LAPACK gets H.T, a Fortran-ordered array with the same
    numbers as the copy SciPy would make, so the solve holds two dim x dim
    matrices, H and the eigenvectors, instead of three.  The solver
    overwrites H; S.toarray(out=H) writes it back afterwards, even when the
    solve raises, so H is equal to what it was (bit for bit, but that a
    zero stored as -0.0 comes back as +0.0), and one H must not be shared
    by threads that call full_spectrum at the same time.

    Verifies the per-pair residual ||Hv - lambda v|| <= 1e-8 ||H|| and that
    the ground state is unique (gap above 1e-10 of the spectral range).
    """
    dim = H.shape[0]
    if H.shape != (dim, dim):
        raise BadParameterError(f"matrix must be square, got shape {H.shape}")
    if not (H.dtype == np.float64 and H.flags.c_contiguous and H.flags.writeable):
        raise BadParameterError(
            f"matrix must be real and solvable in place (writeable, C-contiguous float64), got "
            f"dtype {H.dtype}, writeable {H.flags.writeable}, C-contiguous {H.flags.c_contiguous}"
        )
    nonzeros = np.count_nonzero(H)
    require_memory(
        f"dense diagonalization of dimension {dim} with {nonzeros} nonzeros",
        8 * dim * dim + 36 * nonzeros,
    )
    import scipy.linalg
    import scipy.sparse

    S = scipy.sparse.csr_array(H)
    if not np.isfinite(S.data).all() or (S != S.T).nnz:
        raise BadParameterError("matrix must be finite and exactly symmetric")
    try:
        w, V = scipy.linalg.eigh(H.T, overwrite_a=True, check_finite=False)
    finally:
        S.toarray(out=H)
    residual, gap = _checked(w, _worst_residual(S, V, w))
    return SpectrumResult(
        eigenvalues=w,
        eigenvectors=V,
        ground_energy=float(w[0]),
        ground_index=0,
        residual=residual,
        ground_gap=gap,
    )


def density_elements(result: SpectrumResult, basis: FockBasis) -> np.ndarray:
    """Table of <e| n_j |g> for every eigenstate e and site j.

    n_j is diagonal in the Fock basis, so the table is a single contraction
    of the (real) eigenvector matrix with the occupation table.  The ground
    row must sum to N (particle-number conservation) and be uniform at N/L
    (translation invariance of the unique ground state), both to
    1e-10 max(1, N); NumericalError otherwise.
    """
    if result.density_elements is not None:
        return result.density_elements
    if result.eigenvectors is None:
        raise BadParameterError("spectrum carries no eigenvectors (cache-loaded?)")
    V = result.eigenvectors
    g = V[:, result.ground_index]
    occ = basis.states.astype(float)
    table = V.T @ (occ * g[:, None])

    N, ground_row = basis.N, table[result.ground_index]
    tol = 1e-10 * max(1.0, float(N))
    if not abs(float(np.sum(ground_row)) - N) <= tol:
        raise NumericalError(f"ground-state density sums to {np.sum(ground_row)!r}, expected N={N}")
    if not np.max(np.abs(ground_row - N / basis.L)) <= tol:
        raise NumericalError(
            "ground-state density profile is not uniform; translation symmetry looks broken"
        )
    result.density_elements = table
    return table


def diagonalize(lattice: LatticeSpec) -> SpectrumResult:
    """Basis, Hamiltonian, spectrum and density elements for one lattice: the
    dense oracle of sector_spectrum.

    The memory gate of build_hamiltonian is checked before the basis is
    built, so a refused lattice allocates nothing.  full_spectrum solves
    the Hamiltonian, and density_elements fills in the table of <e|n_j|g>.
    """
    _refuse_past_memory("dense diagonalization", lattice.N, lattice.L, dense_bytes)
    basis = enumerate_basis(lattice.N, lattice.L)
    result = full_spectrum(build_hamiltonian(basis, lattice.J, lattice.U))
    density_elements(result, basis)
    return result


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


def _parity_basis(K: float, members, position, mirror, turned):
    """The reflection-even semi-momentum basis of sector 0 < K < pi.

    With |a,K> = p_a^{-1/2} sum_d e^{-iKd} T^d |a> and the reflection
    P: n_j -> n_{-j}, P|a> = T^s |b> maps orbit a to orbit b = mirror[a],
    s = turned[a].  P C (C the complex conjugation) maps |a,K> to
    e^{iKs} |b,K>, so the vectors it fixes, e^{iKs/2} |a,K> when b = a and
    e^{iKs/2} (|a,K> +- |b,K>) (1, i) / sqrt(2) for a pair a < b, are an
    orthonormal basis in which the sector's block is real.  (1 + P) takes
    them to the real states sqrt(2/p) sum_d cos(K(d - s/2)) T^d |a> and
    their cos and sin pair combinations: the even-parity semi-momentum
    states of the K, -K pair, whose odd partners share the spectrum.

    Returns, for each member at position x, the two columns of the basis
    vectors it enters and its coefficients there (the second is 0 when the
    orbit is its own mirror image).
    """
    x = np.arange(members.size)
    partner = position[mirror[members]]
    low, high = np.minimum(x, partner), np.maximum(x, partner)
    phase = np.exp(0.5j * K * turned[members[low]])
    pair = x != partner
    scale = np.where(pair, math.sqrt(0.5), 1.0) * phase
    coef = np.stack([scale, scale * np.where(x == low, 1j, -1j) * pair], axis=1)
    return np.stack([low, high], axis=1), coef


def sector_spectrum(lattice: LatticeSpec) -> SpectrumResult:
    """The spectrum and scattering channels of one lattice, solved in momentum sectors.

    Sector K = 2 pi m / L holds one state |r, K> per translation orbit r
    whose period p has m p = 0 mod L.  The hops out of each representative
    give its block, assembled by the same lines in every sector in a real
    basis: each orbit is its own column at K = 0 and pi, and for 0 < K < pi
    the columns are the reflection-even semi-momentum states (_parity_basis).
    numpy.linalg.eigh solves each block.  Only m = 0..L//2 are solved:
    sector -K has the spectrum of sector K.

    The ground state g is the lowest of K = 0, and every eigenstate e is
    one channel: its energy, its momentum K and its weight |c|^2 with
    c = <e|n_0|g>, since <e|n_j|g> = e^{iKj} c.  The ground channel has
    c = N/L; every other K = 0 weight is exactly 0, because
    sum_j n_j |g> = N |g>; a level of 0 < K < pi is two channels, +K and
    -K, of the same weight.  The weights do not depend on any eigenvector
    phase.  Channels are in ascending order of energy.

    The refusal of require_capacity comes first.  The checks are those of
    full_spectrum (every block's residual against the ||H|| of the whole
    spectrum, and the ground-state gap), the ground channel
    (ground_channel_fault), and the f-sum rule and the zeroth moment of
    every K != 0 (moment_residuals), refused above FSUM_TOL and S0_TOL.
    ``eigenvectors`` and ``density_elements`` are None.
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
    mirrored = basis.ranks(np.roll(occ[:, ::-1], 1, axis=1))  # n_j -> n_{-j}
    mirror, turned = orbit[mirrored], shift[mirrored]

    values, momenta, weights, worst = [], [], [], 0.0
    for m in range(L // 2 + 1):
        K = 2 * np.pi * m / L
        members = np.flatnonzero(m * period % L == 0)
        position = np.full(reps.size, -1)
        position[members] = np.arange(members.size)
        keep = (position[source] >= 0) & (position[into] >= 0)
        rows, cols = position[into[keep]], position[source[keep]]
        if 2 * m % L == 0:  # K = 0 or pi: real in the momentum states
            slot, coef = np.arange(members.size)[:, None], np.ones((members.size, 1))
        else:
            slot, coef = _parity_basis(K, members, position, mirror, turned)
        copies = slot.shape[1]  # the channels of a level: K, or K and -K
        hop = amplitude[keep] * np.exp(1j * K * turn[keep])
        block = np.zeros((members.size, members.size))
        for a in range(copies):
            for b in range(copies):
                term = np.conj(coef[rows, a]) * hop * coef[cols, b]
                np.add.at(block, (slot[rows, a], slot[cols, b]), term.real)
        block = block + block.T
        block[np.diag_indices(members.size)] += onsite[members]
        w, C = np.linalg.eigh(block)
        worst = max(worst, _worst_residual(block, C, w))
        if m == 0:
            ground = C[:, 0].copy()  # every orbit has a K = 0 state
            hopping = 2 * np.dot(ground[into], amplitude * ground[source])  # <g|H_hop|g>
        overlap = ground[members] * transform[members, m]  # <r,K|n_0|g>
        # in the block's basis, one column an orbit at K = 0 and pi; real,
        # since P C fixes n_0|g> too
        overlap = sum(
            np.bincount(slot[:, a], (np.conj(coef[:, a]) * overlap).real, members.size)
            for a in range(copies)
        )
        weight = (C.T @ overlap) ** 2
        if m == 0:
            weight[1:] = 0.0  # sum_j n_j |g> = N |g>: no excited K = 0 state has weight
        del block, C  # before the next sector's block is built
        values.append(np.repeat(w, copies))
        momenta.append(np.tile([K, -K][:copies], w.size))
        weights.append(np.repeat(weight, copies))

    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    w, K, weight = values[order], np.concatenate(momenta)[order], np.concatenate(weights)[order]
    residual, gap = _checked(w, worst)
    fault = ground_channel_fault(K[0], weight[0], N, L)
    if fault:
        raise NumericalError(fault)
    direct = ground**2 @ np.abs(transform) ** 2  # <g|rho_{-K} rho_K|g> / L^2 for every m
    fsum, s0 = moment_residuals(w, K, weight, hopping, direct, lattice)
    for name, value, tol in (("f-sum", fsum, FSUM_TOL), ("zeroth-moment", s0, S0_TOL)):
        if not value <= tol:
            raise NumericalError(
                f"{name} residual {value:.3e} exceeds {tol:.0e}; the sector solve is inconsistent"
            )
    return SpectrumResult(
        eigenvalues=w,
        eigenvectors=None,
        ground_energy=float(w[0]),
        ground_index=0,
        residual=residual,
        ground_gap=gap,
        momenta=K,
        weights=weight,
        fsum_residual=fsum,
        s0_residual=s0,
    )


def ground_channel_fault(momentum, weight, N: int, L: int) -> str | None:
    """Why a ground channel (K, |<g|n_0|g>|^2) cannot belong to the unique
    ground state, or None.

    The translation-invariant ground state has K = 0 and <g|n_0|g> = N/L,
    so its weight must be (N/L)^2 to 1e-10 max(1, N).  Both are read as
    Python floats, numpy scalars included.
    """
    momentum, weight = float(momentum), float(weight)
    if momentum != 0:
        return f"ground state has momentum {momentum!r}, expected 0"
    if not abs(weight - (N / L) ** 2) <= 1e-10 * max(1.0, float(N)):
        return f"ground-state weight is {weight!r}, expected (N/L)^2 = {(N / L) ** 2!r}"
    return None


def moment_residuals(eigenvalues, momenta, weights, hopping: float, direct, lattice) -> tuple:
    """The worst f-sum and zeroth-moment residuals over the momenta K != 0 of
    a channel list in ascending order of energy, the ground channel first.

    With rho_K = sum_j e^{iKj} n_j, a channel of momentum K carries
    |<e|rho_{-K}|g>|^2 = L^2 |c|^2.  The zeroth moment S0(K) = L^2 sum over
    K-channels of |c|^2 must equal <g|rho_{-K} rho_K|g> = L^2 ``direct[m]``,
    K = 2 pi m / L, to a relative residual.  The f-sum rule reads
    S1(K) = L^2 sum over K-channels of omega |c|^2 = (1 - cos K)(-<g|H_hop|g>),
    omega the excitation energy and ``hopping`` = <g|H_hop|g>.  Its residual
    is taken over ||H|| S0(K), the eigenvalues' rounding scale, plus
    (1 - cos K) ||H_hop|| = (1 - cos K) 2 J N: both sides are expectation
    values of (1 - cos K) H_hop in the ground vector, whose components carry
    an absolute rounding however small they are.  Deep in the Mott regime
    S0 and <g|H_hop|g> fall as J^2/U, and without that term a correct
    solve's residual grows as U/J.  A momentum that lost its channels reads
    |<g|H_hop|g>| / (2 J N), about 1 in the superfluid.

    The zeroth moment is taken over ``direct`` or eps (N/L)^2, whichever is
    larger.  S0 is read in the reflection-even basis of the sector, which
    drops the odd part of n_0|g>.  That part is zero but for the ground
    vector's absolute rounding, about eps per component times an orbit's
    |(1/L) sum_j e^{-iKj} n_j| <= N/L, so |S0 - direct| keeps a floor near
    (eps N/L)^2 while ``direct`` falls as (J/U)^2 deep in the Mott regime;
    without the floor a correct solve's residual grows as (U/J)^2 (1.6e-9
    at (L, N, U/J) = (7, 7, 1e11)).  Over that scale the floor reads about
    eps.  Where ``direct`` is above it, the residual is relative, and a
    momentum that lost its channels reads 1; below it, only
    direct / (eps (N/L)^2), 2e-7 at (7, 7, 1e11).
    """
    L = lattice.L
    m = np.rint(np.asarray(momenta) * L / (2 * np.pi)).astype(np.int64) % L
    omega = eigenvalues - eigenvalues[0]
    s1 = L * L * np.bincount(m, omega * weights, L)[1:]
    s0 = np.bincount(m, weights, L)[1:]
    bend = 1 - np.cos(2 * np.pi * np.arange(1, L) / L)  # 1 - cos K
    norm = max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
    scale = norm * L * L * s0 + bend * 2 * lattice.J * lattice.N
    fsum = np.max(np.abs(s1 - bend * -hopping) / scale)
    floor = np.finfo(float).eps * (lattice.N / L) ** 2
    zeroth = np.max(np.abs(s0 - direct[1:]) / np.maximum(direct[1:], floor))
    return float(fsum), float(zeroth)


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
              = (N/L)^2 |Sigma(k_el)|^2 |W(k_el)|^2
    inelastic = sum over states with dE < E0 of
                sqrt(1 - dE/E0) |W(k_e)|^2 |sum_j e^{i k_e x_j} <e|n_j|g>|^2

    with k_e the energy-rescaled momentum transfer; the two forms of the
    elastic term are equal because <g|n_j|g> = N/L.  The record reads the
    inelastic term from exact_inelastic_curve, the elastic one from
    model.elastic_curve, and the count of states below E0 from the
    spectrum's channels at the probe's energy.  When k_el sits on a
    reciprocal lattice vector (theta = 0 included) the lattice phases
    interfere destructively and the inelastic part is exactly zero.
    """
    inelastic = exact_inelastic_curve(spectrum, lattice, [probe])[0]
    elastic = elastic_curve(lattice.L, lattice.N, [probe], lattice.V0)[0]
    count = spectrum.channels(probe.E0).count
    return ExactCrossSection(probe.theta, float(elastic), float(inelastic), count)


def exact_inelastic_curve(spectrum: SpectrumResult, lattice: LatticeSpec, probes) -> np.ndarray:
    """Inelastic cross section (a_s^2) at every probe, one float64 per probe,
    in one open-channel sum over spectrum.channels.

    A sector spectrum sums its channels: a state of momentum K and weight
    |c|^2 adds root |W(kappa)|^2 |c|^2 |Sigma(kappa + K)|^2, with kappa + K
    folded into (-pi, pi] so that |Sigma|^2 keeps its precision next to a
    Bragg peak.  A dense spectrum sums its table of <e|n_j|g> against the
    lattice phases.  Either is first checked to be a spectrum of the
    lattice.
    """
    if spectrum.weights is not None:
        return _channel_sums(spectrum, lattice, probes)
    if spectrum.density_elements is not None:
        return _table_sums(spectrum, lattice, probes)
    raise BadParameterError("spectrum has neither channels nor density elements")


def _channel_sums(spectrum, lattice, probes):
    """Inelastic cross section per probe from the channels at each energy.

    Only the channels that carry weight are summed: no excited K = 0 state
    does.  The spectrum must have the lattice's dimension and its ground
    channel (ground_channel_fault): at a fixed filling N/L, which fixes the
    ground weight (N/L)^2, the dimension grows with L, so the two fix (N, L).
    """
    N, L, g = lattice.N, lattice.L, spectrum.ground_index
    dim = basis_dimension(N, L)
    if spectrum.weights.size != dim:
        raise BadParameterError(
            f"spectrum has {spectrum.weights.size} channels, the lattice's basis has {dim} states"
        )
    fault = ground_channel_fault(spectrum.momenta[g], spectrum.weights[g], N, L)
    if fault:
        raise BadParameterError(
            f"a spectrum of {dim} states is not one of the lattice N={N}, L={L}: {fault}"
        )

    def summand(channels, kappa, kel):
        momentum, weight = channels.rows
        folded = kappa + momentum
        np.subtract(np.pi, folded, out=folded)
        np.mod(folded, 2 * np.pi, out=folded)
        np.subtract(np.pi, folded, out=folded)  # into (-pi, pi]
        out = form_factor(kappa, lattice.V0)
        np.square(out, out=out)
        out *= channels.root
        out *= weight
        out *= lattice_sum_sq(folded, lattice.L)
        return out

    return open_channel_sum(probes, spectrum.channels, summand)


def _table_sums(spectrum, lattice, probes):
    """Inelastic cross section per probe from the density table's rows at
    each energy.

    The phases e^{i k_e x_j} are taken once per distinct root of the entry
    and gathered back to its channels in their order, so each channel sees
    the floats it would see alone and every sum is bit for bit the one of a
    phase per channel.  The table must have the lattice's sites, and its
    ground row must sum to the lattice's N to density_elements' 1e-10
    max(1, N).
    """
    table = spectrum.density_elements
    N, L = lattice.N, lattice.L
    if table.shape[1] != L:
        raise BadParameterError(
            f"spectrum was computed for {table.shape[1]} sites, lattice has {L}"
        )
    particles = math.fsum(table[spectrum.ground_index].tolist())
    if not abs(particles - N) <= 1e-10 * max(1.0, float(N)):
        raise BadParameterError(
            f"a spectrum of {particles:.10g} particles on {L} sites is not one of the "
            f"lattice N={N}, L={L}"
        )
    x = np.arange(1, L + 1, dtype=float)

    def summand(channels, kappa_e, kel):
        (rows,) = channels.rows
        distinct, inverse = channels.distinct
        phases = 1j * ((kel * distinct)[..., None] * x)
        np.exp(phases, out=phases)
        amps = np.abs(np.einsum("pej,ej->pe", np.take(phases, inverse, axis=1), rows))
        out = form_factor(kappa_e, lattice.V0)
        np.square(out, out=out)
        out *= channels.root
        out *= np.square(amps, out=amps)
        return out

    return open_channel_sum(probes, spectrum.channels, summand)
