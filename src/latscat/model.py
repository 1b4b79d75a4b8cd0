"""Unit conventions, probe kinematics, lattice dispersion and form factors.

Also the elastic cross section every provenance shares (elastic_curve),
and the one open-channel kernel of every inelastic Born sum, exact or
quasiparticle: open_channel_sum(probes, channels_at, summand) asks
channels_at(E0) once per run of consecutive probes of one energy, hands
that OpenChannels entry to summand(channels, kappa, kel) and returns one
sum per probe.  A spectrum or a condensate keeps the entry of the last E0
it was asked for (last_channels), so one-probe calls build it once.

Unit system: lattice constant d = 1, recoil energy E_r = 1, scattering
length a_s = 1. Energies (J, U, E0, dispersions) are therefore pure
numbers in units of E_r, momenta in units of 1/d, and cross sections in
units of a_s^2.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError

# Benchmark defaults for a V0 = 15 E_r lattice.
DEFAULT_J = 0.0065
DEFAULT_V0 = 15.0
DEFAULT_E0 = 2.0
DEFAULT_MASS_RATIO = 1.0

# |sin(k/2)| below this triggers the removable-singularity branch of the
# interference sum, and a momentum this close to a reciprocal vector is
# treated as exactly Bragg-matched (perfect destructive interference for
# the inelastic channel).
RECIPROCAL_TOL = 1e-9


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters of the Bose-Hubbard chain, all in recoil/lattice units.

    Attributes
    ----------
    L : int
        Number of sites (>= 2), periodic boundary conditions.
    V0 : float
        Optical lattice depth in E_r; only enters through the Gaussian
        on-site orbital.
    J : float
        Nearest-neighbour tunneling energy in E_r.
    U : float
        On-site interaction energy in E_r (repulsive, >= 0).
    n : float
        Mean filling factor N/L.
    """

    L: int
    n: float
    U: float = 0.0
    J: float = DEFAULT_J
    V0: float = DEFAULT_V0

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 2:
            raise BadParameterError(f"lattice needs an integer L >= 2, got {self.L!r}")
        if self.L > sys.float_info.max:  # exact comparison; n * L would overflow
            raise BadParameterError(
                f"lattice needs L below {sys.float_info.max:.4g}, got an L of "
                f"{int(self.L).bit_length()} bits"
            )
        if not 0 < self.V0 < math.inf:
            raise BadParameterError(f"lattice depth must be positive and finite, got V0={self.V0}")
        if not 0 < self.J < math.inf:
            raise BadParameterError(f"tunneling must be positive and finite, got J={self.J}")
        if not 0 <= self.U < math.inf:
            raise BadParameterError(f"interaction must be non-negative and finite, got U={self.U}")
        if not 0 < self.n * self.L < math.inf:
            raise BadParameterError(f"filling needs a finite n*L > 0, got n={self.n}, L={self.L}")

    @property
    def N(self) -> int:
        """Particle number realized on the chain, N = round(n L)."""
        return int(round(self.n * self.L))

    @property
    def realized_n(self) -> float:
        """Filling actually realized by the integer particle number."""
        return self.N / self.L

    @property
    def u_dimensionless(self) -> float:
        """Interaction measured against the kinetic scale, Un/J."""
        return self.U * self.n / self.J


@dataclass(frozen=True)
class ProbeSpec:
    """Incoming probe particle: energy E0 (E_r), mass ratio m/M, angle theta."""

    E0: float
    theta: float
    mass_ratio: float = DEFAULT_MASS_RATIO

    def __post_init__(self):
        if not 0 < self.E0 < math.inf:
            raise BadParameterError(f"probe energy must be positive and finite, got E0={self.E0}")
        if not 0 < self.mass_ratio < math.inf:
            raise BadParameterError(
                f"mass ratio must be positive and finite, got {self.mass_ratio}"
            )
        if not self.E0 * self.mass_ratio < math.inf:
            raise BadParameterError(
                f"probe needs a finite E0*mass_ratio, got E0={self.E0}, "
                f"mass_ratio={self.mass_ratio}"
            )
        if not -np.pi / 2 <= self.theta <= np.pi / 2:
            raise BadParameterError(
                f"scattering angle must lie in [-pi/2, pi/2], got {self.theta}"
            )


def quasimomentum_grid(L: int) -> np.ndarray:
    """Allowed quasimomenta q_s = 2*pi*s/L for s = 1..L-1 (q = 0 excluded)."""
    if not isinstance(L, (int, np.integer)) or L < 2:
        raise BadParameterError(f"momentum grid needs an integer L >= 2, got {L!r}")
    return 2.0 * np.pi * np.arange(1, L) / L


def bloch_dispersion(q, J: float):
    """Lowest-band dispersion eps_q = 4 J sin^2(q/2); 2*pi-periodic, eps_0 = 0."""
    if not 0 < J < math.inf:
        raise BadParameterError(f"tunneling must be positive and finite, got J={J}")
    return 4.0 * J * np.sin(np.asarray(q, dtype=float) / 2.0) ** 2


def kappa_elastic(probe: ProbeSpec) -> float:
    """Elastic momentum transfer along the lattice, kappa_el = -pi sin(theta) sqrt(E0 m/M)."""
    return -np.pi * np.sin(probe.theta) * np.sqrt(probe.E0 * probe.mass_ratio)


def form_factor(kappa, V0: float):
    """Gaussian on-site form factor W(kappa) = exp(-(kappa d)^2 / (4 pi^2 sqrt(V0))).

    An array is evaluated in place in one array of its own, and kappa is
    never written.  A scalar takes numpy's scalar arithmetic instead, which
    is faster than filling a 0-d array, with the same operations.
    """
    if not 0 < V0 < math.inf:
        raise BadParameterError(f"lattice depth must be positive and finite, got V0={V0}")
    kappa = np.asarray(kappa, dtype=float)
    scale = 4.0 * np.pi**2 * np.sqrt(V0)
    if not kappa.ndim:
        return np.exp(-kappa**2 / scale)
    out = np.square(kappa)
    np.negative(out, out=out)
    np.divide(out, scale, out=out)
    return np.exp(out, out=out)


def lattice_sum_sq(k, L: int):
    """Squared interference sum |Sigma(k)|^2 = sin^2(kL/2) / sin^2(k/2).

    At the removable singularities k = 0 (mod 2*pi) the coherent value L^2
    is returned; the branch triggers for |sin(k/2)| < 1e-9.  An array is
    evaluated in place in two arrays of its own, and k is never written.  A
    scalar takes numpy's scalar arithmetic instead, with the same ufuncs
    (np.square, not **, which rounds otherwise on a numpy scalar), and
    gives a float equal to the one-element array's.
    """
    if not isinstance(L, (int, np.integer)) or L < 2:
        raise BadParameterError(f"interference sum needs an integer L >= 2, got {L!r}")
    k = np.asarray(k, dtype=float)
    if not k.ndim:
        half_sin = np.sin(k / 2.0)
        if abs(half_sin) < RECIPROCAL_TOL:
            return float(L * L)
        return float(np.square(np.sin(k * L / 2.0)) / np.square(half_sin))
    denom = np.divide(k, 2.0)
    np.sin(denom, out=denom)
    out = np.abs(denom)
    singular = out < RECIPROCAL_TOL
    np.square(denom, out=denom)
    np.copyto(denom, 1.0, where=singular)
    np.multiply(k, L, out=out)
    np.divide(out, 2.0, out=out)
    np.sin(out, out=out)
    np.square(out, out=out)
    np.divide(out, denom, out=out)
    np.copyto(out, float(L * L), where=singular)
    return out


def fold_to_zone(k):
    """Fold a momentum into the first zone [0, 2*pi)."""
    return np.mod(k, 2.0 * np.pi)


def is_reciprocal(kappa):
    """True when kappa sits within RECIPROCAL_TOL of a reciprocal lattice vector 2*pi*j.

    Used by every inelastic evaluator: at these momenta (theta = 0 included)
    the lattice phases interfere destructively and the inelastic signal is
    reported as exactly zero.  A scalar gives a bool, an array a mask.
    """
    folded = fold_to_zone(kappa)
    near = np.minimum(folded, 2.0 * np.pi - folded) < RECIPROCAL_TOL
    return near if near.ndim else bool(near)


def elastic_curve(L: int, N, probes, V0: float = DEFAULT_V0) -> np.ndarray:
    """Elastic cross section (a_s^2) at every probe, one float64 per probe.

    (N/L)^2 |Sigma(kappa_el)|^2 |W(kappa_el)|^2: the coherent Bragg pattern
    of a lattice whose every site holds N/L particles on average.  That is
    exact for the translation-invariant ground state, <g|n_j|g> = N/L, and
    every provenance shares it; the off-diagonal orbital corrections are
    dropped (deep-lattice regime).  Each probe takes the scalar arithmetic
    of lattice_sum_sq and form_factor: about 5 us, a third of one call of
    their array forms, and most callers pass one probe.
    """
    if not 0 < N < math.inf:
        raise BadParameterError(f"particle number must be positive and finite, got N={N}")
    kels = [kappa_elastic(p) for p in probes]
    scale = (N / L) ** 2
    return np.array([scale * lattice_sum_sq(k, L) * float(form_factor(k, V0)) ** 2 for k in kels])


# open_channel_sum hands its summand at most this many (probe, channel)
# terms at once, so a long list of probes keeps a bounded footprint.
CHUNK_TERMS = 1 << 14


@dataclass(frozen=True)
class OpenChannels:
    """The channels of one owner that a probe of energy E0 can excite.

    ``root`` is sqrt(1 - omega/E0) at the owner's channel energies omega
    below E0, ``count`` is the number of the owner's states below E0, and
    ``rows`` are the owner's per-channel arrays at the open channels: views
    when every channel is open, copies otherwise.  Every array is
    read-only.  An entry holds channel data only, never a cross section.
    """

    E0: float
    root: np.ndarray
    count: int
    rows: tuple = ()


def open_channels(omega, E0: float, rows=(), count=None) -> OpenChannels:
    """The channels of omega below E0, with each of ``rows`` taken at them.

    count defaults to the number of open channels.
    """
    open_ = omega < E0
    if open_.all():
        root = np.sqrt(1.0 - omega / E0)
        # views, C-contiguous as row[open_] would be; the owner's arrays stay writeable
        rows = tuple(np.ascontiguousarray(row).view() for row in rows)
    else:
        root = np.sqrt(1.0 - omega[open_] / E0)
        rows = tuple(row[open_] for row in rows)
    for array in (root, *rows):
        array.flags.writeable = False
    return OpenChannels(E0, root, root.size if count is None else count, rows)


def last_channels(owner, E0: float, build) -> OpenChannels:
    """The owner's open channels at E0, kept for the last E0 it was asked for.

    The owner holds one entry, in its ``_open_channels`` attribute.  An
    entry of another energy is replaced by build(E0), which is built in
    full and then published by one store: a thread reads the old entry or
    the new one, never half of one.  No lock is taken.  Threads at
    different energies only rebuild each other's entry, and each goes on
    with the entry it got.
    """
    entry = owner.__dict__.get("_open_channels")
    if entry is None or entry.E0 != E0:
        entry = build(E0)
        owner.__dict__["_open_channels"] = entry
    return entry


def open_channel_sum(probes, channels_at, summand) -> np.ndarray:
    """Sum of summand(channels, kappa, kel) over the channels open at E0, per probe.

    Returns one float64 per probe, in probe order.  channels_at(E0) returns
    the OpenChannels at an energy: an owner's method, which builds them once
    per E0, or open_channels over arrays.  It is asked once for each run of
    consecutive probes of one energy, and the summand reads the root, rows
    and E0 of the entry it got.  The summand sees a block of probes of one
    run: their elastic transfers ``kel`` as a column and kappa = kel * root,
    the energy-rescaled transfers, with one row per probe and one column
    per open channel.  It returns the terms in that shape, and each row is
    summed on its own over the same compacted channels, so a probe's sum is
    bit for bit the one it has alone.  A probe's sum is exactly 0.0 when its
    kel sits on a reciprocal lattice vector (theta = 0 included; its row is
    summed and then overwritten) or no channel is open.
    """
    kels = np.array([kappa_elastic(p) for p in probes], dtype=float)
    out = np.zeros(len(kels))
    stop = 0
    for E0, run in itertools.groupby(probes, key=lambda p: float(p.E0)):
        start, stop = stop, stop + len(list(run))
        channels = channels_at(E0)
        root = channels.root
        if not root.size:
            continue
        step = max(1, CHUNK_TERMS // root.size)
        for lo in range(start, stop, step):
            block = slice(lo, min(lo + step, stop))
            kel = kels[block, None]
            out[block] = summand(channels, kel * root, kel).sum(axis=1)
    out[is_reciprocal(kels)] = 0.0
    return out


def bisect(f, lo: float, hi: float) -> float:
    """Root of f in a bracket with f(lo) <= 0 < f(hi); lo may lie above hi.

    Halves the bracket at most 200 times, until the midpoint stops moving,
    and returns hi, the end on the positive side.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi
