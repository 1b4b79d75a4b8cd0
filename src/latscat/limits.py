"""Closed-form limiting cross sections and asymptotic laws.

Free-gas (superfluid) and strong-repulsion (Mott) limits, the L -> infinity
forms with their kinematic root, the weak-interaction decay slope, the
angles where the finite-size and infinite-size formulas cross, and the
angle-averaged deviation metric between two cross-section curves.  The
kinematic root is one model.bisect, the bisection that also solves the
depletion, on a bracket that always holds a root.

Every inelastic evaluator in this module returns exactly zero when the
elastic momentum transfer sits on a reciprocal lattice vector (theta = 0
included): the lattice phases interfere destructively there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .bogoliubov import (
    BogoliubovState,
    bog_inelastic_curve,
    solve_depletion,
)
from .errors import BadParameterError, UndefinedDeviationError
from .exact import require_memory
from .model import (
    DEFAULT_J,
    DEFAULT_MASS_RATIO,
    DEFAULT_V0,
    RECIPROCAL_TOL,
    LatticeSpec,
    ProbeSpec,
    bisect,
    bloch_dispersion,
    elastic_curve,
    fold_to_zone,
    form_factor,
    is_reciprocal,
    kappa_elastic,
    lattice_sum_sq,
    open_channel_sum,
    open_channels,
)

# Above this probe energy the kinematic corrections to the large-L forms
# are negligible and the shortcut expressions are used.
HIGH_E0_FACTOR = 100.0

# Deviation-average floor: angles where the reference curve falls below
# this fraction of its grid maximum are excluded (0/0 protection).
DEVIATION_FLOOR_FRACTION = 1e-12


def high_probe_energy(E0: float, J: float, u: float = 0.0) -> bool:
    """True when E0 dwarfs every quasiparticle energy scale (shortcut regime)."""
    return E0 > HIGH_E0_FACTOR * J * np.sqrt(1.0 + u / 2.0)


# ------------------------------------------------------------------ limits


@lru_cache(maxsize=1, typed=True)
def _free_state(L: int, J: float) -> BogoliubovState:
    """The interaction-free condensate at unit filling, kept for the last (L, J) asked for.

    Its callers read one lattice at a time, so one condensate is all a
    process holds, however many lattices it sweeps.
    """
    return solve_depletion(LatticeSpec(L=L, n=1.0, U=0.0, J=J))


def sf_inelastic(
    L: int,
    E0: float,
    theta: float,
    V0: float = DEFAULT_V0,
    mass_ratio: float = DEFAULT_MASS_RATIO,
    J: float = DEFAULT_J,
) -> float:
    """Free-gas inelastic cross section per particle (1/(N a_s^2)).

    (1/L^2) sum over q != 0 with eps_q < E0 of
        sqrt(1 - eps_q/E0) |Sigma(kappa_q - q)|^2 |W(kappa_q)|^2.

    Evaluated through the quasiparticle kernel at zero interaction, which
    reduces to this formula identically (same code path, so the two agree
    bit-for-bit).
    """
    probe = ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio)
    return float(sf_inelastic_curve(L, [probe], V0, J)[0])


def sf_inelastic_curve(L: int, probes, V0: float = DEFAULT_V0, J: float = DEFAULT_J):
    """sf_inelastic at every probe, in one open-channel sum."""
    return bog_inelastic_curve(_free_state(L, J), probes, V0)


def elastic_cs(
    L: int,
    N: int,
    E0: float,
    theta: float,
    V0: float = DEFAULT_V0,
    mass_ratio: float = DEFAULT_MASS_RATIO,
) -> float:
    """Elastic cross section (a_s^2) shared by every provenance: elastic_curve at one probe."""
    probe = ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio)
    return float(elastic_curve(L, N, [probe], V0)[0])


def mi_inelastic(
    L: int,
    n: float,
    E0: float,
    theta: float,
    V0: float = DEFAULT_V0,
    mass_ratio: float = DEFAULT_MASS_RATIO,
    U: float = 0.0,
) -> float:
    """Strong-repulsion (insulating-limit) inelastic cross section per particle.

    n(n+1) C (1/L) sum_{j != l} |W_jl(kappa C)|^2 with C = sqrt(1 - U/E0);
    the only open channel costs the interaction energy U, so the channel
    closes (returns 0) once U >= E0.  Orbital overlaps fall off as
    exp(-(j-l)^2 pi^2 sqrt(V0)/2), so the pair sum is truncated at
    separation 3.
    """
    if not 0 < n < math.inf:
        raise BadParameterError(f"filling must be positive and finite, got n={n}")
    if not 0 <= U < math.inf:
        raise BadParameterError(f"interaction must be non-negative and finite, got U={U}")
    if U >= E0:
        return 0.0
    kel = kappa_elastic(ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio))
    if is_reciprocal(kel):
        return 0.0
    C = np.sqrt(1.0 - U / E0)
    kmi = kel * C
    w2 = float(form_factor(kmi, V0)) ** 2
    return n * (n + 1) * C * w2 * _mott_pair_sum(L, V0) / L


@lru_cache(maxsize=16)
def _mott_pair_sum(L: int, V0: float):
    """The Wannier pair sum of mi_inelastic, which no probe enters: once per (L, V0)."""
    pair_sum = 0.0
    for m in range(1, min(3, L - 1) + 1):
        pair_sum += 2 * (L - m) * np.exp(-(m**2) * np.pi**2 * np.sqrt(V0) / 2.0)
    return pair_sum


# ------------------------------------------------------- large-L formulas


def _kinematic_root(kel: float, E0: float, energy_of) -> float:
    """Solve kappa(q) = q with kappa(q) = kel*sqrt(1 - energy_of(q)/E0).

    One model.bisect on the bracket between 0 and kel, which always holds
    a root of kappa(q) - q: energy_of(0) = 0 makes it kel at q = 0, and at
    q = kel it has the opposite sign or is 0, since the square root is at
    most 1 (kel = 0 is a reciprocal vector, which callers return on first).
    A closed channel counts as kappa = 0.  The returned root is the real
    (unfolded) solution.  The band energies rise with |q| up to pi, so for
    |kel| <= pi the root is unique; past that the bracket may hold
    several, and the bisection returns one of them.  The L -> infinity
    limit sums over all of them, which this single-root form does not.
    The residual is taken in Python floats, as energy_of should be: a numpy
    scalar costs about ten times as much, and the bisection takes about 55.
    """
    kel = float(kel)

    def residual(x):
        return kel * math.sqrt(max(0.0, 1.0 - energy_of(x) / E0)) - x

    lo, hi = (kel, 0.0) if kel > 0 else (0.0, kel)
    return bisect(residual, lo, hi)


def largeL_sf_inelastic(
    E0: float,
    theta: float,
    V0: float = DEFAULT_V0,
    mass_ratio: float = DEFAULT_MASS_RATIO,
    J: float = DEFAULT_J,
) -> float:
    """L -> infinity free-gas inelastic cross section per particle.

    In the high-probe-energy regime this collapses to |W(kappa_el)|^2 away
    from reciprocal vectors.  Otherwise the momentum sum concentrates on
    the single root q' of kappa_{q'} = q' and picks up the kinematic
    Jacobian denominator |1 + kel d J sin(q') / (E0 sqrt(1 - eps_{q'}/E0))|.

    Evaluated as largeL_bog_cs at zero interaction, as sf_inelastic is.
    """
    probe = ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio)
    return largeL_bog_cs(_free_state(2, J), probe, V0)


def largeL_bog_cs(state: BogoliubovState, probe: ProbeSpec, V0: float) -> float:
    """L -> infinity quasiparticle inelastic cross section per particle.

    High probe energy: (n0/n) (eps/omega) |W(kappa_el)|^2 with eps, omega
    taken at the zone-folded kappa_el.  Otherwise the root q~ of
    kappa_{q~} = q~ under the interacting dispersion is used, with the
    Jacobian denominator carrying the extra (eps + U n0)/omega factor from
    d(omega)/dq.
    """
    lattice = state.lattice
    kel = kappa_elastic(probe)
    if is_reciprocal(kel):
        return 0.0
    Un0 = state.Un0
    J = lattice.J

    def omega_of(q):
        # bloch_dispersion and np.sqrt in Python floats, with the same bits
        eps = 4.0 * J * math.sin(q / 2.0) ** 2
        return math.sqrt(eps * (eps + 2.0 * Un0))

    if high_probe_energy(probe.E0, J, lattice.u_dimensionless):
        folded = fold_to_zone(kel)
        eps = float(bloch_dispersion(folded, J))
        omega = omega_of(folded)
        return (state.n0 / lattice.n) * (eps / omega) * float(form_factor(kel, V0)) ** 2

    root = _kinematic_root(kel, probe.E0, omega_of)
    if is_reciprocal(root):
        return 0.0
    eps = float(bloch_dispersion(root, J))
    omega = omega_of(root)
    if omega >= probe.E0:
        return 0.0
    weight = np.sqrt(1.0 - omega / probe.E0)
    denom = abs(
        1.0 + kel * J * np.sin(root) * (eps + Un0) / (probe.E0 * omega * weight)
    )
    return (state.n0 / lattice.n) * weight * (eps / omega) * float(
        form_factor(root, V0)
    ) ** 2 / denom


# ----------------------------------------------------------- decay slope


def lattice_sum_sq_derivative(k, L: int):
    """d/dk of the squared interference sum, with the removable singularity.

    Smooth branch: (L/2) sin(Lk)/sin^2(k/2) - |Sigma|^2 cot(k/2).
    Near k = 0 (mod 2*pi) the Taylor form -L^2(L^2-1) k~/6 takes over,
    with k~ the signed distance to the nearest reciprocal vector.
    """
    k = np.asarray(k, dtype=float)
    half = np.sin(k / 2.0)
    near = np.abs(half) < RECIPROCAL_TOL
    ktilde = k - 2.0 * np.pi * np.round(k / (2.0 * np.pi))
    safe_half = np.where(near, 1.0, half)
    sig2 = lattice_sum_sq(k, L)
    smooth = (L / 2.0) * np.sin(L * k) / safe_half**2 - sig2 * np.cos(k / 2.0) / safe_half
    taylor = -(L**2) * (L**2 - 1) / 6.0 * ktilde
    out = np.where(near, taylor, smooth)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SlopeResult:
    """Weak-interaction linear decay of the inelastic cross section.

    lambda_ is the decay rate per unit u = U n/J (trailing underscore only
    because of the Python keyword), gamma_sf the u = 0 intercept, and
    large_l_slope the L -> infinity rate |W(kappa_el)|^2/(4 sin^2(kappa_el/2))
    (infinite on reciprocal vectors, where the decay is fastest).
    """

    lambda_: float
    gamma_sf: float
    large_l_slope: float


def slope_lambda(
    L: int,
    E0: float,
    theta: float,
    V0: float = DEFAULT_V0,
    mass_ratio: float = DEFAULT_MASS_RATIO,
    J: float = DEFAULT_J,
) -> SlopeResult:
    """First-order decay rate of the quasiparticle cross section in u = Un/J.

    Lambda = (J / 2 L^2 E0) * sum over q != 0 (open channels) of
        (2E0 - eps_q)/(eps_q sqrt(1 - eps_q/E0)) * G(kappa_q)
        + kappa_el * dG/dkappa |_{kappa_q}

    with G(kappa) = |Sigma(kappa - q)|^2 |W(kappa)|^2 and
    kappa_q = kappa_el sqrt(1 - eps_q/E0); the kappa-derivative is taken
    analytically on the closed forms.
    """
    probe = ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio)
    return slope_curve(L, [probe], V0, J)[0]


def slope_curve(L: int, probes, V0: float = DEFAULT_V0, J: float = DEFAULT_J) -> list:
    """slope_lambda at every probe, in one open-channel sum."""
    state = _free_state(L, J)
    grid, eps = state.grid, state.eps

    def summand(channels, kq, kel):
        q, e = channels.rows
        sig2 = lattice_sum_sq(kq - q, L)
        w2 = form_factor(kq, V0) ** 2
        G = sig2 * w2
        dG = lattice_sum_sq_derivative(kq - q, L) * w2 + sig2 * (
            -kq / (np.pi**2 * np.sqrt(V0))
        ) * w2
        return (2.0 * channels.E0 - e) / (e * channels.root) * G + kel * dG

    energies = np.array([p.E0 for p in probes], dtype=float)
    gammas = bog_inelastic_curve(state, probes, V0)
    modes_at = partial(open_channels, eps, rows=(grid, eps))
    lambdas = J / (2.0 * L**2 * energies) * open_channel_sum(probes, modes_at, summand)
    results = []
    for probe, lam, gamma in zip(probes, lambdas, gammas):
        kel = kappa_elastic(probe)
        if is_reciprocal(kel):
            # every interference factor |Sigma(kappa_q - q)|^2 vanishes
            # identically on the grid, so the slope is an exact zero while
            # the infinite-lattice reference diverges
            large_l = np.inf
        else:
            large_l = float(form_factor(kel, V0)) ** 2 / (4.0 * np.sin(kel / 2.0) ** 2)
        results.append(SlopeResult(float(lam), float(gamma), large_l))
    return results


def fit_small_u_slope(u_values, cs_values, degree: int = 4) -> float:
    """Slope d(cs)/du at u = 0 from a polynomial fit in t = u/max(u).

    A plain straight-line fit is biased by the curvature of the decay even
    on [1e-4, 1e-2]; fitting a quartic in the scaled variable and reading
    off the linear coefficient removes that bias without ill-conditioning.
    """
    u = np.asarray(u_values, dtype=float)
    cs = np.asarray(cs_values, dtype=float)
    umax = float(np.max(u))
    coeffs = np.polynomial.polynomial.polyfit(u / umax, cs, degree)
    return float(coeffs[1]) / umax


# ------------------------------------------------- marker angles, deviation


def exact_angles(
    L: int, E0: float, mass_ratio: float = DEFAULT_MASS_RATIO, j: int = 0
) -> np.ndarray:
    """Marker angles theta_s = arcsin(2 sqrt(1/(E0 mass_ratio)) (j + s/L)), ascending.

    s runs over 1..L-1; entries whose arcsine argument exceeds 1 are
    kinematically unreachable and dropped (possibly leaving no angle).  A
    probe energy or mass ratio that ProbeSpec refuses is refused here too,
    and so are more entries than the available memory holds.
    """
    ProbeSpec(E0, 0.0, mass_ratio)
    # the index and argument arrays, 8 bytes an entry each; the measured
    # tracemalloc peak is 19 to 24 bytes an entry
    require_memory(f"L={L}: a list of {L - 1} marker angles", 16 * (L - 1))
    arg = 2.0 * np.sqrt(1.0 / (E0 * mass_ratio)) * (j + np.arange(1, L) / L)
    return np.arcsin(arg[arg <= 1.0])


def relative_deviation(ref, test):
    """Per-angle |test - ref|/ref and its mean over the kept angles.

    Angles where the reference is below 1e-12 of its grid maximum
    (forward-angle 0/0) read nan and are left out of the mean.  Raises when
    every angle is excluded.
    """
    ref = np.asarray(ref, dtype=float)
    test = np.asarray(test, dtype=float)
    floor = DEVIATION_FLOOR_FRACTION * float(np.max(ref, initial=0.0))
    keep = ref >= floor
    if floor <= 0.0 or not np.any(keep):
        raise UndefinedDeviationError(
            "reference cross section vanishes on the whole angle grid"
        )
    per_angle = np.full(ref.shape, np.nan)
    per_angle[keep] = np.abs(test[keep] - ref[keep]) / ref[keep]
    return per_angle, float(np.mean(per_angle[keep]))


def deviation_delta_cs(exact_fn, bog_fn, angle_grid) -> float:
    """Angle-averaged relative deviation of bog_fn from exact_fn (see relative_deviation)."""
    grid = np.asarray(angle_grid, dtype=float)
    return relative_deviation([exact_fn(t) for t in grid], [bog_fn(t) for t in grid])[1]
