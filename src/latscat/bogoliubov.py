"""Bogoliubov theory on the chain: depletion, dispersion, cross section.

The condensate fraction is found self-consistently from

    n = n0 + (1/L) sum_{q != 0} [ (eps_q + U n0) / (2 omega_q) - 1/2 ],

after which the quasiparticle dispersion omega_q feeds the analytic
inelastic cross section (one-quasiparticle channel) and the two-
quasiparticle diagnostic term, both summed over open channels by
model.open_channel_sum; a one-probe function is the one-element list of
its curve.  Non-finite parameters are refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParameterError, ConvergenceError
from .model import (
    RECIPROCAL_TOL,
    LatticeSpec,
    ProbeSpec,
    bisect,
    bloch_dispersion,
    form_factor,
    lattice_sum_sq,
    open_channel_sum,
    quasimomentum_grid,
)

DEPLETION_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class BogoliubovState:
    """Solved condensate for one lattice configuration.

    n0 is the condensate filling, omega_table the quasiparticle energies
    over the q != 0 grid, and healing_ok the advisory healing-length
    validity flag.  The grid itself and its Bloch energies eps_q are built
    once, when first asked for.
    """

    lattice: LatticeSpec
    n0: float
    depletion_fraction: float
    omega_table: np.ndarray
    healing_ok: bool

    @property
    def Un0(self) -> float:
        return self.lattice.U * self.n0

    @cached_property
    def grid(self) -> np.ndarray:
        """Quasimomenta q != 0 of the chain, in the order of omega_table."""
        return quasimomentum_grid(self.lattice.L)

    @cached_property
    def eps(self) -> np.ndarray:
        """Bloch energies eps_q over the grid."""
        return bloch_dispersion(self.grid, self.lattice.J)


def _quasiparticle_energy(eps, Un0):
    """omega_q from the Bloch energy eps_q; see bogoliubov_dispersion."""
    return eps * np.sqrt(1.0 + 2.0 * Un0 / eps)


def bogoliubov_dispersion(q, J: float, Un0: float):
    """Quasiparticle energy omega_q = sqrt(eps_q (eps_q + 2 U n0)).

    Written as eps*sqrt(1 + 2Un0/eps) so that Un0 = 0 reproduces the free
    dispersion bit-for-bit.  The condensate mode q = 0 (mod 2*pi) is
    outside the domain.
    """
    if not 0 <= Un0 < math.inf:
        raise BadParameterError(f"U n0 must be non-negative and finite, got {Un0}")
    if np.any(np.abs(np.sin(np.asarray(q, dtype=float) / 2.0)) < RECIPROCAL_TOL):
        raise BadParameterError("q = 0 (mod 2*pi) is the condensate mode, not a quasiparticle")
    return _quasiparticle_energy(bloch_dispersion(q, J), Un0)


def validity_check(lattice: LatticeSpec, n0: float):
    """Healing-length window on the repulsion, advisory only.

    Bogoliubov theory on the lattice wants the healing length near or above
    the lattice constant, which bounds U n0 / J to the open interval
    2(1 - E_r/(pi^2 J)) < U n0/J < 2(1 + E_r/(pi^2 J)) (lower bound clipped
    at zero).  Returns (ok, report) with both bounds in the report.
    """
    margin = 1.0 / (np.pi**2 * lattice.J)  # E_r / (pi^2 J) with E_r = 1
    lower = max(0.0, 2.0 * (1.0 - margin))
    upper = 2.0 * (1.0 + margin)
    value = lattice.U * n0 / lattice.J
    ok = lower < value < upper
    return ok, {"lower": lower, "upper": upper, "Un0_over_J": value}


def _depleted_filling(n0: float, U: float, eps: np.ndarray, L: int) -> float:
    """Total filling n(n0) implied by a trial condensate filling."""
    omega = _quasiparticle_energy(eps, U * n0)
    return n0 + float(np.sum((eps + U * n0) / (2.0 * omega) - 0.5)) / L


def solve_depletion(lattice: LatticeSpec) -> BogoliubovState:
    """Self-consistent condensate filling by model.bisect on n0 in (0, n].

    The depleted filling is strictly increasing in n0, so the bracket
    (1e-15 n, n] always contains the root; U = 0 short-circuits to n0 = n,
    which reproduces n exactly.  The bisection result is verified to
    reproduce n to 1e-12 relative.
    """
    L, n, U, J = lattice.L, lattice.n, lattice.U, lattice.J
    grid = quasimomentum_grid(L)
    eps = bloch_dispersion(grid, J)

    if U == 0.0:
        n0 = n
    else:
        def excess(n0):
            return _depleted_filling(n0, U, eps, L) - n

        lo, hi = 1e-15 * n, n
        flo, fhi = excess(lo), excess(hi)
        if flo > 0 or fhi < 0:
            raise ConvergenceError(
                f"no depletion root in ({lo:.3e}, {hi:.3e}]: "
                f"f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
            )
        # the side guaranteed to satisfy f >= 0 keeps n0 <= its root
        n0 = bisect(excess, lo, hi)

        residual = abs(excess(n0))
        if residual > DEPLETION_RESIDUAL_TOL * n:
            raise ConvergenceError(
                f"depletion solve left residual {residual:.3e} "
                f"(tolerance {DEPLETION_RESIDUAL_TOL * n:.3e})"
            )

    omega = _quasiparticle_energy(eps, U * n0)
    ok, _ = validity_check(lattice, n0)
    return BogoliubovState(
        lattice=lattice,
        n0=n0,
        depletion_fraction=1.0 - n0 / n,
        omega_table=omega,
        healing_ok=ok,
    )


def depletion_quadratic(lattice: LatticeSpec) -> float:
    """Small-interaction law delta n / n ~ alpha * u^2.

    alpha = (L^4 + 10 L^2 - 11) / (2880 N) with u = U n / J.  Valid only
    while the depletion is small; the caller owns that judgement.
    """
    return depletion_alpha(lattice.L, lattice.N) * lattice.u_dimensionless**2


def depletion_alpha(L: int, N: int) -> float:
    """The coefficient alpha of depletion_quadratic for N particles on L sites."""
    return (L**4 + 10 * L**2 - 11) / (2880.0 * N)


def bog_inelastic_cs(state: BogoliubovState, probe: ProbeSpec, V0: float) -> float:
    """One-quasiparticle inelastic cross section per particle (1/(N a_s^2)).

    (1/L^2) sum over open modes (omega_q < E0) of
        sqrt(1 - omega_q/E0) (n0/n) (eps_q/omega_q) |Sigma(kappa_q - q)|^2 |W(kappa_q)|^2

    with kappa_q the energy-rescaled momentum transfer.  Returns exactly
    zero when kappa_el sits on a reciprocal lattice vector.
    """
    return float(bog_inelastic_curve(state, [probe], V0)[0])


def bog_inelastic_curve(state: BogoliubovState, probes, V0: float) -> np.ndarray:
    """bog_inelastic_cs at every probe, in one open-channel sum."""
    lattice = state.lattice
    grid, eps, omega = state.grid, state.eps, state.omega_table

    def summand(open_, root, kq, kel, E0):
        return (
            root
            * (state.n0 / lattice.n)
            * (eps[open_] / omega[open_])
            * lattice_sum_sq(kq - grid[open_], lattice.L)
            * form_factor(kq, V0) ** 2
        )

    return open_channel_sum(probes, omega, summand) / lattice.L**2


def pair_coupling(eps_q, eps_p, Un0: float, same_mode):
    """Two-quasiparticle coupling f(q,q') entering the diagnostic term.

    f = [eps_q eps_p + U n0 (eps_q + eps_p) + 2 (U n0)^2 - omega_q omega_p]
        / [(1 + delta_{q,p}) omega_q omega_p]
    """
    omega_q = _quasiparticle_energy(eps_q, Un0)
    omega_p = _quasiparticle_energy(eps_p, Un0)
    numer = eps_q * eps_p + Un0 * (eps_q + eps_p) + 2.0 * Un0**2 - omega_q * omega_p
    return numer / ((1.0 + np.asarray(same_mode, dtype=float)) * omega_q * omega_p)


def two_qp_contribution(state: BogoliubovState, probe: ProbeSpec, V0: float) -> float:
    """Two-quasiparticle term (units a_s^2), diagnostic only.

    (1/2L^2) sum over open pairs (omega_q + omega_q' < E0) of
        sqrt(1 - (omega_q+omega_q')/E0) f(q,q')
        |Sigma(kappa - (q+q'))|^2 |W(kappa)|^2

    This stays of order one while the one-quasiparticle channel scales with
    N, which is why it is reported separately and never added to totals.
    It is a size estimate only, neither the second-order remainder of
    S_ex - S_1qp (exact minus one-quasiparticle structure factor) nor a
    bound on it: over K at (L, N) = (6, 6) and (8, 8), U/J = 0.03 to 1,
    that remainder (less Un/(N eps_K)) read -2.4 to 0.6 times its pair sum
    of total momentum K.
    """
    L = state.lattice.L
    grid, eps, omega = state.grid, state.eps, state.omega_table

    osum = (omega[:, None] + omega[None, :]).ravel()
    qsum = (grid[:, None] + grid[None, :]).ravel()
    same = np.eye(L - 1, dtype=bool)
    f = pair_coupling(eps[:, None], eps[None, :], state.Un0, same).ravel()

    def summand(open_, root, kpair, kel, E0):
        sig2 = lattice_sum_sq(kpair - qsum[open_], L)
        return root * f[open_] * sig2 * form_factor(kpair, V0) ** 2

    return float(open_channel_sum([probe], osum, summand)[0]) / (2.0 * L**2)
