"""Walk through the library API on a desk-scale system.

Run from the repository root after installing:

    python3 demos/quick_tour.py
"""
import numpy as np

from latscat import (
    LatticeSpec,
    ProbeSpec,
    bog_inelastic_cs,
    exact_cross_section,
    sector_spectrum,
    sf_inelastic,
    slope_lambda,
    solve_depletion,
    validity_check,
)


def main():
    # Five sites, two bosons per site, moderate repulsion (u = U n / J = 2).
    lattice = LatticeSpec(L=5, n=2.0, U=1.0 * 0.0065)
    probe = ProbeSpec(E0=2.0, theta=np.pi / 4)

    print(f"lattice: L={lattice.L}, N={lattice.N}, u=Un/J={lattice.u_dimensionless:g}")

    # Exact route: full spectrum of the Bose-Hubbard chain, solved in its
    # lattice-momentum sectors, then the thermal-free Born cross sections
    # off the ground state.  (diagonalize gives the same numbers densely;
    # it is the oracle of the tests.)
    spectrum = sector_spectrum(lattice)
    cs = exact_cross_section(spectrum, lattice, probe)
    print(f"exact:   elastic/N={cs.elastic / lattice.N:.6f}  "
          f"inelastic/N={cs.inelastic / lattice.N:.6f}  "
          f"open channels={cs.contributing_states}")

    # Quasiparticle route: self-consistent condensate depletion, then the
    # one-quasiparticle cross section (same per-particle normalization).
    state = solve_depletion(lattice)
    ok, window = validity_check(lattice, state.n0)
    print(f"bog:     inelastic/N={bog_inelastic_cs(state, probe, lattice.V0):.6f}  "
          f"depletion={state.depletion_fraction:.4f}  "
          f"healing window ok={ok} {window['lower']:.3g}..{window['upper']:.3g}")

    # Interaction-free reference and the linear decay law around it.
    gamma = sf_inelastic(lattice.L, probe.E0, probe.theta)
    slope = slope_lambda(lattice.L, probe.E0, probe.theta)
    u = lattice.u_dimensionless
    print(f"line:    Gamma={gamma:.6f}  Lambda={slope.lambda_:.6f}  "
          f"Gamma - Lambda*u = {gamma - slope.lambda_ * u:.6f}")


if __name__ == "__main__":
    main()
