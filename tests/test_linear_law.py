"""The paper's linear decay law against exact diagonalization.

To first order in u = U n / J the exact inelastic cross section per
particle falls as

    inelastic/N (u) = inelastic/N (0) - (1 - 1/N) Lambda u + O(u^2),

with Lambda = slope_lambda(L, E0, theta), the N-independent quasiparticle
slope.  The factor (1 - 1/N) is canonical: the interaction acts on the
N(N - 1) ordered pairs of particles, and the Bogoliubov slope counts N^2 of
them, so the two agree only as N -> infinity.  The exact slope at u = 0 is
the Richardson difference

    (4 (f(h) - f(0)) - (f(2h) - f(0))) / (2h),  h = 1e-4,

whose error is O(h^2).  Over 400 draws on lattices up to dimension 500, the
largest error was under a tenth of the tolerance below.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latscat.exact import basis_dimension, diagonalize, exact_cross_section
from latscat.limits import slope_lambda
from latscat.model import LatticeSpec, ProbeSpec

J = 0.0065
V0 = 15.0
H = 1e-4  # Richardson step in u

# A channel edge E0 = dE inside the difference's reach breaks its Taylor
# expansion: the step shifts dE by about U ~ 1e-3 J, so an excitation
# closer to E0 than one hopping energy skips the draw.
EDGE_MARGIN = J
# Relative tolerance on the slope, with an absolute floor against the u = 0
# cross section where Lambda passes through zero.
REL_TOL = 1e-6
FLOOR = 1e-7

sizes = [(N, L) for L in range(2, 9) for N in range(1, 13) if basis_dimension(N, L) <= 330]


def lattice_at(N, L, u):
    n = N / L
    return LatticeSpec(L=L, n=n, U=u * J / n, J=J, V0=V0)


def inelastic_per_particle(spectrum, lattice, probe):
    return exact_cross_section(spectrum, lattice, probe).inelastic / lattice.N


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    size=st.sampled_from(sizes),
    E0=st.floats(0.02, 5.0),
    theta=st.floats(-np.pi / 2, np.pi / 2),
    mass_ratio=st.sampled_from([1.0, 7.0, 94.3]),
)
def test_exact_slope_at_zero_interaction_is_the_canonical_lambda(size, E0, theta, mass_ratio):
    N, L = size
    free_lattice = lattice_at(N, L, 0.0)
    free = diagonalize(free_lattice)
    excitations = free.eigenvalues[1:] - free.ground_energy
    assume(np.min(np.abs(excitations - E0)) > EDGE_MARGIN)
    probe = ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio)

    f0 = inelastic_per_particle(free, free_lattice, probe)
    f1, f2 = (
        inelastic_per_particle(diagonalize(lattice), lattice, probe)
        for lattice in (lattice_at(N, L, H), lattice_at(N, L, 2 * H))
    )
    exact_slope = (4 * (f1 - f0) - (f2 - f0)) / (2 * H)
    lam = slope_lambda(L, E0, theta, V0=V0, mass_ratio=mass_ratio, J=J).lambda_
    canonical = -(1 - 1 / N) * lam
    assert abs(exact_slope - canonical) <= REL_TOL * abs(canonical) + FLOOR * f0
