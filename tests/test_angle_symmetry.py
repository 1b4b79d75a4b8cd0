"""Every cross-section curve is even in the deflection angle.

ProbeSpec accepts theta in [-pi/2, pi/2].  Flipping the sign of theta flips
the elastic momentum transfer, which maps every lattice sum onto its complex
conjugate, so each provenance must give the same value at -theta and theta.

Next to a reciprocal lattice vector (theta = 0 included) the inelastic
curves vanish as the square of the distance d of the transfer from it,
while their rounding error does not, so their relative mismatch grows as
about 1e-17/d^2 (1e-10 at d = 1e-5, 2e-12 at d = 1e-2).  The relative
bound below is therefore asserted at d >= 0.05.
"""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from latscat.bogoliubov import bog_inelastic_cs, solve_depletion
from latscat.exact import diagonalize, exact_cross_section
from latscat.limits import largeL_bog_cs, mi_inelastic, sf_inelastic
from latscat.model import LatticeSpec, ProbeSpec, fold_to_zone, kappa_elastic

J = 0.0065
V0 = 15.0
RTOL = 1e-12
MIN_DISTANCE = 0.05

lattices = st.builds(
    lambda L, n, u_over_j: LatticeSpec(L=L, n=n, U=u_over_j * J, J=J, V0=V0),
    L=st.integers(3, 5),
    n=st.sampled_from([1.0, 2.0]),
    u_over_j=st.sampled_from([0.0, 0.5, 3.0, 20.0]),
)
angles = st.floats(1e-3, np.pi / 2)
energies = st.floats(0.3, 5.9)


@lru_cache(maxsize=None)
def _solved(lattice):
    return diagonalize(lattice), solve_depletion(lattice)


def _even(f, theta):
    assert_allclose(f(-theta), f(theta), rtol=RTOL, atol=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lattice=lattices, theta=angles, E0=energies)
def test_every_provenance_is_even_in_theta(lattice, theta, E0):
    probe = lambda t: ProbeSpec(E0=E0, theta=t)  # noqa: E731
    folded = fold_to_zone(kappa_elastic(probe(theta)))
    assume(min(folded, 2 * np.pi - folded) >= MIN_DISTANCE)
    spectrum, state = _solved(lattice)
    L, n, U = lattice.L, lattice.n, lattice.U

    def exact(t):
        cs = exact_cross_section(spectrum, lattice, probe(t))
        return [cs.elastic, cs.inelastic]

    _even(exact, theta)
    _even(lambda t: bog_inelastic_cs(state, probe(t), V0), theta)
    _even(lambda t: largeL_bog_cs(state, probe(t), V0), theta)
    _even(lambda t: sf_inelastic(L, E0, t, V0, 1.0, J), theta)
    _even(lambda t: mi_inelastic(L, n, E0, t, V0, 1.0, U), theta)


@pytest.mark.xfail(
    strict=True,
    reason="lattice_sum_sq evaluates sin^2(kL/2)/sin^2(k/2) without folding k into "
    "the first zone, so next to a Bragg peak k = 2 pi m (m != 0) it loses about "
    "eps |k| / |k - 2 pi m| of relative accuracy; folding k first makes this pass",
)
def test_quasiparticle_curve_is_even_next_to_a_bragg_peak():
    # one channel's interference argument sits 1e-3 from -2 pi at +theta and
    # 1e-3 from 0 at -theta, so the two sides round differently
    state = solve_depletion(LatticeSpec(L=3, n=1.0, U=0.0, J=J, V0=V0))
    theta = E0 = 0.83203125
    _even(lambda t: bog_inelastic_cs(state, ProbeSpec(E0=E0, theta=t), V0), theta)


@pytest.mark.xfail(
    strict=True,
    reason="lattice_sum_sq does not fold k into the first zone, so the heatmap "
    "point next to a Bragg peak is off by 2.35e-9 relative; folding k first "
    "gives 0.80504702487630042",
)
def test_quasiparticle_value_next_to_a_bragg_peak_matches_the_oracle():
    # a 50-digit mpmath evaluation of the same one-quasiparticle sum at a
    # point of the make_datasets.sh heatmap (L=100, n=1, U/J=0.02)
    state = solve_depletion(LatticeSpec(L=100, n=1.0, U=0.02 * J, J=J, V0=V0))
    probe = ProbeSpec(E0=3.9050000000000007, theta=0.68067840827778847)
    assert_allclose(bog_inelastic_cs(state, probe, V0), 0.80504702487630036, rtol=1e-14, atol=0)
