"""The large-L kinematic root is one bisection.

_kinematic_root solves kappa(q) = q by model.bisect on the bracket between
0 and kel; ref_kinematic_root below is scipy.optimize.brentq on the same
bracket, to relative precision.  Probe energies below the 4J band top
with heavy probes close channels inside the bracket, and every draw that
reaches the root bisects.
"""
from functools import lru_cache
from unittest import mock

import numpy as np
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from latscat import limits
from latscat.bogoliubov import solve_depletion
from latscat.limits import largeL_bog_cs
from latscat.model import LatticeSpec, ProbeSpec, bisect, is_reciprocal, kappa_elastic

J = 0.0065
V0 = 15.0


def ref_kinematic_root(kel: float, E0: float, energy_of) -> float:
    def residual(x):
        return kel * np.sqrt(max(0.0, 1.0 - energy_of(x) / E0)) - x

    lo, hi = (kel, 0.0) if kel < 0 else (0.0, kel)
    # xtol=1e-300 leaves brentq's relative tolerance, 4 eps, in charge
    root = scipy.optimize.brentq(residual, lo, hi, xtol=1e-300)
    return float(root)


@lru_cache(maxsize=None)
def _state(u):
    return solve_depletion(LatticeSpec(L=100, n=1.0, U=u * J, J=J, V0=V0))


def test_root_bisection_matches_brentq():
    bisections = []

    def counted_bisect(f, lo, hi):
        bisections.append((lo, hi))
        return bisect(f, lo, hi)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        E0=st.floats(0.005, 0.026),
        mass_ratio=st.sampled_from([10.0, 100.0]),
        theta=st.floats(-np.pi / 2, np.pi / 2),
        u=st.sampled_from([0.0, 0.005, 5.0, 50.0]),
    )
    def check(E0, mass_ratio, theta, u):
        state = _state(u)
        probe = ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio)
        before = len(bisections)
        with mock.patch.object(limits, "bisect", counted_bisect):
            value = largeL_bog_cs(state, probe, V0)
        # a reciprocal transfer (theta = 0) returns before the root
        assert len(bisections) == before + (not is_reciprocal(kappa_elastic(probe)))
        with mock.patch.object(limits, "_kinematic_root", ref_kinematic_root):
            reference = largeL_bog_cs(state, probe, V0)
        assert_allclose(value, reference, rtol=1e-12, atol=0)

    check()
    assert bisections
