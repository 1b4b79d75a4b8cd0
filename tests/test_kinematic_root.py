"""The large-L kinematic root falls back on the shared bisection.

_kinematic_root solves kappa(q) = q by a damped fixed-point iteration and,
where that meets a closed channel or does not settle, by model.bisect.  It
used scipy.optimize.brentq there before; ref_kinematic_root below is that
earlier body, copied verbatim.  Probe energies below the 4J band top with
heavy probes close channels along the fixed-point path, so the draws below
reach the fallback, and the test asserts that they do.
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
from latscat.errors import ConvergenceError
from latscat.limits import ROOT_TOL, largeL_bog_cs
from latscat.model import LatticeSpec, ProbeSpec, bisect

J = 0.0065
V0 = 15.0


def ref_kinematic_root(kel: float, E0: float, energy_of) -> float:
    def residual(x):
        return kel * np.sqrt(max(0.0, 1.0 - energy_of(x) / E0)) - x

    x = kel
    for _ in range(200):
        en = energy_of(x)
        if en >= E0:
            break  # closed channel along the path; let the fallback decide
        target = kel * np.sqrt(1.0 - en / E0)
        if abs(target - x) < ROOT_TOL:
            return target
        x = 0.5 * (x + target)

    lo, hi = (kel, 0.0) if kel < 0 else (0.0, kel)
    try:
        root = scipy.optimize.brentq(residual, lo, hi, xtol=1e-14)
    except ValueError as exc:
        raise ConvergenceError(
            f"kinematic root not found in bracket [{lo:.6g}, {hi:.6g}]: {exc}"
        ) from exc
    if abs(residual(root)) > 1e-9:
        raise ConvergenceError(
            f"kinematic root in [{lo:.6g}, {hi:.6g}] has residual "
            f"{residual(root):.3e}"
        )
    return float(root)


@lru_cache(maxsize=None)
def _state(u):
    return solve_depletion(LatticeSpec(L=100, n=1.0, U=u * J, J=J, V0=V0))


def test_root_fallback_matches_the_brentq_body():
    fallbacks = []

    def counted_bisect(f, lo, hi):
        fallbacks.append((lo, hi))
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
        with mock.patch.object(limits, "bisect", counted_bisect):
            value = largeL_bog_cs(state, probe, V0)
        with mock.patch.object(limits, "_kinematic_root", ref_kinematic_root):
            reference = largeL_bog_cs(state, probe, V0)
        assert_allclose(value, reference, rtol=1e-12, atol=0)

    check()
    assert fallbacks
