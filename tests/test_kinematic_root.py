"""The large-L kinematic root is one bisection.

_kinematic_root solves kappa(q) = q by model.bisect on the bracket between
0 and kel; ref_kinematic_root below is scipy.optimize.brentq on the same
bracket, to relative precision.  Probe energies below the 4J band top
with heavy probes close channels inside the bracket, and every draw that
reaches the root bisects.  The root and largeL_bog_cs take their
residual and dispersion in Python floats; numpy_largeL_bog_cs below takes
them in numpy scalars, and the two agree bit for bit.
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
from latscat.limits import high_probe_energy, largeL_bog_cs
from latscat.model import (
    LatticeSpec,
    ProbeSpec,
    bisect,
    bloch_dispersion,
    form_factor,
    is_reciprocal,
    kappa_elastic,
)

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


def numpy_kinematic_root(kel, E0, energy_of):
    """_kinematic_root with its residual in numpy scalars."""
    def residual(x):
        return kel * np.sqrt(max(0.0, 1.0 - energy_of(x) / E0)) - x

    lo, hi = (kel, 0.0) if kel > 0 else (0.0, kel)
    return bisect(residual, lo, hi)


def numpy_omega(state):
    def omega_of(q):
        eps = float(bloch_dispersion(q, state.lattice.J))
        return float(np.sqrt(eps * (eps + 2.0 * state.Un0)))

    return omega_of


def numpy_largeL_bog_cs(state, probe, V0):
    """largeL_bog_cs below the shortcut, with its root and dispersion in numpy scalars."""
    J, Un0 = state.lattice.J, state.Un0
    kel = kappa_elastic(probe)
    if is_reciprocal(kel):
        return 0.0
    omega_of = numpy_omega(state)
    root = numpy_kinematic_root(kel, probe.E0, omega_of)
    if is_reciprocal(root):
        return 0.0
    eps = float(bloch_dispersion(root, J))
    omega = omega_of(root)
    if omega >= probe.E0:
        return 0.0
    weight = np.sqrt(1.0 - omega / probe.E0)
    denom = abs(1.0 + kel * J * np.sin(root) * (eps + Un0) / (probe.E0 * omega * weight))
    return (state.n0 / state.lattice.n) * weight * (eps / omega) * float(
        form_factor(root, V0)
    ) ** 2 / denom


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    E0=st.floats(0.001, 0.6),
    mass_ratio=st.floats(0.05, 100.0),
    theta=st.floats(-np.pi / 2, np.pi / 2),
    u=st.sampled_from([0.0, 0.005, 0.5, 5.0, 50.0]),
)
def test_python_float_root_and_cross_section_equal_the_numpy_scalar_forms(E0, mass_ratio, theta, u):
    state = _state(u)
    probe = ProbeSpec(E0=E0, theta=theta, mass_ratio=mass_ratio)
    assert not high_probe_energy(E0, J, state.lattice.u_dimensionless)
    kel = kappa_elastic(probe)
    if not is_reciprocal(kel):
        omega_of = numpy_omega(state)
        assert limits._kinematic_root(kel, E0, omega_of) == numpy_kinematic_root(kel, E0, omega_of)
    assert largeL_bog_cs(state, probe, V0) == numpy_largeL_bog_cs(state, probe, V0)
