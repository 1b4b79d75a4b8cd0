"""Depletion solver, quasiparticle dispersion and the analytic cross section."""
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latscat import bogoliubov, exact
from latscat.bogoliubov import (
    BogoliubovState,
    bog_inelastic_cs,
    bogoliubov_dispersion,
    depletion_quadratic,
    pair_coupling,
    solve_depletion,
    two_qp_contribution,
    validity_check,
)
from latscat.errors import BadParameterError, CapacityError
from latscat.model import LatticeSpec, ProbeSpec, bloch_dispersion, quasimomentum_grid

J = 0.0065


def spec_from_u(L, n, u, J=J):
    """Lattice at dimensionless interaction u = U n / J."""
    return LatticeSpec(L=L, n=n, U=u * J / n, J=J)


# -------------------------------------------------------------- dispersion


def test_dispersion_free_limit_is_bitwise_free():
    q = quasimomentum_grid(12)
    assert np.array_equal(bogoliubov_dispersion(q, J, 0.0), bloch_dispersion(q, J))


def test_dispersion_landmark_at_band_edge():
    # q = pi, U n0 = 2J: omega = sqrt(4J * 8J) = sqrt(32) J
    assert_allclose(bogoliubov_dispersion(np.pi, J, 2 * J), np.sqrt(32) * J, rtol=1e-14)


def test_dispersion_symmetry():
    q = quasimomentum_grid(9)
    om = bogoliubov_dispersion(q, J, 3 * J)
    assert_allclose(om, om[::-1], rtol=1e-14)  # grid is mirror-symmetric


def test_dispersion_rejects_condensate_mode():
    with pytest.raises(BadParameterError):
        bogoliubov_dispersion(0.0, J, J)
    with pytest.raises(BadParameterError):
        bogoliubov_dispersion(np.array([np.pi, 2 * np.pi]), J, J)
    with pytest.raises(BadParameterError):
        bogoliubov_dispersion(np.pi, J, -J)


def test_dispersion_positive_on_grid():
    q = quasimomentum_grid(40)
    assert np.all(bogoliubov_dispersion(q, J, 10 * J) > 0)


# ---------------------------------------------------------------- depletion


def test_depletion_free_gas_is_exactly_zero():
    state = solve_depletion(LatticeSpec(L=20, n=3.0, U=0.0, J=J))
    assert state.n0 == 3.0
    assert state.depletion_fraction == 0.0
    assert np.array_equal(state.omega_table, bloch_dispersion(quasimomentum_grid(20), J))


def test_depletion_reference_operating_points():
    # two of the documented operating points; the full set lives in the
    # acceptance suite
    got = solve_depletion(LatticeSpec(L=100, n=1.0, U=0.02 * J, J=J)).depletion_fraction
    assert got == pytest.approx(0.012, abs=1.5e-3)
    got = solve_depletion(LatticeSpec(L=10, n=10.0, U=2 * J, J=J)).depletion_fraction
    assert got == pytest.approx(0.080, abs=1.5e-3)


def test_depletion_residual_property_random_configs():
    # solve_depletion re-verifies its own residual (< 1e-12 n) and raises on
    # failure, so surviving 100 random configurations is the property.
    rng = np.random.default_rng(42)
    for _ in range(100):
        L = int(rng.integers(2, 201))
        n = float(rng.uniform(0.2, 50.0))
        u = float(rng.uniform(0.0, 30.0))
        state = solve_depletion(spec_from_u(L, n, u))
        assert 0.0 < state.n0 <= n
        assert 0.0 <= state.depletion_fraction < 1.0


def test_depletion_monotone_in_interaction():
    values = [
        solve_depletion(spec_from_u(10, 2.0, u)).depletion_fraction
        for u in np.linspace(0.1, 30.0, 12)
    ]
    assert np.all(np.diff(values) > 0)


def test_depletion_stays_below_one_at_huge_interaction():
    state = solve_depletion(spec_from_u(10, 2.0, 1e3))
    assert state.depletion_fraction < 1.0


def test_depletion_quadratic_alpha_value():
    # L=5, N=20: alpha = (625 + 250 - 11) / (2880 * 20) = 0.015
    spec = spec_from_u(5, 4.0, 0.1)
    assert_allclose(depletion_quadratic(spec), 0.015 * 0.1**2, rtol=1e-12)
    assert depletion_quadratic(LatticeSpec(L=5, n=4.0, U=0.0, J=J)) == 0.0


def test_depletion_quadratic_is_the_leading_asymptote():
    # the quadratic law is exact as u -> 0; at u = 0.001 the solver is
    # within a percent of it (the gap then grows linearly in u)
    for L, n in [(5, 4.0), (9, 1.0)]:
        spec = spec_from_u(L, n, 0.001)
        got = solve_depletion(spec).depletion_fraction
        assert_allclose(got, depletion_quadratic(spec), rtol=1e-2)


def test_validity_window():
    spec = LatticeSpec(L=10, n=1.0, U=10 * J, J=J)
    ok, report = validity_check(spec, n0=1.0)
    assert ok
    assert report["lower"] == 0.0
    assert_allclose(report["upper"], 33.17, atol=0.05)
    spec_hot = LatticeSpec(L=10, n=1.0, U=40 * J, J=J)
    ok, report = validity_check(spec_hot, n0=1.0)
    assert not ok
    assert report["Un0_over_J"] == pytest.approx(40.0)


# ------------------------------------------------------------ cross section


def test_bog_cs_zero_at_forward_angle():
    for u in [0.0, 1.0, 10.0]:
        state = solve_depletion(spec_from_u(8, 2.0, u))
        assert bog_inelastic_cs(state, ProbeSpec(E0=2.0, theta=0.0), 15.0) == 0.0


def test_bog_cs_zero_at_reciprocal_transfer():
    state = solve_depletion(spec_from_u(8, 2.0, 1.0))
    E0 = 9.0
    theta = float(np.arcsin(2 * np.pi / (np.pi * np.sqrt(E0))))  # kappa_el = -2*pi
    assert bog_inelastic_cs(state, ProbeSpec(E0=E0, theta=theta), 15.0) == 0.0


def test_bog_cs_bounded_by_free_value():
    # repulsion only ever removes inelastic weight at fixed kinematics
    probe = ProbeSpec(E0=2.0, theta=np.pi / 4)
    free = bog_inelastic_cs(solve_depletion(LatticeSpec(L=10, n=2.0, U=0.0, J=J)), probe, 15.0)
    for u in np.linspace(0.0, 30.0, 50):
        val = bog_inelastic_cs(solve_depletion(spec_from_u(10, 2.0, u)), probe, 15.0)
        assert 0.0 <= val <= free * (1 + 1e-12)


def test_bog_cs_closed_channels_drop_out():
    # E0 below every quasiparticle energy: nothing to excite
    state = solve_depletion(spec_from_u(5, 1.0, 1.0))
    assert np.min(state.omega_table) > 1e-6
    assert bog_inelastic_cs(state, ProbeSpec(E0=1e-6, theta=0.4), 15.0) == 0.0


# ----------------------------------------------------------- two-qp term


def test_pair_coupling_landmark():
    # f(pi, pi) at U n0 = 2J: numerator 8 J^2, denominator 2 * 32 J^2
    eps = 4 * J
    assert_allclose(pair_coupling(eps, eps, 2 * J, True), 0.125, rtol=1e-12)


def test_two_qp_vanishes_for_free_gas():
    state = solve_depletion(LatticeSpec(L=10, n=2.0, U=0.0, J=J))
    assert two_qp_contribution(state, ProbeSpec(E0=2.0, theta=0.7), 15.0) == 0.0


def test_two_qp_nonnegative_and_clamped():
    state = solve_depletion(spec_from_u(10, 2.0, 1.0))
    assert two_qp_contribution(state, ProbeSpec(E0=2.0, theta=0.7), 15.0) >= 0.0
    assert two_qp_contribution(state, ProbeSpec(E0=2.0, theta=0.0), 15.0) == 0.0


def test_two_qp_refuses_pairs_past_memory_before_it_allocates(monkeypatch):
    # 10^5 modes make about 10^10 pairs: 74.5 GiB for one array of them
    monkeypatch.setattr(exact, "_available_bytes", lambda: 8 * 2**30)
    state = solve_depletion(spec_from_u(100_000, 1.0, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"L=100000: .* 9999800001 pairs needs about"):
            two_qp_contribution(state, ProbeSpec(E0=2.0, theta=0.7), 15.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_two_qp_is_charged_its_own_bytes_a_pair(monkeypatch):
    # 16 pairs on L = 5: between the condensate's charge a mode and its own
    state = solve_depletion(spec_from_u(5, 1.0, 1.0))
    needed = 16 * bogoliubov.TWO_QP_PAIR_BYTES
    monkeypatch.setattr(exact, "_available_bytes", lambda: (16 * exact.MODE_BYTES + needed) // 2)
    with pytest.raises(CapacityError, match=rf"L=5: .* 16 pairs needs about {needed} bytes"):
        two_qp_contribution(state, ProbeSpec(E0=2.0, theta=0.7), 15.0)


def test_two_qp_holds_at_most_its_charge_a_pair(monkeypatch):
    monkeypatch.setattr(exact, "_available_bytes", lambda: 2**33)
    peaks, pairs = [], []
    for L in (200, 400):
        state = solve_depletion(spec_from_u(L, 1.0, 1.0))
        tracemalloc.start()
        try:
            two_qp_contribution(state, ProbeSpec(E0=2.0, theta=0.7), 15.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        pairs.append((L - 1) ** 2)
    slope = (peaks[1] - peaks[0]) / (pairs[1] - pairs[0])
    assert 0 < slope <= bogoliubov.TWO_QP_PAIR_BYTES, slope


def test_a_condensate_past_memory_is_refused_before_its_grid(monkeypatch):
    # 4 modes at exact.MODE_BYTES each, one byte more than there is
    monkeypatch.setattr(exact, "_available_bytes", lambda: 4 * exact.MODE_BYTES - 1)
    with pytest.raises(CapacityError, match=r"L=5: a condensate of 4 modes needs about 128 bytes"):
        solve_depletion(spec_from_u(5, 1.0, 1.0))
    monkeypatch.setattr(exact, "_available_bytes", lambda: 4 * exact.MODE_BYTES)
    assert solve_depletion(spec_from_u(5, 1.0, 1.0)).omega_table.size == 4


def test_state_exposes_condensate_energy_scale():
    state = solve_depletion(spec_from_u(5, 2.0, 3.0))
    assert_allclose(state.Un0, state.lattice.U * state.n0, rtol=1e-15)
    assert isinstance(state, BogoliubovState)
