"""Each spectrum and condensate keeps the open channels of its last probe energy.

SpectrumResult.channels and BogoliubovState.channels hold one entry: the
channel data of the last probe energy E0 they were asked for.  So a run of
one-probe calls at one energy builds that data once.  Here one-probe calls
at three energies are interleaved on a dense spectrum, a sector spectrum, a
condensate and the free condensate behind sf_inelastic.  One energy closes
every channel, one opens only some, and one opens them all.  Each value
must equal, with ``==``, the value of an owner that holds no entry yet and
the value in the curve of all the probes.  The kernel asks an owner once
per run of probes of one energy, however the run is split into blocks, and
hands each summand the entry it got.  The entry is shared by threads,
so its arrays are read-only, and it is published by one store once it is
built in full.  The Born kernels evaluate an array in place, in arrays of
their own, and a scalar in numpy's scalar arithmetic.
"""
import sys
import threading
import time
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latscat import bogoliubov, exact, model
from latscat.bogoliubov import bog_inelastic_cs, bog_inelastic_curve, solve_depletion
from latscat.exact import (
    diagonalize,
    exact_cross_section,
    exact_inelastic_curve,
    sector_spectrum,
)
from latscat.limits import _free_state, sf_inelastic, sf_inelastic_curve
from latscat.model import (
    RECIPROCAL_TOL,
    LatticeSpec,
    OpenChannels,
    ProbeSpec,
    form_factor,
    lattice_sum_sq,
)

J = 0.0065
V0 = 15.0


def entries(owner) -> list:
    return [v for v in vars(owner).values() if isinstance(v, OpenChannels)]


def channel_energies(owner) -> np.ndarray:
    """The excitation energies an owner's channels open at."""
    if hasattr(owner, "omega_table"):
        return owner.omega_table
    dE = owner.eigenvalues - owner.ground_energy
    return np.delete(dE, owner.ground_index)


def three_energies(owner) -> tuple:
    """An E0 that closes every channel, one that opens only the lowest level, one above all."""
    levels = np.unique(channel_energies(owner))
    assert levels.size >= 2
    return float(levels[0]), float(levels[1]), 2.0 * float(levels[-1])


def exact_owner(spectrum, lattice):
    return (
        lambda p: exact_cross_section(spectrum, lattice, p),
        lambda p: exact_cross_section(replace(spectrum), lattice, p),
        lambda ps: list(exact_inelastic_curve(replace(spectrum), lattice, ps)),
    )


def inelastic(value):
    """The inelastic term of an exact record; a quasiparticle value is its own."""
    return getattr(value, "inelastic", value)


def bogoliubov_owner(state):
    return (
        lambda p: bog_inelastic_cs(state, p, V0),
        lambda p: bog_inelastic_cs(replace(state), p, V0),
        lambda ps: list(bog_inelastic_curve(replace(state), ps, V0)),
    )


def free_owner(L):
    return (
        lambda p: sf_inelastic(L, p.E0, p.theta, V0, p.mass_ratio, J),
        lambda p: bog_inelastic_cs(replace(_free_state(L, J)), p, V0),
        lambda ps: list(sf_inelastic_curve(L, ps, V0, J)),
    )


calls = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2]),
        st.one_of(
            st.sampled_from([0.0, np.pi / 2, -np.pi / 2]), st.floats(-np.pi / 2, np.pi / 2)
        ),
    ),
    min_size=2,
    max_size=9,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    size=st.sampled_from([(2, 4), (3, 4), (4, 4), (2, 5), (3, 5)]),
    u=st.one_of(st.just(0.0), st.floats(0.0, 300.0)),
    drawn=calls,
    mass_ratio=st.sampled_from([1.0, 0.3, 94.3]),
)
def test_interleaved_one_probe_calls_give_the_fresh_and_curve_values(size, u, drawn, mass_ratio):
    N, L = size
    lattice = LatticeSpec(L=L, n=N / L, U=u * J, J=J, V0=V0)
    state = solve_depletion(lattice)
    owners = {
        "dense": (diagonalize(lattice), exact_owner),
        "sector": (sector_spectrum(lattice), exact_owner),
        "bogoliubov": (state, lambda s, _: bogoliubov_owner(s)),
        "free": (_free_state(L, J), lambda _s, _l: free_owner(L)),
    }
    for name, (owner, evaluators) in owners.items():
        one, fresh, curve = evaluators(owner, lattice)
        energies = three_energies(owner)
        probes = [ProbeSpec(E0=energies[i], theta=t, mass_ratio=mass_ratio) for i, t in drawn]
        values = []
        for p in probes:
            values.append(one(p))
            assert values[-1] == fresh(p), name
            held = entries(owner)
            assert len(held) == 1 and held[0].E0 == p.E0, name
        assert [inelastic(v) for v in values] == curve(probes), name
        assert len(entries(owner)) <= 1, name


class Stores(dict):
    """An owner's attributes, checking each channel entry when it is stored."""

    def __init__(self, *args):
        super().__init__(*args)
        self.published = []

    def __setitem__(self, key, value):
        if isinstance(value, OpenChannels):
            assert not any(a.flags.writeable for a in (value.root, *value.rows))
            assert value.root.size <= value.count
            assert all(len(row) == value.root.size for row in value.rows)
            self.published.append(value.E0)
        super().__setitem__(key, value)


def recorded(owner) -> Stores:
    stores = Stores(vars(owner))
    object.__setattr__(owner, "__dict__", stores)
    return stores


def test_each_entry_is_built_in_full_then_stored_once():
    lattice = LatticeSpec(L=5, n=0.6, U=0.4 * J, J=J, V0=V0)
    spectrum, state = sector_spectrum(lattice), solve_depletion(lattice)
    for owner, call in (
        (spectrum, lambda p: exact_cross_section(spectrum, lattice, p)),
        (state, lambda p: bog_inelastic_cs(state, p, V0)),
    ):
        stores = recorded(owner)
        closed, some, every = three_energies(owner)
        sequence = [every, every, some, some, closed, every, some]
        for E0 in sequence:
            call(ProbeSpec(E0=E0, theta=0.7))
        # one store per change of energy, each a whole read-only entry
        assert stores.published == [every, some, closed, every, some]
        assert entries(owner)[0].E0 == some


def test_an_entry_replaced_during_a_sum_leaves_the_sum_unchanged():
    lattice = LatticeSpec(L=5, n=0.6, U=0.4 * J, J=J, V0=V0)
    spectrum, state = diagonalize(lattice), solve_depletion(lattice)
    for owner, call in (
        (spectrum, lambda o, p: exact_cross_section(o, lattice, p)),
        (state, lambda o, p: bog_inelastic_cs(o, p, V0)),
    ):
        closed, some, every = three_energies(owner)
        for E0, other in ((every, some), (some, every), (every, closed), (some, closed)):
            probe = ProbeSpec(E0=E0, theta=0.7)
            expected = call(replace(owner), probe)
            interfered = replace(owner)
            real = interfered.channels

            def interfering(at, real=real, other=other):
                entry = real(at)
                real(other)  # another caller stores the entry of its own energy meanwhile
                return entry

            object.__setattr__(interfered, "channels", interfering)
            assert call(interfered, probe) == expected
            assert entries(interfered)[0].E0 == other


def test_the_kernel_asks_once_per_run_and_hands_each_summand_that_entry():
    # with one probe per block, a summand that asked its owner itself would
    # ask once per block instead of once per run of one energy
    lattice = LatticeSpec(L=5, n=0.6, U=0.4 * J, J=J, V0=V0)
    exact_curve = lambda o, ps: list(exact_inelastic_curve(o, lattice, ps))  # noqa: E731
    curves = (
        (bogoliubov, solve_depletion(lattice), lambda o, ps: list(bog_inelastic_curve(o, ps, V0))),
        (exact, sector_spectrum(lattice), exact_curve),
        (exact, diagonalize(lattice), exact_curve),
    )
    for module, owner, curve in curves:
        _, some, every = three_energies(owner)
        energies = (every, every, some, some, some, every)
        probes = [ProbeSpec(E0=E0, theta=t) for E0, t in zip(energies, np.linspace(-1.2, 1.3, 6))]
        asked, values = {}, {}
        for chunk in (model.CHUNK_TERMS, 1):
            fresh = replace(owner)
            real, owner_calls, returned, handed = fresh.channels, [], [], []

            def counting(at, real=real, owner_calls=owner_calls):
                owner_calls.append(at)
                return real(at)

            def watching(probes, channels_at, summand, returned=returned, handed=handed):
                def asking(at):
                    returned.append(channels_at(at))
                    return returned[-1]

                def seeing(channels, kappa, kel):
                    assert channels is returned[-1]
                    handed.append(channels.E0)
                    return summand(channels, kappa, kel)

                return model.open_channel_sum(probes, asking, seeing)

            object.__setattr__(fresh, "channels", counting)
            with mock.patch.object(model, "CHUNK_TERMS", chunk), mock.patch.object(
                module, "open_channel_sum", watching
            ):
                values[chunk] = curve(fresh, probes)
            asked[chunk] = len(owner_calls)
            assert [c.E0 for c in returned] == [every, some, every]
            blocks = energies if chunk == 1 else (every, some, every)
            assert handed == list(blocks)
        assert asked[1] == asked[model.CHUNK_TERMS]
        assert values[1] == values[model.CHUNK_TERMS]


def test_threads_sweeping_one_owner_get_the_serial_values():
    lattice = LatticeSpec(L=5, n=0.8, U=0.3 * J, J=J, V0=V0)
    spectrum, state = diagonalize(lattice), solve_depletion(lattice)
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 31)
    energies = three_energies(state)  # one thread each, more threads than two cores
    sweeps = 5

    def sweep(spectrum, state, E0, pause=lambda: None):
        values = []
        for theta in thetas:
            probe = ProbeSpec(E0=E0, theta=theta)
            values.append(
                (exact_cross_section(spectrum, lattice, probe), bog_inelastic_cs(state, probe, V0))
            )
            pause()
        return values

    serial = {E0: sweep(replace(spectrum), replace(state), E0) for E0 in energies}
    stores = [recorded(spectrum), recorded(state)]
    start = threading.Barrier(len(energies))
    results = {E0: [] for E0 in energies}
    failures = []

    def worker(E0):
        try:
            start.wait(timeout=60)
            for _ in range(sweeps):
                # sleep(0) releases the interpreter lock, so the threads take
                # turns between calls and each call finds another's entry
                results[E0].append(sweep(spectrum, state, E0, lambda: time.sleep(0)))
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(E0,)) for E0 in energies]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures
    for E0 in energies:
        assert results[E0] == [serial[E0]] * sweeps
    for owner, recorder in zip((spectrum, state), stores):
        assert set(recorder.published) <= set(energies)
        (entry,) = entries(owner)
        assert not any(a.flags.writeable for a in (entry.root, *entry.rows))


def reference_lattice_sum_sq(k, L):
    """lattice_sum_sq as it was written before it worked in place, squaring
    with np.square: ** is np.square on an array, but not on a numpy scalar."""
    k = np.asarray(k, dtype=float)
    half_sin = np.sin(k / 2.0)
    singular = np.abs(half_sin) < RECIPROCAL_TOL
    denom = np.where(singular, 1.0, np.square(half_sin))
    out = np.where(singular, float(L * L), np.square(np.sin(k * L / 2.0)) / denom)
    return out if out.ndim else float(out)


def reference_form_factor(kappa, V0):
    """form_factor as it was written before it worked in place."""
    return np.exp(-np.asarray(kappa, dtype=float) ** 2 / (4.0 * np.pi**2 * np.sqrt(V0)))


momenta = arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(0, 40)),
    elements=st.one_of(
        st.floats(-1e4, 1e4),
        st.sampled_from([0.0, 2 * np.pi, -4 * np.pi, 2 * np.pi + 1e-12]),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=momenta, L=st.integers(2, 20000), V0=st.floats(0.5, 60.0), writeable=st.booleans())
def test_in_place_kernels_leave_their_input_and_match_the_plain_formulas(k, L, V0, writeable):
    k.flags.writeable = writeable
    before = k.copy()
    sig2, w = lattice_sum_sq(k, L), form_factor(k, V0)
    assert np.array_equal(k, before) and k.flags.writeable == writeable
    assert np.array_equal(sig2, reference_lattice_sum_sq(k, L))
    assert np.array_equal(w, reference_form_factor(k, V0))
    assert not np.shares_memory(sig2, k) and not np.shares_memory(w, k)
    for x in k.flat[:5]:
        assert lattice_sum_sq(float(x), L) == reference_lattice_sum_sq(float(x), L)
        assert form_factor(float(x), V0) == reference_form_factor(float(x), V0)


def test_kernel_scalars_and_coherent_points():
    for L in (2, 5, 7, 10000):
        assert type(lattice_sum_sq(1.3, L)) is float
        assert lattice_sum_sq(0.0, L) == L * L
        assert lattice_sum_sq(2 * np.pi, L) == L * L
        assert list(lattice_sum_sq(np.array([0.0, 2 * np.pi]), L)) == [L * L, L * L]
    assert type(form_factor(1.3, V0)) is np.float64
    assert form_factor(0.0, V0) == 1.0
    ints = np.arange(-3, 4)
    assert np.array_equal(lattice_sum_sq(ints, 5), reference_lattice_sum_sq(ints, 5))
    assert np.array_equal(ints, np.arange(-3, 4))


@st.composite
def near_reciprocal(draw):
    """2 pi m, or a few ulps or about RECIPROCAL_TOL of |sin(k/2)| off it."""
    k = 2 * np.pi * draw(st.integers(-6, 6))
    k += draw(st.sampled_from([0.0, 1e-12, -1e-12, 1.9e-9, -1.9e-9, 2.1e-9, -2.1e-9]))
    for _ in range(draw(st.integers(0, 3))):
        k = np.nextafter(k, draw(st.sampled_from([np.inf, -np.inf])))
    return float(k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    ks=st.lists(near_reciprocal(), max_size=10),
    seed=st.integers(0, 2**32 - 1),
    L=st.integers(2, 200),
    V0=st.floats(0.5, 60.0),
)
def test_a_scalar_kernel_value_is_the_one_element_arrays(ks, seed, L, V0):
    # the scalar branches use the array branches' ufuncs: on a numpy
    # scalar, x**2 and np.square(x) differ in about 1 of 700 uniform draws
    uniform = np.random.default_rng(seed).uniform(-40.0, 40.0, 200)
    for k in ks + uniform.tolist():
        assert lattice_sum_sq(k, L) == lattice_sum_sq(np.array([k]), L)[0], (k, L)
        assert form_factor(k, V0) == form_factor(np.array([k]), V0)[0], (k, V0)


def test_an_exact_curve_builds_the_channels_of_each_energy_once():
    # 15 probes in runs of three energies: one entry a run; a one-probe
    # record builds one entry and reads its count of states below E0 there
    lattice = LatticeSpec(L=5, n=0.6, U=0.4 * J, J=J, V0=V0)
    real = exact.SpectrumResult._open_states
    for spectrum in (sector_spectrum(lattice), diagonalize(lattice)):
        energies = three_energies(spectrum)
        probes = [ProbeSpec(E0=E0, theta=t) for E0 in energies for t in np.linspace(-1.2, 1.3, 5)]
        built = []

        def spy(owner, E0, built=built):
            built.append(E0)
            return real(owner, E0)

        with mock.patch.object(exact.SpectrumResult, "_open_states", spy):
            curve = exact_inelastic_curve(replace(spectrum), lattice, probes)
            assert built == list(energies)
            built.clear()
            records = [exact_cross_section(replace(spectrum), lattice, p) for p in probes]
            assert built == [p.E0 for p in probes]
        counts = [replace(spectrum).channels(p.E0).count for p in probes]
        assert [cs.contributing_states for cs in records] == counts
        assert list(curve) == [cs.inelastic for cs in records]
