"""The open-channel kernel takes probes in any order, energies interleaved.

model.open_channel_sum groups runs of consecutive probes of one energy,
and a probe's sum does not depend on the run it sits in.  Scans build their
probes energy-major, so here the probes of 2-3 energies are shuffled before
they reach the exact inelastic and elastic, bogoliubov and slope curves
and the kernel itself.
Each value must equal the one-probe value with ``==``, and permuting the
list must permute the result.  The chunk size is drawn too, so that a run
is also split over several blocks.
"""
from functools import lru_cache, partial
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latscat import model
from latscat.bogoliubov import bog_inelastic_cs, bog_inelastic_curve, solve_depletion
from latscat.exact import diagonalize, exact_cross_section, exact_inelastic_curve
from latscat.limits import slope_curve, slope_lambda
from latscat.model import (
    LatticeSpec,
    ProbeSpec,
    elastic_curve,
    form_factor,
    open_channel_sum,
    open_channels,
)

J = 0.0065
V0 = 15.0


@lru_cache(maxsize=None)
def spectrum_of(lattice):
    return diagonalize(lattice)


@st.composite
def shuffled_probes(draw):
    """Probes at 2-3 energies and a few angles, shuffled, with a second order."""
    energies = draw(
        st.lists(
            st.one_of(st.just(4.0), st.floats(0.001, 0.06), st.floats(0.06, 6.0)),
            min_size=2, max_size=3, unique=True,
        )
    )
    angles = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, np.pi / 2]), st.floats(-np.pi / 2, np.pi / 2)),
            min_size=1, max_size=4,
        )
    )
    mass_ratio = draw(st.sampled_from([1.0, 0.3, 94.3]))
    probes = [ProbeSpec(E0=e, theta=t, mass_ratio=mass_ratio) for e in energies for t in angles]
    probes = draw(st.permutations(probes))
    return probes, draw(st.permutations(range(len(probes))))


def permuted(values, order):
    return [values[i] for i in order]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    size=st.sampled_from([(2, 2), (3, 3), (4, 3), (3, 5), (5, 4)]),
    u=st.one_of(st.just(0.0), st.floats(0.0, 300.0)),
    drawn=shuffled_probes(),
    chunk=st.sampled_from([model.CHUNK_TERMS, 1, 5]),
)
def test_shuffled_probes_give_the_one_probe_values(size, u, drawn, chunk):
    probes, order = drawn
    N, L = size
    lattice = LatticeSpec(L=L, n=N / L, U=u * J, J=J, V0=V0)
    spectrum = spectrum_of(lattice)
    state = solve_depletion(lattice)
    curves = {
        "exact": lambda ps: list(exact_inelastic_curve(spectrum, lattice, ps)),
        "elastic": lambda ps: list(elastic_curve(L, N, ps, V0)),
        "bogoliubov": lambda ps: list(bog_inelastic_curve(state, ps, V0)),
        "slope": lambda ps: slope_curve(L, ps, V0, J),
    }
    single = {
        "exact": lambda p: exact_cross_section(spectrum, lattice, p).inelastic,
        "elastic": lambda p: exact_cross_section(spectrum, lattice, p).elastic,
        "bogoliubov": lambda p: bog_inelastic_cs(state, p, V0),
        "slope": lambda p: slope_lambda(L, p.E0, p.theta, V0, p.mass_ratio, J),
    }
    with mock.patch.object(model, "CHUNK_TERMS", chunk):
        for name, curve in curves.items():
            values = curve(probes)
            assert values == [single[name](p) for p in probes], name
            assert curve(permuted(probes, order)) == permuted(values, order), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn=shuffled_probes(), chunk=st.sampled_from([model.CHUNK_TERMS, 1, 3]))
def test_kernel_hands_each_group_its_own_energy(drawn, chunk):
    probes, order = drawn
    omega = np.linspace(0.002, 0.05, 7)
    channels_at = partial(open_channels, omega, rows=(omega,))

    def summand(channels, kappa, kel):
        (open_omega,) = channels.rows
        return (2.0 * channels.E0 - open_omega) * channels.root * form_factor(kappa, V0) ** 2 + kel

    with mock.patch.object(model, "CHUNK_TERMS", chunk):
        values = open_channel_sum(probes, channels_at, summand)
        assert values.dtype == np.float64 and values.shape == (len(probes),)
        assert list(values) == [open_channel_sum([p], channels_at, summand)[0] for p in probes]
        assert list(open_channel_sum(permuted(probes, order), channels_at, summand)) == permuted(
            list(values), order
        )
