"""A site's curves equal the per-probe public functions, bit for bit.

scans.Site sums the exact, bogoliubov and sf-limit curves and the decay
slopes over all of its probes at once, one open-channel sum per curve that
groups runs of consecutive probes of one energy, while
exact_cross_section, bog_inelastic_cs, sf_inelastic and slope_lambda
evaluate one probe.  Within a run every probe sums the same compacted open
channels in the same order, so the two must agree with ``==``, not to a
tolerance: the CSVs and the benchmark's U = 0 identities depend on it.
The draws mix probe energies in one site (as the heatmap does), put some
below the band top so that channels close, and reach theta = 0 and elastic
transfers on +-2 pi.  The chunk size of the open-channel sum is drawn too,
so that a run split over several blocks is checked against the same run in
one.
"""
from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latscat import model
from latscat.bogoliubov import bog_inelastic_cs, solve_depletion
from latscat.exact import basis_dimension, diagonalize, exact_cross_section, exact_cross_sections
from latscat.limits import sf_inelastic, slope_lambda
from latscat.model import LatticeSpec, ProbeSpec, kappa_elastic
from latscat.scans import ScanConfig, Site, _probes

J = 0.0065
V0 = 15.0

# E0 = 4 at theta = +-pi/2 and unit mass ratio puts kappa_el on -+2 pi
angles = st.lists(
    st.one_of(st.sampled_from([0.0, np.pi / 2, -np.pi / 2]), st.floats(-np.pi / 2, np.pi / 2)),
    min_size=1,
    max_size=5,
)
energies = st.lists(
    st.one_of(st.just(4.0), st.floats(0.001, 0.06), st.floats(0.06, 6.0)),
    min_size=1,
    max_size=3,
)
chunks = st.sampled_from([model.CHUNK_TERMS, 1, 37])
u_over_j = st.one_of(st.just(0.0), st.floats(0.0, 300.0))
exact_sizes = [(N, L) for L in range(2, 9) for N in range(1, 13) if basis_dimension(N, L) <= 300]


def make_site(lattice, thetas, e0s, mass_ratio, kinds):
    config = ScanConfig(command="theta-scan", mass_ratio=mass_ratio)
    probes = _probes(config, thetas, e0s)
    return Site(kinds, lattice, probes)


@lru_cache(maxsize=None)
def spectrum_of(lattice):
    return diagonalize(lattice)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    size=st.sampled_from(exact_sizes),
    u=u_over_j,
    thetas=angles,
    e0s=energies,
    band_fractions=st.lists(st.floats(0.05, 1.0), max_size=2),
    mass_ratio=st.sampled_from([1.0, 0.3, 94.3]),
    chunk=chunks,
)
def test_site_exact_curve_is_the_per_probe_cross_section(
    size, u, thetas, e0s, band_fractions, mass_ratio, chunk
):
    N, L = size
    lattice = LatticeSpec(L=L, n=N / L, U=u * J, J=J, V0=V0)
    spectrum = spectrum_of(lattice)
    # energies inside the many-body spectrum close some of its channels
    top = float(spectrum.eigenvalues[-1] - spectrum.ground_energy)
    e0s = e0s + [f * top for f in band_fractions]
    site = make_site(lattice, thetas, e0s, mass_ratio, ("exact",))
    with mock.patch.object(model, "CHUNK_TERMS", chunk):
        site.exact = exact_cross_sections(spectrum, lattice, site.probes)  # as run sets it
        curve = site.curve("exact")
        sections = site.exact
    expected = [exact_cross_section(spectrum, lattice, p) for p in site.probes]
    assert sections == expected
    assert list(curve) == [cs.inelastic / N for cs in expected]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    L=st.integers(2, 60),
    n=st.sampled_from([0.5, 1.0, 2.0]),
    u=u_over_j,
    thetas=angles,
    e0s=energies,
    mass_ratio=st.sampled_from([1.0, 0.3, 94.3]),
    chunk=chunks,
)
def test_site_quasiparticle_curves_are_the_per_probe_functions(
    L, n, u, thetas, e0s, mass_ratio, chunk
):
    lattice = LatticeSpec(L=L, n=n, U=u * J, J=J, V0=V0)
    site = make_site(lattice, thetas, e0s, mass_ratio, ("bogoliubov", "sf-limit", "linear"))
    with mock.patch.object(model, "CHUNK_TERMS", chunk):
        bog = site.curve("bogoliubov")
        sf = site.curve("sf-limit")
        slopes = site.slopes
    probes = site.probes
    state = solve_depletion(lattice)
    assert list(bog) == [bog_inelastic_cs(state, p, V0) for p in probes]
    assert list(sf) == [sf_inelastic(L, p.E0, p.theta, V0, p.mass_ratio, J) for p in probes]
    assert slopes == [slope_lambda(L, p.E0, p.theta, V0, p.mass_ratio, J) for p in probes]


def test_reciprocal_transfers_read_exact_zeros_inside_a_group():
    lattice = LatticeSpec(L=8, n=1.0, U=0.02 * J, J=J, V0=V0)
    site = make_site(lattice, [np.pi / 2, 0.3, 0.0, -np.pi / 2], [4.0], 1.0, ("bogoliubov",))
    assert [kappa_elastic(p) for p in site.probes][::3] == [-2 * np.pi, 2 * np.pi]
    bog = site.curve("bogoliubov")
    assert bog[0] == bog[2] == bog[3] == 0.0
    assert bog[1] > 0.0


def test_a_probe_energy_below_every_channel_reads_zero():
    lattice = LatticeSpec(L=6, n=1.0, J=J, V0=V0)
    probes = [ProbeSpec(E0=1e-6, theta=0.4), ProbeSpec(E0=2.0, theta=0.4)]
    site = Site(("sf-limit",), lattice, probes)
    sf = site.curve("sf-limit")
    assert sf[0] == 0.0 and sf[1] > 0.0
