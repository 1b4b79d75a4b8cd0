"""The library calls of the in-process benchmark workloads (bench/api_workloads.py),
replayed at L = N = 3.

The benchmark reaches the library only through these calls, in these
forms: positional arguments where it passes them so, and the dense chain
enumerate_basis -> build_hamiltonian -> full_spectrum -> density_elements
with the spectrum rebuilt without eigenvectors, the way the cache keeps it.
A renamed call or a reordered signature fails here, not only in a
benchmark run.
"""
import math

import numpy as np
import pytest

import latscat as ls

E0 = 2.0
THETAS = [0.0, 0.3, 0.7, 1.2]


@pytest.fixture(scope="module")
def lattice():
    return ls.LatticeSpec(L=3, n=3 / 3, U=1.0 * ls.DEFAULT_J)


def test_the_dense_chain_fills_the_density_table_in_place(lattice):
    basis = ls.enumerate_basis(3, 3)
    assert basis.dim == ls.basis_dimension(3, 3) == 10
    H = ls.build_hamiltonian(basis, lattice.J, lattice.U)
    spectrum = ls.full_spectrum(H)
    table = ls.density_elements(spectrum, basis)
    assert spectrum.density_elements is table and table.shape == (10, 3)

    cached = ls.SpectrumResult(
        spectrum.eigenvalues, None, spectrum.ground_energy, spectrum.ground_index,
        spectrum.density_elements,
    )
    oracle = ls.diagonalize(lattice)
    sectors = ls.sector_spectrum(lattice)
    assert np.array_equal(cached.eigenvalues, oracle.eigenvalues)
    for theta in THETAS:
        probe = ls.ProbeSpec(E0=E0, theta=theta)
        got = ls.exact_cross_section(cached, lattice, probe)
        want = ls.exact_cross_section(oracle, lattice, probe)
        assert (got.elastic, got.inelastic) == (want.elastic, want.inelastic)
        # one elastic cross section, the closed form, for dense and sector spectra
        shared = ls.elastic_cs(3, 3, E0, theta)
        assert got.elastic == ls.exact_cross_section(sectors, lattice, probe).elastic == shared
        assert 0 <= got.contributing_states <= basis.dim
    assert ls.exact_cross_section(cached, lattice, ls.ProbeSpec(E0=E0, theta=0.0)).inelastic == 0.0


def test_the_closed_forms_and_the_deviation(lattice):
    state = ls.solve_depletion(lattice)
    probe = ls.ProbeSpec(E0=E0, theta=0.7)
    mi = ls.mi_inelastic(3, lattice.n, E0, 0.7, lattice.V0, 1.0, lattice.U)
    sf = ls.sf_inelastic(3, E0, 0.7)
    bog = ls.bog_inelastic_cs(state, probe, lattice.V0)
    large = ls.largeL_bog_cs(state, probe, lattice.V0)
    assert all(math.isfinite(v) and v > 0 for v in (mi, sf, bog, large))

    spectrum = ls.diagonalize(lattice)

    def exact_fn(theta):
        cs = ls.exact_cross_section(spectrum, lattice, ls.ProbeSpec(E0=E0, theta=theta))
        return cs.inelastic / lattice.N

    def bog_fn(theta):
        return ls.bog_inelastic_cs(state, ls.ProbeSpec(E0=E0, theta=theta), lattice.V0)

    delta = ls.deviation_delta_cs(exact_fn, bog_fn, THETAS)
    assert math.isfinite(delta) and delta >= 0
