"""Matter-wave scattering off interacting lattice bosons (1-D chain).

Cross sections for a probe particle deflected by atoms in the lowest band
of an optical lattice, computed two ways: exact diagonalization of the
Bose-Hubbard chain, and Bogoliubov quasiparticle theory with closed-form
limiting cases.
"""
__version__ = "1.0.0"

from .errors import (
    BadParameterError,
    CacheError,
    CapacityError,
    ConvergenceError,
    DegenerateGroundStateError,
    LatscatError,
    NumericalError,
    UndefinedDeviationError,
)
from .model import (
    DEFAULT_E0,
    DEFAULT_J,
    DEFAULT_MASS_RATIO,
    DEFAULT_V0,
    LatticeSpec,
    ProbeSpec,
    bloch_dispersion,
    form_factor,
    kappa_elastic,
    lattice_sum_sq,
    quasimomentum_grid,
)
from .exact import (
    ExactCrossSection,
    FockBasis,
    SpectrumResult,
    basis_dimension,
    build_hamiltonian,
    density_elements,
    diagonalize,
    enumerate_basis,
    exact_cross_section,
    full_spectrum,
    sector_spectrum,
)
from .bogoliubov import (
    BogoliubovState,
    bog_inelastic_cs,
    bogoliubov_dispersion,
    depletion_quadratic,
    pair_coupling,
    solve_depletion,
    two_qp_contribution,
    validity_check,
)
from .limits import (
    ExactAngleSet,
    SlopeResult,
    deviation_delta_cs,
    elastic_cs,
    exact_angles,
    fit_small_u_slope,
    high_probe_energy,
    largeL_bog_cs,
    largeL_sf_inelastic,
    mi_inelastic,
    sf_inelastic,
    slope_lambda,
)
from .scans import RunManifest, ScanConfig, ScanTable, execute

__all__ = [
    "__version__",
    # errors
    "BadParameterError",
    "CacheError",
    "CapacityError",
    "ConvergenceError",
    "DegenerateGroundStateError",
    "LatscatError",
    "NumericalError",
    "UndefinedDeviationError",
    # model
    "LatticeSpec",
    "ProbeSpec",
    "DEFAULT_E0",
    "DEFAULT_J",
    "DEFAULT_MASS_RATIO",
    "DEFAULT_V0",
    "bloch_dispersion",
    "form_factor",
    "kappa_elastic",
    "lattice_sum_sq",
    "quasimomentum_grid",
    # exact diagonalization
    "ExactCrossSection",
    "FockBasis",
    "SpectrumResult",
    "basis_dimension",
    "build_hamiltonian",
    "density_elements",
    "diagonalize",
    "enumerate_basis",
    "exact_cross_section",
    "full_spectrum",
    "sector_spectrum",
    # quasiparticle theory
    "BogoliubovState",
    "bog_inelastic_cs",
    "bogoliubov_dispersion",
    "depletion_quadratic",
    "pair_coupling",
    "solve_depletion",
    "two_qp_contribution",
    "validity_check",
    # closed-form limits
    "ExactAngleSet",
    "SlopeResult",
    "deviation_delta_cs",
    "elastic_cs",
    "exact_angles",
    "fit_small_u_slope",
    "high_probe_energy",
    "largeL_bog_cs",
    "largeL_sf_inelastic",
    "mi_inelastic",
    "sf_inelastic",
    "slope_lambda",
    # sweeps
    "RunManifest",
    "ScanConfig",
    "ScanTable",
    "execute",
]
