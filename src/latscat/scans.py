"""Parameter sweeps, CSV/JSON artifact emission, and the spectrum cache.

One runner, `run`, serves every command from the COMMANDS table: an outer
loop over lattice configurations and an inner loop over probes, with each
provenance's curve taken from the CURVES registry.  Before the loops, it
gathers the lattices whose spectra its sites will read and fetches each
distinct one once: it loads the cached ones, checks every miss against the
memory refusal, and then solves the misses one by one in momentum sectors
(exact.sector_spectrum).  Each site that reads a spectrum holds the one
fetched for it, and sums its exact curve from it only when asked
(exact.exact_inelastic_curve).  The cache holds each spectrum's scattering
channels: (energy, momentum K, weight) per eigenstate.  It returns a
rectangular ScanTable with an explicit provenance column plus manifest
metadata; the writers emit byte-deterministic CSV
(17 significant digits) whose first line points at the JSON run manifest.
Cross-section columns are normalized per particle (1/(N a_s^2)) so curves
of different provenance can be overlaid directly; elastic columns share
the same normalization.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .bogoliubov import (
    bog_inelastic_curve,
    depletion_alpha,
    depletion_quadratic,
    solve_depletion,
)
from .errors import BadParameterError, CacheError
from .exact import (
    KEPT_MODE_BYTES,
    POINT_BYTES,
    SpectrumResult,
    basis_dimension,
    exact_inelastic_curve,
    ground_channel_fault,
    require_capacity,
    require_grid_capacity,
    require_memory,
    sector_spectrum,
)
from .limits import (
    DEVIATION_FLOOR_FRACTION,
    exact_angles,
    largeL_bog_cs,
    mi_inelastic,
    relative_deviation,
    sf_inelastic_curve,
    slope_curve,
)
from .model import (
    DEFAULT_E0,
    DEFAULT_J,
    DEFAULT_MASS_RATIO,
    DEFAULT_V0,
    LatticeSpec,
    ProbeSpec,
    elastic_curve,
    kappa_elastic,
)

DEFAULT_THETA_POINTS = 181

# Probe energies at or above the band gap leave the single-band model;
# heatmap sweeps are clipped below this.  The sweep starts at the floor, so
# E0 must lie above it.
HEATMAP_E0_CAP = 6.0
HEATMAP_E0_FLOOR = 0.2
HEATMAP_E0_POINTS = 41

# A slope value is flagged as near-divergent when the Bragg denominator
# 4 sin^2(kappa_el/2) drops below this.
SLOPE_FLAG_THRESHOLD = 0.1

# deviation-map steps the filling by this much, up to the requested n.
DEVIATION_FILLING_STEP = 0.2


@dataclass(frozen=True)
class ScanConfig:
    """Fully resolved parameters for one run (flags > config file > defaults)."""

    command: str
    L_values: tuple = (5,)
    n: float = 1.0
    U_over_J: float = 0.0
    J: float = DEFAULT_J
    V0: float = DEFAULT_V0
    E0: float = DEFAULT_E0
    mass_ratio: float = DEFAULT_MASS_RATIO
    # None: the command's own angles; a count: that many uniform angles on
    # [0, pi/2]; else the angles themselves
    theta_grid: tuple | int | None = None
    u_grid: tuple = (0.01, 0.1, 1.0, 5.0, 10.0, 20.0)
    provenance: tuple | None = None
    cache_dir: str | None = None
    out: str | None = None

    @property
    def L(self) -> int:
        return self.L_values[0]

    def lattice(self, L=None, n=None, U=None) -> LatticeSpec:
        """A lattice of the run's couplings: the configured one, or that of
        another chain length, filling or interaction.  The filling is the
        realized N/L, N = round(n L); a filling that realizes no particle
        is refused."""
        L, n = self.L if L is None else L, self.n if n is None else n
        N = LatticeSpec(L=L, n=n).N
        if N < 1:
            raise BadParameterError(f"filling n={n} realizes N=0 on L={L}")
        U = self.U_over_J * self.J if U is None else U
        return LatticeSpec(L=L, n=N / L, U=U, J=self.J, V0=self.V0)

    def thetas(self, own=None) -> np.ndarray:
        """The angle grid, or else the command's ``own`` angles, or else
        DEFAULT_THETA_POINTS uniform ones."""
        grid = self.theta_grid
        if grid is None:
            grid = DEFAULT_THETA_POINTS if own is None else own
        if isinstance(grid, (int, np.integer)):
            return np.linspace(0.0, np.pi / 2, require_grid_capacity(grid, "theta grid"))
        return np.asarray(grid, dtype=float)


@dataclass
class ScanTable:
    """Rectangular result table with a mandatory provenance column."""

    columns: list
    rows: list

    def __post_init__(self):
        if "provenance" not in self.columns:
            raise BadParameterError("scan table needs a provenance column")
        width = len(self.columns)
        pcol = self.columns.index("provenance")
        for row in self.rows:
            if len(row) != width:
                raise BadParameterError(
                    f"ragged row of width {len(row)}, expected {width}"
                )
            if row[pcol] not in PROVENANCES:
                raise BadParameterError(f"unknown provenance {row[pcol]!r}")

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


# The extremes of the spectra block: key -> (the SpectrumResult field it
# reads, the pick over the run's solves); None until a solve reports one
_SPECTRA_EXTREMES = {
    "worst_residual": ("residual", max),
    "min_ground_gap": ("ground_gap", min),
    "worst_fsum_residual": ("fsum_residual", max),
    "worst_s0_residual": ("s0_residual", max),
}


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit one run; its JSON is asdict()."""

    command: str
    parameters: dict
    outputs: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    # spectra read from the cache (hits) and solved (misses)
    cache: dict = field(default_factory=lambda: {"hits": 0, "misses": 0})
    # the spectra this run solved: how many, their wall seconds, the worst
    # eigenpair residual over ||H||, the smallest ground-state gap E_1 - E_0,
    # and the worst f-sum (exact.fsum_residual) and zeroth-moment residuals
    # among them
    spectra: dict = field(
        default_factory=lambda: {"solved": 0, "solve_s": 0.0, **dict.fromkeys(_SPECTRA_EXTREMES)}
    )
    wall_time_s: float = 0.0
    version: str = __version__

    def record_solves(self, results, seconds: float) -> None:
        """Fold one batch of solved spectra into the spectra block."""
        block = self.spectra
        block["solved"] += len(results)
        block["solve_s"] += seconds
        for key, (name, pick) in _SPECTRA_EXTREMES.items():
            values = [v for v in (block[key], *(getattr(r, name) for r in results)) if v is not None]
            block[key] = pick(values) if values else None


# ------------------------------------------------------------ spectrum cache

_CACHE_MAGIC = "LSCAT-SPEC"
_CACHE_VERSION = "v2"


def _cache_key(lattice: LatticeSpec) -> str:
    return f"N={lattice.N} L={lattice.L} U_over_J={lattice.U / lattice.J:.17g} J={lattice.J:.17g}"


def cache_path(cache_dir, lattice: LatticeSpec) -> Path:
    fname = "spec_" + _cache_key(lattice).replace(" ", "_").replace("=", "") + ".lspec"
    return Path(cache_dir) / fname


def save_spectrum(path, result: SpectrumResult, lattice: LatticeSpec) -> None:
    """Atomically write (energy, K, weight) per eigenstate behind a text header."""
    if result.weights is None:
        raise BadParameterError("refusing to cache a spectrum without channels")
    path = Path(path)
    header = f"{_CACHE_MAGIC} {_CACHE_VERSION} {_cache_key(lattice)}\n"
    channels = np.stack([result.eigenvalues, result.momenta, result.weights], axis=1)
    _atomic_write_bytes(path, header.encode("ascii") + channels.astype("<f8").tobytes())


def load_spectrum(path, lattice: LatticeSpec) -> SpectrumResult:
    """Read a cached spectrum back, validating header, payload size and content.

    A file of another format version is refused, never misread.  The values
    must be finite, the eigenvalues ascend from the ground state, every
    weight be non-negative and every K a multiple of 2 pi / L, and the
    ground channel pass exact.ground_channel_fault.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CacheError(f"cannot read spectrum cache {path}: {exc}") from exc
    nl = blob.find(b"\n")
    if nl < 0:
        raise CacheError(f"spectrum cache {path} has no header line")
    try:
        header = blob[:nl].decode("ascii")
    except UnicodeDecodeError as exc:
        raise CacheError(f"spectrum cache {path} header is not text") from exc
    parts = header.split()
    if len(parts) != 6 or parts[0] != _CACHE_MAGIC:
        raise CacheError(f"spectrum cache {path} has bad magic/version: {header!r}")
    if parts[1] != _CACHE_VERSION:
        raise CacheError(
            f"spectrum cache {path} has format {parts[1]}, this version reads {_CACHE_VERSION}"
        )
    expected = _cache_key(lattice).split()
    if parts[2:] != expected:
        raise CacheError(
            f"spectrum cache {path} is keyed {parts[2:]}, expected {expected}"
        )
    dim = basis_dimension(lattice.N, lattice.L)
    body = blob[nl + 1 :]
    want = 8 * 3 * dim
    if len(body) != want:
        raise CacheError(
            f"spectrum cache {path} payload is {len(body)} bytes, expected {want}"
        )
    channels = np.frombuffer(body, dtype="<f8").reshape(dim, 3)
    if not np.all(np.isfinite(channels)):
        raise CacheError(f"spectrum cache {path} holds non-finite values")
    eigenvalues, momenta, weights = channels.T.copy()
    if np.any(np.diff(eigenvalues) < 0):
        raise CacheError(f"spectrum cache {path} eigenvalues do not ascend from the ground state")
    if np.any(weights < 0):
        raise CacheError(f"spectrum cache {path} holds a negative weight")
    steps = momenta * lattice.L / (2 * np.pi)
    if not np.all(np.abs(steps - np.rint(steps)) <= 1e-9):
        raise CacheError(f"spectrum cache {path} holds a momentum off the grid 2 pi m / L")
    fault = ground_channel_fault(momenta[0], weights[0], lattice.N, lattice.L)
    if fault:
        raise CacheError(f"spectrum cache {path}: {fault}")
    return SpectrumResult(
        eigenvalues=eigenvalues,
        eigenvectors=None,
        ground_energy=float(eigenvalues[0]),
        ground_index=0,
        momenta=momenta,
        weights=weights,
    )


def cache_spectra(lattices, cache_dir, manifest: RunManifest | None = None):
    """Spectra of the lattices, in order, going through the on-disk cache.

    Each distinct lattice is fetched once: its cached spectrum is loaded,
    or it passes the memory refusal of exact.require_capacity with every
    other miss before any is solved, then it is solved in this process
    (exact.sector_spectrum) and written back.  Corrupt cache entries are
    reported as warnings and recomputed.  A file read counts one hit and a
    solve one miss.
    """
    if not lattices:
        return []
    manifest = manifest or RunManifest(command="", parameters={})
    if cache_dir is not None:
        _make_dir(cache_dir)
    keys = [_cache_key(lat) for lat in lattices]
    distinct = {}  # the first lattice of each key, in order
    for key, lattice in zip(keys, lattices):
        distinct.setdefault(key, lattice)
    spectra, misses = {}, []
    for key, lattice in distinct.items():
        path = cache_path(cache_dir, lattice) if cache_dir is not None else None
        if path is not None and path.exists():
            try:
                spectra[key] = load_spectrum(path, lattice)
                manifest.cache["hits"] += 1
                continue
            except CacheError as exc:
                manifest.warnings.append(f"recomputing spectrum: {exc}")
        misses.append(key)
        manifest.cache["misses"] += 1

    for key in misses:
        require_capacity(distinct[key].N, distinct[key].L)
    start = time.perf_counter()
    for key in misses:
        spectra[key] = sector_spectrum(distinct[key])
        if cache_dir is not None:
            save_spectrum(cache_path(cache_dir, distinct[key]), spectra[key], distinct[key])
    if misses:
        manifest.record_solves([spectra[key] for key in misses], time.perf_counter() - start)
    return [spectra[key] for key in keys]


# ------------------------------------------------------------------ writers


def _make_dir(path) -> None:
    """Create a directory and its parents; refuse a path that cannot be one."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BadParameterError(f"cannot use {path} as a directory: {exc.strerror}") from exc


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write data to path through a temporary file beside it, which never
    outlives the call; a path that cannot be written is refused."""
    path = Path(path)
    _make_dir(path.parent)
    umask = os.umask(0)  # the only way to read the umask is to set it
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise BadParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv(path, table: ScanTable, manifest_path) -> None:
    lines = [f"# manifest: {manifest_path}", ",".join(table.columns)]
    lines.extend(",".join(format_cell(v) for v in row) for row in table.rows)
    _atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode("ascii"))


def write_manifest(path, manifest: RunManifest) -> None:
    body = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    _atomic_write_bytes(Path(path), body.encode("ascii"))


def output_paths(config: ScanConfig):
    out = config.out or f"{config.command}.csv"
    base = out[:-4] if out.endswith(".csv") else out
    return Path(base + ".csv"), Path(base + ".manifest.json")


# ------------------------------------------------------------------ runners


def _base_manifest(config: ScanConfig) -> RunManifest:
    realized = LatticeSpec(L=config.L, n=config.n)
    params = {
        "L": list(config.L_values),
        "N": realized.N,
        "n": config.n,
        "realized_n": realized.realized_n,
        "U_over_J": config.U_over_J,
        "J": config.J,
        "V0": config.V0,
        "E0": config.E0,
        "mass_ratio": config.mass_ratio,
        "cache_dir": config.cache_dir,
        "normalization": "cross sections per particle, 1/(N a_s^2)",
    }
    return RunManifest(command=config.command, parameters=params)


class Site:
    """One lattice configuration of a run, the unit of the outer loop.

    It holds the lattice, the leading CSV cells that name it (`label`), the
    probes of the inner loop and the provenances it reports.  The depletion
    state and each provenance's curve are computed once, and only when
    first asked for.  The exact, bogoliubov and sf-limit curves and the
    decay slopes are summed over all of the site's probes at once, one
    open-channel sum per curve; the largeL and mi-limit curves go probe by
    probe.  `elastic` serves every provenance, exact included: the closed
    form model.elastic_curve, which the exact ground state meets exactly.
    `spectrum` is the spectrum `run` fetched for the site, one batch for
    all of its sites that read one, and the exact curve is summed from it
    when first asked for, as the bogoliubov curve is from `state`.
    """

    def __init__(self, kinds, lattice, probes, label=(), u=None):
        self.kinds, self.lattice, self.probes, self.label = kinds, lattice, probes, label
        # interaction u = U n / J of the linear decay law
        self.u = lattice.u_dimensionless if u is None else u
        self.spectrum = None  # set by run
        self._curves = {}

    @cached_property
    def state(self):
        return solve_depletion(self.lattice)

    @cached_property
    def slopes(self):
        return slope_curve(self.lattice.L, self.probes, self.lattice.V0, self.lattice.J)

    @cached_property
    def deviation(self):
        """Per-angle deviation of the quasiparticle curve from the exact one, and its mean."""
        return relative_deviation(self.curve("exact"), self.curve("bogoliubov"))

    def curve(self, provenance):
        """Inelastic cross section per particle at every probe."""
        if provenance not in self._curves:
            self._curves[provenance] = CURVES[provenance](self, self.lattice)
        return self._curves[provenance]

    @cached_property
    def elastic(self):
        """Elastic cross section per particle at every probe."""
        lat = self.lattice
        return elastic_curve(lat.L, lat.N, self.probes, lat.V0) / lat.N


# Every source of curves: name -> f(site, lattice), the site's inelastic
# cross section per particle at each of its probes.
CURVES = {
    "exact": lambda s, lat: exact_inelastic_curve(s.spectrum, lat, s.probes) / lat.N,
    "bogoliubov": lambda s, lat: bog_inelastic_curve(s.state, s.probes, lat.V0),
    "sf-limit": lambda s, lat: sf_inelastic_curve(lat.L, s.probes, lat.V0, lat.J),
    "mi-limit": lambda s, lat: [
        mi_inelastic(lat.L, lat.n, p.E0, p.theta, lat.V0, p.mass_ratio, lat.U)
        for p in s.probes
    ],
    "largeL": lambda s, lat: [largeL_bog_cs(s.state, p, lat.V0) for p in s.probes],
    "linear": lambda s, lat: [sl.gamma_sf - sl.lambda_ * s.u for sl in s.slopes],
}
PROVENANCES = tuple(CURVES)


# ----------------------------------------------------------------- layouts
# Each returns the sites of one command's outer loop, and records in the
# manifest the grids it reads: angles for all but depletion, u for u-scan,
# depletion and deviation-map.


def _grid(manifest, name, values) -> list:
    """The values as floats, recorded in the manifest's parameters as ``name``."""
    manifest.parameters[name] = [float(v) for v in values]
    return manifest.parameters[name]


def _probes(config: ScanConfig, thetas, energies=None) -> list:
    """Every probe energy (by default E0) at every angle."""
    return [
        ProbeSpec(E0=e0, theta=float(t), mass_ratio=config.mass_ratio)
        for e0 in energies or [config.E0]
        for t in thetas
    ]


def _one_lattice(config, kinds, manifest):
    """theta-scan, compare: the configured lattice over the angle grid."""
    thetas = _grid(manifest, "theta_grid", config.thetas())
    return [Site(kinds, config.lattice(), _probes(config, thetas))]


def _energy_angle_grid(config, kinds, manifest):
    """heatmap: the configured lattice over an (E0, theta) grid."""
    top = config.E0
    if top <= HEATMAP_E0_FLOOR:
        raise BadParameterError(
            f"heatmap E0 must lie above the grid floor {HEATMAP_E0_FLOOR}, got {top}"
        )
    if top >= HEATMAP_E0_CAP:
        manifest.warnings.append(
            f"E0 grid capped below {HEATMAP_E0_CAP} (band gap); requested top {top}"
        )
        top = HEATMAP_E0_CAP * (1 - 1e-9)
    e0_grid = _grid(manifest, "E0_grid", np.linspace(HEATMAP_E0_FLOOR, top, HEATMAP_E0_POINTS))
    thetas = _grid(manifest, "theta_grid", config.thetas())
    require_grid_capacity(HEATMAP_E0_POINTS * len(thetas) * len(kinds), "heatmap grid")
    return [Site(kinds, config.lattice(), _probes(config, thetas, e0_grid))]


def _u_sites(config, kinds, manifest, probes):
    n = config.lattice().n
    return [
        Site(kinds, config.lattice(U=u * config.J / n), probes, (u,), u)
        for u in _grid(manifest, "u_grid", config.u_grid)
    ]


def _u_points(config, kinds, manifest):
    """u-scan: one lattice per u on the grid, at theta = pi/4 unless a grid is given."""
    thetas = _grid(manifest, "theta_grid", config.thetas(own=[np.pi / 4]))
    return _u_sites(config, kinds, manifest, _probes(config, thetas))


def _depletion_points(config, kinds, manifest):
    """depletion: one lattice per u on the grid, without probes."""
    sites = _u_sites(config, kinds, manifest, [])
    manifest.metadata["alpha_quadratic"] = depletion_alpha(config.L, config.lattice().N)
    return sites


def _filling_cells(config, kinds, manifest):
    """deviation-map: one lattice per (n, U/J) cell, n stepped up to the filling.

    Each step is laid out at its realized filling N/L, once per N, so both
    theories of a cell read one filling; a step that realizes no particle
    is skipped, and a map none of whose steps realizes one is refused.  The
    steps go one at a time: the grid points of every cell so far and of the
    step's own are charged before the step is laid out, and every cell
    whose spectrum is not in the cache must pass exact.require_capacity
    before the next step is, so a map past this machine's memory is refused
    at its first step or cell that would not fit, however many steps it
    asks for.
    """
    step = DEVIATION_FILLING_STEP
    steps = int(config.n / step + 1e-9)
    if steps < 1:
        raise BadParameterError(
            f"deviation-map steps the filling by {step}; --n must reach it, got {config.n}"
        )
    manifest.metadata["deviation_floor"] = (
        f"{DEVIATION_FLOOR_FRACTION:g} of grid maximum of the exact curve"
    )
    probes = _probes(config, _grid(manifest, "theta_grid", config.thetas()))
    u_grid = _grid(manifest, "u_grid", config.u_grid)
    n_grid = manifest.parameters["n_grid"] = []
    sites = []
    for k in range(1, steps + 1):
        if LatticeSpec(L=config.L, n=step * k).N < 1:
            continue
        n = config.lattice(n=step * k).n
        if n_grid and n == n_grid[-1]:
            continue
        cells = len(sites) + len(u_grid)
        require_grid_capacity(cells * len(probes) * len(kinds), "deviation-map grid")
        for u_over_j in u_grid:
            lattice = config.lattice(n=n, U=u_over_j * config.J)
            if config.cache_dir is None or not cache_path(config.cache_dir, lattice).exists():
                require_capacity(lattice.N, lattice.L)
            sites.append(Site(kinds, lattice, probes, (n, u_over_j)))
        n_grid.append(n)
    if not n_grid:
        raise BadParameterError(
            f"no filling step of {step} up to n={config.n} realizes a particle on L={config.L}"
        )
    return sites


def _lattice_sizes(config, kinds, manifest):
    """slope: one chain per L; the last also carries the L -> infinity reference."""
    markers = {}
    for j in range(4):
        angles = exact_angles(config.L_values[-1], config.E0, config.mass_ratio, j)
        if angles.size:
            markers[str(j)] = [float(a) for a in angles]
    manifest.metadata["marker_angles"] = markers
    probes = _probes(config, _grid(manifest, "theta_grid", config.thetas()))
    finite = tuple(k for k in kinds if k != "largeL")
    last = len(config.L_values) - 1
    # the decay laws read only the chain length and the couplings
    return [
        Site(kinds if j == last else finite, config.lattice(L=L, n=1.0, U=0.0), probes)
        for j, L in enumerate(config.L_values)
    ]


# ---------------------------------------------------------------- commands


def _slope_row(s, provenance, i):
    # the decay law Gamma - Lambda u; the L -> infinity reference is reported as L = 0
    p, slope, lat = s.probes[i], s.slopes[i], s.lattice
    if provenance == "linear":
        L, lam, gamma = lat.L, slope.lambda_, slope.gamma_sf
    else:
        gamma = s.curve("largeL")[i]
        L, lam = 0, slope.large_l_slope
    flagged = 4 * math.sin(kappa_elastic(p) / 2) ** 2 < SLOPE_FLAG_THRESHOLD
    return [p.theta, L, provenance, lam, gamma, flagged]


def _compare_row(s, provenance, i):
    # the exact curve is the reference: its own deviation reads 0
    deviation = 0.0 if provenance == "exact" else s.deviation[0][i]
    return [s.probes[i].theta, provenance, s.elastic[i], s.curve(provenance)[i], deviation]


def _report(site, manifest):
    """Record the depletion and the mean deviation the site computed, if it did."""
    computed = vars(site)
    if "state" in computed:
        manifest.metadata["depletion_fraction"] = computed["state"].depletion_fraction
    if "deviation" in computed:
        manifest.metadata["delta_cs"] = computed["deviation"][1]


@dataclass(frozen=True)
class Command:
    """One scan command: its provenances, its CSV columns and its loops.

    `layout(config, provenances, manifest)` returns the sites of the outer
    loop.  `row(site, provenance, i)` builds the CSV row at probe i; a table
    without a theta column has one row per site and provenance (i is None).
    A table that leads with theta groups its rows by angle across sites.
    Only a table with an L column takes several L.  A run whose only site
    has no label, the configured lattice, reports that site in the manifest.
    """

    help: str
    allowed: tuple
    columns: tuple
    layout: Callable
    row: Callable
    default: tuple | None = None  # None: every allowed provenance


COMMANDS = {
    "theta-scan": Command(
        "angle sweep of elastic/inelastic cross sections",
        PROVENANCES,
        ("theta", "provenance", "elastic", "inelastic"),
        _one_lattice,
        lambda s, p, i: [s.probes[i].theta, p, s.elastic[i], s.curve(p)[i]],
        default=("bogoliubov",),
    ),
    "u-scan": Command(
        "interaction sweep of the inelastic cross section at fixed angle",
        ("exact", "bogoliubov", "linear"),
        ("u", "theta", "provenance", "inelastic", "depletion"),
        _u_points,
        lambda s, p, i: [
            *s.label, s.probes[i].theta, p, s.curve(p)[i], s.state.depletion_fraction
        ],
    ),
    "heatmap": Command(
        "(E0, theta) map of the quasiparticle inelastic cross section",
        ("bogoliubov",),
        ("E0", "theta", "provenance", "inelastic"),
        _energy_angle_grid,
        lambda s, p, i: [s.probes[i].E0, s.probes[i].theta, p, s.curve(p)[i]],
    ),
    "depletion": Command(
        "condensate depletion vs interaction with the quadratic law",
        ("bogoliubov",),
        ("u", "provenance", "depletion", "quadratic", "healing_ok"),
        _depletion_points,
        lambda s, p, i: [
            *s.label, p, s.state.depletion_fraction,
            depletion_quadratic(s.lattice), s.state.healing_ok,
        ],
    ),
    "deviation-map": Command(
        "(n, U/J) map of the angle-averaged exact-vs-quasiparticle deviation",
        ("bogoliubov",),
        ("n", "U_over_J", "provenance", "delta_cs", "depletion"),
        _filling_cells,
        lambda s, p, i: [*s.label, p, s.deviation[1], s.state.depletion_fraction],
    ),
    "slope": Command(
        "linear decay slope Lambda(theta) per L with the large-L reference",
        ("linear", "largeL"),
        ("theta", "L", "provenance", "lambda", "gamma_sf", "flagged"),
        _lattice_sizes,
        _slope_row,
    ),
    "compare": Command(
        "exact vs quasiparticle curves with per-angle deviation",
        ("exact", "bogoliubov"),
        ("theta", "provenance", "elastic", "inelastic", "deviation"),
        _one_lattice,
        _compare_row,
    ),
}


def run(config: ScanConfig):
    """Run one command in memory; returns (ScanTable, RunManifest).

    The outer loop walks the command's sites, the inner loop each site's
    probes, and each step yields a row per provenance of the site.  A
    layout is refused before any curve when its points, one per (site,
    probe, provenance), at exact.POINT_BYTES a point, and the L - 1 modes of
    each condensate its sites keep, at exact.KEPT_MODE_BYTES a mode, would
    not fit in memory together.
    """
    command = COMMANDS.get(config.command)
    if command is None:
        raise BadParameterError(f"unknown command {config.command!r}")
    if "L" not in command.columns and len(config.L_values) != 1:
        raise BadParameterError(
            f"{config.command} takes a single L, got {list(config.L_values)}"
        )
    manifest = _base_manifest(config)
    kinds = tuple(config.provenance or command.default or command.allowed)
    bad = [p for p in kinds if p not in command.allowed]
    if bad:
        raise BadParameterError(
            f"{config.command} supports provenance {sorted(command.allowed)}, got {bad}"
        )
    manifest.parameters["provenance"] = list(kinds)

    sites = command.layout(config, kinds, manifest)
    points = sum(len(s.probes) * len(s.kinds) for s in sites)
    # a site keeps its condensate once a curve or a depletion column reads it
    keeping = [
        s.lattice.L for s in sites
        if "depletion" in command.columns or {"bogoliubov", "largeL"} & set(s.kinds)
    ]
    modes = sum(keeping) - len(keeping)
    what = f"a {config.command} grid of {points} points"
    if keeping:
        what = f"L={max(keeping)}: {what} and {modes} kept condensate modes"
    require_memory(what, points * POINT_BYTES + modes * KEPT_MODE_BYTES)
    # every exact curve reads a spectrum, and compare and deviation-map
    # measure every curve against the exact one
    reading = [
        s for s in sites
        if "exact" in s.kinds or config.command in ("compare", "deviation-map")
    ]
    spectra = cache_spectra([s.lattice for s in reading], config.cache_dir, manifest)
    for site, spectrum in zip(reading, spectra):
        site.spectrum = spectrum
    per_angle = "theta" in command.columns
    steps = [(s, i) for s in sites for i in (range(len(s.probes)) if per_angle else (None,))]
    if command.columns[0] == "theta":
        steps.sort(key=lambda step: step[1])  # stable: by angle, then site
    rows = [command.row(site, kind, i) for site, i in steps for kind in site.kinds]
    if len(sites) == 1 and not sites[0].label:
        _report(sites[0], manifest)
    return ScanTable(columns=list(command.columns), rows=rows), manifest


def execute(config: ScanConfig):
    """Run one command and write its CSV + manifest pair.

    Returns (csv_path, manifest). The CSV is byte-deterministic for a given
    config; the manifest carries wall time and cache statistics.
    """
    csv_path, manifest_path = output_paths(config)
    _make_dir(csv_path.parent)  # refuse an unusable --out before the run, not after it
    start = time.perf_counter()
    table, manifest = run(config)
    manifest.wall_time_s = time.perf_counter() - start
    manifest.outputs = [str(csv_path)]
    write_csv(csv_path, table, manifest_path)
    write_manifest(manifest_path, manifest)
    return csv_path, manifest
