"""Experiment configuration: INI-style files and instance builders.

A config file holds sections [growth], [coefficient], [obstacle],
[measure], [solver], [checks], [sweep], and optionally [boundary] for the
Dirichlet trace preset; any other section, [solver] or [checks] key is a
``DataError`` naming it.  [sweep] lists values of the axes the checks
cross (``SWEEP_AXES``), its n the meshes of the unit square; every other
setting has one value per run.  ``build_instance`` realizes the config at a chosen mesh with optional data
scalings, producing the immutable bundle the checks and the CLI consume.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..field import (
    CoefficientField,
    VectorField,
    coefficient_from_raster,
    make_coefficient,
)
from ..grid import Grid2D, GridFunction, MeasureData, read_raster
from ..orlicz import GrowthFunction, make_growth
from ..potentials import radial_potential_profile
from ..solver import ObstacleProblem, SolverConfig

__all__ = [
    "SWEEP_AXES",
    "CHECK_KEYS",
    "ExperimentConfig",
    "Instance",
    "load_config",
    "typed_value",
    "build_instance",
]

# the axes the checks cross (``sweep_axis``); a setting such as the solver's
# epsilon has one value per run and lives in [solver]
SWEEP_AXES = ("n", "scale", "level", "amplitude", "alpha")
# the [checks] keys besides ``run``: the parameters the checks read, each
# through ``checks._param``, which refuses any other
CHECK_KEYS = ("center", "radius", "off_center", "off_radius", "side_center", "side_radius",
              "decay_center", "decay_radius", "errors_center", "errors_radius",
              "estimate_radius", "points")
_SOLVER_KEYS = ("epsilon", "tol", "max_iter", "gamma_prime", "seed")
_SECTIONS = ("growth", "coefficient", "obstacle", "measure", "boundary",
             "solver", "checks", "sweep")
# the coefficient presets whose amplitude the ``amplitude`` axis sweeps
_AMPLITUDE_PRESETS = ("jump", "checkerboard")

_DEFAULT_SWEEP = {
    "n": [64, 128],
    "scale": [1.0, 4.0, 16.0],
    "level": [2, 4, 8, 16],
    "amplitude": [0.2, 0.4],
}


@dataclass
class ExperimentConfig:
    growth: dict = field(default_factory=lambda: {"kind": "power", "p": 2.0})
    coefficient: dict = field(default_factory=lambda: {"preset": "constant"})
    obstacle: dict = field(default_factory=lambda: {"preset": "none"})
    measure: dict = field(default_factory=dict)
    boundary: dict = field(default_factory=lambda: {"preset": "zero"})
    solver: SolverConfig = field(default_factory=SolverConfig)
    checks: list = field(default_factory=list)
    check_params: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    gamma_prime: float = 2.0
    seed: int = 12345
    base_dir: Path = field(default_factory=Path)

    def sweep_axis(self, name: str) -> list:
        if name in self.sweep:
            return list(self.sweep[name])
        return list(_DEFAULT_SWEEP.get(name, []))

    def meshes(self) -> list[int]:
        return [int(n) for n in self.sweep_axis("n")]

    def amplitudes(self) -> list:
        """The swept coefficient amplitudes; ``[None]`` for a preset that
        takes none."""
        if self.coefficient.get("preset") in _AMPLITUDE_PRESETS:
            return self.sweep_axis("amplitude")
        return [None]


def typed_value(section: str, key: str, raw, default):
    """A parsed config value as ``default``'s kind: a point (tuple default)
    is exactly two numbers, anything else one number cast to the default's
    type; a value of another kind is a ``DataError`` naming the key."""
    try:
        if isinstance(default, tuple):
            x, y = (float(t) for t in (raw.split() if isinstance(raw, str) else raw))
            return (x, y)
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return type(default)(raw)
    except (TypeError, ValueError):
        pass
    kind = "a point (two numbers)" if isinstance(default, tuple) else "a number"
    raise DataError(f"[{section}] {key} must be {kind}, got {raw!r}")


def _parse_scalar(text: str):
    text = text.strip()
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text

def _parse_list(text: str) -> list:
    return [_parse_scalar(tok) for tok in text.split(",") if tok.strip()]

def _section(parser: configparser.ConfigParser, name: str) -> dict:
    if not parser.has_section(name):
        return {}
    return {k: _parse_scalar(v) for k, v in parser.items(name)}

def _refuse_unknown(label: str, names, known, what: str = "a key", hint=lambda name: "") -> None:
    for name in names:
        if name not in known:
            raise DataError(f"{label.format(name)} is not {what} "
                            f"(known: {', '.join(known)}){hint(name)}")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        found = parser.read(str(path))
    except configparser.Error as exc:
        raise DataError(f"malformed config: {exc}") from None
    if not found:
        raise DataError(f"cannot read config file {path}")
    _refuse_unknown("[{}]", parser.sections(), _SECTIONS, "a section", lambda name: (
        "; the domain is the unit square and the meshes are [sweep] n" if name == "grid" else ""))
    cfg = ExperimentConfig(base_dir=path.parent)
    for name in ("growth", "coefficient", "obstacle", "measure", "boundary"):
        sec = _section(parser, name)
        if sec:
            setattr(cfg, name, sec)
    sol = _section(parser, "solver")
    _refuse_unknown("[solver] {}", sol, _SOLVER_KEYS)

    def setting(key, default):
        return typed_value("solver", key, sol[key], default) if key in sol else default

    cfg.solver = SolverConfig(
        epsilon=setting("epsilon", SolverConfig.epsilon),
        tol=setting("tol", SolverConfig.tol),
        max_iter=setting("max_iter", SolverConfig.max_iter),
    )
    cfg.gamma_prime = setting("gamma_prime", cfg.gamma_prime)
    cfg.seed = setting("seed", cfg.seed)
    checks = _section(parser, "checks")
    if checks:
        run = checks.pop("run", "")
        cfg.checks = [tok.strip() for tok in str(run).split(",") if tok.strip()]
        _refuse_unknown("[checks] {}", checks, ("run", *CHECK_KEYS))
        cfg.check_params = checks
    if parser.has_section("sweep"):
        cfg.sweep = {k: _parse_list(v) for k, v in parser.items("sweep")}
    _refuse_unknown("[sweep] {}", cfg.sweep, SWEEP_AXES, "an axis", lambda key: (
        f"; set {key} under [solver]" if key in _SOLVER_KEYS else ""))
    for key, values in cfg.sweep.items():
        if not values:
            raise DataError(f"[sweep] {key} lists no value")
    return cfg


# ---------------------------------------------------------------------------
# builders

def build_growth(cfg: ExperimentConfig) -> GrowthFunction:
    spec = dict(cfg.growth)
    kind = str(spec.pop("kind", "power"))
    if "file" in spec:
        spec["file"] = str(cfg.base_dir / spec["file"])
    return make_growth(kind, **spec)


def build_coefficient(cfg: ExperimentConfig, spec: dict) -> CoefficientField:
    """The field of a [coefficient] section (``spec``, which may carry a
    swept amplitude)."""
    if "file" in spec:
        return coefficient_from_raster(read_raster(cfg.base_dir / spec["file"]))
    spec = dict(spec)
    preset = str(spec.pop("preset", "constant"))
    return make_coefficient(preset, **spec)


def build_obstacle(cfg: ExperimentConfig, grid: Grid2D, scale: float = 1.0) -> GridFunction | None:
    spec = dict(cfg.obstacle)
    preset = str(spec.pop("preset", "none")).lower()
    if preset == "none":
        return None
    if preset == "affine":
        ax = float(spec.get("ax", 0.1))
        ay = float(spec.get("ay", 0.0))
        b = float(spec.get("b", -1.0))
        fn = lambda X, Y: ax * X + ay * Y + b
    elif preset == "quadratic":
        height = float(spec.get("height", 0.2))
        curv = float(spec.get("curvature", 1.5))
        cx = float(spec.get("cx", 0.5))
        cy = float(spec.get("cy", 0.5))
        fn = lambda X, Y: height - curv * ((X - cx) ** 2 + (Y - cy) ** 2)
    elif preset == "bump":
        height = float(spec.get("height", 0.25))
        radius = float(spec.get("radius", 0.3))
        cx = float(spec.get("cx", 0.5))
        cy = float(spec.get("cy", 0.5))
        floor = float(spec.get("floor", -0.05))
        def fn(X, Y):
            rho2 = ((X - cx) ** 2 + (Y - cy) ** 2) / radius**2
            return floor + height * np.where(rho2 < 1, (1 - np.minimum(rho2, 1)) ** 2, 0.0)
    elif preset == "file":
        return read_raster(cfg.base_dir / spec["path"])
    else:
        raise DataError(f"unknown obstacle preset {preset!r}")
    gf = GridFunction.from_callable(grid, fn)
    return gf.with_values(gf.values * scale)


def build_measure(cfg: ExperimentConfig, grid: Grid2D, scale: float = 1.0) -> MeasureData | None:
    spec = cfg.measure
    if not spec:
        return None
    atoms = []
    raw = str(spec.get("atoms", "")).strip()
    if raw:
        for chunk in raw.split(";"):
            parts = chunk.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise DataError(f"atom spec needs 'x y mass', got {chunk!r}")
            x, y, m = (float(t) for t in parts)
            atoms.append((x, y, m * scale))
    density = None
    dens = spec.get("density", "none")
    if isinstance(dens, (int, float)):
        density = GridFunction.constant(grid, float(dens) * scale)
    elif str(dens).lower() not in ("none", ""):
        density = read_raster(cfg.base_dir / str(dens))
        density = density.with_values(density.values * scale)
    if not atoms and density is None:
        return None
    return MeasureData(atoms, density)


def build_boundary(cfg: ExperimentConfig, grid: Grid2D, growth: GrowthFunction,
                   measure: MeasureData | None, scale: float = 1.0) -> GridFunction:
    spec = dict(cfg.boundary)
    preset = str(spec.get("preset", "zero")).lower()
    if preset == "zero":
        fn = lambda X, Y: np.zeros_like(X)
    elif preset == "constant":
        v = float(spec.get("value", 0.0))
        fn = lambda X, Y: np.full_like(X, v)
    elif preset == "affine":
        ax = float(spec.get("ax", 1.0))
        ay = float(spec.get("ay", 0.0))
        b = float(spec.get("b", 0.0))
        fn = lambda X, Y: ax * X + ay * Y + b
    elif preset == "sin_affine":
        amp = float(spec.get("amp", 0.3))
        k = float(spec.get("k", 1.0))
        fn = lambda X, Y: X + amp * np.sin(2 * np.pi * k * Y)
    elif preset in ("fundamental", "radial"):
        if measure is None or not measure.atoms:
            raise DataError("fundamental boundary preset needs an atom in the measure")
        ax_, ay_, mass = measure.atoms[0]
        c0 = float(spec.get("c0", 1.0))
        def fn(X, Y):
            R = np.hypot(X - ax_, Y - ay_)
            return radial_potential_profile(growth, abs(mass), R, c0=c0)
    elif preset == "file":
        return read_raster(cfg.base_dir / spec["path"])
    else:
        raise DataError(f"unknown boundary preset {preset!r}")
    gf = GridFunction.from_callable(grid, fn)
    return gf.with_values(gf.values * scale)


_USE_MEASURE = object()


@dataclass
class Instance:
    """A config realized at one mesh: everything a solve or a check needs."""

    config: ExperimentConfig
    grid: Grid2D
    growth: GrowthFunction
    field: VectorField
    obstacle: GridFunction | None
    measure: MeasureData | None
    boundary: GridFunction
    solver: SolverConfig
    key: tuple  # names the realized problem; see build_instance

    def problem(self, rhs=_USE_MEASURE) -> ObstacleProblem:
        return ObstacleProblem(
            field=self.field,
            boundary=self.boundary,
            obstacle=self.obstacle,
            rhs=self.measure if rhs is _USE_MEASURE else rhs,
        )


def build_instance(cfg: ExperimentConfig, n: int, *,
                   data_scale: float = 1.0, rhs_scale: float = 1.0,
                   amplitude: float | None = None) -> Instance:
    """Realize the config on the n-cell mesh of the unit square.

    ``data_scale`` multiplies boundary, obstacle, and measure together
    (the full-data scaling); ``rhs_scale`` multiplies the measure only.
    The key holds what realizes the problem and nothing else: the mesh,
    both scales, the problem sections (with the amplitude applied), the
    directory their files are read from, and the solver settings; never
    ``check_params`` or the sweep, so checks that sample differently
    share every solve.
    """
    grid = Grid2D(int(n))
    growth = build_growth(cfg)
    coef = dict(cfg.coefficient)
    if amplitude is not None and coef.get("preset") in _AMPLITUDE_PRESETS:
        coef["amplitude"] = amplitude
    vf = VectorField(growth, build_coefficient(cfg, coef))
    obstacle = build_obstacle(cfg, grid, data_scale)
    measure = build_measure(cfg, grid, data_scale * rhs_scale)
    boundary = build_boundary(cfg, grid, growth, measure, data_scale)
    sections = (cfg.growth, coef, cfg.obstacle, cfg.measure, cfg.boundary)
    key = (grid.n, float(data_scale), float(rhs_scale),
           *(tuple(sorted(sec.items())) for sec in sections), str(cfg.base_dir), cfg.solver)
    return Instance(
        config=cfg,
        grid=grid,
        growth=growth,
        field=vf,
        obstacle=obstacle,
        measure=measure,
        boundary=boundary,
        solver=cfg.solver,
        key=key,
    )
