"""Experiment configuration: INI-style files and instance builders.

A config file holds the problem sections [growth], [coefficient],
[obstacle], [measure], [boundary] and the run sections [solver],
[checks], [sweep]; a section or key outside that vocabulary is a
``DataError`` naming it.  One binder, ``_realize``, turns every problem
section into its object: the section's preset (``kind`` for [growth])
picks a builder from the section's table, and each other key binds a
keyword parameter of that builder, typed against the parameter's
default.  [sweep] lists each ``SWEEP_AXES`` value a run crosses once, with
no defaults: n, the meshes, is required, and a check holds an axis it does
not cross at its first value.  Each mesh solves the finest mollification
level it resolves (``solver.finest_level``).  Each cell starts its solves
from one linked cell's solution: a cell at data scale s from the same
mesh's cell at the base scale s_b, times s/s_b, and otherwise the same
cell on the mesh n/2 when the sweep lists it, so the scale and mesh sweeps
are the continuation.  s_b is the sweep's largest scale where the scaling
is exact, so a converged solution is only scaled down and stays converged,
and its first scale elsewhere (``build_instance``).  [checks] holds
``run`` and ``points``; each check's ball is a constant next to it.
``build_instance`` realizes the config at one mesh with optional data
scalings, producing the immutable bundle the checks and the CLI consume;
``cells`` realizes it in every cell a check crosses.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..field import COEFFICIENT_PRESETS, CoefficientField, VectorField, coefficient_from_raster
from ..grid import Grid2D, GridFunction, MeasureData, read_raster
from ..orlicz import GROWTH_KINDS, GrowthFunction, PowerGrowth
from ..potentials import radial_potential_profile
from ..solver import ObstacleProblem, SolverConfig

__all__ = [
    "SWEEP_AXES",
    "CHECK_KEYS",
    "OBSTACLE_PRESETS",
    "BOUNDARY_PRESETS",
    "ExperimentConfig",
    "Instance",
    "load_config",
    "typed_value",
    "build_instance",
    "cells",
]

# the [sweep] axes, each a list of the values ``cells`` crosses.  A setting
# such as the solver's epsilon has one value per run, in [solver]
SWEEP_AXES = ("n", "scale", "amplitude")
# the [checks] keys besides ``run``: the estimate checks' count of sample
# points, a positive integer in ``check_params``
CHECK_KEYS = ("points",)
_SOLVER_KEYS = ("epsilon", "tol", "max_iter")
_PROBLEM_SECTIONS = ("growth", "coefficient", "obstacle", "measure", "boundary")
_SECTIONS = (*_PROBLEM_SECTIONS, "solver", "checks", "sweep")
# the coefficient presets whose amplitude the ``amplitude`` axis sweeps
_AMPLITUDE_PRESETS = ("jump", "checkerboard")


@dataclass
class ExperimentConfig:
    # an absent problem section builds its default preset (power, p = 2)
    growth: dict = field(default_factory=lambda: {"p": 2.0})
    coefficient: dict = field(default_factory=dict)
    obstacle: dict = field(default_factory=dict)
    measure: dict = field(default_factory=dict)
    boundary: dict = field(default_factory=dict)
    solver: SolverConfig = field(default_factory=SolverConfig)
    checks: list = field(default_factory=list)
    check_params: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path)


def typed_value(section: str, key: str, raw, default):
    """A parsed config value as ``default``'s kind: text (str default) any
    value, an int an integral number, anything else a finite number; a
    value of another kind is a ``DataError`` naming the key."""
    if isinstance(default, str):
        return str(raw)
    if isinstance(raw, float) and not math.isfinite(raw):
        raise DataError(f"[{section}] {key} must be a finite number, got {raw!r}")
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if not isinstance(default, int) or float(raw).is_integer():
            return type(default)(raw)
    kind = "an integer" if isinstance(default, int) else "a number"
    raise DataError(f"[{section}] {key} must be {kind}, got {raw!r}")


def _parse_scalar(text: str):
    text = text.strip()
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
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


def _refuse_twice(label: str, values: list) -> None:
    """A list that names a mesh, a scale, an amplitude or a check twice."""
    twice = [value for i, value in enumerate(values) if value in values[:i]]
    if twice:
        raise DataError(f"{label} lists {twice[0]} twice")


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
    for name in _PROBLEM_SECTIONS:
        sec = _section(parser, name)
        if sec:
            setattr(cfg, name, sec)
    sol = _section(parser, "solver")
    _refuse_unknown("[solver] {}", sol, _SOLVER_KEYS, hint=lambda name: (
        "; the sample seed is --seed" if name == "seed" else ""))
    cfg.solver = SolverConfig(**{key: typed_value("solver", key, value, getattr(SolverConfig, key))
                                 for key, value in sol.items()})
    checks = _section(parser, "checks")
    run = checks.pop("run", "")
    cfg.checks = [tok.strip() for tok in str(run).split(",") if tok.strip()]
    _refuse_twice("[checks] run", cfg.checks)
    _refuse_unknown("[checks] {}", checks, ("run", *CHECK_KEYS))
    if "points" in checks:
        checks["points"] = typed_value("checks", "points", checks["points"], 0)
        if checks["points"] < 1:
            raise DataError(f"[checks] points must be positive, got {checks['points']}")
    cfg.check_params = checks
    if parser.has_section("sweep"):
        cfg.sweep = {k: _parse_list(v) for k, v in parser.items("sweep")}
    _refuse_unknown("[sweep] {}", cfg.sweep, SWEEP_AXES, "an axis", lambda key: (
        f"; set {key} under [solver]" if key in _SOLVER_KEYS else
        "; the sample seed is --seed" if key == "seed" else
        "; each mesh solves the finest mollification level it resolves" if key == "level" else
        "; the estimate checks' alphas follow the homogeneous excess-decay fit" if key == "alpha"
        else ""))
    for key, values in cfg.sweep.items():
        if not values:
            raise DataError(f"[sweep] {key} lists no value")
        # meshes are counts; the other axes numbers
        kind = 0 if key == "n" else 0.0
        cfg.sweep[key] = [typed_value("sweep", key, v, kind) for v in values]
        _refuse_twice(f"[sweep] {key}", cfg.sweep[key])
    for s in cfg.sweep.get("scale", []):
        if s <= 0:
            raise DataError(f"[sweep] scale must be positive, got {s:g}")
    if "n" not in cfg.sweep:
        raise DataError("[sweep] n is missing: a config lists the meshes it solves on")
    if "amplitude" in cfg.sweep:
        if "amplitude" in cfg.coefficient:
            raise DataError("[coefficient] amplitude is overridden by [sweep] amplitude; "
                            "set one of them")
        preset = _coefficient_preset(cfg.coefficient)
        if preset not in _AMPLITUDE_PRESETS:
            raise DataError(f"[sweep] amplitude sweeps a {' or '.join(_AMPLITUDE_PRESETS)} "
                            f"coefficient; the {preset} coefficient has no amplitude")
        for amplitude in cfg.sweep["amplitude"]:
            build_coefficient(cfg, {**cfg.coefficient, "amplitude": amplitude})
    return cfg


# ---------------------------------------------------------------------------
# builders: one binder, and a table of presets per problem section

@functools.lru_cache(maxsize=64)
def _keywords(build) -> tuple:
    """The parameters of a section builder that a keyword can bind; each
    cell realizes five sections, so they are read once per builder."""
    return tuple(p for p in inspect.signature(build).parameters.values()
                 if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))


def _realize(cfg: ExperimentConfig, section: str, presets: dict, spec: dict, default,
             key: str | None = "preset", **context):
    """The object a problem section names: ``spec[key]`` (else ``default``;
    always ``default`` when ``key`` is None) picks a builder from
    ``presets``, and each other key of ``spec`` binds a keyword parameter
    of it, typed against the parameter's default (a number if it has none).
    ``file``, ``path`` and a non-numeric ``density`` name a file under the
    config's directory.  ``context`` fills the parameters a config cannot
    set; an unreadable file is a ``DataError`` naming it."""
    spec = dict(spec)
    name = default if key is None else spec.pop(key, default)
    label = section if name is None else f"{name} {section}"
    if name not in presets:
        raise DataError(f"unknown {section} {key} {name!r} (known: {', '.join(presets)})")
    build = presets[name]
    params = {p.name: p for p in _keywords(build)}
    settable = [k for k in params if k not in context]
    args = {k: v for k, v in context.items() if k in params}
    for k, raw in spec.items():
        if k not in settable:
            raise DataError(f"{label} takes no {k} (it takes {', '.join(settable) or 'no key'})")
        if k in ("file", "path") or (k == "density" and isinstance(raw, str)):
            args[k] = cfg.base_dir / str(raw)
        else:
            d = params[k].default
            args[k] = typed_value(section, k, raw, 0.0 if d in (None, params[k].empty) else d)
    for k in settable:
        if k not in args and params[k].default is params[k].empty:
            raise DataError(f"{label}: missing a required argument: '{k}'")
    try:
        return build(**args)
    except (OSError, DataError) as exc:
        files = [v for v in args.values() if isinstance(v, Path)]
        if not files:
            raise
        reason = (exc.strerror or "cannot be read") if isinstance(exc, OSError) else exc
        raise DataError(f"{label}: {files[0]}: {reason}") from None


def _affine(ax, ay, b):
    return lambda X, Y: ax * X + ay * Y + b


def _quadratic(height=0.2, curvature=1.5, cx=0.5, cy=0.5):
    return lambda X, Y: height - curvature * ((X - cx) ** 2 + (Y - cy) ** 2)


def _bump(height=0.25, radius=0.3, cx=0.5, cy=0.5, floor=-0.05):
    def fn(X, Y):
        rho2 = ((X - cx) ** 2 + (Y - cy) ** 2) / radius**2
        return floor + height * np.where(rho2 < 1, (1 - np.minimum(rho2, 1)) ** 2, 0.0)
    return fn


def _fundamental(growth, measure, c0=1.0):
    """The radial potential of the measure's first atom."""
    if not measure.atoms:
        raise DataError("fundamental boundary preset needs an atom in the measure")
    ax, ay, mass = measure.atoms[0]
    return lambda X, Y: radial_potential_profile(growth, abs(mass), np.hypot(X - ax, Y - ay),
                                                 c0=c0)


# obstacle and boundary presets: each builds a function of the node
# coordinates (X, Y), or reads a raster; ``none`` is no obstacle
OBSTACLE_PRESETS = {
    "none": lambda: None,
    "affine": lambda ax=0.1, ay=0.0, b=-1.0: _affine(ax, ay, b),
    "quadratic": _quadratic,
    "bump": _bump,
    "file": read_raster,
}
BOUNDARY_PRESETS = {
    "zero": lambda: lambda X, Y: np.zeros_like(X),
    "constant": lambda value=0.0: lambda X, Y: np.full_like(X, value),
    "affine": lambda ax=1.0, ay=0.0, b=0.0: _affine(ax, ay, b),
    "sin_affine": lambda amp=0.3, k=1.0: lambda X, Y: X + amp * np.sin(2 * np.pi * k * Y),
    "fundamental": _fundamental,
    "file": read_raster,
}
# a [coefficient] section that names a file is the raster's coefficient
_COEFFICIENTS = {**COEFFICIENT_PRESETS,
                 "file": lambda file: coefficient_from_raster(read_raster(file))}


def _measure(grid, atoms="", density=None) -> MeasureData:
    """Atoms ``x y mass; ...``, each strictly inside the unit square, plus a
    constant or raster density; the zero measure ``MeasureData()`` when
    both are absent."""
    points = []
    for chunk in filter(str.strip, atoms.split(";")):
        try:
            x, y, m = (float(t) for t in chunk.split())
        except ValueError:
            raise DataError(f"[measure] atoms: each atom is three numbers 'x y mass', "
                            f"got {chunk.strip()!r}") from None
        if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
            raise DataError(f"[measure] atom ({x:g}, {y:g}) is not strictly inside "
                            f"the unit square")
        if not math.isfinite(m):
            raise DataError(f"[measure] atoms: the mass of atom ({x:g}, {y:g}) must be a "
                            f"finite number, got {m!r}")
        points.append((x, y, m))
    if density is not None:
        density = _on_grid("measure", read_raster(density) if isinstance(density, Path)
                           else GridFunction.constant(grid, density), grid, 1.0)
    return MeasureData(points, density)


def _on_grid(section: str, made, grid: Grid2D, scale: float) -> GridFunction | None:
    """A preset's function of the node coordinates, or a raster, on the mesh
    times ``scale``; no obstacle (None) stays None.  A raster is not
    resampled: one on another mesh is a ``DataError``."""
    if made is None:
        return None
    gf = made if isinstance(made, GridFunction) else GridFunction.from_callable(grid, made)
    if gf.grid != grid:
        raise DataError(f"[{section}] raster is on the n = {gf.grid.n} mesh, not the "
                        f"cell's n = {grid.n}; a raster is not resampled")
    return gf.with_values(gf.values * scale)


def build_growth(cfg: ExperimentConfig) -> GrowthFunction:
    return _realize(cfg, "growth", GROWTH_KINDS, cfg.growth, "power", key="kind")


def _coefficient_preset(spec: dict) -> str:
    """A [coefficient] section's preset; without one, ``file`` or ``constant``."""
    return spec.get("preset", "file" if "file" in spec else "constant")


def build_coefficient(cfg: ExperimentConfig, spec: dict) -> CoefficientField:
    """The field of a [coefficient] section (``spec``, which may carry a
    swept amplitude).  A preset whose values leave [c_low, c_high] is a
    ``DataError``: only a raster is clamped into that range."""
    preset = _coefficient_preset(spec)
    coef = _realize(cfg, "coefficient", _COEFFICIENTS, spec, preset)
    if coef.span is not None and not coef.c_low <= coef.span[0] <= coef.span[1] <= coef.c_high:
        settings = ", ".join(f"{k} = {v}" for k, v in spec.items() if k != "preset")
        raise DataError(f"the {preset} coefficient with {settings} takes values in "
                        f"[{coef.span[0]:g}, {coef.span[1]:g}], outside its range "
                        f"[c_low, c_high] = [{coef.c_low:g}, {coef.c_high:g}]; "
                        f"only a raster coefficient is clamped")
    return coef


@dataclass(frozen=True)
class Instance:
    """A config realized at one mesh: everything a solve or a check needs.
    ``start`` is ``(base, factor)``, the linked cell of ``build_instance``:
    the checks start this cell's solves from ``factor`` times that cell's
    cached solutions; None starts them flat."""

    grid: Grid2D
    growth: GrowthFunction
    field: VectorField
    obstacle: GridFunction | None
    measure: MeasureData  # the zero measure without [measure] data
    boundary: GridFunction
    solver: SolverConfig
    key: tuple  # names the inputs of every field above; see build_instance
    start: tuple[Instance, float] | None = None

    def problem(self, rhs=None) -> ObstacleProblem:
        """The instance's obstacle problem with bounded right side ``rhs``,
        no data by default: the measure enters only mollified, at one level
        (``checks.primary_solution``) or per level (``solve_op_sequence``)."""
        return ObstacleProblem(field=self.field, boundary=self.boundary,
                               obstacle=self.obstacle, rhs=rhs)


def build_instance(cfg: ExperimentConfig, n: int, *,
                   data_scale: float = 1.0, rhs_scale: float = 1.0,
                   amplitude: float | None = None) -> Instance:
    """Realize the config on the n-cell mesh of the unit square.

    ``data_scale`` multiplies boundary, obstacle, and measure together
    (the full-data scaling); ``rhs_scale`` multiplies the measure only.
    The instance links to one cell, ``start``, by the first rule that
    applies:

    * scale link: with ``rhs_scale`` 1 and ``data_scale`` s other than the
      base scale s_b, the same mesh and amplitude at s_b, with factor s/s_b.
      Its solution times s/s_b meets this cell's trace and lies above its
      obstacle.  Where the scaling is exact (power growth with p = 2 or no
      measure) that is this cell's solution and s_b is the sweep's largest
      scale: scaled down, the base's residual shrinks by (s/s_b)^(p-1), so
      the cell starts converged.  Elsewhere s_b is the first scale (1
      without a scale axis): the largest-scale cell is then no exact start;
    * mesh link: the same cell on the mesh n/2 when [sweep] n lists it,
      with factor 1;
    * otherwise no link: the solves start flat.

    The key holds what realizes the instance and its solves and nothing
    else: the mesh, both scales, the problem sections (with the amplitude
    applied), the directory their files are read from, the solver
    settings, the link's factor and last the linked cell's key (None and
    None without a link), as a solve starts from that cell's solution;
    never ``check_params`` or the other axes, so checks that sample
    differently share every solve.
    """
    return _cell(cfg, {}, int(n), float(data_scale), float(rhs_scale), amplitude)


def _cell(cfg: ExperimentConfig, built: dict, n: int, data_scale: float, rhs_scale: float,
          amplitude) -> Instance:
    """The cell ``(n, data_scale, rhs_scale, amplitude)``, realized once per
    ``built``, the memo of one ``cells`` or ``build_instance`` call, which
    its linked cells share."""
    spec = (n, data_scale, rhs_scale, amplitude)
    if spec not in built:
        built[spec] = _realize_cell(cfg, built, *spec)
    return built[spec]


# one Grid2D per n: the cells of a mesh and their solutions share its read-only coordinates
_mesh = functools.lru_cache(maxsize=8)(Grid2D)


def _realize_cell(cfg: ExperimentConfig, built: dict, n: int, data_scale: float,
                  rhs_scale: float, amplitude) -> Instance:
    """The cell's instance, linked by ``build_instance``'s rule."""
    grid = _mesh(n)
    growth = build_growth(cfg)
    coef = dict(cfg.coefficient)
    if amplitude is not None:
        coef["amplitude"] = amplitude
    vf = VectorField(growth, build_coefficient(cfg, coef))
    # the trace's preset reads the unit measure, so data_scale alone scales the trace
    measure = _realize(cfg, "measure", {None: _measure}, cfg.measure, None, key=None, grid=grid)
    obstacle = _on_grid("obstacle", _realize(cfg, "obstacle", OBSTACLE_PRESETS, cfg.obstacle,
                                             "none"), grid, data_scale)
    boundary = _on_grid("boundary", _realize(cfg, "boundary", BOUNDARY_PRESETS, cfg.boundary,
                                             "zero", growth=growth, measure=measure),
                        grid, data_scale)
    measure = measure.scaled(data_scale * rhs_scale)
    scales = cfg.sweep.get("scale", [1.0])
    exact = isinstance(growth, PowerGrowth) and (growth.p == 2.0 or measure.is_empty())
    base = float(max(scales) if exact else scales[0])
    if rhs_scale == 1.0 and data_scale != base:
        start = (_cell(cfg, built, n, base, rhs_scale, amplitude), data_scale / base)
    elif n % 2 == 0 and n // 2 in cfg.sweep.get("n", ()):
        start = (_cell(cfg, built, n // 2, data_scale, rhs_scale, amplitude), 1.0)
    else:
        start = None
    sections = (cfg.growth, coef, cfg.obstacle, cfg.measure, cfg.boundary)
    key = (grid.n, data_scale, rhs_scale,
           *(tuple(sorted(sec.items())) for sec in sections), str(cfg.base_dir), cfg.solver,
           *((None, None) if start is None else (start[1], start[0].key)))
    return Instance(
        grid=grid,
        growth=growth,
        field=vf,
        obstacle=obstacle,
        measure=measure,
        boundary=boundary,
        solver=cfg.solver,
        key=key,
        start=start,
    )


def cells(cfg: ExperimentConfig, *axes: str, scale: str = "data_scale"):
    """``(cell, inst)`` for every cell of the [sweep] meshes crossed with
    ``axes`` ("scale", "amplitude"), meshes outermost and then the axes in
    the order given; a cell is ``n`` alone or ``(n, *values)``.  ``scale``
    names the ``build_instance`` keyword the scale axis drives.  An axis
    not crossed is held at its first value, scale as ``data_scale``; an
    unlisted scale is 1, an unlisted amplitude the section's own (``None``,
    the preset's default, when the section sets none)."""
    values = {"scale": [float(s) for s in cfg.sweep.get("scale", [1.0])],
              "amplitude": cfg.sweep.get("amplitude", [cfg.coefficient.get("amplitude")])}
    keyword = {"scale": scale, "amplitude": "amplitude"}
    held = {kw: values[a][0] for a, kw in (("scale", "data_scale"), ("amplitude", "amplitude"))
            if a not in axes}
    built: dict = {}  # each cell, a linked one included, is realized once
    for n in cfg.sweep["n"]:
        for combo in itertools.product(*(values[a] for a in axes)):
            args = {"data_scale": 1.0, "rhs_scale": 1.0, **held,
                    **{keyword[a]: v for a, v in zip(axes, combo)}}
            yield ((n, *combo) if axes else n), _cell(cfg, built, int(n), args["data_scale"],
                                                      args["rhs_scale"], args["amplitude"])
