"""Experiment configuration: INI-style files and instance builders.

A config file holds the problem sections [growth], [coefficient],
[obstacle], [measure], [boundary] and the run sections [solver],
[checks], [sweep]; a section or key outside that vocabulary is a
``DataError`` naming it.  One binder, ``_realize``, turns every problem
section into its object: the section's preset (``kind`` for [growth])
picks a builder from the section's table, and each other key binds a
keyword parameter of that builder, typed against the parameter's
default.  [sweep] lists values of the ``SWEEP_AXES``, its n the meshes of
the unit square; the mollification level is not a setting, since each
mesh solves the finest level it resolves (``solver.finest_level``).
``build_instance`` realizes the config at one mesh with optional data
scalings, producing the immutable bundle the checks and the CLI consume;
``cells`` realizes it in every cell a check crosses.
"""

from __future__ import annotations

import configparser
import inspect
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..field import COEFFICIENT_PRESETS, CoefficientField, VectorField, coefficient_from_raster
from ..grid import Grid2D, GridFunction, MeasureData, read_raster
from ..orlicz import GROWTH_KINDS, GrowthFunction
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

# the [sweep] axes: ``cells`` crosses n, scale and amplitude; alpha is the
# estimate checks' exponent loop.  A setting such as the solver's epsilon
# has one value per run, in [solver]
SWEEP_AXES = ("n", "scale", "amplitude", "alpha")
# the [checks] keys besides ``run``: the parameters the checks read, each
# through ``checks._param``, which refuses any other
CHECK_KEYS = ("center", "radius", "off_center", "off_radius", "side_center", "side_radius",
              "decay_center", "decay_radius", "errors_center", "errors_radius",
              "estimate_radius", "points")
_SOLVER_KEYS = ("epsilon", "tol", "max_iter", "gamma_prime")
_PROBLEM_SECTIONS = ("growth", "coefficient", "obstacle", "measure", "boundary")
_SECTIONS = (*_PROBLEM_SECTIONS, "solver", "checks", "sweep")
# the coefficient presets whose amplitude the ``amplitude`` axis sweeps
_AMPLITUDE_PRESETS = ("jump", "checkerboard")

# every check crosses meshes, and data scaling is the default evidence
_DEFAULT_SWEEP = {
    "n": [64, 128],
    "scale": [1.0, 4.0, 16.0],
}


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
    gamma_prime: float = 2.0
    base_dir: Path = field(default_factory=Path)

    def sweep_axis(self, name: str) -> list:
        if name in self.sweep:
            return list(self.sweep[name])
        return list(_DEFAULT_SWEEP.get(name, []))


def typed_value(section: str, key: str, raw, default):
    """A parsed config value as ``default``'s kind: a point (tuple default)
    is exactly two numbers, text (str default) any value, an int an
    integral number, anything else a number; a value of another kind is a
    ``DataError`` naming the key."""
    try:
        if isinstance(default, tuple):
            x, y = (float(t) for t in (raw.split() if isinstance(raw, str) else raw))
            return (x, y)
        if isinstance(default, str):
            return str(raw)
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            if not isinstance(default, int) or float(raw).is_integer():
                return type(default)(raw)
    except (TypeError, ValueError):
        pass
    kind = ("a point (two numbers)" if isinstance(default, tuple)
            else "an integer" if isinstance(default, int) else "a number")
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

    def setting(key, default):
        return typed_value("solver", key, sol[key], default) if key in sol else default

    cfg.solver = SolverConfig(
        epsilon=setting("epsilon", SolverConfig.epsilon),
        tol=setting("tol", SolverConfig.tol),
        max_iter=setting("max_iter", SolverConfig.max_iter),
    )
    cfg.gamma_prime = setting("gamma_prime", cfg.gamma_prime)
    checks = _section(parser, "checks")
    if checks:
        run = checks.pop("run", "")
        cfg.checks = [tok.strip() for tok in str(run).split(",") if tok.strip()]
        _refuse_unknown("[checks] {}", checks, ("run", *CHECK_KEYS))
        cfg.check_params = checks
    if parser.has_section("sweep"):
        cfg.sweep = {k: _parse_list(v) for k, v in parser.items("sweep")}
    _refuse_unknown("[sweep] {}", cfg.sweep, SWEEP_AXES, "an axis", lambda key: (
        f"; set {key} under [solver]" if key in _SOLVER_KEYS else
        "; the sample seed is --seed" if key == "seed" else
        "; each mesh solves the finest mollification level it resolves" if key == "level"
        else ""))
    for key, values in cfg.sweep.items():
        if not values:
            raise DataError(f"[sweep] {key} lists no value")
        # meshes are counts; the other axes numbers
        kind = 0 if key == "n" else 0.0
        cfg.sweep[key] = [typed_value("sweep", key, v, kind) for v in values]
    if "amplitude" in cfg.sweep and "amplitude" in cfg.coefficient:
        raise DataError("[coefficient] amplitude is overridden by [sweep] amplitude; "
                        "set one of them")
    return cfg


# ---------------------------------------------------------------------------
# builders: one binder, and a table of presets per problem section

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
    params = {p.name: p for p in inspect.signature(build).parameters.values()
              if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
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
    if measure is None or not measure.atoms:
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


def _measure(grid, scale, atoms="", density=None) -> MeasureData | None:
    """Atoms ``x y mass; ...`` plus a constant or raster density, the
    masses and the density times ``scale``; None when both are absent."""
    points = []
    for chunk in filter(str.strip, atoms.split(";")):
        try:
            x, y, m = (float(t) for t in chunk.split())
        except ValueError:
            raise DataError(f"[measure] atoms: each atom is three numbers 'x y mass', "
                            f"got {chunk.strip()!r}") from None
        points.append((x, y, m * scale))
    if density is not None:
        density = _on_grid("measure", read_raster(density) if isinstance(density, Path)
                           else GridFunction.constant(grid, density), grid, scale)
    if not points and density is None:
        return None
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


def build_coefficient(cfg: ExperimentConfig, spec: dict) -> CoefficientField:
    """The field of a [coefficient] section (``spec``, which may carry a
    swept amplitude)."""
    return _realize(cfg, "coefficient", _COEFFICIENTS, spec,
                    "file" if "file" in spec else "constant")


_USE_MEASURE = object()


@dataclass
class Instance:
    """A config realized at one mesh: everything a solve or a check needs."""

    grid: Grid2D
    growth: GrowthFunction
    field: VectorField
    obstacle: GridFunction | None
    measure: MeasureData | None
    boundary: GridFunction
    solver: SolverConfig
    gamma_prime: float  # the oscillation modulus's exponent
    key: tuple  # names the inputs of every field above; see build_instance

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
    The key holds what realizes the instance and nothing else: the mesh,
    both scales, the problem sections (with the amplitude applied), the
    directory their files are read from, the solver settings and
    ``gamma_prime``; never ``check_params`` or the sweep, so checks that
    sample differently share every solve.
    """
    grid = Grid2D(int(n))
    growth = build_growth(cfg)
    coef = dict(cfg.coefficient)
    if amplitude is not None:
        coef["amplitude"] = amplitude
    vf = VectorField(growth, build_coefficient(cfg, coef))
    measure = _realize(cfg, "measure", {None: _measure}, cfg.measure, None, key=None,
                       grid=grid, scale=data_scale * rhs_scale)
    obstacle = _on_grid("obstacle", _realize(cfg, "obstacle", OBSTACLE_PRESETS, cfg.obstacle,
                                             "none"), grid, data_scale)
    boundary = _on_grid("boundary", _realize(cfg, "boundary", BOUNDARY_PRESETS, cfg.boundary,
                                             "zero", growth=growth, measure=measure),
                        grid, data_scale)
    sections = (cfg.growth, coef, cfg.obstacle, cfg.measure, cfg.boundary)
    key = (grid.n, float(data_scale), float(rhs_scale),
           *(tuple(sorted(sec.items())) for sec in sections), str(cfg.base_dir), cfg.solver,
           float(cfg.gamma_prime))
    return Instance(
        grid=grid,
        growth=growth,
        field=vf,
        obstacle=obstacle,
        measure=measure,
        boundary=boundary,
        solver=cfg.solver,
        gamma_prime=cfg.gamma_prime,
        key=key,
    )


def cells(cfg: ExperimentConfig, *axes: str, scale: str = "data_scale"):
    """``(cell, inst)`` for every cell of the [sweep] meshes crossed with
    ``axes`` ("scale", "amplitude"), meshes outermost and then the axes in
    the order given; a cell is ``n`` alone or ``(n, *values)``.  ``scale``
    names the ``build_instance`` keyword the scale axis drives.  Amplitude
    is ``[sweep] amplitude`` on the ``_AMPLITUDE_PRESETS`` when the config
    lists it; otherwise it has one value, the section's own amplitude
    (``None``, the preset's default, when the section sets none)."""
    amplitudes = [cfg.coefficient.get("amplitude")]
    if cfg.coefficient.get("preset") in _AMPLITUDE_PRESETS and "amplitude" in cfg.sweep:
        amplitudes = cfg.sweep["amplitude"]
    values = {"scale": [float(s) for s in cfg.sweep_axis("scale")], "amplitude": amplitudes}
    keyword = {"scale": scale, "amplitude": "amplitude"}
    for n in cfg.sweep_axis("n"):
        for combo in itertools.product(*(values[a] for a in axes)):
            inst = build_instance(cfg, n, **{keyword[a]: v for a, v in zip(axes, combo)})
            yield ((n, *combo) if axes else n), inst
