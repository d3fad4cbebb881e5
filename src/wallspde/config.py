"""Run configuration: JSON loading, schema validation, and the coefficient
registry.

Coefficient functions come from a closed registry rather than arbitrary
expressions so the declared Lipschitz/lower/upper bounds are actually true
and runs stay reproducible.  Validation failures raise ``ConfigError`` with
the offending dotted key in the message; the CLI maps them to exit code 2.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from wallspde.dynamics import CoefficientSpec, Control
from wallspde.lattice import Grid, Walls, build_grid
from wallspde.measure import SamplingPlan
from wallspde.rate import OptimizerOptions

__all__ = [
    "ConfigError",
    "load_config",
    "validate_config",
    "config_hash",
    "build_coefficients",
    "build_walls",
    "build_initial",
    "build_control",
    "build_target",
    "build_plan",
    "build_optimizer_options",
    "schema_path",
]

COMMANDS = ("simulate", "skeleton", "rate", "quasipotential", "invariant", "diagnose")

_REQUIRED = {
    "simulate": ("grid", "time", "coefficients", "walls", "noise"),
    "skeleton": ("grid", "time", "coefficients", "walls", "control"),
    "rate": ("grid", "time", "coefficients", "walls", "control"),
    "quasipotential": ("grid", "coefficients", "walls", "target"),
    "invariant": ("grid", "coefficients", "walls", "sampling"),
    "diagnose": ("grid", "coefficients", "walls", "diagnose"),
}

_F_KINDS = ("zero", "linear", "sinusoidal")
_SIGMA_KINDS = ("one", "cosine_profile", "state_modulated")


class ConfigError(ValueError):
    """Schema violation; the message names the offending key."""


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number out of range in config: {text}")
    return value


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number in config: {name}")


def load_config(path: str | Path) -> dict:
    try:
        return json.loads(
            Path(path).read_text(), parse_float=_finite_float, parse_constant=_reject_constant
        )
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"missing section: {name}")
    if not isinstance(cfg[name], dict):
        raise ConfigError(f"section must be an object: {name}")
    return cfg[name]


def _get(section: dict, dotted: str, kind, required=True, default=None, positive=False, nonneg=False):
    head, _, key = dotted.rpartition(".")
    if key not in section:
        if required:
            raise ConfigError(f"missing key: {dotted}")
        return default
    value = section[key]
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"value must be finite: {dotted}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"wrong type for {dotted}: expected {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"value must be finite: {dotted}")
    if positive and value <= 0:
        raise ConfigError(f"value must be positive: {dotted}")
    if nonneg and value < 0:
        raise ConfigError(f"value must be nonnegative: {dotted}")
    return value


def build_coefficients(section: dict) -> CoefficientSpec:
    alpha = _get(section, "coefficients.alpha", float, positive=True)
    f_kind = _get(section, "coefficients.f", str)
    sigma_kind = _get(section, "coefficients.sigma", str, required=False, default="one")
    if f_kind not in _F_KINDS:
        raise ConfigError(f"unknown registry entry for coefficients.f: {f_kind}")
    if sigma_kind not in _SIGMA_KINDS:
        raise ConfigError(f"unknown registry entry for coefficients.sigma: {sigma_kind}")

    if f_kind == "zero":
        c = 0.0
        f = lambda x, u: np.zeros_like(u)
        df = lambda x, u: np.zeros_like(u)
        f_bound = 0.0
    else:
        c = _get(section, "coefficients.c", float, nonneg=True)
        if f_kind == "linear":
            f = lambda x, u: c * u
            df = lambda x, u: np.full_like(u, c)
        else:
            f = lambda x, u: c * np.sin(u)
            df = lambda x, u: c * np.cos(u)
        f_bound = c

    if sigma_kind == "one":
        sigma = lambda x, u: np.ones_like(u)
        dsigma = lambda x, u: np.zeros_like(u)
        m, sig_bound = 1.0, 1.0
    elif sigma_kind == "cosine_profile":
        sigma = lambda x, u: 0.75 + 0.25 * np.cos(np.pi * x) + 0.0 * u
        dsigma = lambda x, u: np.zeros_like(u)
        m, sig_bound = 0.5, 1.0
    else:
        amp = _get(section, "coefficients.sigma_amplitude", float, required=False, default=0.3)
        if not 0.0 < amp < 1.0:
            raise ConfigError("value must lie in (0, 1): coefficients.sigma_amplitude")
        sigma = lambda x, u: 1.0 + amp * np.sin(u)
        dsigma = lambda x, u: amp * np.cos(u)
        m, sig_bound = 1.0 - amp, 1.0 + amp

    return CoefficientSpec(
        f=f,
        sigma=sigma,
        alpha=alpha,
        lipschitz_c=c,
        sigma_min=m,
        bound=max(f_bound, sig_bound),
        df_du=df,
        dsigma_du=dsigma,
        f_name=f_kind,
        sigma_name=sigma_kind,
    )


def build_walls(section: dict, grid: Grid) -> Walls:
    kind = _get(section, "walls.kind", str, required=False, default="constant")
    if kind == "constant":
        k1 = _get(section, "walls.k1", float)
        k2 = _get(section, "walls.k2", float)
        if not k1 < 0.0 < k2:
            raise ConfigError("walls must satisfy k1 < 0 < k2: walls.k1/walls.k2")
        return Walls.constant(grid, k1, k2)
    if kind == "profiles":
        for key in ("k1", "k2"):
            if key not in section or not isinstance(section[key], list):
                raise ConfigError(f"missing or non-array key: walls.{key}")
        try:
            return Walls.from_profiles(grid, np.array(section["k1"]), np.array(section["k2"]))
        except ValueError as exc:
            raise ConfigError(f"walls.k1/walls.k2: {exc}")
    raise ConfigError(f"unknown walls.kind: {kind}")


def _field_from_spec(section: dict, grid: Grid, prefix: str) -> np.ndarray:
    kind = _get(section, f"{prefix}.kind", str, required=False, default="zero")
    x = grid.nodes
    if kind == "zero":
        return np.zeros(grid.n + 1)
    if kind == "constant":
        return np.full(grid.n + 1, _get(section, f"{prefix}.value", float))
    if kind == "cosine":
        amp = _get(section, f"{prefix}.amplitude", float)
        mode = _get(section, f"{prefix}.mode", int, required=False, default=1)
        return amp * np.cos(mode * np.pi * x)
    raise ConfigError(f"unknown {prefix}.kind: {kind}")


def build_initial(cfg: dict, grid: Grid) -> np.ndarray:
    if "initial" not in cfg:
        return np.zeros(grid.n + 1)
    return _field_from_spec(cfg["initial"], grid, "initial")


def build_target(cfg: dict, grid: Grid) -> np.ndarray:
    return _field_from_spec(_section(cfg, "target"), grid, "target")


def build_control(cfg: dict, grid: Grid, T: float, dt: float) -> Control | None:
    section = _section(cfg, "control")
    kind = _get(section, "control.kind", str)
    if kind == "zero":
        return None
    if kind == "uniform_decay":
        amp = _get(section, "control.amplitude", float)
        beta = _get(section, "control.beta", float, nonneg=True)
        return Control.from_function(grid, T, dt, lambda x, t: amp * np.exp(-beta * t) * np.ones_like(x))
    if kind == "cosine_pulse":
        amp = _get(section, "control.amplitude", float)
        mode = _get(section, "control.mode", int, required=False, default=1)
        t_end = _get(section, "control.t_end", float, required=False, default=T)
        return Control.from_function(
            grid,
            T,
            dt,
            lambda x, t: amp * np.cos(mode * np.pi * x) * (1.0 if t < t_end else 0.0),
        )
    raise ConfigError(f"unknown control.kind: {kind}")


def build_plan(cfg: dict, coeffs: CoefficientSpec) -> tuple[SamplingPlan, list, float, float]:
    section = _section(cfg, "sampling")
    count = _get(section, "sampling.count", int, positive=True)
    relax = 1.0 / coeffs.alpha1
    burn_in = _get(section, "sampling.burn_in", float, required=False, default=10.0 * relax, positive=True)
    thin = _get(section, "sampling.thin", float, required=False, default=relax, positive=True)
    eps = _get(section, "sampling.eps", float, nonneg=True)
    dt = _get(section, "sampling.dt", float, required=False, default=1e-3, positive=True)
    seeds = section.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("sampling.seeds must be a non-empty array of integers")
    return SamplingPlan(burn_in=burn_in, thin=thin, count=count), seeds, eps, dt


def build_optimizer_options(cfg: dict) -> OptimizerOptions:
    section = cfg.get("optimizer", {})
    if not isinstance(section, dict):
        raise ConfigError("section must be an object: optimizer")
    horizons = section.get("horizons", [1.0, 2.0, 4.0, 8.0])
    if not isinstance(horizons, list) or not all(isinstance(h, (int, float)) for h in horizons):
        raise ConfigError("optimizer.horizons must be an array of numbers")
    return OptimizerOptions(
        horizons=tuple(float(h) for h in horizons),
        dt=_get(section, "optimizer.dt", float, required=False, default=0.02, positive=True),
        maxiter=_get(section, "optimizer.maxiter", int, required=False, default=500, positive=True),
        terminal_tol=_get(section, "optimizer.terminal_tol", float, required=False, default=5e-3, positive=True),
        improvement_tol=_get(
            section, "optimizer.improvement_tol", float, required=False, default=1e-3, nonneg=True
        ),
    )


def validate_config(cfg: dict, command: str) -> dict:
    """Check everything the run needs up front; returns the resolved config."""
    if command not in _REQUIRED:
        raise ConfigError(f"unknown command: {command}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for name in _REQUIRED[command]:
        _section(cfg, name)

    n = _get(_section(cfg, "grid"), "grid.n", int, positive=True)
    if n < 4:
        raise ConfigError("value must be at least 4: grid.n")
    grid = build_grid(n)
    coeffs = build_coefficients(_section(cfg, "coefficients"))
    build_walls(_section(cfg, "walls"), grid)

    if command in ("simulate", "skeleton", "rate"):
        tsec = _section(cfg, "time")
        dt = _get(tsec, "time.dt", float, positive=True)
        T = _get(tsec, "time.horizon", float, positive=True)
        if round(T / dt) < 1:
            raise ConfigError("time.horizon must cover at least one step of time.dt")
    if command == "simulate":
        nsec = _section(cfg, "noise")
        _get(nsec, "noise.eps", float, nonneg=True)
        _get(nsec, "noise.seed", int, required=False, default=0)
        _get(nsec, "noise.stream", int, required=False, default=0)
    if command in ("skeleton", "rate"):
        build_control(cfg, grid, 1.0, 0.5)  # shape checks only
    if command == "quasipotential":
        build_target(cfg, grid)
        build_optimizer_options(cfg)
    if command in ("invariant", "diagnose"):
        if not coeffs.satisfies_h(grid):
            raise ConfigError(
                "coefficients.c must stay below coefficients.alpha for invariant-measure commands"
            )
    if command == "invariant":
        build_plan(cfg, coeffs)
    if command == "diagnose":
        dsec = _section(cfg, "diagnose")
        targets = dsec.get("targets")
        if not isinstance(targets, list) or not targets:
            raise ConfigError("missing or empty array: diagnose.targets")
        for i, entry in enumerate(targets):
            if not isinstance(entry, dict):
                raise ConfigError(f"diagnose.targets[{i}] must be an object")
            _get(entry, f"diagnose.targets[{i}].delta", float, positive=True)
        schedule = dsec.get("eps_schedule")
        if not isinstance(schedule, list) or len(schedule) < 2:
            raise ConfigError("diagnose.eps_schedule must list at least two noise levels")
        if any(b >= a for a, b in zip(schedule, schedule[1:])):
            raise ConfigError("diagnose.eps_schedule must be strictly decreasing")
        counts = dsec.get("counts")
        if counts is not None and (
            not isinstance(counts, list) or len(counts) != len(schedule)
        ):
            raise ConfigError("diagnose.counts must match diagnose.eps_schedule in length")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def schema_path() -> Path:
    return Path(str(resources.files("wallspde").joinpath("config_schema.json")))
