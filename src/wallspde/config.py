"""Run configuration: JSON loading, schema validation, and the coefficient
registry.

``config_schema.json`` states every per-key rule (type, enum, range, array
items, the keys an object may hold) and every default; ``_get`` applies
them, ``build_run`` holds every section present to them, whether its
command reads that section or not, and the ``build_*`` functions are the
only readers of a config.  Each rule the schema cannot say (a horizon on
the step mesh, a step whose implicit system I - dt*A stays finite, fields
between the walls, hypothesis H, a long enough burn-in) is checked by the
library function that owns it, and ``config`` only names the key:
``_naming`` turns that function's ``ValueError`` into a ``ConfigError``
naming the dotted key, which the CLI maps to exit code 2.  Coefficient functions come from a closed registry
rather than arbitrary expressions so the declared Lipschitz constant and
lower bound on sigma are actually true and runs stay reproducible.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import operator
from dataclasses import replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from wallspde.dynamics import CoefficientSpec, Control, check_noise_step
from wallspde.lattice import Grid, Walls, check_system, mesh_steps
from wallspde.measure import SamplingPlan, _check_schedule, _check_streams, _level_seeds, _plan_per_level
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
    "build_time",
    "build_noise",
    "build_penalty",
    "build_plan",
    "build_optimizer_options",
    "build_diagnose",
    "build_run",
    "schema_path",
]

COMMANDS = ("simulate", "skeleton", "rate", "quasipotential", "invariant", "diagnose")

# A run stores its path as one (steps + 1, n + 1) float64 array; a horizon
# whose array would hold more values than this (2**26 values, 512 MiB) is a
# config error rather than an allocation failure mid-run.
MAX_PATH_VALUES = 2**26

# The keywords ``_check`` applies; annotations ("$schema", "title") aside, the
# schema may use no other, so that no rule written there goes unenforced.
_BOUNDS = {
    "minimum": (operator.ge, "at least"),
    "exclusiveMinimum": (operator.gt, "above"),
    "exclusiveMaximum": (operator.lt, "below"),
}
_KEYWORDS = frozenset(_BOUNDS) | {
    "type", "enum", "items", "minItems", "required", "default", "properties", "additionalProperties",
}
_TYPES = {"number": (int, float), "integer": int, "array": list, "object": dict}


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None


@functools.cache
def _schema() -> dict:
    return json.loads(schema_path().read_text())


def _node(dotted: str) -> dict:
    """Schema node of a dotted key; ``name[i]`` steps into an array's items."""
    node = _schema()
    for part in filter(None, dotted.split(".")):
        name, _, index = part.partition("[")
        node = node["properties"][name]
        if index:
            node = node["items"]
    return node


def _check(value, node: dict, dotted: str):
    """Apply one schema node to a value; numbers come back as finite floats."""
    types = node.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types:
        kind = next((t for t in types if isinstance(value, _TYPES[t]) and not isinstance(value, bool)), None)
        if kind is None:
            raise ConfigError(f"wrong type for {dotted}: expected {' or '.join(types)}")
        if kind == "number":
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"value must be finite: {dotted}")
    if "enum" in node and value not in node["enum"]:
        raise ConfigError(f"{dotted} must be one of {node['enum']}, got {value!r}")
    if isinstance(value, (int, float)):
        for word, (holds, text) in _BOUNDS.items():
            if word in node and not holds(value, node[word]):
                raise ConfigError(f"{dotted} must be {text} {node[word]}, got {value}")
    if isinstance(value, dict):
        prefix = dotted + "." if dotted else ""
        if node.get("additionalProperties") is False:
            unknown = [key for key in value if key not in node.get("properties", {})]
            if unknown:
                raise ConfigError(f"unknown key: {prefix}{unknown[0]}")
        # Every key present, whether the command reads it or not.
        for key, child in node.get("properties", {}).items():
            if _present(value, key, node, prefix + key):
                _check(value[key], child, prefix + key)
    if isinstance(value, list):
        if len(value) < node.get("minItems", 0):
            raise ConfigError(f"{dotted} needs at least {node['minItems']} entries")
        if "items" in node:
            value = [_check(item, node["items"], f"{dotted}[{i}]") for i, item in enumerate(value)]
    return value


def _present(section: dict, key: str, parent: dict, dotted: str) -> bool:
    """Whether ``section`` holds ``key``; raises when it does not but the
    schema node ``parent`` of the section requires it."""
    if key in section:
        return True
    if key in parent.get("required", ()):
        raise ConfigError(f"missing key: {dotted}")
    return False


def _get(section: dict, dotted: str):
    """The checked value of a key, or its schema default when absent."""
    head, _, key = dotted.rpartition(".")
    node = _node(dotted)
    if not _present(section, key, _node(head), dotted):
        return node.get("default")
    return _check(section[key], node, dotted)


def _need(section: dict, dotted: str):
    """``_get`` for a key that the schema leaves optional but this command or branch needs."""
    value = _get(section, dotted)
    if value is None:
        raise ConfigError(f"missing key: {dotted}")
    return value


@contextlib.contextmanager
def _naming(key: str, sep: str = ": "):
    """Re-raise a library ``ValueError`` as a ``ConfigError`` reading ``key + sep + message``;
    ``sep="."`` where the message starts with the field's name within ``key``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}{sep}{exc}") from None


def build_coefficients(section: dict) -> CoefficientSpec:
    alpha = _get(section, "coefficients.alpha")
    f_kind = _get(section, "coefficients.f")
    sigma_kind = _get(section, "coefficients.sigma")

    f_zero = f_kind == "zero"
    if f_zero:
        c = 0.0
        f = lambda x, u: np.zeros_like(u)
        df = lambda x, u: np.zeros_like(u)
    else:
        c = _need(section, "coefficients.c")
        if f_kind == "linear":
            f = lambda x, u: c * u
            df = lambda x, u: np.full_like(u, c)
        else:
            f = lambda x, u: c * np.sin(u)
            df = lambda x, u: c * np.cos(u)

    profile = None
    if sigma_kind == "one":
        profile = np.ones_like
        sigma = lambda x, u: np.ones_like(u)
        dsigma = lambda x, u: np.zeros_like(u)
        m = 1.0
    elif sigma_kind == "cosine_profile":
        profile = lambda x: 0.75 + 0.25 * np.cos(np.pi * x)
        sigma = lambda x, u: profile(x) + 0.0 * u
        dsigma = lambda x, u: np.zeros_like(u)
        m = 0.5
    else:
        amp = _get(section, "coefficients.sigma_amplitude")
        sigma = lambda x, u: 1.0 + amp * np.sin(u)
        dsigma = lambda x, u: amp * np.cos(u)
        m = 1.0 - amp

    return CoefficientSpec(
        f=f, sigma=sigma, alpha=alpha, lipschitz_c=c, sigma_min=m, df_du=df, dsigma_du=dsigma,
        sigma_profile=profile, f_zero=f_zero,
    )


def build_walls(section: dict, grid: Grid) -> Walls:
    kind = _get(section, "walls.kind")
    k1, k2 = _get(section, "walls.k1"), _get(section, "walls.k2")
    profiles = kind == "profiles"
    if isinstance(k1, list) != profiles or isinstance(k2, list) != profiles:
        raise ConfigError(f"walls.k1 and walls.k2 must be {'arrays' if profiles else 'numbers'} for walls.kind {kind}")
    with _naming("walls.k1/walls.k2"):
        return Walls.from_profiles(grid, np.array(k1), np.array(k2)) if profiles else Walls.constant(grid, k1, k2)


def _field_from_spec(section: dict, grid: Grid, prefix: str) -> np.ndarray:
    kind = _get(section, f"{prefix}.kind")
    if kind == "zero":
        return np.zeros(grid.n + 1)
    if kind == "constant":
        return np.full(grid.n + 1, _need(section, f"{prefix}.value"))
    amp = _need(section, f"{prefix}.amplitude")
    mode = _get(section, f"{prefix}.mode")
    return amp * np.cos(mode * np.pi * grid.nodes)


def build_initial(cfg: dict, grid: Grid) -> np.ndarray:
    return _field_from_spec(_get(cfg, "initial"), grid, "initial")


def build_target(cfg: dict, grid: Grid) -> np.ndarray:
    return _field_from_spec(_need(cfg, "target"), grid, "target")


def _check_path_size(cfg: dict, steps: int, key: str) -> None:
    n = _get(_need(cfg, "grid"), "grid.n")
    if (steps + 1) * (n + 1) > MAX_PATH_VALUES:
        raise ConfigError(
            f"{key} needs {steps} steps, and a path of that many steps on grid.n = {n} "
            f"would hold more than {MAX_PATH_VALUES} values"
        )


def build_time(cfg: dict) -> tuple[float, float]:
    """(horizon, dt); the horizon must be a whole number of steps, and not
    more than ``MAX_PATH_VALUES`` allows."""
    section = _need(cfg, "time")
    T, dt = _get(section, "time.horizon"), _get(section, "time.dt")
    with _naming("time", sep="."):
        steps = mesh_steps(T, dt, "horizon")
    _check_path_size(cfg, steps, "time.horizon")
    return T, dt


def build_noise(cfg: dict, grid: Grid, dt: float) -> tuple[float, int, int]:
    """(eps, seed, stream); the stochastic step must not exceed dx."""
    with _naming("time.dt"):
        check_noise_step(grid, dt)
    section = _need(cfg, "noise")
    return tuple(_get(section, f"noise.{key}") for key in ("eps", "seed", "stream"))


def build_control(cfg: dict, grid: Grid, T: float, dt: float) -> Control | None:
    section = _need(cfg, "control")
    kind = _get(section, "control.kind")
    if kind == "zero":
        return None
    amp = _need(section, "control.amplitude")
    # Control.from_function's values, hdot(x, t) at the step starts t, for all
    # steps at once: each value takes the same operations, so it has the same bits.
    times = np.linspace(0.0, T, mesh_steps(T, dt, "T") + 1)
    t = times[:-1, None]
    if kind == "uniform_decay":
        beta = _need(section, "control.beta")
        return Control(grid, times, amp * np.exp(-beta * t) * np.ones(grid.n + 1))
    mode = _get(section, "control.mode")
    t_end = _get(section, "control.t_end")
    if t_end is None:
        t_end = T
    return Control(grid, times, amp * np.cos(mode * np.pi * grid.nodes) * (t < t_end))


def build_penalty(cfg: dict) -> dict:
    """``solve_skeleton`` keywords: mode, delta and eps_pen."""
    section = _get(cfg, "penalty")
    return {key: _get(section, f"penalty.{key}") for key in ("mode", "delta", "eps_pen")}


def build_plan(cfg: dict, coeffs: CoefficientSpec) -> tuple[SamplingPlan, list, float, float]:
    section = _need(cfg, "sampling")
    plan = SamplingPlan.default(coeffs, _get(section, "sampling.count"))
    given = {key: _get(section, f"sampling.{key}") for key in ("burn_in", "thin")}
    plan = replace(plan, **{key: value for key, value in given.items() if value is not None})
    with _naming("sampling.burn_in"):
        plan.check_burn_in(coeffs)
    seeds = _get(section, "sampling.seeds")
    with _naming("sampling.seeds"):
        _check_streams(seeds)
    return plan, seeds, _get(section, "sampling.eps"), _get(section, "sampling.dt")


def build_optimizer_options(cfg: dict) -> OptimizerOptions:
    section = _get(cfg, "optimizer")
    with _naming("optimizer", sep="."):  # the options name the field, e.g. "horizons[1] ..."
        opts = OptimizerOptions(
            horizons=tuple(_get(section, "optimizer.horizons")),
            **{key: _get(section, f"optimizer.{key}") for key in ("dt", "maxiter", "terminal_tol", "improvement_tol")},
        )
    # The horizons increase, so the last one makes the longest path.
    last = len(opts.horizons) - 1
    _check_path_size(cfg, mesh_steps(opts.horizons[last], opts.dt), f"optimizer.horizons[{last}]")
    return opts


def build_diagnose(cfg: dict, grid: Grid, coeffs: CoefficientSpec, walls: Walls) -> dict:
    """``ldp_scaling_curve`` inputs (targets, eps_schedule, plans, base_seed,
    dt, a stochastic step at most dx, chains) plus the tightness probe's
    gamma, radii and seeds.  The probe is seeded as one more level of the
    schedule, ``_level_seeds``' level L for L levels; no seed of the run may
    repeat."""
    section = _need(cfg, "diagnose")
    targets = []
    for i, entry in enumerate(_get(section, "diagnose.targets")):
        key = f"diagnose.targets[{i}]"
        with _naming(key):
            targets.append((walls.check(_field_from_spec(entry, grid, key), "field"), _get(entry, f"{key}.delta")))
    schedule = _get(section, "diagnose.eps_schedule")
    with _naming("diagnose.eps_schedule"):
        _check_schedule(schedule)
    counts = _get(section, "diagnose.counts")
    if counts is None:
        counts = [_node("diagnose.counts")["items"]["default"]] * len(schedule)
    with _naming("diagnose.counts"):
        plans = _plan_per_level([SamplingPlan.default(coeffs, count) for count in counts], len(schedule))
    given = {key: _get(section, f"diagnose.{key}") for key in ("base_seed", "dt", "chains", "gamma", "radii")}
    with _naming("diagnose.dt"):
        check_noise_step(grid, given["dt"])
    base_seed, chains = given["base_seed"], given["chains"]
    probed = given["gamma"] is not None
    streams = _level_seeds(base_seed, len(schedule) + probed, chains)
    with _naming("diagnose.chains"):
        _check_streams(*streams)
    probe_seeds = streams[-1] if probed else None
    return {"targets": targets, "eps_schedule": schedule, "plans": plans, "probe_seeds": probe_seeds, **given}


def build_run(cfg: dict, command: str) -> SimpleNamespace:
    """Build and check everything the command's handler uses, after holding
    every section present to the schema.

    Always grid, coeffs and walls; T, dt and u0 for simulate, skeleton and
    rate; eps, seed and stream for simulate; control and penalty for skeleton
    and rate; target and opts for quasipotential; plan, seeds, eps and dt for
    invariant; the ``build_diagnose`` entries and opts for diagnose.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command: {command}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check(cfg, _schema(), "")
    grid = Grid(_get(_need(cfg, "grid"), "grid.n"))
    run = SimpleNamespace(grid=grid, coeffs=build_coefficients(_need(cfg, "coefficients")))
    run.walls = build_walls(_need(cfg, "walls"), grid)
    if command in ("simulate", "skeleton", "rate"):
        run.T, run.dt = build_time(cfg)
        with _naming("time.dt"):
            check_system(grid, run.coeffs.alpha, run.dt)
        with _naming("initial"):
            run.u0 = run.walls.check(build_initial(cfg, grid), "field")
    if command == "simulate":
        run.eps, run.seed, run.stream = build_noise(cfg, grid, run.dt)
    if command in ("skeleton", "rate"):
        run.control = build_control(cfg, grid, run.T, run.dt)
        run.penalty = build_penalty(cfg)
    if command == "quasipotential":
        with _naming("target"):
            run.target = run.walls.check(build_target(cfg, grid), "field")
    if command in ("invariant", "diagnose"):
        with _naming("coefficients.c"):
            run.coeffs.require_h(grid)
    if command == "invariant":
        run.plan, run.seeds, run.eps, run.dt = build_plan(cfg, run.coeffs)
        with _naming("sampling.dt"):
            check_noise_step(grid, run.dt)
    if command == "diagnose":
        vars(run).update(build_diagnose(cfg, grid, run.coeffs, run.walls))
    if command in ("quasipotential", "diagnose"):
        run.opts = build_optimizer_options(cfg)
        with _naming("optimizer.dt"):
            check_system(grid, run.coeffs.alpha, run.opts.dt)
    return run


def validate_config(cfg: dict, command: str) -> dict:
    """Run every builder the command's handler runs; returns cfg unchanged."""
    build_run(cfg, command)
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def schema_path() -> Path:
    return Path(str(resources.files("wallspde").joinpath("config_schema.json")))
