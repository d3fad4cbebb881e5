"""Contract tests: ``config_schema.json`` is the one statement of per-key
rules, and the ``config`` builders read only keys it declares."""

import copy
import inspect
import json
import re

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import wallspde.config as config
from test_cli import CORPUS, base_cfg
from wallspde.config import ConfigError, schema_path, validate_config
from wallspde.dynamics import Control, solve_skeleton, solve_spde
from wallspde.lattice import build_grid
from wallspde.measure import ldp_scaling_curve, sample_invariant
from wallspde.rate import OptimizerOptions

SCHEMA = json.loads(schema_path().read_text())

# Valid configs that between them set every key of the schema and take every
# registry and kind branch of the builders.
MAXIMAL = [
    (
        "simulate",
        base_cfg(
            coefficients={"alpha": 2.0, "f": "linear", "c": 0.5, "sigma": "state_modulated", "sigma_amplitude": 0.3},
            noise={"eps": 0.1, "seed": 1, "stream": 2},
            initial={"kind": "cosine", "amplitude": 0.1, "mode": 2},
        ),
    ),
    (
        "simulate",
        base_cfg(
            coefficients={"alpha": 2, "f": "zero", "sigma": "cosine_profile"},
            walls={"kind": "profiles", "k1": [-0.5] * 17, "k2": [0.5 + 0.01 * i for i in range(17)]},
            noise={"eps": 0},
            initial={"kind": "constant", "value": 0.2},
        ),
    ),
    (
        "skeleton",
        base_cfg(
            control={"kind": "cosine_pulse", "amplitude": 2.0, "mode": 1, "t_end": 0.1},
            penalty={"mode": "penalized", "delta": 1e-3, "eps_pen": 2e-3},
            initial={"kind": "zero"},
        ),
    ),
    ("rate", base_cfg(control={"kind": "uniform_decay", "amplitude": 2.0, "beta": 1.0}, penalty={"mode": "projected"})),
    (
        "quasipotential",
        base_cfg(
            target={"kind": "cosine", "amplitude": 0.2, "mode": 1},
            optimizer={"horizons": [0.5, 1], "dt": 0.05, "maxiter": 20, "terminal_tol": 1e-2, "improvement_tol": 0},
        ),
    ),
    ("quasipotential", base_cfg(target={"kind": "constant", "value": 0.1})),
    (
        "invariant",
        base_cfg(sampling={"count": 10, "eps": 0.2, "burn_in": 4.0, "thin": 0.5, "dt": 2e-3, "seeds": [0, 3]}),
    ),
    (
        "diagnose",
        base_cfg(
            diagnose={
                "targets": [
                    {"kind": "constant", "value": 0.3, "delta": 0.1},
                    {"kind": "cosine", "amplitude": 0.2, "mode": 1, "delta": 0.05},
                    {"delta": 0.2},
                ],
                "eps_schedule": [0.5, 0.35],
                "counts": [10, 20],
                "dt": 2e-3,
                "chains": 2,
                "gamma": 0.4,
                "radii": [0.5, 2.0],
                "base_seed": 7,
            }
        ),
    ),
]


def schema_keys(node, prefix=""):
    for name, child in node.get("properties", {}).items():
        yield prefix + name
        yield from schema_keys(child.get("items", child), f"{prefix}{name}.")


def schema_keywords(node):
    yield from node
    for child in node.get("properties", {}).values():
        yield from schema_keywords(child)
    if "items" in node:
        yield from schema_keywords(node["items"])


def test_schema_uses_only_enforced_keywords():
    unenforced = set(schema_keywords(SCHEMA)) - config._KEYWORDS - {"$schema", "title"}
    assert not unenforced


def test_builders_read_exactly_the_schema_keys(monkeypatch):
    read = set()
    get = config._get

    def recording_get(section, dotted):
        read.add(re.sub(r"\[\d+\]", "", dotted))
        return get(section, dotted)

    monkeypatch.setattr(config, "_get", recording_get)
    for command, cfg in MAXIMAL:
        before = copy.deepcopy(cfg)
        assert validate_config(cfg, command) is cfg
        assert cfg == before
    assert read == set(schema_keys(SCHEMA))


def test_builder_reading_an_undeclared_key_fails():
    with pytest.raises(KeyError):
        config._get({}, "noise.amplitude")


def test_schema_is_valid_draft_2020_12():
    Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("command, cfg", MAXIMAL)
def test_valid_configs_pass_reference_validator(command, cfg):
    assert Draft202012Validator(SCHEMA).is_valid(cfg)


@pytest.mark.parametrize("name, command, cfg, key, per_key", CORPUS, ids=[case[0] for case in CORPUS])
def test_reference_validator_rejects_exactly_the_per_key_cases(name, command, cfg, key, per_key):
    assert Draft202012Validator(SCHEMA).is_valid(cfg) != per_key
    with pytest.raises(ConfigError, match=re.escape(key)):
        validate_config(cfg, command)


def test_schema_defaults_match_library_defaults():
    opts = OptimizerOptions()
    for key in ("horizons", "dt", "maxiter", "terminal_tol", "improvement_tol"):
        default = config._node(f"optimizer.{key}")["default"]
        assert (tuple(default) if key == "horizons" else default) == getattr(opts, key)
    library = {
        "diagnose": (ldp_scaling_curve, ("chains", "dt", "base_seed")),
        "sampling": (sample_invariant, ("dt",)),
        "penalty": (solve_skeleton, ("mode", "delta")),
        "noise": (solve_spde, ("seed", "stream")),
    }
    for section, (fn, keys) in library.items():
        params = inspect.signature(fn).parameters
        for key in keys:
            assert config._node(f"{section}.{key}")["default"] == params[key].default, f"{section}.{key}"


def test_numbers_come_back_as_finite_floats():
    assert config._get({"alpha": 2}, "coefficients.alpha") == 2.0
    assert isinstance(config._get({"alpha": 2}, "coefficients.alpha"), float)
    assert config._get({"horizons": [1, 2]}, "optimizer.horizons") == [1.0, 2.0]
    with pytest.raises(ConfigError, match="finite"):
        config._get({"alpha": 10**400}, "coefficients.alpha")
    with pytest.raises(ConfigError, match="grid.n"):
        config._get({"n": 16.0}, "grid.n")


@pytest.mark.parametrize("amp, beta, mode, t_end", [(2.0, 1.0, 1, 0.1), (-0.7, 3.3, 3, 1.05), (1.3, 0.0, 2, None)])
def test_registry_controls_have_the_bits_of_from_function(amp, beta, mode, t_end):
    # build_control computes every step at once; each row must keep the bits of
    # the per-step hdot(x, t) that Control.from_function samples, -0.0 included.
    grid, T, dt = build_grid(16), 2.0, 1e-3
    cfg = {"grid": {"n": 16}, "control": {"kind": "uniform_decay", "amplitude": amp, "beta": beta}}
    got = config.build_control(cfg, grid, T, dt)
    want = Control.from_function(grid, T, dt, lambda x, t: amp * np.exp(-beta * t) * np.ones_like(x))
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    cfg["control"] = {"kind": "cosine_pulse", "amplitude": amp, "mode": mode}
    if t_end is not None:
        cfg["control"]["t_end"] = t_end
    end = T if t_end is None else t_end
    got = config.build_control(cfg, grid, T, dt)
    want = Control.from_function(
        grid, T, dt, lambda x, t: amp * np.cos(mode * np.pi * x) * (1.0 if t < end else 0.0)
    )
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
