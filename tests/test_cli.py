import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wallspde import lattice, snapshots
from wallspde.cli import main
from wallspde.config import (
    ConfigError, MAX_PATH_VALUES, build_run, config_hash, load_config, schema_path, validate_config,
)
from wallspde.dynamics import solve_skeleton, solve_spde
from wallspde.rate import quasipotential_J
from wallspde.snapshots import read_field_snapshot


# A child interpreter imports this checkout's package, installed or not.
SRC = str(Path(lattice.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "wallspde.cli", *argv], capture_output=True, text=True, env=CHILD_ENV
    )


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def base_cfg(**extra):
    cfg = {
        "grid": {"n": 16},
        "time": {"dt": 1e-3, "horizon": 0.2},
        "coefficients": {"alpha": 2.0, "f": "sinusoidal", "c": 0.5, "sigma": "one"},
        "walls": {"kind": "constant", "k1": -0.5, "k2": 0.5},
    }
    cfg.update(extra)
    return cfg


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


def with_walls(cfg, k1, k2):
    cfg["walls"] = {"kind": "constant", "k1": k1, "k2": k2}
    return cfg


def diagnose_cfg(**changes):
    section = {
        "targets": [{"kind": "constant", "value": 0.3, "delta": 0.1}],
        "eps_schedule": [0.5, 0.35],
        "counts": [10, 10],
        "chains": 2,
    }
    section.update(changes)
    return base_cfg(diagnose=section)


def qp_cfg(**optimizer):
    return base_cfg(target={"kind": "constant", "value": 0.1}, optimizer=optimizer)


SIM = {"noise": {"eps": 0.1, "seed": 1}}
SKEL = {"control": {"kind": "zero"}}

# Malformed configs: (id, command, config, the key stderr must name, whether a
# per-key schema rule rejects it; the others break a cross-field rule).
CORPUS = [
    ("burn_in_short", "invariant", base_cfg(sampling={"count": 10, "eps": 0.2, "burn_in": 0.3}), "sampling.burn_in", False),
    ("seeds_bool", "invariant", base_cfg(sampling={"count": 10, "eps": 0.2, "seeds": [True]}), "sampling.seeds", True),
    (
        "target_outside",
        "quasipotential",
        with_walls(base_cfg(target={"kind": "cosine", "amplitude": 0.24}), -0.2, 0.5),
        "target",
        False,
    ),
    ("horizons_huge", "quasipotential", qp_cfg(horizons=[1e308]), "optimizer.horizons", False),
    ("horizons_zero", "quasipotential", qp_cfg(horizons=[0]), "optimizer.horizons", True),
    ("horizons_negative", "quasipotential", qp_cfg(horizons=[-1]), "optimizer.horizons", True),
    ("horizons_empty", "quasipotential", qp_cfg(horizons=[]), "optimizer.horizons", True),
    ("horizons_decreasing", "quasipotential", qp_cfg(horizons=[2.0, 1.0]), "optimizer.horizons[1]", False),
    # 1.01 is 50.5 steps of 0.02: not on the optimizer's time mesh.
    ("horizons_off_mesh", "quasipotential", qp_cfg(horizons=[1.01], dt=0.02), "optimizer.horizons[0]", False),
    # Finite step counts whose (steps + 1, n + 1) path exceeds config.MAX_PATH_VALUES.
    ("horizons_too_long", "quasipotential", qp_cfg(horizons=[1.0, 1e12]), "optimizer.horizons[1]", False),
    ("horizon_too_long", "simulate", base_cfg(time={"dt": 1e-3, "horizon": 1e12}, **SIM), "time.horizon", False),
    ("penalty_mode", "skeleton", base_cfg(penalty={"mode": "bogus"}, **SKEL), "penalty.mode", True),
    ("penalty_delta", "skeleton", base_cfg(penalty={"mode": "penalized", "delta": -1}, **SKEL), "penalty.delta", True),
    ("penalty_number", "skeleton", base_cfg(penalty=3, **SKEL), "penalty", True),
    ("eps_negative", "diagnose", diagnose_cfg(eps_schedule=[0.5, -0.1]), "diagnose.eps_schedule", True),
    ("eps_strings", "diagnose", diagnose_cfg(eps_schedule=["a", "b"]), "diagnose.eps_schedule", True),
    ("eps_increasing", "diagnose", diagnose_cfg(eps_schedule=[0.35, 0.5]), "diagnose.eps_schedule", False),
    ("counts_length", "diagnose", diagnose_cfg(counts=[10, 10, 10]), "diagnose.counts", False),
    (
        "diagnose_target_outside",
        "diagnose",
        diagnose_cfg(targets=[{"kind": "constant", "value": 0.6, "delta": 0.1}]),
        "diagnose.targets[0]",
        False,
    ),
    (
        "c_not_below_alpha",
        "invariant",
        base_cfg(
            coefficients={"alpha": 2.0, "f": "sinusoidal", "c": 2.0, "sigma": "one"},
            sampling={"count": 10, "eps": 0.2},
        ),
        "coefficients.c",
        False,
    ),
    ("counts_zero", "diagnose", diagnose_cfg(counts=[0, 4]), "diagnose.counts", True),
    ("chains_zero", "diagnose", diagnose_cfg(chains=0), "diagnose.chains", True),
    ("chains_string", "diagnose", diagnose_cfg(chains="x"), "diagnose.chains", True),
    ("gamma_large", "diagnose", diagnose_cfg(gamma=0.7), "diagnose.gamma", True),
    ("dt_negative", "diagnose", diagnose_cfg(dt=-0.01), "diagnose.dt", True),
    # The sampler's step obeys dt <= dx (0.125 at n=8, 0.0625 at n=16) as simulate's does: these
    # exited 0, and dt=1e306 at n=64 exited 1 with a traceback from Propagator.
    ("sampling_dt_coarse", "invariant", base_cfg(grid={"n": 8}, sampling={"count": 10, "eps": 0.2, "dt": 0.5}), "sampling.dt", False),
    ("sampling_dt_huge", "invariant", base_cfg(grid={"n": 8}, sampling={"count": 10, "eps": 0.2, "dt": 1e306}), "sampling.dt", False),
    ("sampling_dt_overflow", "invariant", base_cfg(grid={"n": 64}, sampling={"count": 10, "eps": 0.2, "dt": 1e306}), "sampling.dt", False),
    ("diagnose_dt_coarse", "diagnose", diagnose_cfg(dt=0.5), "diagnose.dt", False),
    (
        "profile_strings",
        "skeleton",
        base_cfg(walls={"kind": "profiles", "k1": ["a"] * 17, "k2": ["b"] * 17}, **SKEL),
        "walls.k1",
        True,
    ),
    # An empty profile raised IndexError while the walls took its second difference.
    ("profile_empty", "skeleton", base_cfg(walls={"kind": "profiles", "k1": [], "k2": []}, **SKEL), "walls.k1", False),
    ("simulate_dt_coarse", "simulate", base_cfg(time={"dt": 0.1, "horizon": 0.2}, **SIM), "time.dt", False),
    ("horizon_off_mesh", "skeleton", base_cfg(time={"dt": 0.03, "horizon": 0.1}, **SKEL), "time.horizon", False),
    # 200.0000001 steps of 0.01: whole to 1e-9 relative, but its mesh steps 0.010000000005.
    (
        "horizon_off_step",
        "skeleton",
        base_cfg(
            grid={"n": 8},
            time={"dt": 0.01, "horizon": 2.000000001},
            control={"kind": "uniform_decay", "amplitude": 2.0, "beta": 1.0},
        ),
        "time.horizon",
        False,
    ),
    # 1 + dt * 2/dx^2 overflows, so the implicit step's system is not finite.
    ("dt_overflow_skeleton", "skeleton", base_cfg(time={"dt": 1e306, "horizon": 1e306}, **SKEL), "time.dt", False),
    ("dt_overflow_rate", "rate", base_cfg(time={"dt": 1e306, "horizon": 1e306}, **SKEL), "time.dt", False),
    ("dt_overflow_quasipotential", "quasipotential", qp_cfg(horizons=[1e306], dt=1e306), "optimizer.dt", False),
    (
        "dt_overflow_diagnose",
        "diagnose",
        dict(diagnose_cfg(), optimizer={"horizons": [1e306], "dt": 1e306}),
        "optimizer.dt",
        False,
    ),
    ("initial_outside", "simulate", base_cfg(initial={"kind": "constant", "value": 0.9}, **SIM), "initial", False),
    (
        "sigma_amplitude_one",
        "simulate",
        base_cfg(coefficients={"alpha": 2.0, "f": "sinusoidal", "c": 0.5, "sigma": "state_modulated", "sigma_amplitude": 1}, **SIM),
        "coefficients.sigma_amplitude",
        True,
    ),
    ("seed_negative", "simulate", base_cfg(noise={"eps": 0.1, "seed": -1}), "noise.seed", True),
    # Each seed names one noise stream, so a repeated seed counts the same draws twice.
    ("seeds_repeated", "invariant", base_cfg(sampling={"count": 10, "eps": 0.2, "seeds": [5, 5]}), "sampling.seeds", False),
    # Level i seeds base_seed + 1000*i + j: chain 1000 of level 0 would be chain 0 of level 1.
    ("chains_over_1000", "diagnose", diagnose_cfg(chains=1001), "diagnose.chains", False),
    # A misspelled key would otherwise be ignored and its default used.
    ("key_misspelled", "simulate", base_cfg(noise={"eps": 0.3, "sed": 5}), "noise.sed", True),
    ("section_misspelled", "simulate", base_cfg(noise={"eps": 0.3}, nosie={"seed": 5}), "nosie", True),
    (
        "diagnose_target_key_misspelled",
        "diagnose",
        diagnose_cfg(targets=[{"kind": "constant", "value": 0.3, "delta": 0.1, "dleta": 0.2}]),
        "diagnose.targets[0].dleta",
        True,
    ),
    # A section the command does not read is held to the schema too: these
    # used to validate, because only the read sections were checked.
    ("unread_section_key_misspelled", "simulate", base_cfg(sampling={"cuont": 1}, **SIM), "sampling.cuont", True),
    ("unread_section_wrong_type", "simulate", base_cfg(optimizer={"dt": "x"}, **SIM), "optimizer.dt", True),
    ("unread_section_missing_key", "simulate", base_cfg(sampling={"eps": 0.1}, **SIM), "sampling.count", True),
]


# ---------------------------------------------------------------- validation


def test_validate_missing_alpha_names_key():
    cfg = base_cfg(noise={"eps": 0.1, "seed": 1})
    del cfg["coefficients"]["alpha"]
    with pytest.raises(ConfigError, match="alpha"):
        validate_config(cfg, "simulate")


def test_validate_unknown_registry_entry():
    cfg = base_cfg(noise={"eps": 0.1})
    cfg["coefficients"]["f"] = "cubic"
    with pytest.raises(ConfigError, match="coefficients.f"):
        validate_config(cfg, "simulate")


def test_validate_h_for_invariant_commands():
    cfg = base_cfg(sampling={"count": 10, "eps": 0.2, "seeds": [1]})
    cfg["coefficients"]["c"] = 5.0  # c > alpha
    with pytest.raises(ConfigError, match="alpha"):
        validate_config(cfg, "invariant")


def test_validate_rejects_non_finite_value():
    with pytest.raises(ConfigError, match="noise.eps"):
        validate_config(base_cfg(noise={"eps": math.nan}), "simulate")


def test_config_hash_stable_under_key_order():
    a = {"x": 1, "y": {"a": 2, "b": 3}}
    b = {"y": {"b": 3, "a": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)


def test_schema_file_ships_with_package():
    path = schema_path()
    assert path.exists()
    schema = json.loads(path.read_text())
    for section in ("grid", "coefficients", "walls", "sampling", "diagnose"):
        assert section in schema["properties"]


# ---------------------------------------------------------------- commands


def test_cli_missing_key_exits_2(tmp_path):
    cfg = base_cfg(noise={"eps": 0.1})
    del cfg["coefficients"]["alpha"]
    path = write_cfg(tmp_path, cfg)
    proc = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "alpha" in proc.stderr


@pytest.mark.parametrize("unreadable", ["directory", "utf16_bytes"])
def test_cli_unreadable_config_exits_2_naming_the_path(tmp_path, capsys, unreadable):
    # Both used to escape load_config as IsADirectoryError / UnicodeDecodeError: exit 1, a traceback.
    path = tmp_path / "config.json"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError, match="config.json"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, below", [("skeleton", ""), ("selftest", "out")])
def test_cli_out_that_cannot_be_a_directory_exits_2_naming_it(tmp_path, capsys, command, below):
    # mkdir raises FileExistsError for an --out that is a file and
    # NotADirectoryError for one under a file: both exit 2 on one line, and
    # the file is left as it was.
    afile = tmp_path / "afile"
    afile.write_bytes(b"")
    out = afile / below
    argv = [command, "--out", str(out)]
    if command != "selftest":
        argv += ["--config", str(write_cfg(tmp_path, base_cfg(**SKEL)))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(out) in err and len(err.splitlines()) == 1
    assert afile.read_bytes() == b""


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_cli_non_finite_number_exits_2(tmp_path, literal):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_cfg(noise={"eps": "EPS", "seed": 1})).replace('"EPS"', literal))
    out = tmp_path / "out"
    proc = run_cli("simulate", "--config", str(path), "--out", str(out))
    assert proc.returncode == 2
    assert literal in proc.stderr or "noise.eps" in proc.stderr
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("name, command, cfg, key, per_key", CORPUS, ids=[case[0] for case in CORPUS])
def test_cli_malformed_config_exits_2_naming_key(tmp_path, name, command, cfg, key, per_key):
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    proc = run_cli(command, "--config", str(path), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_unknown_command_fails(tmp_path):
    proc = run_cli("explode", "--config", "x", "--out", str(tmp_path))
    assert proc.returncode == 2


def test_simulate_zero_noise_matches_zero_control_skeleton(tmp_path):
    sim_cfg = write_cfg(tmp_path, base_cfg(noise={"eps": 0.0, "seed": 4}), "sim.json")
    skel_cfg = write_cfg(tmp_path, base_cfg(control={"kind": "zero"}), "skel.json")
    out_sim = tmp_path / "out_sim"
    out_skel = tmp_path / "out_skel"
    assert run_cli("simulate", "--config", str(sim_cfg), "--out", str(out_sim), "--deterministic").returncode == 0
    assert run_cli("skeleton", "--config", str(skel_cfg), "--out", str(out_skel), "--deterministic").returncode == 0
    assert (out_sim / "trajectory.bin").read_bytes() == (out_skel / "trajectory.bin").read_bytes()
    assert (out_sim / "trajectory.csv").read_bytes() == (out_skel / "trajectory.csv").read_bytes()


def test_skeleton_on_a_long_mesh_writes_its_artifacts(tmp_path):
    # The 82000-step linspace mesh used to fail its own uniformity check after
    # the solve: exit 1, an empty trajectory.bin and no manifest.
    cfg = {
        "grid": {"n": 4},
        "time": {"dt": 0.1, "horizon": 8200},
        "coefficients": {"alpha": 2.0, "f": "zero", "sigma": "one"},
        "walls": {"kind": "constant", "k1": -0.5, "k2": 0.5},
        "control": {"kind": "zero"},
    }
    out = tmp_path / "out"
    proc = run_cli("skeleton", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out), "--deterministic")
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").is_file()
    field = read_field_snapshot(out / "trajectory.bin")
    assert field.steps == 82000
    assert field.dt == 0.1


PULSE = {"kind": "cosine_pulse", "amplitude": -10.0, "mode": 1, "t_end": 0.15}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", {"noise": {"eps": 0.3, "seed": 4, "stream": 1}}),
        ("skeleton", {"control": PULSE, "penalty": {"mode": "penalized"}}),
        ("skeleton", {"control": {"kind": "zero"}}),
        ("rate", {"control": PULSE}),
        ("rate", {"control": {"kind": "zero"}}),
    ],
    ids=["simulate", "skeleton_pulse", "skeleton_zero", "rate_pulse", "rate_zero"],
)
def test_path_records_match_the_solved_trajectory(tmp_path, command, extra):
    cfg = with_walls(base_cfg(**extra), -0.1, 0.1)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out), "--deterministic"]) == 0
    run = build_run(cfg, command)
    if command == "simulate":
        traj = solve_spde(run.u0, run.eps, run.coeffs, run.walls, run.T, run.dt, seed=run.seed, stream=run.stream)
        entry = {"sup_norm": traj.u.sup_norm()}
    else:
        traj = solve_skeleton(run.u0, run.control, run.coeffs, run.walls, run.T, run.dt, **run.penalty)
        entry = {"control_action": 0.0 if run.control is None else run.control.action}
    if command == "rate":
        record = json.loads((out / "rates.json").read_text())
        assert set(record) == {"rate_I", "rate_S", "control_action", "window"}
        assert record["control_action"] == entry["control_action"]
        return
    record = json.loads((out / "summary.json").read_text())
    masses = {"eta_mass": traj.eta.total_mass, "xi_mass": traj.xi.total_mass}
    assert record == {**masses, "u_hash": snapshots.field_hash(traj.u.values), **entry}
    if "noise" in extra or run.control is not None:  # both walls bind, and the entry is not zero
        assert min(masses.values()) > 0.0 and min(entry.values()) > 0.0
    assert read_field_snapshot(out / "trajectory.bin").values.tobytes() == traj.u.values.tobytes()


def test_cli_deterministic_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg(noise={"eps": 0.3, "seed": 11, "stream": 2}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out), "--deterministic")
        assert proc.returncode == 0, proc.stderr
    assert dir_bytes(out1) == dir_bytes(out2)


def rerun_cases():
    """(command, config) per case: every command but simulate (C12 reruns it)
    on a small grid, the skeleton with both control kinds in both modes, and
    one skeleton on a grid fine enough for the banded solve."""
    controls = {
        "uniform_decay": {"kind": "uniform_decay", "amplitude": 6.0, "beta": 1.0},
        "cosine_pulse": {"kind": "cosine_pulse", "amplitude": -10.0, "mode": 1, "t_end": 0.15},
    }
    cases = {
        f"skeleton_{kind}_{mode}": ("skeleton", base_cfg(grid={"n": 8}, control=control, penalty={"mode": mode}))
        for kind, control in controls.items()
        for mode in ("projected", "penalized")
    }
    # n=512 steps on the banded solve; every other case takes the dense one.
    cases["skeleton_banded"] = ("skeleton", base_cfg(grid={"n": 512}, control=controls["cosine_pulse"]))
    cases["rate"] = ("rate", base_cfg(grid={"n": 8}, control=controls["cosine_pulse"]))
    cases["quasipotential"] = ("quasipotential", qp_cfg(horizons=[0.5, 1.0], dt=0.05, maxiter=50))
    cases["invariant"] = ("invariant", base_cfg(sampling={"count": 20, "eps": 0.3, "seeds": [3, 1], "dt": 2e-3}))
    cases["invariant_noiseless"] = ("invariant", base_cfg(sampling={"count": 20, "eps": 0.0, "seeds": [3, 1], "dt": 2e-3}))
    # A 0.45 ball: both 10-sample levels hit it, so the rerun compares counted hits.
    diagnose = diagnose_cfg(targets=[{"kind": "constant", "value": 0.3, "delta": 0.45}], gamma=0.4, radii=[0.5, 2.0])
    diagnose["optimizer"] = {"horizons": [0.5], "dt": 0.05, "maxiter": 20}
    cases["diagnose_gamma"] = ("diagnose", diagnose)
    return cases


@pytest.mark.parametrize("case", sorted(rerun_cases()))
def test_deterministic_reruns_of_every_command_are_byte_identical(tmp_path, case):
    command, cfg = rerun_cases()[case]
    path = write_cfg(tmp_path, cfg)
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main([command, "--config", str(path), "--out", str(out), "--deterministic"]) == 0
    assert dir_bytes(outs[0]) == dir_bytes(outs[1])
    if case == "diagnose_gamma":
        with open(outs[0] / "diagnostics.csv", newline="") as handle:
            assert max(float(row["p_hat"]) for row in csv.DictReader(handle)) > 0.0


def test_quasipotential_command_hits_benchmark(tmp_path):
    cfg = {
        "grid": {"n": 16},
        "coefficients": {"alpha": 1.0, "f": "zero", "sigma": "one"},
        "walls": {"kind": "constant", "k1": -10.0, "k2": 10.0},
        "target": {"kind": "constant", "value": 0.3},
        "optimizer": {"horizons": [1.0, 2.0, 4.0], "dt": 0.04, "maxiter": 300},
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    proc = run_cli("quasipotential", "--config", str(path), "--out", str(out), "--deterministic")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((out / "quasipotential.json").read_text())
    assert record["converged"]
    assert abs(record["value"] - 1.0 * 0.09) / 0.09 <= 0.05
    assert abs(record["value"] - record["action"]) <= 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timestamp" not in manifest
    assert manifest["command"] == "quasipotential"
    keys = {"horizon", "rounds", "nit", "nfev", "message", "value", "gradient_norm", "terminal_gap"}
    stages = record["stages"]
    assert [stage["horizon"] for stage in stages] == cfg["optimizer"]["horizons"][: len(stages)]
    assert all(set(stage) == keys for stage in stages)
    assert [stage["value"] for stage in stages if stage["horizon"] == record["horizon"]] == [record["value"]]
    # The stage records are deterministic: a rerun writes the same bytes.
    again = tmp_path / "again"
    proc = run_cli("quasipotential", "--config", str(path), "--out", str(again), "--deterministic")
    assert proc.returncode == 0, proc.stderr
    rerun = json.loads((again / "quasipotential.json").read_text())["stages"]
    assert sum(stage["nfev"] for stage in rerun) == sum(stage["nfev"] for stage in stages)
    assert dir_bytes(again) == dir_bytes(out)


def test_quasipotential_exit_3_says_why(tmp_path):
    cfg = {
        "grid": {"n": 16},
        "coefficients": {"alpha": 1.0, "f": "zero", "sigma": "one"},
        "walls": {"kind": "constant", "k1": -10.0, "k2": 10.0},
        "target": {"kind": "constant", "value": 0.3},
        "optimizer": {"horizons": [0.5], "dt": 0.05, "maxiter": 1},
    }
    out = tmp_path / "out"
    proc = run_cli("quasipotential", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out), "--deterministic")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    record = json.loads((out / "quasipotential.json").read_text())
    assert not record["converged"]
    assert "not converged" in proc.stderr
    assert "horizon 0.5" in proc.stderr
    assert f"terminal gap {record['terminal_gap']:.3e}" in proc.stderr
    assert "optimizer.terminal_tol 0.005" in proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "path.bin", "quasipotential.json"]


def test_invariant_command_writes_summary(tmp_path):
    cfg = {
        "grid": {"n": 16},
        "coefficients": {"alpha": 2.0, "f": "zero", "sigma": "one"},
        "walls": {"kind": "constant", "k1": -10.0, "k2": 10.0},
        "sampling": {"count": 200, "eps": 0.3, "seeds": [1, 2, 3, 4], "dt": 2e-3},
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    proc = run_cli("invariant", "--config", str(path), "--out", str(out), "--deterministic")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == 200
    samples = np.load(out / "samples.npy")
    assert samples.shape == (200, 17)
    assert abs(summary["spatial_mean_variance"] / (0.09 / 4.0) - 1.0) <= 0.3


@pytest.mark.slow
def test_diagnose_command_writes_table(tmp_path):
    cfg = {
        "grid": {"n": 16},
        "coefficients": {"alpha": 4.0, "f": "zero", "sigma": "one"},
        "walls": {"kind": "constant", "k1": -0.02, "k2": 0.42},
        "diagnose": {
            "targets": [{"kind": "constant", "value": 0.3, "delta": 0.1}],
            "eps_schedule": [0.5, 0.35],
            "counts": [1500, 1500],
            "chains": 8,
            "gamma": 0.4,
            "radii": [0.5, 2.0],
        },
        "optimizer": {"horizons": [0.5, 1.0], "dt": 0.01, "maxiter": 300},
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    proc = run_cli("diagnose", "--config", str(path), "--out", str(out), "--deterministic")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == "target_id,eps,p_hat,wilson_lo,wilson_hi,eps2_log_p,J_inner,J_outer"
    assert len(lines) == 3
    record = json.loads((out / "diagnostics.json").read_text())
    assert len(record["rows"]) == 2
    assert record["tightness"] is not None


def test_diagnose_catalog_uses_the_optimizer_section(tmp_path):
    cfg = diagnose_cfg(counts=[10, 10])
    cfg["optimizer"] = {"horizons": [0.5], "dt": 0.05, "maxiter": 3}
    out = tmp_path / "out"
    proc = run_cli("diagnose", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out), "--deterministic")
    assert proc.returncode == 0, proc.stderr
    j_star = json.loads((out / "diagnostics.json").read_text())["j_values"]["0"][1]
    run = build_run(cfg, "diagnose")
    assert run.opts.horizons == (0.5,) and run.opts.maxiter == 3
    assert j_star == pytest.approx(quasipotential_J(run.targets[0][0], run.coeffs, run.walls, run.opts).value, rel=1e-9)


def test_diagnose_probe_runs_beside_ten_levels(tmp_path):
    # The probe used seeds base_seed + 9000 + j, level 9's, so ten levels exited 2.
    cfg = diagnose_cfg(eps_schedule=[0.5 - 0.04 * i for i in range(10)], counts=[10] * 10, gamma=0.4)
    cfg["optimizer"] = {"horizons": [0.5], "dt": 0.05, "maxiter": 3}
    run = build_run(cfg, "diagnose")
    assert run.probe_seeds == (200 + 10_000, 200 + 10_001)
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out), "--deterministic"]) == 0
    assert json.loads((out / "diagnostics.json").read_text())["tightness"] is not None


def test_path_cap_admits_the_largest_path():
    rows = MAX_PATH_VALUES // 1024  # (steps + 1) * (n + 1) with n = 1023
    cfg = base_cfg(grid={"n": 1023}, control={"kind": "zero"})
    cfg["time"] = {"dt": 1.0, "horizon": float(rows - 1)}
    validate_config(cfg, "skeleton")
    cfg["time"]["horizon"] = float(rows)
    with pytest.raises(ConfigError, match="time.horizon"):
        validate_config(cfg, "skeleton")


def test_config_echo_round_trips(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg(noise={"eps": 0.2, "seed": 9}))
    out1 = tmp_path / "first"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out1), "--deterministic").returncode == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    echoed = write_cfg(tmp_path, manifest["config"], "echoed.json")
    out2 = tmp_path / "second"
    assert run_cli("simulate", "--config", str(echoed), "--out", str(out2), "--deterministic").returncode == 0
    assert dir_bytes(out1) == dir_bytes(out2)


def test_selftest_command(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("selftest", "--out", str(out), "--deterministic")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((out / "selftest.json").read_text())
    assert record["passed"]
    assert record["checks"]["csv_spelling"]
    assert record["checks"]["stacked_step_keeps_batch_bits"]
    assert record["checks"]["single_state_gemv_bits"]
    assert record["checks"]["noise_stream"]
    assert "PASS" in proc.stdout


def test_selftest_fails_on_a_wrong_csv_spelling(tmp_path, monkeypatch, capsys):
    spell = snapshots._spell17

    def off_by_one(values):
        cells = spell(values)
        cells[cells == ord("7")] = ord("8")
        return cells

    monkeypatch.setattr(snapshots, "_spell17", off_by_one)
    assert main(["selftest", "--out", str(tmp_path / "out")]) == 1
    assert "FAIL csv_spelling" in capsys.readouterr().out


def test_selftest_fails_on_a_changed_noise_stream(tmp_path, monkeypatch, capsys):
    # A numpy release that seeds or draws differently stands in as PCG64.
    monkeypatch.setattr(np.random, "SFC64", np.random.PCG64)
    assert main(["selftest", "--out", str(tmp_path / "out")]) == 1
    assert "FAIL noise_stream" in capsys.readouterr().out


def test_selftest_fails_when_a_stack_solves_unlike_its_batches(tmp_path, monkeypatch, capsys):
    solve = lattice.Propagator.solve

    def stack_off_by_one_ulp(self, values, out=None):
        solved = solve(self, values, out)
        return np.nextafter(solved, np.inf) if solved.ndim == 3 else solved

    monkeypatch.setattr(lattice.Propagator, "solve", stack_off_by_one_ulp)
    assert main(["selftest", "--out", str(tmp_path / "out")]) == 1
    assert "FAIL stacked_step_keeps_batch_bits" in capsys.readouterr().out


def test_selftest_fails_when_a_single_state_solves_unlike_matmul(tmp_path, monkeypatch, capsys):
    solve_transpose = lattice.Propagator.solve_transpose

    def off_by_one_ulp(self, values, out=None):
        return np.nextafter(solve_transpose(self, values, out), np.inf)

    monkeypatch.setattr(lattice.Propagator, "solve_transpose", off_by_one_ulp)
    assert main(["selftest", "--out", str(tmp_path / "out")]) == 1
    assert "FAIL single_state_gemv_bits" in capsys.readouterr().out


def test_python_dash_m_wallspde_runs_the_cli(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "wallspde", "selftest", "--out", str(out)], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "selftest.json").read_text())["passed"]
