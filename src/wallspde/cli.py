"""Batch front-end: config-driven runs writing deterministic file outputs.

Each run populates one output directory with a ``manifest.json`` (command,
resolved config echo, content hash, output list) plus per-artifact files.
In deterministic mode timestamps are omitted, so identical configs produce
byte-identical directories.  Exit codes: 0 success, 2 config validation
failure or an ``--out`` that cannot be made a directory, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from time import time

import numpy as np

from wallspde import __version__
from wallspde.config import COMMANDS, ConfigError, build_coefficients, build_run, config_hash, load_config
from wallspde.dynamics import noise_generator, sample_noise, solve_deterministic, solve_skeleton, solve_spde
from wallspde.lattice import Grid, Propagator, Walls, heat_kernel, neumann_operator
from wallspde.measure import ldp_scaling_curve, sample_invariant, tightness_probe
from wallspde.rate import quasipotential_J, rate_I, rate_S
from wallspde.snapshots import (
    _spelled,
    field_hash,
    format_float,
    write_field_snapshot,
    write_json_record,
    write_trajectory_csv,
)

# The first four standard normals of noise_generator(2012, 3), then the
# sample_noise(Grid(4), 1e-3, 2, seed=7, stream=1) increments, as float64 bits.
_NOISE_STREAM_BITS = [
    0x3FF43F8A5BAEFFA3, 0xBFD9529C90C3ECE3, 0x3FD37191D7D935EE, 0x3FD1298297E99796,
    0x3F84815D3E358DA6, 0xBF9BC36E18A7DC3E, 0xBF90497EDD8B4ED8, 0xBF856C18FFAC625F, 0xBF9617D20DC7AE38,
    0x3F46EA449D881DEF, 0x3F9F2B78940F2479, 0x3FA0A6CE7B13DCDF, 0x3F5B9151353D350B, 0xBFA0F7C64BE108ED,
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wallspde", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        _common_flags(p)
    _common_flags(sub.add_parser("selftest"))

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--deterministic", action="store_true")


def _dispatch(args) -> int:
    cfg = run = None
    if args.command != "selftest":
        cfg = load_config(args.config)
        run = build_run(cfg, args.command)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot make directory {out}: {exc.strerror}", file=sys.stderr)
        return 2
    handler = {
        "simulate": _run_simulate,
        "skeleton": _run_skeleton,
        "rate": _run_rate,
        "quasipotential": _run_quasipotential,
        "invariant": _run_invariant,
        "diagnose": _run_diagnose,
        "selftest": _run_selftest,
    }[args.command]
    code, outputs = handler(cfg, run, out)
    _write_manifest(out, args, cfg, outputs)
    return code


def _write_manifest(out: Path, args, cfg, outputs) -> None:
    manifest = {
        "command": args.command,
        "config": cfg,
        "config_hash": config_hash(cfg) if cfg is not None else None,
        "outputs": sorted(outputs),
        "version": __version__,
    }
    if not args.deterministic:
        manifest["timestamp"] = time()
    write_json_record(manifest, out / "manifest.json")


def _write_path(traj, out: Path, **entry):
    """The path's artifacts: CSV and binary snapshots, and a summary of its
    force masses and hash plus the command's one ``entry``."""
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_field_snapshot(traj.u, out / "trajectory.bin")
    summary = {"eta_mass": traj.eta.total_mass, "xi_mass": traj.xi.total_mass, "u_hash": field_hash(traj.u.values)}
    write_json_record({**summary, **entry}, out / "summary.json")
    return 0, ["trajectory.csv", "trajectory.bin", "summary.json"]


def _run_simulate(cfg, run, out):
    traj = solve_spde(run.u0, run.eps, run.coeffs, run.walls, run.T, run.dt, seed=run.seed, stream=run.stream)
    return _write_path(traj, out, sup_norm=traj.u.sup_norm())


def _skeleton_run(run):
    """The skeleton's path and the action of its control (0 for none)."""
    traj = solve_skeleton(run.u0, run.control, run.coeffs, run.walls, run.T, run.dt, **run.penalty)
    return traj, run.control.action if run.control is not None else 0.0


def _run_skeleton(cfg, run, out):
    traj, action = _skeleton_run(run)
    return _write_path(traj, out, control_action=action)


def _run_rate(cfg, run, out):
    traj, action = _skeleton_run(run)
    i_val = rate_I(traj.u, 0.0, run.T, run.coeffs, run.walls)
    s_val = rate_S(traj.u, 0.0, run.T, run.coeffs)
    record = {
        "rate_I": i_val if math.isfinite(i_val) else "inf",
        "rate_S": s_val,
        "control_action": action,
        "window": [0.0, run.T],
    }
    write_json_record(record, out / "rates.json")
    return 0, ["rates.json"]


def _run_quasipotential(cfg, run, out):
    result = quasipotential_J(run.target, run.coeffs, run.walls, run.opts)
    record = {
        "target_hash": field_hash(run.target),
        "value": result.value,
        "horizon": result.horizon,
        "action": result.control.action,
        "gradient_norm": result.gradient_norm,
        "terminal_gap": result.terminal_gap,
        "converged": result.converged,
        "stages": [dataclasses.asdict(stage) for stage in result.stages],
    }
    write_json_record(record, out / "quasipotential.json")
    write_field_snapshot(result.path, out / "path.bin")
    if not result.converged:
        print(
            f"quasipotential not converged: horizon {result.horizon:g} reached with terminal gap "
            f"{result.terminal_gap:.3e} > optimizer.terminal_tol {run.opts.terminal_tol:g}",
            file=sys.stderr,
        )
    return (0 if result.converged else 3), ["quasipotential.json", "path.bin"]


def _run_invariant(cfg, run, out):
    measure = sample_invariant(run.coeffs, run.walls, run.eps, run.plan, run.seeds, dt=run.dt)
    means = measure.samples @ run.grid.weights
    summary = {
        "count": measure.count,
        "eps": run.eps,
        "seeds": list(run.seeds),
        "spatial_mean_variance": float(np.var(means)),
        "sup_abs": float(np.max(np.abs(measure.samples))),
        "samples_hash": field_hash(measure.samples),
    }
    write_json_record(summary, out / "summary.json")
    np.save(out / "samples.npy", measure.samples)
    return 0, ["summary.json", "samples.npy"]


def _run_diagnose(cfg, run, out):
    diag = ldp_scaling_curve(
        run.targets,
        run.eps_schedule,
        run.plans,
        run.coeffs,
        run.walls,
        base_seed=run.base_seed,
        dt=run.dt,
        chains=run.chains,
        options=run.opts,
    )

    cols = ("eps", "p_hat", "wilson_lo", "wilson_hi", "eps2_log_p", "j_inner", "j_outer")
    lines = ["target_id,eps,p_hat,wilson_lo,wilson_hi,eps2_log_p,J_inner,J_outer"]
    for row in diag.rows:
        cells = ("" if row[c] is None else format_float(row[c]) for c in cols)
        lines.append(",".join([str(row["target_id"]), *cells]))
    (out / "diagnostics.csv").write_bytes(("\n".join(lines) + "\n").encode())

    tightness = None
    if run.gamma is not None:
        probe = sample_invariant(
            run.coeffs, run.walls, run.eps_schedule[-1], run.plans[-1], run.probe_seeds, dt=run.dt
        )
        tightness = tightness_probe(probe, run.gamma, run.radii)

    record = {
        "rows": diag.rows,
        "trend_rho": diag.trend_rho,
        "trend_ok": diag.trend_ok,
        "j_values": {str(k): list(v) for k, v in diag.j_values.items()},
        "tightness": tightness,
        "seeds": {"base_seed": run.base_seed, "chains": run.chains},
        "config": cfg,
    }
    write_json_record(record, out / "diagnostics.json")
    return 0, ["diagnostics.csv", "diagnostics.json"]


def _run_selftest(cfg, run, out):
    """Quick internal identity checks; exit 0 when everything holds."""
    checks = {}
    grid = Grid(32)
    op = neumann_operator(grid, 2.0)
    const = np.full(grid.n + 1, 1.7)
    checks["operator_kills_constants"] = bool(
        np.max(np.abs(op.apply(const) + 2.0 * const)) < 1e-10
    )
    ker = heat_kernel(grid, 1.0, 0.1)
    comp = ker @ (grid.weights[:, None] * ker)
    checks["kernel_semigroup"] = bool(
        np.max(np.abs(comp - heat_kernel(grid, 1.0, 0.2))) < 1e-8
    )
    checks["kernel_positive"] = bool(ker.min() >= -1e-12)

    coeffs = build_coefficients({"alpha": 2.0, "f": "zero", "sigma": "one"})
    walls = Walls.constant(grid, -1.0, 1.0)
    traj = solve_deterministic(np.full(grid.n + 1, 0.5), coeffs, walls, 0.5, 1e-3)
    exact = 0.5 * np.exp(-2.0 * traj.u.times)
    checks["deterministic_decay"] = bool(np.max(np.abs(traj.u.values - exact[:, None])) < 1e-3)

    spde = solve_spde(np.zeros(grid.n + 1), 0.0, coeffs, walls, 0.2, 1e-3, seed=1)
    checks["zero_noise_degenerate"] = bool(spde.u.sup_norm() == 0.0)

    # The sampler steps its noise levels as one node-major stack and keeps
    # each level's bits only if numpy's matmul runs each batch's own gemm.
    prop = Propagator(grid, 2.0, 1e-3)
    stack = np.random.default_rng(0).standard_normal((3, grid.n + 1, 16))
    lo, hi = (np.repeat(wall[:, None], 16, axis=1) for wall in (-0.5 - 0.1 * grid.nodes, 0.5 + 0.1 * grid.nodes))
    stepped = prop.step(stack, lo, hi)
    checks["stacked_step_keeps_batch_bits"] = all(
        stepped[k].tobytes() == prop.step(stack[k].copy(), lo, hi).tobytes() for k in range(len(stack))
    )
    # A single state is solved by np.dot's gemv: every path keeps its bits
    # only if that gemv rounds as matmul does, plain and transposed.
    state = stack[0, :, 0].copy()
    checks["single_state_gemv_bits"] = all(
        solve(state).tobytes() == np.matmul(matrix, state).tobytes()
        for solve, matrix in ((prop.solve, prop.matrix), (prop.solve_transpose, np.ascontiguousarray(prop.matrix.T)))
    )

    # numpy may change a Generator's stream between releases (NEP 19), and
    # every noisy output would move with it: pin the stream's first draws.
    draws = noise_generator(2012, 3).standard_normal(4)
    increments = sample_noise(Grid(4), 1e-3, 2, seed=7, stream=1).increments.ravel()
    checks["noise_stream"] = np.concatenate([draws, increments]).view(np.uint64).tolist() == _NOISE_STREAM_BITS

    # The CSV cell speller against format_float where it is easiest to get
    # wrong: next to powers of ten, on exact ties, and outside its range.
    edges = [float(f"1e{k}") for k in range(-12, 18)]
    ties = [2.0**-25, 3 * 2.0**-25, 1234567890123456.25, 1234567890123456.75]
    outside = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300]
    sample = np.array(edges + [np.nextafter(v, d) for v in edges for d in (0.0, np.inf)] + ties + outside)
    sample = np.concatenate([sample, -sample])
    checks["csv_spelling"] = _spelled(sample) == [format_float(v) for v in sample]

    passed = all(checks.values())
    record = {"checks": checks, "passed": passed}
    write_json_record(record, out / "selftest.json")
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return (0 if passed else 1), ["selftest.json"]


if __name__ == "__main__":
    sys.exit(main())
