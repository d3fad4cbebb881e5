"""Benchmark entry point for wallspde.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process runs one workload: it
repeats passes of the workload for about ``--seconds`` seconds and prints, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
  ``peak_rss_mb``), measured with tracing off.
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics of the traced passes, the tracing overhead, and the
  workload-level rates measured on the untraced passes.

The run record (provenance, metrics, check counts, pass times and, when
traced, every span) is written to ``.perfbench_out/`` in the checkout.
"""

import os

# Pin BLAS before numpy loads: each run is one single-threaded process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_tmp"

IMPORT_REPEATS = 5
WORKLOAD_NAMES = ("cli_batch", "scale_n", "quasipotential", "ldp_sampling")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_pass(wl, k, tracer, checks, traced, ref):
    tracer.active = traced
    tracer.reset_counters()
    first_span = len(tracer.spans)
    ops = wl.ops(k)
    ids = [f"p{k}.{i}.{op.name}" for i, op in enumerate(ops)]

    def guarded(op_id, stage, fn, *args):
        tracer.op = op_id
        try:
            fn(*args)
            return True
        except Exception as exc:  # an operation that raises is counted as failed
            checks.error(op_id, stage, exc)
            return False

    # The reference block runs outside the timed stages, between them, and
    # never while tracing is on.
    tracer.active = False
    t0 = time.perf_counter()
    ref_before = ref.measure()
    tracer.active = traced
    t_prep = time.perf_counter()
    live = []
    for op_id, op in zip(ids, ops):
        checks.begin(op_id)
        if guarded(op_id, "prep", op.prep, tracer):
            live.append((op_id, op))
    prep_s = time.perf_counter() - t_prep
    tracer.active = False
    ref_after = ref.measure()
    prep_norm_s = ref.normalise(prep_s, ref_before, ref_after)
    refs, op_times = [ref_before, ref_after], []
    work_s = work_norm_s = 0.0
    done = []
    for op_id, op in live:
        ref_before = ref_after
        tracer.active = traced
        t_work = time.perf_counter()
        ok = guarded(op_id, "work", op.work, tracer)
        op_s = time.perf_counter() - t_work
        tracer.active = False
        ref_after = ref.measure()
        refs.append(ref_after)
        op_times.append(op_s)
        work_s += op_s
        work_norm_s += ref.normalise(op_s, ref_before, ref_after)
        if ok:
            done.append((op_id, op))
    for op_id, op in done:
        guarded(op_id, "check", op.check, checks, op_id)
        wl.collect(op)
    for op in ops:
        op.cleanup()
    stats = {
        "pass": k,
        "traced": traced,
        "prep_s": prep_s,
        "work_s": work_s,
        "prep_norm_s": prep_norm_s,
        "work_norm_s": work_norm_s,
        "op_s": op_times,
        "reference_s": refs,
        "node_steps": sum(op.node_steps for _, op in done),
        "direct_steps": sum(op.direct_steps for _, op in done),
        "samples": sum(op.samples for _, op in done),
    }
    layer = {}  # summed over ops: only snapshots.bytes comes from more than one
    for _, op in done:
        for key, value in op.layer.items():
            layer[key] = layer.get(key, 0.0) + value
    stats["layer"] = layer
    if traced:
        stats["self"] = tracer.self_times(first_span)
        stats["c08_qp_s"] = sum(
            rec["end"] - rec["start"]
            for rec in tracer.spans[first_span:]
            if rec["name"] == "rate.quasipotential_J" and rec["op"].endswith("qp_c08")
        )
        stats["coeff_calls"] = sum(tracer.coeff_calls.values())
        stats["coeff_s"] = tracer.coeff_s
        stats["adjoint_sweeps"] = tracer.adjoint_sweeps
    stats["cycle_s"] = time.perf_counter() - t0
    return stats


def _layer_metrics(passes, probes, checks, finish):
    traced = [s for s in passes if s["traced"]]
    plain = [s for s in passes if not s["traced"]]
    first = traced[0]

    def med(fn):
        return statistics.median([fn(s) for s in traced])

    def self_s(*names):
        return med(lambda s: sum(s["self"].get(name, 0.0) for name in names))

    def per_step(s):
        steps = s["direct_steps"]
        busy = s["self"].get("dynamics.solve_spde", 0.0) + s["self"].get("dynamics.solve_skeleton", 0.0)
        return 1e6 * busy / steps if steps else 0.0

    def chain_rate(s, key, span):
        busy = s["self"].get(span, 0.0)
        return s["layer"].get(key, 0.0) / busy if busy else 0.0

    def plain_rate(key):
        return statistics.median([s[key] / s["work_norm_s"] for s in plain])

    values = {
        "config.validate_s": (self_s("config.validate_config"), "s"),
        "lattice.build_s": (statistics.median([p[0] for p in probes]), "s"),
        "lattice.matvec_us": (statistics.median([p[1] for p in probes]), "us"),
        "obstacle.solve_s": (self_s("obstacle.solve_obstacle"), "s"),
        "obstacle.contact_frac": (first["layer"].get("obstacle.contact_frac", 0.0), "fraction"),
        "dynamics.noise_s": (self_s("dynamics.sample_noise"), "s"),
        "dynamics.spde_s": (self_s("dynamics.solve_spde"), "s"),
        "dynamics.skeleton_s": (self_s("dynamics.solve_skeleton"), "s"),
        "dynamics.us_per_step": (med(per_step), "us"),
        "dynamics.coeff_calls": (first["coeff_calls"], "count"),
        "dynamics.coeff_s": (med(lambda s: s["coeff_s"]), "s"),
        "rate.qp_s": (self_s("rate.quasipotential_J"), "s"),
        "rate.c08_qp_s": (med(lambda s: s["c08_qp_s"]), "s"),
        "rate.adjoint_sweeps": (first["adjoint_sweeps"], "count"),
        "rate.qp_horizon": (first["layer"].get("rate.qp_horizon", 0.0), "model_time"),
        "rate.qp_terminal_gap": (first["layer"].get("rate.qp_terminal_gap", 0.0), "sup_norm"),
        "rate.recover_s": (self_s("rate.rate_I", "rate.rate_S"), "s"),
        "measure.narrow_chain_steps_per_s": (
            med(lambda s: chain_rate(s, "narrow_chain_steps", "measure.ldp_scaling_curve")),
            "1/s",
        ),
        "measure.wide_chain_steps_per_s": (
            med(lambda s: chain_rate(s, "wide_chain_steps", "measure.sample_invariant")),
            "1/s",
        ),
        "measure.ldp_s": (self_s("measure.ldp_scaling_curve"), "s"),
        "measure.resolved_rows": (first["layer"].get("measure.resolved_rows", 0.0), "count"),
        "measure.variance_rel_err": (finish.get("measure.variance_rel_err", 0.0), "fraction"),
        "snapshots.csv_s": (self_s("snapshots.write_trajectory_csv"), "s"),
        "snapshots.bin_write_s": (self_s("snapshots.write_field_snapshot"), "s"),
        "snapshots.bin_read_s": (self_s("snapshots.read_field_snapshot"), "s"),
        "snapshots.bytes": (first["layer"].get("snapshots.bytes", 0.0), "bytes"),
        "trace.overhead_s": (
            med(lambda s: s["work_norm_s"]) - statistics.median([s["work_norm_s"] for s in plain]),
            "s",
        ),
        "node_steps_per_s": (plain_rate("node_steps"), "1/s"),
        "samples_per_s": (plain_rate("samples"), "1/s"),
        "qp_rel_err": (first["layer"].get("qp_rel_err", 0.0), "fraction"),
        "failed_frac": (checks.failed / max(checks.attempted, 1), "fraction"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def _import_times(repeats, ref):
    """Wall time from process start until ``import wallspde`` returns, in fresh
    interpreters, so set-up can be measured several times in one run.  Returns
    the measured times and the times normalised to the reference block's
    nominal speed."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import wallspde"
    times, normed = [], []
    ref_after = ref.measure()
    for _ in range(repeats):
        ref_before = ref_after
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        ref_after = ref.measure()
        normed.append(ref.normalise(times[-1], ref_before, ref_after))
    return times, normed


def _pin_to_current_cpu():
    """Keep this process, and the interpreters it starts, on the CPU it is
    running on, so the reference block and the work it normalises run on
    the same vCPU.  Returns that CPU, or None where it cannot be pinned."""
    try:
        # Field 39 of /proc/self/stat is the CPU the process last ran on;
        # the command name before it is parenthesised and may hold spaces.
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        return None
    return cpu


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _git(*args):
    # The ceiling keeps git from searching the directories above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args, nproc, pinned_cpu):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "wallspde").glob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    # Outside a git checkout of this tree (the benchmark may run from an
    # exported copy) the SHA is unknown; the source digest still identifies it.
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu_cache": _cache_sizes(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _selfcheck(Checks):
    """A deliberately wrong oracle value must be counted as a failed operation."""
    probe = Checks(echo=False)
    probe.begin("selfcheck")
    probe.check("selfcheck", "selfcheck.wrong_oracle", abs(0.09 - 0.09 * 1.5) / 0.09 <= 0.05)
    ok = probe.failed == 1 and probe.attempted == 1
    print(f"check selfcheck.wrong_oracle_counted_as_failure {'PASS' if ok else 'FAIL'}")
    return ok


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "wallspde" / "__init__.py").is_file() or not ORACLES.is_file():
        print(
            "perfbench: run from a wallspde source checkout "
            f"(need {SRC / 'wallspde'} and {ORACLES})",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    pinned_cpu = _pin_to_current_cpu()
    sys.path[:0] = [str(SRC), str(ORACLES.parent)]
    from reference import Reference
    from tracing import Checks, Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START

    WORK_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORK_DIR)
    tracer, checks, ref = Tracer(), Checks(), Reference(wl.reference_parts, wl.reference_blocks)
    for _ in range(3):  # warm the block's code paths and arrays before it is used
        ref.measure()
    ref.times.clear()
    passes, probes = [], []
    min_passes = 2 if args.trace else 1
    loop_start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        stats = _run_pass(wl, k, tracer, checks, traced, ref)
        passes.append(stats)
        if traced:
            probes.append(wl.lattice_probe(tracer))
        print(
            f"pass {k} traced={int(traced)} prep_s={stats['prep_s']:.4f} "
            f"work_s={stats['work_s']:.4f} work_norm_s={stats['work_norm_s']:.4f} "
            f"node_steps={stats['node_steps']}",
            flush=True,
        )
        k += 1
        elapsed = time.perf_counter() - loop_start
        if k >= min_passes and elapsed + statistics.median([s["cycle_s"] for s in passes]) > args.seconds:
            break
    finish = wl.finish(checks)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import_runs = import_norm = []
    if args.trace:
        metrics = _layer_metrics(passes, probes, checks, finish)
    else:
        import_runs, import_norm = _import_times(IMPORT_REPEATS, ref)
        setup_s = statistics.median(import_norm) + statistics.median([s["prep_norm_s"] for s in passes])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median([s["work_norm_s"] for s in passes]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    selfcheck_ok = _selfcheck(Checks)
    checks.summary()
    print(f"failed_frac {checks.failed / max(checks.attempted, 1)} ({checks.failed}/{checks.attempted})")
    provenance = _provenance(args, nproc, pinned_cpu)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "provenance": provenance,
        "import_s": import_s,
        "import_runs_s": import_runs,
        "import_norm_s": import_norm,
        "reference_s": ref.times,
        "reference_parts": ref.parts,
        "reference_blocks": ref.blocks,
        "reference_nominal_s": ref.nominal_s,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
        "checks": checks.counts,
        "passes": passes,
        "spans": tracer.spans,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=float) + "\n")

    result = {
        "correct": checks.failed == 0 and selfcheck_ok,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
