"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads cli_batch scale_n --seeds 1 2 3 \
        [--seconds 25] [--trace 0] [--out perfbench/records/BENCH_0.json]

Runs are sequential, one process each, from the checkout root.  For every
workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
next to the metric's bound from ``BENCHMARK.json``.  With ``--out`` the
summary and every run's result line are written as one JSON record.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) >= 2:
                summary[name] = summarise(values)
                s = summary[name]
                bound = bounds.get(name)
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {workload} {name}: median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                      f"spread={spread} bound={bound}")
        record["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "all_correct": all(r["correct"] for r in runs)}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
