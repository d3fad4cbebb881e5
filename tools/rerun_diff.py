"""Compare the ``--deterministic`` outputs of two source trees, byte for byte.

Usage: python tools/rerun_diff.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``wallspde`` package, such as a
checkout's ``src``.  Every case of ``rerun_cases()`` in ``tests/test_cli.py``,
the ``simulate`` config of the C12 acceptance test, the ``diagnose_gamma``
case without ``gamma``, and ``selftest`` run once with each tree first on
PYTHONPATH.  The configs come from this checkout's tests, so both trees run
the same inputs.  One line per case says ``identical`` or ``differs`` (with
the files that differ), or ``failed`` when a run exits non-zero (``selftest``
exits 1 when its pinned noise bits move).  The exit status is 1 if any case
differs or failed, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"

# The simulate config of tests/test_acceptance.py::test_c12_cli_determinism.
C12 = {
    "grid": {"n": 32},
    "time": {"dt": 1e-3, "horizon": 0.5},
    "coefficients": {"alpha": 2.0, "f": "sinusoidal", "c": 0.5, "sigma": "one"},
    "walls": {"kind": "constant", "k1": -0.25, "k2": 0.3},
    "noise": {"eps": 0.3, "seed": 11, "stream": 2},
}


def cases(change_src: str) -> dict:
    """(command, config or None) per case name."""
    sys.path[:0] = [str(TESTS), change_src]
    from test_cli import rerun_cases

    found = dict(rerun_cases())
    found["simulate_c12"] = ("simulate", C12)
    # The diagnose_gamma case without its tightness probe: the same ball, so hits are counted.
    diagnose = copy.deepcopy(found["diagnose_gamma"][1])
    for key in ("gamma", "radii"):
        del diagnose["diagnose"][key]
    found["diagnose"] = ("diagnose", diagnose)
    found["selftest"] = ("selftest", None)
    return found


def run(src: str, command: str, cfg: dict | None, root: Path) -> dict | str:
    """The output directory's files as {name: bytes}, or the error of a failed run."""
    root.mkdir(parents=True)
    argv = [sys.executable, "-m", "wallspde", command, "--out", "out", "--deterministic"]
    if cfg is not None:
        (root / "config.json").write_text(json.dumps(cfg))
        argv += ["--config", "config.json"]
    proc = subprocess.run(argv, cwd=root, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    if proc.returncode != 0:
        return " ".join([f"exit {proc.returncode}", *proc.stderr.strip().splitlines()[-1:]])
    return {path.name: path.read_bytes() for path in sorted((root / "out").iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    srcs = {side: str(Path(src).resolve()) for side, src in (("parent", args.parent_src), ("change", args.change_src))}
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, cfg) in sorted(cases(srcs["change"]).items()):
            outs = {side: run(src, command, cfg, Path(tmp, side, name)) for side, src in srcs.items()}
            failed = [f"{side} {out}" for side, out in outs.items() if isinstance(out, str)]
            if failed:
                print(f"failed     {name}: {'; '.join(failed)}")
            elif outs["parent"] != outs["change"]:
                files = sorted(f for f in outs["parent"].keys() | outs["change"].keys()
                               if outs["parent"].get(f) != outs["change"].get(f))
                print(f"differs    {name}: {', '.join(files)}")
            else:
                print(f"identical  {name}")
                continue
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
