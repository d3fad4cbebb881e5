"""scipy stays unloaded until a solve needs it.

Each check runs in a fresh interpreter and reads only the module names in
``sys.modules``: import times are not compared, since they vary with the
host's load.
"""

import json
import subprocess
import sys
from pathlib import Path

import wallspde

SRC = str(Path(wallspde.__file__).resolve().parents[1])


def scipy_modules_after(code, tmp_path=None):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    script = "\n".join(
        [
            "import json, sys",
            f"sys.path.insert(0, {SRC!r})",
            code,
            "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_wallspde_loads_no_scipy():
    assert scipy_modules_after("import wallspde") == set()


def test_import_cli_loads_no_scipy():
    assert scipy_modules_after("import wallspde.cli") == set()


def test_coarse_simulate_and_invariant_load_no_scipy(tmp_path):
    common = {
        "grid": {"n": 32},
        "coefficients": {"alpha": 2.0, "f": "sinusoidal", "c": 0.5, "sigma": "one"},
        "walls": {"kind": "constant", "k1": -0.5, "k2": 0.5},
    }
    simulate = dict(common, time={"dt": 1e-3, "horizon": 0.05}, noise={"eps": 0.1, "seed": 1})
    invariant = dict(common, sampling={"count": 20, "eps": 0.3, "seeds": [1, 2], "dt": 2e-3})
    (tmp_path / "simulate.json").write_text(json.dumps(simulate))
    (tmp_path / "invariant.json").write_text(json.dumps(invariant))
    code = "\n".join(
        [
            "from wallspde.cli import main",
            "for command in ('simulate', 'invariant'):",
            "    assert main([command, '--config', command + '.json', '--out', command, '--deterministic']) == 0",
        ]
    )
    assert scipy_modules_after(code, tmp_path) == set()
    assert (tmp_path / "simulate" / "manifest.json").exists()
    assert (tmp_path / "invariant" / "summary.json").exists()


def test_fine_grid_propagator_loads_lapack_and_solves():
    code = "\n".join(
        [
            "import numpy as np",
            "from wallspde.lattice import TRIDIAGONAL_MIN_N, Propagator, build_grid",
            "grid = build_grid(TRIDIAGONAL_MIN_N)",
            "y = Propagator(grid, 1.0, 0.01).solve(np.ones(grid.n + 1))",
            "assert np.allclose(y, 1.0 / 1.01, rtol=1e-12)",
        ]
    )
    loaded = scipy_modules_after(code)
    assert "scipy.linalg.lapack" in loaded
    assert "scipy.optimize" not in loaded


def test_quasipotential_loads_the_optimizer_and_solves():
    code = "\n".join(
        [
            "import numpy as np",
            "from wallspde.config import build_coefficients",
            "from wallspde.lattice import Walls, build_grid",
            "from wallspde.rate import OptimizerOptions, quasipotential_J",
            "grid = build_grid(8)",
            "coeffs = build_coefficients({'alpha': 1.0, 'f': 'zero', 'sigma': 'one'})",
            "opts = OptimizerOptions(horizons=(0.5, 1.0), dt=0.05, maxiter=50)",
            "res = quasipotential_J(np.full(9, 0.3), coeffs, Walls.constant(grid, -1.0, 1.0), opts)",
            "assert np.isfinite(res.value) and res.value > 0.0",
        ]
    )
    assert "scipy.optimize" in scipy_modules_after(code)
