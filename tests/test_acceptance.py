"""Acceptance gate: the twelve quantitative exit criteria, one test each.

Every test prints a single ``[acceptance] C<k> <name>: PASS|FAIL`` line
(visible with ``pytest -s``) before asserting, and enforces the stated
runtime budget where one exists.  Expected values come from independent
oracles computed in ``oracles.py`` (scalar reflection recursions, spectral
mode decompositions, least-squares control problems), never from the code
paths under test.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import coeffs_linear, coeffs_sin, coeffs_sin_statesigma, coeffs_zero
from oracles import ou_mode_quasipotential, random_cosine_path, scalar_two_sided_reflection
from wallspde.dynamics import (
    Control,
    local_time_energy,
    solve_deterministic,
    solve_skeleton,
    solve_spde,
)
from wallspde.lattice import SpaceTimeField, Walls, build_grid
from wallspde.measure import SamplingPlan, ldp_scaling_curve, sample_invariant
from wallspde.obstacle import solve_obstacle
from wallspde.rate import (
    OptimizerOptions,
    _ActionProblem,
    infinite_horizon_check,
    quasipotential_J,
    rate_I,
)

pytestmark = pytest.mark.acceptance


def report(idx, name, ok):
    print(f"\n[acceptance] C{idx} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {idx} ({name}) failed"


def test_c01_confinement_and_complementarity():
    start = time.time()
    grid = build_grid(32)
    walls = Walls.constant(grid, -0.25, 0.3)
    coeffs = coeffs_sin(2.0, 0.5)
    dt, T = 1e-3, 2.0
    ok = True
    contact_seen = 0.0
    for eps_idx, eps in enumerate((0.1, 0.3)):
        for seed in range(50):
            traj = solve_spde(
                np.zeros(grid.n + 1), eps, coeffs, walls, T, dt, seed=seed, stream=eps_idx
            )
            confined = (
                traj.u.values.min() >= walls.k1.min() - 1e-9
                and traj.u.values.max() <= walls.k2.max() + 1e-9
            )
            dts = np.diff(traj.u.times)
            lower = abs(
                float(dts @ (((traj.u.values[1:] - walls.k1) * traj.eta.density) @ grid.weights))
            )
            upper = abs(
                float(dts @ (((walls.k2 - traj.u.values[1:]) * traj.xi.density) @ grid.weights))
            )
            mass = traj.eta.total_mass + traj.xi.total_mass
            contact_seen += mass
            ok = ok and confined and max(lower, upper) <= 1e-6 * (1.0 + mass)
    elapsed = time.time() - start
    ok = ok and contact_seen > 0.0 and elapsed <= 120.0
    report(1, "confinement+complementarity (100 runs)", ok)


def test_c02_contraction_of_the_reflection_map():
    start = time.time()
    grid = build_grid(32)
    walls = Walls.constant(grid, -0.5, 0.5)
    dt = 2e-3
    times = np.linspace(0.0, 0.5, 251)
    rng = np.random.default_rng(1234)
    ok = True
    for _ in range(50):
        v_vals = random_cosine_path(grid, times, rng, amp=0.9)
        vh_vals = random_cosine_path(grid, times, rng, amp=0.9)
        v_vals[0] = np.clip(v_vals[0], walls.k1, walls.k2)
        vh_vals[0] = np.clip(vh_vals[0], walls.k1, walls.k2)
        z = solve_obstacle(SpaceTimeField(grid, times, v_vals), walls, 1.0, dt).z
        zh = solve_obstacle(SpaceTimeField(grid, times, vh_vals), walls, 1.0, dt).z
        ok = ok and np.max(np.abs(z.values - zh.values)) <= np.max(np.abs(v_vals - vh_vals)) + 1e-8
    ok = ok and (time.time() - start) <= 60.0
    report(2, "reflection contraction (50 pairs)", ok)


def test_c03_scalar_skorokhod_oracle():
    grid = build_grid(32)
    walls = Walls.constant(grid, -1.0, 1.0)
    times = np.linspace(0.0, 2.0, 2001)
    phi = 0.9 * np.sin(3.0 * times) + 0.8 * np.sin(7.1 * times + 0.4)
    phi[0] = 0.0
    v = SpaceTimeField(grid, times, np.outer(phi, np.ones(grid.n + 1)))
    sol = solve_obstacle(v, walls, 0.0, 1e-3)
    reflected = scalar_two_sided_reflection(phi, -1.0, 1.0)
    err = np.max(np.abs(sol.z.values + v.values - reflected[:, None]))
    report(3, f"scalar reflection oracle (sup err {err:.2e})", err <= 5e-3)


def test_c04_penalization_projection_consistency():
    grid = build_grid(32)
    walls = Walls.constant(grid, -0.3, 0.3)
    coeffs = coeffs_sin(1.0, 0.5)
    rng = np.random.default_rng(14)
    T, dt = 0.5, 1e-3
    ok = True
    for _ in range(10):
        amp = rng.uniform(3.0, 7.0) * rng.choice([-1.0, 1.0])
        # diffusion damps mode k by 1/(alpha + (k pi)^2); only the first two
        # modes are strong enough to actually reach the walls at these sizes
        mode = int(rng.integers(0, 2))
        freq = rng.uniform(1.0, 4.0)
        control = Control.from_function(
            grid,
            T,
            dt,
            lambda x, t, a=amp, m=mode, w=freq: a * np.cos(m * np.pi * x) * np.cos(w * t),
        )
        u0 = np.zeros(grid.n + 1)
        proj = solve_skeleton(u0, control, coeffs, walls, T, dt)
        gap = {}
        for delta in (1e-3, 1e-4):
            pen = solve_skeleton(u0, control, coeffs, walls, T, dt, mode="penalized", delta=delta)
            gap[delta] = np.max(np.abs(pen.u.values - proj.u.values))
        ok = ok and gap[1e-3] > 0.0 and gap[1e-4] <= 0.6 * gap[1e-3]
    report(4, "penalization-projection gap halves (10 instances)", ok)


def test_c05_decay_rate_of_the_zero_control_flow():
    grid = build_grid(32)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_linear(2.0, 1.0)
    u0 = 0.5 + 0.2 * np.cos(np.pi * grid.nodes)
    traj = solve_deterministic(u0, coeffs, walls, 3.0, 1e-3)
    sup = np.max(np.abs(traj.u.values), axis=1)
    t = traj.u.times
    window = (t >= 0.5) & (t <= 3.0)
    slope = float(np.polyfit(t[window], np.log(sup[window]), 1)[0])
    report(5, f"decay log-slope {slope:.4f} in [-1.05, -0.95]", -1.05 <= slope <= -0.95)


def test_c06_rate_round_trip():
    grid = build_grid(32)
    walls = Walls.constant(grid, -1.0, 1.0)
    coeffs = coeffs_sin(2.0, 0.5)
    dt = 1e-3
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(10):
        amp = rng.uniform(0.3, 0.8)
        freq = rng.uniform(1.0, 4.0)
        mode = int(rng.integers(0, 3))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        control = Control.from_function(
            grid,
            1.0,
            dt,
            lambda x, t, a=amp, w=freq, m=mode, p=phase: a
            * np.sin(w * t + p)
            * np.cos(m * np.pi * x),
        )
        traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 1.0, dt)
        no_contact = traj.eta.total_mass == 0.0 and traj.xi.total_mass == 0.0
        val = rate_I(traj.u, 0.0, 1.0, coeffs, walls)
        ok = ok and no_contact and abs(val - control.action) / control.action <= 2e-2
    report(6, "rate functional round trip (10 controls)", ok)


def test_c07_adjoint_gradient_check():
    grid = build_grid(16)
    walls = Walls.constant(grid, -10.0, 10.0)
    coeffs = coeffs_sin_statesigma(1.0, 0.5, amp=0.3)
    problem = _ActionProblem(coeffs, walls, 0.02, 20, 0.3 * np.ones(grid.n + 1))
    problem.w_pen = 1e3
    rng = np.random.default_rng(17)
    z = 0.5 * rng.normal(size=20 * (grid.n + 1))
    _, grad = problem.value_and_grad(z)
    ok = True
    for _ in range(5):
        d = rng.normal(size=z.size)
        d /= np.linalg.norm(d)
        h = 1e-6
        fd = (problem.value_and_grad(z + h * d)[0] - problem.value_and_grad(z - h * d)[0]) / (
            2.0 * h
        )
        ok = ok and abs(fd - float(grad @ d)) / max(abs(fd), 1e-12) <= 1e-4
    report(7, "adjoint gradient vs finite differences", ok)


def test_c08_quasipotential_spectral_oracle():
    start = time.time()
    grid = build_grid(32)
    walls = Walls.constant(grid, -10.0, 10.0)
    alpha = 1.0
    coeffs = coeffs_zero(alpha)
    target = np.full(grid.n + 1, 0.3)
    opts = OptimizerOptions(horizons=(1.0, 2.0, 4.0, 8.0), dt=0.02, maxiter=500)
    res = quasipotential_J(target, coeffs, walls, opts)
    oracle = ou_mode_quasipotential(grid, alpha, target)
    back = infinite_horizon_check(target, coeffs, walls, opts)
    elapsed = time.time() - start
    ok = (
        res.converged
        and abs(oracle - alpha * 0.09) <= 1e-12
        and abs(res.value - oracle) / oracle <= 0.05
        and abs(back - res.value) / res.value <= 0.05
        and elapsed <= 300.0
    )
    report(8, f"quasipotential oracle (J={res.value:.4f}, backward={back:.4f})", ok)


def test_c09_local_time_energy_sweep():
    grid = build_grid(32)
    alpha = 1.0
    walls = Walls.constant(grid, -0.1, 0.1)
    coeffs = coeffs_zero(alpha)
    beta, dt = 0.05, 1e-3
    ok = True
    for norm_sq in (1.0, 4.0, 16.0):
        amp = math.sqrt(2.0 * beta * norm_sq)
        control = Control.from_function(
            grid, 4.0, dt, lambda x, t, a=amp: a * math.exp(-beta * t) * np.ones_like(x)
        )
        traj = solve_skeleton(np.zeros(grid.n + 1), control, coeffs, walls, 4.0, dt)
        energies = [local_time_energy(traj.xi, alpha, T) for T in (1.0, 2.0, 4.0)]
        ok = ok and min(energies) > 0.0 and max(energies) / min(energies) <= 2.0
    report(9, "discounted force energy stable in the horizon", ok)


def test_c10_stationary_variance_oracle():
    start = time.time()
    grid = build_grid(32)
    alpha, eps = 2.0, 0.3
    coeffs = coeffs_zero(alpha)
    walls = Walls.constant(grid, -10.0, 10.0)
    plan = SamplingPlan.default(coeffs, 600)
    measure = sample_invariant(coeffs, walls, eps, plan, seeds=range(8), dt=1e-3)
    var = float(np.var(measure.samples @ grid.weights))
    rel = abs(var / (eps**2 / (2.0 * alpha)) - 1.0)
    elapsed = time.time() - start
    ok = measure.count >= 500 and rel <= 0.15 and elapsed <= 300.0
    report(10, f"stationary variance oracle (rel err {rel:.3f})", ok)


@pytest.mark.slow
def test_c11_ldp_bracket_and_trend():
    start = time.time()
    grid = build_grid(32)
    alpha = 10.0
    coeffs = coeffs_zero(alpha)
    walls = Walls.constant(grid, -0.02, 0.42)
    opts = OptimizerOptions(horizons=(0.5, 1.0), dt=0.005, maxiter=400)
    j_values = [
        quasipotential_J(np.full(grid.n + 1, c), coeffs, walls, opts).value
        for c in (0.2, 0.3, 0.4)
    ]
    catalog = {0: (min(j_values), j_values[1], max(j_values))}
    plans = [
        SamplingPlan(burn_in=1.0, thin=0.1, count=c) for c in (50_000, 150_000, 400_000)
    ]
    diag = ldp_scaling_curve(
        [(np.full(grid.n + 1, 0.3), 0.1)],
        (0.5, 0.35, 0.25),
        plans,
        coeffs,
        walls,
        catalog=catalog,
        base_seed=200,
        dt=1e-3,
        chains=16,
    )
    resolved = [row for row in diag.rows if row["resolved"]]
    elapsed = time.time() - start
    ok = (
        len(resolved) >= 2
        and all(row["contained"] for row in resolved)
        and diag.trend_ok
        and elapsed <= 900.0
    )
    table = ", ".join(f"eps={r['eps']}: {r['eps2_log_p']:.3f}" for r in resolved)
    report(11, f"ldp bracket+trend ({table})", ok)


def test_c12_cli_determinism(tmp_path):
    cfg = {
        "grid": {"n": 32},
        "time": {"dt": 1e-3, "horizon": 0.5},
        "coefficients": {"alpha": 2.0, "f": "sinusoidal", "c": 0.5, "sigma": "one"},
        "walls": {"kind": "constant", "k1": -0.25, "k2": 0.3},
        "noise": {"eps": 0.3, "seed": 11, "stream": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "wallspde.cli",
                "simulate",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--deterministic",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    report(12, "CLI determinism (byte-identical reruns)", payloads[0] == payloads[1])
