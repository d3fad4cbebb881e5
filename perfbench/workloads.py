"""The four benchmark workloads, built from public wallspde functions.

A workload runs in passes.  Each pass is a list of operations whose inputs
are drawn from ``SeedSequence([seed, pass_index])``, so the same seed gives
the same inputs and no pass repeats another's problem (a per-process cache
keyed on the problem would not see repeats a CLI user never makes).  Each
operation has three stages that the runner times separately:

* ``prep``  - input generation, ``validate_config`` and the ``build_*`` calls
  (reported as set-up time);
* ``work``  - the solver calls and artifact I/O, in the order the matching
  ``cli`` handler makes them (reported as ``wall_s``);
* ``check`` - correctness checks against ``tests/oracles.py`` and exact
  invariants (not timed).

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import wallspde
from wallspde import config, dynamics, lattice, measure, obstacle, rate, snapshots

from oracles import ou_mode_quasipotential, scalar_two_sided_reflection


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)


class Op:
    """One operation of a pass; subclasses fill in prep/work/check."""

    name = "op"
    command: str | None = None

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.out: Path | None = None
        self.node_steps = 0  # (n+1) * batch * steps over the stepping calls
        self.direct_steps = 0  # time steps of solve_spde / solve_skeleton calls
        self.samples = 0  # kept invariant-measure states
        self.layer: dict[str, float] = {}  # per-layer values this op measured

    def prep(self, tr) -> None:
        raise NotImplementedError

    def work(self, tr) -> None:
        raise NotImplementedError

    def check(self, chk, op_id: str) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)

    # -- shared pieces -------------------------------------------------------

    def _load_and_build(self, tr, cfg: dict) -> None:
        """What ``cli._dispatch`` and ``cli._setup`` do before a handler runs."""
        self.out = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))
        cfg_path = self.out / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        loaded = tr.call("config.load_config", config.load_config, cfg_path)
        self.cfg = tr.call("config.validate_config", config.validate_config, loaded, self.command)
        self.grid = tr.call("lattice.build_grid", lattice.build_grid, self.cfg["grid"]["n"])
        self.coeffs = tr.shim(
            tr.call("config.build_coefficients", config.build_coefficients, self.cfg["coefficients"])
        )
        self.walls = tr.call("config.build_walls", config.build_walls, self.cfg["walls"], self.grid)

    def _write_manifest(self, tr, outputs: list[str]) -> None:
        """The deterministic manifest ``cli._write_manifest`` writes."""
        self.manifest = {
            "command": self.command,
            "config": self.cfg,
            "config_hash": tr.call("config.config_hash", config.config_hash, self.cfg),
            "outputs": sorted(outputs),
            "version": wallspde.__version__,
        }
        tr.call("snapshots.write_json_record", snapshots.write_json_record, self.manifest, self.out / "manifest.json")

    def _write_record(self, tr, record: dict, name: str) -> None:
        tr.call("snapshots.write_json_record", snapshots.write_json_record, record, self.out / name)

    def _read_back(self, tr, names: list[str]) -> None:
        """Read every artifact back; binary snapshots through the library."""
        self.read = {}
        for name in names:
            path = self.out / name
            if name.endswith(".bin"):
                self.read[name] = tr.call("snapshots.read_field_snapshot", snapshots.read_field_snapshot, path)
            elif name.endswith(".json"):
                self.read[name] = tr.call("bench.read_json", lambda p=path: json.loads(p.read_text()))
            else:
                self.read[name] = tr.call("bench.read_text", path.read_text)
        self.layer["snapshots.bytes"] = float(
            sum(p.stat().st_size for p in self.out.iterdir() if p.name != "config.json")
        )

    def _check_json(self, chk, op_id, name: str, record: dict) -> None:
        expected = json.loads(json.dumps(record, sort_keys=True))
        chk.check(op_id, f"{self.name}.{name}_roundtrip", self.read[name] == expected)

    def _check_bin(self, chk, op_id, name: str, field) -> None:
        back = self.read[name]
        ok = (
            back.grid.n == field.grid.n
            and np.array_equal(back.values, field.values)
            and np.allclose(back.times, field.times, rtol=0.0, atol=1e-9)
        )
        chk.check(op_id, f"{self.name}.bin_roundtrip_exact", ok)


# ------------------------------------------------------- cli_batch, scale_n

CLI_N, CLI_DT, CLI_STEPS = 32, 1e-3, 2000  # the README example: n=32, T=2
SCALE_N = 2048
SCALE_STEPS = 512  # dt = dx, so the horizon is SCALE_STEPS / SCALE_N = 0.25


def _path_config(rng, n: int, dt: float, steps: int, f_kind: str, sigma_kind: str) -> dict:
    coeffs = {"alpha": float(rng.uniform(1.5, 2.5)), "f": f_kind, "sigma": sigma_kind}
    if f_kind != "zero":
        coeffs["c"] = float(rng.uniform(0.3, 0.7))
    if sigma_kind == "state_modulated":
        coeffs["sigma_amplitude"] = float(rng.uniform(0.2, 0.35))
    return {
        "grid": {"n": n},
        "time": {"dt": dt, "horizon": steps * dt},
        "coefficients": coeffs,
        "walls": {"kind": "constant", "k1": float(rng.uniform(-0.3, -0.2)), "k2": float(rng.uniform(0.25, 0.35))},
    }


class PathOp(Op):
    """A command that integrates one path: artifact and rate helpers."""

    def prep(self, tr) -> None:
        self._load_and_build(tr, self.spec)
        self.u0 = tr.call("config.build_initial", config.build_initial, self.cfg, self.grid)
        self.dt = self.cfg["time"]["dt"]
        self.T = self.cfg["time"]["horizon"]
        self.steps = round(self.T / self.dt)

    def _count_steps(self) -> None:
        self.direct_steps = self.steps
        self.node_steps = (self.grid.n + 1) * self.steps

    def _write_trajectory(self, tr, extra: dict) -> None:
        """The artifacts of the simulate/skeleton handlers, then read them all back."""
        traj = self.traj
        tr.call("snapshots.write_trajectory_csv", snapshots.write_trajectory_csv, traj, self.out / "trajectory.csv")
        tr.call("snapshots.write_field_snapshot", snapshots.write_field_snapshot, traj.u, self.out / "trajectory.bin")
        self.summary = {
            **extra,
            "eta_mass": traj.eta.total_mass,
            "xi_mass": traj.xi.total_mass,
            "u_hash": tr.call("snapshots.field_hash", snapshots.field_hash, traj.u.values),
        }
        self._write_record(tr, self.summary, "summary.json")
        outputs = ["trajectory.csv", "trajectory.bin", "summary.json"]
        self._write_manifest(tr, outputs)
        self._read_back(tr, outputs + ["manifest.json"])

    def _check_traj(self, chk, op_id) -> None:
        traj = self.traj
        u = traj.u.values
        chk.check(op_id, f"{self.name}.finite", _finite(u, traj.eta.density, traj.xi.density))
        chk.check(op_id, f"{self.name}.confined", self.walls.contains(u, tol=1e-9))
        zero = lattice.SpaceTimeField(self.grid, traj.u.times, np.zeros_like(u))
        sol = obstacle.ObstacleSolution(z=traj.u, eta=traj.eta, xi=traj.xi)
        lower, upper = obstacle.check_complementarity(sol, zero, self.walls)
        mass = traj.eta.total_mass + traj.xi.total_mass
        chk.check(
            op_id,
            f"{self.name}.complementarity",
            max(lower, upper) <= 1e-6 * (1.0 + mass),
            f"lower={lower:.3e} upper={upper:.3e}",
        )

    def _check_trajectory_artifacts(self, chk, op_id) -> None:
        traj = self.traj
        self._check_traj(chk, op_id)
        lines = self.read["trajectory.csv"].splitlines()
        m1, n1 = traj.u.values.shape
        last = [float(v) for v in lines[-1].split(",")]
        expected = [
            traj.u.times[-1],
            self.grid.nodes[-1],
            traj.u.values[-1, -1],
            traj.eta.density[-1, -1],
            traj.xi.density[-1, -1],
        ]
        ok = len(lines) == m1 * n1 + 1 and lines[0] == "t,x,u,eta_dot,xi_dot" and last == expected
        chk.check(op_id, f"{self.name}.csv_layout", ok)
        self._check_bin(chk, op_id, "trajectory.bin", traj.u)
        self._check_json(chk, op_id, "summary.json", self.summary)
        self._check_json(chk, op_id, "manifest.json", self.manifest)

    def _rates(self, tr) -> None:
        u = self.traj.u
        self.rate_i = tr.call("rate.rate_I", rate.rate_I, u, 0.0, self.T, self.coeffs, self.walls)
        self.rate_s = tr.call("rate.rate_S", rate.rate_S, u, 0.0, self.T, self.coeffs)

    def _check_rates(self, chk, op_id) -> None:
        # The reflected rate splits part of the residual off as wall force,
        # so it never exceeds the unreflected one.
        ok = _finite(self.rate_i, self.rate_s) and self.rate_i <= self.rate_s * (1.0 + 1e-9) + 1e-12
        chk.check(op_id, f"{self.name}.rate_I_finite_and_below_S", ok, f"I={self.rate_i!r} S={self.rate_s!r}")


class SimulateOp(PathOp):
    """``wallspde simulate``: noise, stochastic path, CSV + binary + JSON."""

    name = "simulate"
    command = "simulate"

    def __init__(self, rng, workdir, sigma_kind: str, n=CLI_N, dt=CLI_DT, steps=CLI_STEPS) -> None:
        super().__init__(workdir)
        self.spec = _path_config(rng, n, dt, steps, "sinusoidal", sigma_kind)
        self.spec["noise"] = {
            "eps": float(rng.uniform(0.2, 0.4)),
            "seed": int(rng.integers(0, 2**31)),
            "stream": int(rng.integers(0, 8)),
        }

    def _solve(self, tr) -> None:
        nsec = self.cfg["noise"]
        # The handler lets solve_spde draw this same noise; drawing it here
        # separates the noise time from the stepping time.
        noise = tr.call(
            "dynamics.sample_noise", dynamics.sample_noise, self.grid, self.dt, self.steps, nsec["seed"], nsec["stream"]
        )
        self.traj = tr.call(
            "dynamics.solve_spde",
            dynamics.solve_spde,
            self.u0,
            nsec["eps"],
            self.coeffs,
            self.walls,
            self.T,
            self.dt,
            seed=nsec["seed"],
            stream=nsec["stream"],
            noise=noise,
        )
        self._count_steps()

    def work(self, tr) -> None:
        self._solve(tr)
        self._write_trajectory(tr, {"sup_norm": self.traj.u.sup_norm()})

    def check(self, chk, op_id) -> None:
        self._check_trajectory_artifacts(chk, op_id)


class ScaleSimulateOp(SimulateOp):
    """One stochastic path at n=2048, both rates on it, binary round trip."""

    name = "scale_simulate"

    def __init__(self, rng, workdir) -> None:
        super().__init__(rng, workdir, "one", SCALE_N, 1.0 / SCALE_N, SCALE_STEPS)

    def work(self, tr) -> None:
        self._solve(tr)
        self._rates(tr)
        tr.call("snapshots.write_field_snapshot", snapshots.write_field_snapshot, self.traj.u, self.out / "trajectory.bin")
        self._read_back(tr, ["trajectory.bin"])

    def check(self, chk, op_id) -> None:
        self._check_traj(chk, op_id)
        self._check_rates(chk, op_id)
        self._check_bin(chk, op_id, "trajectory.bin", self.traj.u)


class SkeletonOp(PathOp):
    """``wallspde skeleton``: controlled path, CSV + binary + JSON."""

    name = "skeleton"
    command = "skeleton"

    def __init__(self, rng, workdir) -> None:
        super().__init__(workdir)
        self.spec = _path_config(rng, CLI_N, CLI_DT, CLI_STEPS, "linear", "state_modulated")
        self.spec["control"] = {
            "kind": "cosine_pulse",
            "amplitude": float(rng.uniform(2.0, 4.0) * rng.choice([-1.0, 1.0])),
            "mode": int(rng.integers(0, 2)),
            "t_end": float(rng.uniform(0.5, 1.5)),
        }

    def prep(self, tr) -> None:
        super().prep(tr)
        self.control = tr.call("config.build_control", config.build_control, self.cfg, self.grid, self.T, self.dt)

    def _solve(self, tr) -> None:
        pen = self.cfg.get("penalty", {})
        self.traj = tr.call(
            "dynamics.solve_skeleton",
            dynamics.solve_skeleton,
            self.u0,
            self.control,
            self.coeffs,
            self.walls,
            self.T,
            self.dt,
            mode=pen.get("mode", "projected"),
            delta=pen.get("delta", 1e-4),
            eps_pen=pen.get("eps_pen"),
        )
        self._count_steps()
        self.action = self.control.action if self.control is not None else 0.0

    def work(self, tr) -> None:
        self._solve(tr)
        self._write_trajectory(tr, {"control_action": self.action})

    def check(self, chk, op_id) -> None:
        self._check_trajectory_artifacts(chk, op_id)


class RateOp(SkeletonOp):
    """``wallspde rate``: controlled path, then both rate functionals."""

    name = "rate"
    command = "rate"

    def __init__(self, rng, workdir) -> None:
        PathOp.__init__(self, workdir)
        self.spec = _path_config(rng, CLI_N, CLI_DT, CLI_STEPS, "sinusoidal", "one")
        self.spec["control"] = {
            "kind": "uniform_decay",
            "amplitude": float(rng.uniform(1.0, 3.0) * rng.choice([-1.0, 1.0])),
            "beta": float(rng.uniform(0.5, 1.5)),
        }

    def work(self, tr) -> None:
        self._solve(tr)
        self._rates(tr)
        self.record = {
            "rate_I": self.rate_i if math.isfinite(self.rate_i) else "inf",
            "rate_S": self.rate_s,
            "control_action": self.action,
            "window": [0.0, self.T],
        }
        self._write_record(tr, self.record, "rates.json")
        self._write_manifest(tr, ["rates.json"])
        self._read_back(tr, ["rates.json", "manifest.json"])

    def check(self, chk, op_id) -> None:
        self._check_traj(chk, op_id)
        self._check_rates(chk, op_id)
        self._check_json(chk, op_id, "rates.json", self.record)
        self._check_json(chk, op_id, "manifest.json", self.manifest)


class ScaleObstacleOp(Op):
    """Obstacle problem at n=2048 for a spatially constant forcing path.

    With alpha = 0 and a spatially constant forcing the lattice obstacle
    problem is exactly the scalar two-sided Skorokhod map, so the solution is
    checked against ``oracles.scalar_two_sided_reflection`` at every node.
    """

    name = "scale_obstacle"

    def __init__(self, rng, workdir) -> None:
        super().__init__(workdir)
        self.amps = rng.uniform(0.6, 0.9, size=2)
        self.freqs = rng.uniform(6.0, 14.0, size=2)
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
        self.lo = float(rng.uniform(-0.8, -0.6))
        self.hi = float(rng.uniform(0.6, 0.8))

    def prep(self, tr) -> None:
        self.dt = 1.0 / SCALE_N
        self.grid = tr.call("lattice.build_grid", lattice.build_grid, SCALE_N)
        self.walls = tr.call("lattice.Walls.constant", lattice.Walls.constant, self.grid, self.lo, self.hi)
        times = self.dt * np.arange(SCALE_STEPS + 1)
        phi = sum(a * np.sin(w * 2.0 * np.pi * times + p) for a, w, p in zip(self.amps, self.freqs, self.phases))
        self.phi = phi - phi[0]
        self.v = lattice.SpaceTimeField(self.grid, times, np.outer(self.phi, np.ones(SCALE_N + 1)))

    def work(self, tr) -> None:
        self.sol = tr.call("obstacle.solve_obstacle", obstacle.solve_obstacle, self.v, self.walls, 0.0, self.dt)
        self.node_steps = (SCALE_N + 1) * SCALE_STEPS

    def check(self, chk, op_id) -> None:
        sol = self.sol
        u = sol.z.values + self.v.values
        chk.check(op_id, "scale_obstacle.finite", _finite(u, sol.eta.density, sol.xi.density))
        chk.check(op_id, "scale_obstacle.confined", self.walls.contains(u, tol=1e-9))
        lower, upper = obstacle.check_complementarity(sol, self.v, self.walls)
        mass = sol.eta.total_mass + sol.xi.total_mass
        chk.check(
            op_id,
            "scale_obstacle.complementarity",
            max(lower, upper) <= 1e-6 * (1.0 + mass),
            f"lower={lower:.3e} upper={upper:.3e}",
        )
        reflected = scalar_two_sided_reflection(self.phi, self.lo, self.hi)
        err = float(np.max(np.abs(u - reflected[:, None])))
        chk.check(op_id, "scale_obstacle.scalar_reflection_oracle", err <= 5e-3, f"sup err {err:.3e}")
        contact = (sol.eta.density > 0.0) | (sol.xi.density > 0.0)
        self.layer["obstacle.contact_frac"] = float(np.mean(contact))


# ------------------------------------------------------------ quasipotential

C08_CONFIG = {
    "grid": {"n": 32},
    "coefficients": {"alpha": 1.0, "f": "zero", "sigma": "one"},
    "walls": {"kind": "constant", "k1": -10.0, "k2": 10.0},
    "target": {"kind": "constant", "value": 0.3},
    "optimizer": {"horizons": [1.0, 2.0, 4.0, 8.0], "dt": 0.02, "maxiter": 500},
}


class QuasipotentialOp(Op):
    """``wallspde quasipotential``: adjoint L-BFGS, JSON record + path.bin."""

    name = "qp_cosine"
    command = "quasipotential"

    def __init__(self, rng, workdir, spec: dict | None = None) -> None:
        super().__init__(workdir)
        if spec is not None:
            self.name = "qp_c08"
            self.spec = spec
            return
        # The walls pass through the target at x = 0 and x = 1, so the optimal
        # path ends in contact and the optimizer's penalty branch is active.
        amp = float(rng.uniform(0.15, 0.25))
        self.spec = {
            "grid": {"n": 32},
            "coefficients": {
                "alpha": float(rng.uniform(1.5, 2.5)),
                "f": "sinusoidal",
                "c": float(rng.uniform(0.3, 0.7)),
                "sigma": "state_modulated",
                "sigma_amplitude": float(rng.uniform(0.2, 0.35)),
            },
            "walls": {"kind": "constant", "k1": -amp, "k2": amp},
            "target": {"kind": "cosine", "amplitude": amp, "mode": 1},
            "optimizer": {"horizons": [1.0, 2.0], "dt": 0.02, "maxiter": 60},
        }

    def prep(self, tr) -> None:
        self._load_and_build(tr, self.spec)
        self.target = tr.call("config.build_target", config.build_target, self.cfg, self.grid)
        self.opts = tr.call("config.build_optimizer_options", config.build_optimizer_options, self.cfg)

    def work(self, tr) -> None:
        res = self.result = tr.call(
            "rate.quasipotential_J", rate.quasipotential_J, self.target, self.coeffs, self.walls, self.opts
        )
        self.record = {
            "target_hash": tr.call("snapshots.field_hash", snapshots.field_hash, self.target),
            "value": res.value,
            "horizon": res.horizon,
            "action": res.control.action,
            "gradient_norm": res.gradient_norm,
            "terminal_gap": res.terminal_gap,
            "converged": res.converged,
        }
        self._write_record(tr, self.record, "quasipotential.json")
        tr.call("snapshots.write_field_snapshot", snapshots.write_field_snapshot, res.path, self.out / "path.bin")
        outputs = ["quasipotential.json", "path.bin"]
        self._write_manifest(tr, outputs)
        self._read_back(tr, outputs + ["manifest.json"])

    def check(self, chk, op_id) -> None:
        res = self.result
        p = self.name
        chk.check(op_id, f"{p}.finite", _finite(res.value, res.path.values, res.control.values))
        chk.check(op_id, f"{p}.converged", res.converged, f"terminal gap {res.terminal_gap:.3e}")
        chk.check(op_id, f"{p}.path_confined", self.walls.contains(res.path.values, tol=1e-9))
        again = rate.rate_I(res.path, 0.0, res.horizon, self.coeffs, self.walls)
        chk.check(
            op_id,
            f"{p}.value_equals_rate_I_of_path",
            abs(again - res.value) <= 1e-9 * max(abs(res.value), 1e-12),
            f"value={res.value!r} rate_I={again!r}",
        )
        self._check_bin(chk, op_id, "path.bin", res.path)
        self._check_json(chk, op_id, "quasipotential.json", self.record)
        if self.name == "qp_c08":
            oracle = ou_mode_quasipotential(self.grid, self.coeffs.alpha, self.target)
            rel = abs(res.value - oracle) / oracle
            chk.check(op_id, "qp_c08.spectral_oracle_within_5pct", rel <= 0.05, f"rel err {rel:.4f}")
            self.layer.update(
                {"qp_rel_err": rel, "rate.qp_horizon": res.horizon, "rate.qp_terminal_gap": res.terminal_gap}
            )


# ------------------------------------------------------------- ldp_sampling

LDP_ALPHA = 10.0
LDP_EPS = (0.5, 0.35, 0.25)
LDP_COUNTS = (400, 1200, 3200)  # the C11 counts 50k/150k/400k scaled by 1/125
LDP_CHAINS = 16
LDP_PLAN = {"burn_in": 1.0, "thin": 0.1}
WIDE_CHAINS = 256
WIDE_COUNT = 1024
WIDE_ALPHA, WIDE_EPS = 2.0, 0.3


def _chain_steps(plan: measure.SamplingPlan, chains: int, dt: float) -> int:
    """Steps sample_invariant takes for a plan: burn-in plus thinned rounds."""
    rounds = -(-plan.count // chains)
    return chains * (round(plan.burn_in / dt) + rounds * max(1, round(plan.thin / dt)))


class LdpCurveOp(Op):
    """``ldp_scaling_curve`` on the C11 shape with a supplied rate catalog.

    The catalog comes from the spectral oracle for the unreflected problem,
    so no quasipotential solve runs in this workload.
    """

    name = "ldp_curve"
    command = "diagnose"

    def __init__(self, rng, workdir) -> None:
        super().__init__(workdir)
        self.base_seed = int(rng.integers(0, 2**30))
        self.spec = {
            "grid": {"n": 32},
            "coefficients": {"alpha": LDP_ALPHA, "f": "zero", "sigma": "one"},
            "walls": {"kind": "constant", "k1": -0.02, "k2": 0.42},
            "diagnose": {
                "targets": [{"kind": "constant", "value": 0.3, "delta": 0.1}],
                "eps_schedule": list(LDP_EPS),
                "counts": list(LDP_COUNTS),
                "chains": LDP_CHAINS,
                "base_seed": self.base_seed,
                "dt": 1e-3,
            },
        }

    def prep(self, tr) -> None:
        self._load_and_build(tr, self.spec)
        ones = np.ones(self.grid.n + 1)
        self.targets = [(0.3 * ones, 0.1)]
        j = [ou_mode_quasipotential(self.grid, LDP_ALPHA, c * ones) for c in (0.2, 0.3, 0.4)]
        self.catalog = {0: (min(j), j[1], max(j))}
        self.plans = [measure.SamplingPlan(count=c, **LDP_PLAN) for c in LDP_COUNTS]

    def work(self, tr) -> None:
        self.diag = tr.call(
            "measure.ldp_scaling_curve",
            measure.ldp_scaling_curve,
            self.targets,
            LDP_EPS,
            self.plans,
            self.coeffs,
            self.walls,
            catalog=self.catalog,
            base_seed=self.base_seed,
            dt=1e-3,
            chains=LDP_CHAINS,
        )
        chain_steps = sum(_chain_steps(plan, LDP_CHAINS, 1e-3) for plan in self.plans)
        self.node_steps = (self.grid.n + 1) * chain_steps
        self.samples = sum(LDP_COUNTS)
        self.layer["narrow_chain_steps"] = float(chain_steps)

    def check(self, chk, op_id) -> None:
        rows = self.diag.rows
        chk.check(op_id, "ldp_curve.row_count", len(rows) == len(LDP_EPS) * len(self.targets))
        # Wilson bounds of a zero count come out at round-off above zero.
        ok = all(
            _finite(r["p_hat"], r["wilson_lo"], r["wilson_hi"])
            and 0.0 <= r["wilson_lo"] <= r["p_hat"] + 1e-12
            and r["p_hat"] <= r["wilson_hi"] <= 1.0
            for r in rows
        )
        chk.check(op_id, "ldp_curve.wilson_brackets_p_hat", ok)
        chk.check(op_id, "ldp_curve.catalog_used", self.diag.j_values == self.catalog)
        self.layer["measure.resolved_rows"] = float(len(self.diag.resolved_rows()))


class WideSampleOp(Op):
    """``wallspde invariant`` with 256 chains on the C10 variance oracle."""

    name = "wide_sample"
    command = "invariant"

    def __init__(self, rng, workdir) -> None:
        super().__init__(workdir)
        base = int(rng.integers(0, 2**30))
        relax = 1.0 / WIDE_ALPHA
        self.spec = {
            "grid": {"n": 32},
            "coefficients": {"alpha": WIDE_ALPHA, "f": "zero", "sigma": "one"},
            "walls": {"kind": "constant", "k1": -10.0, "k2": 10.0},
            "sampling": {
                "count": WIDE_COUNT,
                "burn_in": 5.0 * relax,
                "thin": relax,
                "eps": WIDE_EPS,
                "dt": 1e-3,
                "seeds": list(range(base, base + WIDE_CHAINS)),
            },
        }

    def prep(self, tr) -> None:
        self._load_and_build(tr, self.spec)
        self.plan, self.seeds, self.eps, self.dt = tr.call(
            "config.build_plan", config.build_plan, self.cfg, self.coeffs
        )

    def work(self, tr) -> None:
        self.measure = tr.call(
            "measure.sample_invariant",
            measure.sample_invariant,
            self.coeffs,
            self.walls,
            self.eps,
            self.plan,
            self.seeds,
            dt=self.dt,
        )
        chain_steps = _chain_steps(self.plan, WIDE_CHAINS, self.dt)
        self.node_steps = (self.grid.n + 1) * chain_steps
        self.samples = self.measure.count
        self.layer["wide_chain_steps"] = float(chain_steps)

    def check(self, chk, op_id) -> None:
        s = self.measure.samples
        chk.check(op_id, "wide_sample.count", self.measure.count == WIDE_COUNT)
        chk.check(op_id, "wide_sample.finite", _finite(s))
        chk.check(op_id, "wide_sample.confined", self.walls.contains(s, tol=1e-9))
        self.means = s @ self.grid.weights


# ----------------------------------------------------------------- workloads


class Workload:
    """Pass factory plus the lattice-probe size, the host-speed reference
    parts (see ``reference.py``) and run-level checks."""

    reference_parts: tuple[str, ...] = ()
    reference_blocks = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, k]))

    def ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def lattice_probe(self, tr) -> tuple[float, float]:
        """Build the implicit-step propagator and time one matvec at this
        workload's (n, alpha, dt); the runner calls it outside pass timing."""
        n, alpha, dt = self.probe
        grid = lattice.build_grid(n)
        tr.active, tr.op = True, "probe"
        t0 = time.perf_counter()
        with tr.span("lattice.backward_euler_inverse"):
            prop = lattice.backward_euler_inverse(grid, alpha, dt)
        build_s = time.perf_counter() - t0
        tr.active = False
        x = np.cos(np.pi * grid.nodes)
        inner = 200 if n <= 128 else 2  # blocks long enough for the clock
        blocks = []
        for _ in range(25):
            t0 = time.perf_counter()
            for _ in range(inner):
                prop @ x
            blocks.append((time.perf_counter() - t0) / inner)
        return build_s, 1e6 * float(np.median(blocks))

    def collect(self, op: Op) -> None:
        """Keep what ``finish`` needs from a checked operation."""

    def finish(self, chk) -> dict[str, float]:
        """Checks that need every pass of the run; returns per-layer values."""
        return {}


class CliBatch(Workload):
    probe = (CLI_N, 2.0, CLI_DT)
    reference_parts = ("small", "python")

    def ops(self, k):
        rng = self.rng(k)
        return [
            SimulateOp(rng, self.workdir, "one"),
            SimulateOp(rng, self.workdir, "cosine_profile"),
            SkeletonOp(rng, self.workdir),
            RateOp(rng, self.workdir),
        ]


class ScaleN(Workload):
    probe = (SCALE_N, 2.0, 1.0 / SCALE_N)
    reference_parts = ("python", "dense")
    reference_blocks = 4

    def ops(self, k):
        rng = self.rng(k)
        return [ScaleSimulateOp(rng, self.workdir), ScaleObstacleOp(rng, self.workdir)]


class Quasipotential(Workload):
    probe = (32, 1.0, 0.02)
    reference_parts = ("small", "python")
    reference_blocks = 3
    cosine_targets = 4

    def ops(self, k):
        rng = self.rng(k)
        ops = [QuasipotentialOp(rng, self.workdir, spec=C08_CONFIG)]
        return ops + [QuasipotentialOp(rng, self.workdir) for _ in range(self.cosine_targets)]


class LdpSampling(Workload):
    probe = (32, LDP_ALPHA, 1e-3)
    reference_parts = ("small", "python")
    reference_blocks = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.means: list[np.ndarray] = []

    def ops(self, k):
        rng = self.rng(k)
        return [LdpCurveOp(rng, self.workdir), WideSampleOp(rng, self.workdir)]

    def collect(self, op):
        if isinstance(op, WideSampleOp) and hasattr(op, "means"):
            self.means.append(op.means)

    def finish(self, chk):
        """Variance of the spatial mean against eps^2/(2 alpha), pooled over
        every 256-chain stage of the run so the 15% bound sits several
        standard errors away from the estimate."""
        means = self.means
        if not means:
            return {}
        op_id = "run.wide_sample_variance"
        chk.begin(op_id)
        var = float(np.var(np.concatenate(means)))
        rel = abs(var / (WIDE_EPS**2 / (2.0 * WIDE_ALPHA)) - 1.0)
        chk.check(op_id, "wide_sample.variance_within_15pct", rel <= 0.15, f"rel err {rel:.4f} over {len(means)} stages")
        return {"measure.variance_rel_err": rel}


WORKLOADS = {
    "cli_batch": CliBatch,
    "scale_n": ScaleN,
    "quasipotential": Quasipotential,
    "ldp_sampling": LdpSampling,
}
