"""The public API, pinned: adding or removing a name of ``wallspde.__all__``
changes this list in the same diff, where a review can see it."""

import dataclasses

import wallspde

PUBLIC = [
    "CoefficientSpec",
    "Control",
    "EmpiricalMeasure",
    "Grid",
    "LdpDiagnostics",
    "LocalTime",
    "NoiseRealization",
    "ObstacleSolution",
    "Operator",
    "OptimizerOptions",
    "QuasipotentialResult",
    "RecoveredControl",
    "SamplingPlan",
    "SpaceTimeField",
    "StageRecord",
    "Trajectory",
    "Walls",
    "__version__",
    "backward_euler_inverse",
    "ball_probability",
    "build_grid",
    "check_complementarity",
    "cosine_eigensystem",
    "heat_kernel",
    "holder_norm",
    "infinite_horizon_check",
    "ldp_scaling_curve",
    "local_time_energy",
    "neumann_operator",
    "quasipotential_J",
    "rate_I",
    "rate_S",
    "recover_control",
    "sample_invariant",
    "sample_noise",
    "shift_concat",
    "solve_deterministic",
    "solve_obstacle",
    "solve_skeleton",
    "solve_spde",
    "tightness_probe",
    "wilson_interval",
]


def test_public_names_are_pinned():
    assert sorted(wallspde.__all__) == PUBLIC
    assert len(set(wallspde.__all__)) == len(wallspde.__all__)


def test_every_public_name_resolves():
    for name in wallspde.__all__:
        assert getattr(wallspde, name) is not None, name


def test_operator_holds_no_copy_of_its_stencil():
    # ``apply`` is the stencil's one spelling; ``dense`` is assembled from it.
    assert [field.name for field in dataclasses.fields(wallspde.Operator)] == ["grid", "alpha"]
