"""Offset-free linear MPC with a learned steady-state mismatch map, plus a
nonlinear CSTR truth model and a closed-loop scenario runner."""

__version__ = "0.1.0"

from .model import (
    LinearModel,
    DisturbanceModel,
    EstimatorGains,
    check_augmented_observability,
    check_lemma1_nonsingularity,
    check_offset_free_condition,
)
from .estimator import AugmentedEstimate, DisturbanceEstimator
from .target import TargetCalculator, TargetPair
from .ocp import OcpConfig, build_prediction, condense, solve_qp
from .closed_loop import (
    ControllerMode,
    ScenarioConfig,
    ControlLoop,
    LinearPlant,
    run_scenario,
    sweep_harvest,
    metrics,
)
from .plant import CstrParams, PlantState, OperatingPoint, NonlinearPlant
