"""Differentiable flip-and-landing trajectory optimization.

Couples planar rigid-body flight dynamics with interchangeable aerodynamic
models (an explicit drag model and a trained MLP surrogate) and finds
thrust/gimbal sequences by gradient descent through the full rollout.  One
checkpointed reverse sweep gives the exact gradient under two storage
policies (``bptt`` keeps every step's stages, ``adjoint`` a checkpoint
every 30 steps), cross-checked against a finite-difference oracle.
"""

__version__ = "0.1.0"

from .aero import (
    MlpSurrogate,
    NoAero,
    SimplifiedAero,
    generate_dataset,
    load_weights,
    mlp_forward,
    save_weights,
    standin_coeffs,
    train_surrogate,
)
from .controls import (
    ControlSequence,
    RawControlParams,
    init_raw_params,
    reparameterize,
    smoothness_penalty,
)
from .dynamics import (
    angle_of_attack,
    rhs,
    rk4_step,
)
from .optimizer import (
    AdamState,
    OptimizationResult,
    OptimizerConfig,
    adam_step,
    cosine_lr,
    optimize,
)
# the rollout() entry point lives on the submodule (flipopt.rollout.rollout)
# so that the package attribute keeps naming the module itself
from .rollout import (
    GradientReport,
    LossBreakdown,
    LossWeights,
    Trajectory,
    finite_diff_grad,
    grad_adjoint,
    grad_bptt,
    loss,
    rollout_controls,
)
from .scenario import (
    BoundaryConditions,
    NondimScenario,
    ReferenceQuantities,
    ScenarioConfig,
    ScenarioError,
    VehicleParams,
    load_scenario,
    nondimensionalize,
    redimensionalize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
