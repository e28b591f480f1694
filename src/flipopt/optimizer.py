"""Adam optimizer with cosine-annealed learning rate for the control search.

One optimization step rolls the dynamics out, pulls the loss gradient back
to the raw control parameters through the configured engine, and applies a
bias-corrected Adam update.  The loop runs a fixed budget of steps and
returns the best-loss iterate seen (annealed runs often end slightly off
their best point).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import rollout as ro
from .controls import RawControlParams, SATURATION_LIMIT, init_raw_params, max_saturation
from .dynamics import AeroModel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam and schedule settings for the outer optimization loop."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    n_steps: int = 5000
    grad_engine: str = "bptt"      # "bptt" | "adjoint"
    log_every: int = 250
    grad_clip: float | None = None  # optional inf-norm clip for long horizons


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), t=0)


class NumericalAbort(RuntimeError):
    """Raised when the loop hits a non-finite loss or gradient."""

    def __init__(self, msg: str, snapshot: dict):
        super().__init__(msg)
        self.snapshot = snapshot


@dataclass
class OptimizationResult:
    """Outcome of one optimization run."""

    best_raw: RawControlParams
    best_step: int
    loss_history: list[ro.LossBreakdown]
    lr_history: np.ndarray
    trajectory: ro.Trajectory
    final_loss: ro.LossBreakdown
    wall_time_s: float
    engine: str
    max_update_ratio: float = 0.0   # max |dp| / lr observed across the run


def cosine_lr(i: int, cfg: OptimizerConfig) -> float:
    """Cosine annealing from lr_max (i=0) down to lr_min (i=n_steps)."""
    frac = 0.5 * (1.0 + math.cos(math.pi * i / cfg.n_steps))
    return cfg.lr_min + (cfg.lr_max - cfg.lr_min) * frac


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float, cfg: OptimizerConfig):
    """One bias-corrected Adam update; pure in (params, state)."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/state shapes disagree")
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grads * grads
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    update = lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    new_params = params - update
    bad = np.flatnonzero(~np.isfinite(new_params))
    if bad.size:
        raise FloatingPointError(f"non-finite Adam update at index {bad[0]}")
    return new_params, AdamState(m=m, v=v, t=t)


def _engine_fn(name: str):
    if name == "bptt":
        return ro.grad_bptt
    if name == "adjoint":
        return ro.grad_adjoint
    raise ValueError(f"unknown gradient engine {name!r}")


def optimize(scn, aero: AeroModel, raw0: RawControlParams | None = None,
             n_steps: int | None = None) -> OptimizationResult:
    """Run the gradient loop and return the best iterate found.

    ``raw0`` and ``n_steps`` override the defaults for experiments; the
    normal entry point takes both from the scenario config.
    """
    cfg = scn.opt
    if n_steps is not None and n_steps != cfg.n_steps:
        from dataclasses import replace
        cfg = replace(cfg, n_steps=n_steps)
    engine = _engine_fn(cfg.grad_engine)

    raw = raw0.copy() if raw0 is not None else init_raw_params(scn)
    params = np.stack([raw.u_T, raw.u_delta])
    state = AdamState.zeros_like(params)

    t0 = time.perf_counter()
    history: list[ro.LossBreakdown] = []
    lr_history = np.empty(cfg.n_steps)
    best_total = math.inf
    best_params = params.copy()
    best_step = 0
    max_ratio = 0.0
    warned_saturation = False

    for i in range(cfg.n_steps):
        raw_i = RawControlParams(params[0], params[1])
        try:
            report = engine(raw_i, scn, aero, scn.weights)
        except (ro.RolloutError, FloatingPointError) as exc:
            raise NumericalAbort(
                f"gradient evaluation failed at step {i}: {exc}",
                snapshot=_snapshot(i, params, history),
            ) from exc
        breakdown = report.loss
        history.append(breakdown)
        if breakdown.total < best_total:
            best_total = breakdown.total
            best_params = params.copy()
            best_step = i

        grads = np.stack([report.grad_u_T, report.grad_u_delta])
        if cfg.grad_clip is not None:
            np.clip(grads, -cfg.grad_clip, cfg.grad_clip, out=grads)
        lr = cosine_lr(i, cfg)
        lr_history[i] = lr
        new_params, state = adam_step(params, grads, state, lr, cfg)
        max_ratio = max(max_ratio, float(np.abs(new_params - params).max()) / lr)
        params = new_params

        if not warned_saturation and max_saturation(raw_i) > SATURATION_LIMIT:
            log.warning("raw control parameters entered the squash saturation "
                        "region (|u| > %.0f) at step %d", SATURATION_LIMIT, i)
            warned_saturation = True
        if cfg.log_every and (i % cfg.log_every == 0 or i == cfg.n_steps - 1):
            log.info("step %5d  lr %.3e  loss %.6e", i, lr, breakdown.total)

    best_raw = RawControlParams(best_params[0], best_params[1])
    traj = ro.rollout(best_raw, scn, aero)
    final = ro.loss(traj, scn.weights, scn)
    return OptimizationResult(
        best_raw=best_raw, best_step=best_step, loss_history=history,
        lr_history=lr_history, trajectory=traj, final_loss=final,
        wall_time_s=time.perf_counter() - t0, engine=cfg.grad_engine,
        max_update_ratio=max_ratio)


def _snapshot(step: int, params: np.ndarray, history) -> dict:
    return {
        "step": step,
        "u_T": params[0].tolist(),
        "u_delta": params[1].tolist(),
        "loss_history_totals": [b.total for b in history],
    }
