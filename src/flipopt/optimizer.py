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
from dataclasses import dataclass, replace

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
    grad_engine: str = "bptt"      # one of rollout.GRAD_ENGINES
    log_every: int = 250


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), t=0)


class NumericalAbort(FloatingPointError):
    """Raised when the loop hits a non-finite state, loss, gradient or
    Adam update."""

    def __init__(self, msg: str, snapshot: dict):
        super().__init__(msg)
        self.snapshot = snapshot


@dataclass
class OptimizationResult:
    """Outcome of one optimization run.  Step i's learning rate is
    ``cosine_lr(i, cfg)`` and the engine ``cfg.grad_engine``, of the config
    the run was given."""

    best_raw: RawControlParams
    best_step: int
    loss_history: list[ro.LossBreakdown]
    trajectory: ro.Trajectory
    wall_time_s: float
    max_update_ratio: float = 0.0   # max |dp| / lr observed across the run


def cosine_lr(i: int, cfg: OptimizerConfig) -> float:
    """Cosine annealing from lr_max (i=0) down to lr_min (i=n_steps)."""
    frac = 0.5 * (1.0 + math.cos(math.pi * i / cfg.n_steps))
    return cfg.lr_min + (cfg.lr_max - cfg.lr_min) * frac


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float, cfg: OptimizerConfig):
    """One bias-corrected Adam update; pure in (params, state).  A
    non-finite result raises FloatingPointError, so the callers evaluate
    it with numpy's overflow and invalid warnings off.

    m, v and the new parameters are fresh arrays, built in place in the
    order of m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
    p - (lr m_hat) / (sqrt(v_hat) + eps), so each keeps those bits."""
    if not params.shape == grads.shape == state.m.shape == state.v.shape:
        raise ValueError("parameter/gradient/state shapes disagree")
    t = state.t + 1
    m = np.multiply(state.m, cfg.beta1)
    tmp = np.multiply(grads, 1.0 - cfg.beta1)
    m += tmp
    v = np.multiply(state.v, cfg.beta2)
    np.multiply(grads, 1.0 - cfg.beta2, out=tmp)
    tmp *= grads
    v += tmp
    new = np.divide(m, 1.0 - cfg.beta1 ** t)   # m_hat, then the update
    new *= lr
    np.divide(v, 1.0 - cfg.beta2 ** t, out=tmp)   # v_hat, then the divisor
    np.sqrt(tmp, out=tmp)
    tmp += cfg.eps
    new /= tmp
    np.subtract(params, new, out=new)
    if not np.isfinite(new).all():
        bad = np.flatnonzero(~np.isfinite(new))
        raise FloatingPointError(f"non-finite Adam update at index {bad[0]}")
    return new, AdamState(m=m, v=v, t=t)


def _engine_fn(name: str):
    if name not in ro.GRAD_ENGINES:
        raise ValueError(f"unknown gradient engine {name!r}")
    return getattr(ro, f"grad_{name}")   # per call: a wrapper set there counts


def optimize(scn, aero: AeroModel, raw0: RawControlParams | None = None,
             n_steps: int | None = None) -> OptimizationResult:
    """Run the gradient loop and return the best iterate found.

    ``raw0`` and ``n_steps`` override the defaults for experiments; the
    normal entry point takes both from the scenario config.
    """
    cfg = scn.opt
    if n_steps is not None:
        cfg = replace(cfg, n_steps=n_steps)
    engine = _engine_fn(cfg.grad_engine)

    raw = raw0.copy() if raw0 is not None else init_raw_params(scn)
    params = np.stack([raw.u_T, raw.u_delta])
    state = AdamState.zeros_like(params)

    t0 = time.perf_counter()
    history: list[ro.LossBreakdown] = []
    best_total = math.inf
    best_params = params.copy()
    best_step = 0
    max_ratio = 0.0
    warned_saturation = False

    for i in range(cfg.n_steps):
        raw_i = RawControlParams(params[0], params[1])
        lr = cosine_lr(i, cfg)
        try:
            report = engine(raw_i, scn, aero, scn.weights)
            history.append(report.loss)
            grads = np.stack([report.grad_u_T, report.grad_u_delta])
            with np.errstate(over="ignore", invalid="ignore"):
                new_params, state = adam_step(params, grads, state, lr, cfg)
        except FloatingPointError as exc:
            raise NumericalAbort(
                f"optimizer step {i} failed: {exc}", snapshot={
                    "step": i, "u_T": params[0].tolist(),
                    "u_delta": params[1].tolist(),
                    "loss_history_totals": [b.total for b in history]},
            ) from exc
        breakdown = report.loss
        if breakdown.total < best_total:
            best_total = breakdown.total
            best_params = params.copy()
            best_step = i

        max_ratio = max(max_ratio, float(np.abs(new_params - params).max()) / lr)
        params = new_params

        if not warned_saturation and max_saturation(raw_i) > SATURATION_LIMIT:
            log.warning("raw control parameters entered the squash saturation "
                        "region (|u| > %.0f) at step %d", SATURATION_LIMIT, i)
            warned_saturation = True
        if cfg.log_every and (i % cfg.log_every == 0 or i == cfg.n_steps - 1):
            log.info("step %5d  lr %.3e  loss %.6e", i, lr, breakdown.total)

    best_raw = RawControlParams(best_params[0], best_params[1])
    return OptimizationResult(
        best_raw=best_raw, best_step=best_step, loss_history=history,
        trajectory=ro.rollout(best_raw, scn, aero),
        wall_time_s=time.perf_counter() - t0, max_update_ratio=max_ratio)
