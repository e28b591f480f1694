"""Mapping from unbounded optimization parameters to bounded controls.

The optimizer works on raw real-valued sequences; a logistic squash maps
them onto the admissible throttle range and a tanh squash onto the gimbal
range, so every iterate is feasible by construction and the mapping stays
smooth and strictly monotone for gradient flow:

    T_k     = T_min + (T_max - T_min) * sigma(u_T[k])
    delta_k = delta_max * tanh(u_delta[k])

Squashed parameterizations lose gradient once |u| grows large; the
SATURATION_LIMIT threshold flags that regime for the optimizer's logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SATURATION_LIMIT = 6.0  # |u| beyond this sits in the near-flat tail


@dataclass(frozen=True)
class RawControlParams:
    """Unbounded per-step control parameters (length K each)."""

    u_T: np.ndarray
    u_delta: np.ndarray

    def __post_init__(self):
        if self.u_T.shape != self.u_delta.shape or self.u_T.ndim != 1:
            raise ValueError("u_T and u_delta must be 1-d arrays of equal length")

    @property
    def K(self) -> int:
        return self.u_T.shape[0]

    def copy(self) -> "RawControlParams":
        return RawControlParams(self.u_T.copy(), self.u_delta.copy())


@dataclass(frozen=True)
class ControlSequence:
    """Bounded per-step commands: thrust (nondim force) and gimbal (rad)."""

    thrust: np.ndarray
    delta: np.ndarray

    @property
    def K(self) -> int:
        return self.thrust.shape[0]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reparameterize(raw: RawControlParams, scn) -> ControlSequence:
    """Squash raw parameters into the feasible control box.

    The bounds hold for every finite input; non-finite entries are
    rejected with their index.
    """
    for name, arr in (("u_T", raw.u_T), ("u_delta", raw.u_delta)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"non-finite raw control {name}[{bad[0]}]")
    thrust = scn.T_min + (scn.T_max - scn.T_min) * _sigmoid(raw.u_T)
    delta = scn.delta_max * np.tanh(raw.u_delta)
    return ControlSequence(thrust=thrust, delta=delta)


def reparameterize_grads(raw: RawControlParams, scn):
    """Elementwise derivatives (dT_k/du_T[k], ddelta_k/du_delta[k]).

    Both are strictly positive for finite inputs (monotone mapping).
    """
    s = _sigmoid(raw.u_T)
    dT = (scn.T_max - scn.T_min) * s * (1.0 - s)
    t = np.tanh(raw.u_delta)
    dd = scn.delta_max * (1.0 - t * t)
    return dT, dd


def smoothness_penalty(seq: ControlSequence, scn) -> np.floating:
    """Sum of squared step-to-step control changes, scaled dimensionless.

    Zero for constant sequences and invariant under time reversal.  The
    sum stays in the controls' dtype, so extended-precision controls get
    an extended-precision penalty.
    """
    dT = np.diff(seq.thrust) / scn.T_max
    dd = np.diff(seq.delta) / scn.delta_max
    return np.dot(dT, dT) + np.dot(dd, dd)


def smoothness_grads(seq: ControlSequence, scn):
    """Gradient of :func:`smoothness_penalty` with respect to (T_k, delta_k)."""
    gT = np.zeros_like(seq.thrust)
    gd = np.zeros_like(seq.delta)
    dT = np.diff(seq.thrust) * (2.0 / scn.T_max**2)
    dd = np.diff(seq.delta) * (2.0 / scn.delta_max**2)
    gT[1:] += dT
    gT[:-1] -= dT
    gd[1:] += dd
    gd[:-1] -= dd
    return gT, gd


def init_raw_params(scn) -> RawControlParams:
    """Hover-throttle thrust and centered gimbal as the starting iterate.

    The throttle that balances the initial weight lands well inside the
    squash's linear region, so the optimizer starts with healthy
    gradients on every component.
    """
    t_hover = scn.m_wet * scn.g
    frac = (t_hover - scn.T_min) / (scn.T_max - scn.T_min)
    frac = min(max(frac, 1e-3), 1.0 - 1e-3)
    u0 = float(np.log(frac / (1.0 - frac)))
    return RawControlParams(
        u_T=np.full(scn.K, u0),
        u_delta=np.zeros(scn.K),
    )


def max_saturation(raw: RawControlParams) -> float:
    """Largest |u| across both channels, for saturation monitoring."""
    return float(max(np.abs(raw.u_T).max(initial=0.0),
                     np.abs(raw.u_delta).max(initial=0.0)))
