"""Aerodynamic force models: simplified drag-only and an MLP surrogate.

Two interchangeable models produce body-external forces and the pitching
moment about the cg from the vehicle state:

* :class:`SimplifiedAero` applies a fixed drag coefficient along the
  velocity vector with a fixed center of pressure (no lift).
* :class:`MlpSurrogate` maps (sin alpha, cos alpha) through a small tanh
  network to (C_L, C_D, C_M) and assembles forces in wind axes.

The surrogate is trained against an analytic flat-plate style coefficient
model (:func:`standin_coeffs`), sampled on a uniform angle-of-attack grid.
Both models give the exact state Jacobian of their vector form, for a
batch of states at once, to the gradient engine.

Each model's ``forces`` states its force law once, for one state and for
a batch of lanes in the state layout of :mod:`flipopt.dynamics`; the
input chooses only how the law is evaluated.  A float64 state reads its
fields as Python floats, takes ``math`` trigonometry, returns zero force
at once below ``SPEED_FLOOR`` and returns Python floats; the surrogate's
network then costs one BLAS product and one tanh per layer, its biases
folded into the weights.  Otherwise each field is one numpy value or lane
vector, with numpy trigonometry, the fixed-order einsum network and
exactly zero force in every lane whose speed is below the floor.
``forces_jac`` has only the vector form, with the same floor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import (
    IX_TH,
    IX_U,
    IX_V,
    SPEED_FLOOR,
    AeroForces,
    field_values,
    wind_axes,
)
from .optimizer import AdamState, adam_step

_MATVEC = "...i,ji->...j"  # einsum subscripts of W @ h for each lane of h

def _floored(speed, arrays) -> tuple:
    """The vector form's ``arrays`` (lanes on the last axis), exactly zero in
    every lane whose speed is below SPEED_FLOOR (a NaN speed keeps its NaN
    values)."""
    still = speed < SPEED_FLOOR
    return tuple(np.where(still, 0.0, a) for a in arrays)


class TrainingError(RuntimeError):
    """Raised when surrogate training produces a non-finite loss or update."""

    def __init__(self, msg: str, iteration: int):
        super().__init__(msg)
        self.iteration = iteration


# ---------------------------------------------------------------------------
# Disabled aero (free-flight tests, --no-aero simulation)
# ---------------------------------------------------------------------------

class NoAero:
    """Aero model that contributes nothing; used by oracles and --no-aero."""

    kind = "none"

    def forces(self, state, scn) -> AeroForces:
        return AeroForces(0.0, 0.0, 0.0)

    def forces_jac(self, states, scn):
        zero = np.zeros((3, states.shape[1]))
        return zero, np.zeros((3, 2, states.shape[1])), zero


# ---------------------------------------------------------------------------
# Simplified drag-only model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplifiedAero:
    """Fixed drag coefficient, no lift, fixed center of pressure.

    Force: F_A = -1/2 rho C_D |v| v S_ref.  Moment about the cg comes from
    applying that force at the center of pressure:
    M_A = (l_cp - l_cg) * 1/2 rho C_D S_ref |v| * (v_y cos th - v_x sin th).
    """

    C_D: float
    l_cp_frac: float = 0.55

    kind = "simplified"

    def __post_init__(self):
        if self.C_D < 0.0:
            raise ValueError("C_D must be >= 0")
        if not 0.0 < self.l_cp_frac < 1.0:
            raise ValueError("l_cp_frac must be in (0, 1)")

    def forces(self, state, scn) -> AeroForces:
        x, ops = field_values(state)
        u, v, th = x[IX_U], x[IX_V], x[IX_TH]
        speed = ops.hypot(u, v)
        if ops is math and speed < SPEED_FLOOR:
            return AeroForces(0.0, 0.0, 0.0)
        c = scn.q_coef * self.C_D
        lever = self.l_cp_frac - scn.l_cg_frac
        F = (-c * speed * u,
             -c * speed * v,
             lever * c * speed * (v * ops.cos(th) - u * ops.sin(th)))
        return AeroForces(*(F if ops is math else _floored(speed, F)))

    def forces_jac(self, states, scn):
        u, v, th = states[IX_U], states[IX_V], states[IX_TH]
        speed = np.hypot(u, v)
        c = scn.q_coef * self.C_D
        d = (self.l_cp_frac - scn.l_cg_frac) * c
        cth = np.cos(th)
        sth = np.sin(th)
        w = v * cth - u * sth
        # a lane at rest divides by zero here and is zeroed by the floor
        with np.errstate(divide="ignore", invalid="ignore"):
            iu = u / speed
            iv = v / speed
        ncs = -c * speed
        ds = d * speed
        cuv = -c * u * iv
        zero = np.zeros_like(speed)
        return _floored(speed, (
            np.array([ncs * u, ncs * v, ds * w]),
            np.array([[ncs - c * u * iu, cuv],
                      [cuv, ncs - c * v * iv],
                      [d * iu * w - ds * sth, d * iv * w + ds * cth]]),
            np.array([zero, zero, -ds * (v * sth + u * cth)]),
        ))


# ---------------------------------------------------------------------------
# Stand-in coefficient model and training dataset
# ---------------------------------------------------------------------------

def standin_coeffs(alpha: float) -> tuple[float, float, float]:
    """Flat-plate style periodic coefficients (C_L, C_D, C_M).

    Normal and axial force coefficients follow the high-angle-of-attack
    slender-body approximation C_N = 2.2 sin a |sin a|,
    C_A = 0.15 cos a |cos a|, rotated into wind axes with a small
    zero-lift drag offset.  The moment is referenced to the cg with the
    same cp-cg lever as the simplified model (cp at 55% of the length,
    cg at 60%, both from the nose), giving C_M = (0.55 - 0.60) C_N: at
    belly-flop incidence the moment pitches the nose down, exactly as
    the drag-only model's fixed cp does.
    """
    sa = math.sin(alpha)
    ca = math.cos(alpha)
    C_N = 2.2 * sa * abs(sa)
    C_A = 0.15 * ca * abs(ca)
    C_L = C_N * ca - C_A * sa
    C_D = C_N * sa + C_A * ca + 0.05
    C_M = -0.05 * C_N
    return C_L, C_D, C_M


@dataclass(frozen=True)
class CoeffSample:
    """One aerodynamic coefficient sample at a given angle of attack."""

    alpha: float  # rad, in [0, 2*pi)
    C_L: float
    C_D: float
    C_M: float


def generate_dataset(n_samples: int) -> list[CoeffSample]:
    """Uniform alpha grid over [0, 2*pi); 36 samples matches a 10-deg sweep."""
    if n_samples < 4:
        raise ValueError("need at least 4 samples")
    samples = []
    for i in range(n_samples):
        alpha = 2.0 * math.pi * i / n_samples
        samples.append(CoeffSample(alpha, *standin_coeffs(alpha)))
    return samples


def write_dataset_csv(path, samples: Sequence[CoeffSample]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha_deg,CL,CD,CM\n")
        for s in samples:
            fh.write(f"{math.degrees(s.alpha)!r},{s.C_L!r},{s.C_D!r},{s.C_M!r}\n")


# ---------------------------------------------------------------------------
# MLP surrogate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpSurrogate:
    """Small tanh MLP mapping (sin alpha, cos alpha) -> (C_L, C_D, C_M).

    ``layers`` holds (weight, bias) pairs ordered input to output; hidden
    activations are tanh, the output layer is affine.  ``folded`` holds
    each layer as one matrix ``[W | b]`` for the single-encoding forward
    pass, which allocates its activation buffers per call.  All arrays
    are read-only, so instances are immutable and evaluation is pure and
    thread-safe.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    meta: dict = field(default_factory=dict)
    folded: tuple = field(init=False, repr=False, compare=False)

    kind = "surrogate"

    def __post_init__(self):
        if self.layers[0][0].shape[1] != 2:
            raise ValueError("first layer must take 2 inputs (sin a, cos a)")
        if self.layers[-1][0].shape[0] != 3:
            raise ValueError("last layer must emit 3 coefficients")
        folded = []
        for W, b in self.layers:
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError("non-finite surrogate parameters")
            folded.append(np.column_stack((W, b)))
            for a in (W, b, folded[-1]):
                a.setflags(write=False)
        object.__setattr__(self, "folded", tuple(folded))

    # -- coefficient evaluation ---------------------------------------------

    def coeffs_from_encoding(self, z) -> np.ndarray:
        """Forward pass from the (sin a, cos a) encoding ``z``.  Each layer
        is one product of its folded ``[W | b]`` with a buffer that ends in
        1.0, and a hidden layer's tanh fills the head of the next buffer."""
        h = np.array((z[0], z[1], 1.0))
        *hidden, out = self.folded
        for Wb in hidden:
            h_next = np.empty(len(Wb) + 1)
            h_next[-1] = 1.0
            np.tanh(np.dot(Wb, h), out=h_next[:-1])
            h = h_next
        return np.dot(out, h)

    def coeffs(self, alpha: float) -> np.ndarray:
        """(C_L, C_D, C_M) at an angle of attack; 2*pi periodic bit-exactly."""
        return self.coeffs_from_encoding((np.sin(alpha), np.cos(alpha)))

    def _network(self, z, dz=None):
        """Coefficients (..., 3) at encodings z (..., 2); with a tangent
        ``dz`` of the encodings, also their derivative along it.  The einsum
        product W @ h sums in a fixed order, so a lane's bits do not depend
        on the batch size; a BLAS product's do."""
        *hidden, (W_out, b_out) = self.layers
        for W, b in hidden:
            z = np.einsum(_MATVEC, z, W)
            np.tanh(z + b, out=z)  # in place, as dz below: fewer live arrays
            if dz is not None:
                dz = np.einsum(_MATVEC, dz, W)
                dz *= 1.0 - z * z
        C = np.einsum(_MATVEC, z, W_out) + b_out
        return C if dz is None else (C, np.einsum(_MATVEC, dz, W_out))

    # -- force assembly -------------------------------------------------------

    def forces(self, state, scn) -> AeroForces:
        x, ops = field_values(state)
        u, v, th = x[IX_U], x[IX_V], x[IX_TH]
        if ops is math:
            speed = math.hypot(u, v)
            if speed < SPEED_FLOOR:
                return AeroForces(0.0, 0.0, 0.0)
            cth = math.cos(th)
            sth = math.sin(th)
            C_L, C_D, C_M = self.coeffs_from_encoding(
                ((v * cth - u * sth) / speed,
                 (u * cth + v * sth) / speed)).tolist()
        else:
            # a lane at rest divides by zero here and is zeroed by the floor
            with np.errstate(divide="ignore", invalid="ignore"):
                sin_a, cos_a, speed = wind_axes(state)
            C = self._network(np.stack((sin_a, cos_a), axis=-1))
            C_L, C_D, C_M = C[..., 0], C[..., 1], C[..., 2]
        s = scn.q_coef
        # drag along -v_hat, lift along the +90 deg rotation of v_hat
        F = (s * speed * (-C_D * u - C_L * v),
             s * speed * (-C_D * v + C_L * u),
             s * speed * speed * C_M)
        return AeroForces(*(F if ops is math else _floored(speed, F)))

    def forces_jac(self, states, scn):
        # alpha depends on the state through the encoding only: its tangent
        # along alpha is (cos a, -sin a), d alpha / d(u, v) = (-v, u) / speed^2
        # and d alpha / d theta = -1
        u, v = states[IX_U], states[IX_V]
        with np.errstate(divide="ignore", invalid="ignore"):
            sin_a, cos_a, speed = wind_axes(states)
            iu = u / speed
            iv = v / speed
        C, dC = self._network(np.stack((sin_a, cos_a), axis=-1),
                              np.stack((cos_a, -sin_a), axis=-1))
        C_L, C_D, C_M = C[..., 0], C[..., 1], C[..., 2]
        dC_L, dC_D, dC_M = dC[..., 0], dC[..., 1], dC[..., 2]
        s = scn.q_coef
        gx = -C_D * u - C_L * v          # Fx / (s * speed)
        gy = -C_D * v + C_L * u          # Fy / (s * speed)
        gx_a = -dC_D * u - dC_L * v      # d gx / d alpha
        gy_a = -dC_D * v + dC_L * u
        return _floored(speed, (
            np.array([s * speed * gx, s * speed * gy,
                      s * speed * speed * C_M]),
            s * np.array([
                [iu * gx - speed * C_D - iv * gx_a,
                 iv * gx - speed * C_L + iu * gx_a],
                [iu * gy + speed * C_L - iv * gy_a,
                 iv * gy - speed * C_D + iu * gy_a],
                [2.0 * u * C_M - v * dC_M, 2.0 * v * C_M + u * dC_M],
            ]),
            -s * np.array([speed * gx_a, speed * gy_a, speed * speed * dC_M]),
        ))


def mlp_forward(model: MlpSurrogate, alpha: float) -> np.ndarray:
    return model.coeffs(alpha)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters for the surrogate fit (full-batch Adam on MSE)."""

    hidden: tuple[int, ...] = (32, 32)
    lr: float = 1e-3
    epochs: int = 20000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def train_surrogate(dataset: Sequence[CoeffSample],
                    hyper: TrainerConfig | None = None,
                    seed: int = 0) -> MlpSurrogate:
    """Fit the MLP to the dataset, deterministically for a given seed.

    Targets are standardized per coefficient during training and the
    de-standardization is folded back into the output layer afterwards,
    so the returned model maps directly to raw coefficients.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    hyper = hyper or TrainerConfig()
    rng = np.random.default_rng(seed)

    X = np.array([[math.sin(s.alpha), math.cos(s.alpha)] for s in dataset])
    Y = np.array([[s.C_L, s.C_D, s.C_M] for s in dataset])
    mu = Y.mean(axis=0)
    sig = np.maximum(Y.std(axis=0), 1e-8)
    Yn = (Y - mu) / sig

    sizes = (2, *hyper.hidden, 3)
    init: list[np.ndarray] = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        init.append(rng.uniform(-limit, limit, size=(n_out, n_in)))
        init.append(np.zeros(n_out))
    # the weight and bias arrays are views of one parameter vector, so one
    # Adam step updates them all
    flat = np.concatenate([p.ravel() for p in init])
    ends = np.cumsum([p.size for p in init])
    params = [v.reshape(p.shape)
              for v, p in zip(np.split(flat, ends[:-1]), init)]
    state = AdamState.zeros_like(flat)
    n = X.shape[0]
    final_mse = math.inf

    for epoch in range(1, hyper.epochs + 1):
        # forward
        hs = [X]
        h = X
        for i in range(0, len(params) - 2, 2):
            h = np.tanh(h @ params[i].T + params[i + 1])
            hs.append(h)
        out = h @ params[-2].T + params[-1]
        err = out - Yn
        loss = float(np.mean(err * err))
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}",
                                iteration=epoch)
        final_mse = loss

        # backward
        grads = [None] * len(params)
        g = (2.0 / err.size) * err
        grads[-2] = g.T @ hs[-1]
        grads[-1] = g.sum(axis=0)
        g = g @ params[-2]
        for i in range(len(params) - 4, -1, -2):
            g = g * (1.0 - hs[i // 2 + 1] ** 2)
            grads[i] = g.T @ hs[i // 2]
            grads[i + 1] = g.sum(axis=0)
            g = g @ params[i]

        # adam_step reads beta1, beta2 and eps, which the trainer's
        # hyperparameters share with the optimizer's
        try:
            new_flat, state = adam_step(
                flat, np.concatenate([g.ravel() for g in grads]), state,
                hyper.lr, hyper)
        except FloatingPointError as exc:
            raise TrainingError(f"{exc} at epoch {epoch}",
                                iteration=epoch) from exc
        flat[:] = new_flat

    # fold the target standardization into the output layer
    params[-2] = sig[:, None] * params[-2]
    params[-1] = sig * params[-1] + mu

    layers = tuple((params[i], params[i + 1]) for i in range(0, len(params), 2))
    model = MlpSurrogate(layers=layers, meta={})
    preds = np.array([model.coeffs(s.alpha) for s in dataset])
    raw_mse = float(np.mean((preds - Y) ** 2))
    max_abs = np.abs(preds - Y).max(axis=0)
    model.meta.update({
        "train_mse_normalized": final_mse,
        "train_mse": raw_mse,
        "max_abs_err": {"C_L": float(max_abs[0]), "C_D": float(max_abs[1]),
                        "C_M": float(max_abs[2])},
        "n_samples": n,
        "seed": seed,
        "epochs": hyper.epochs,
        "lr": hyper.lr,
        "hidden": list(hyper.hidden),
    })
    return model


# ---------------------------------------------------------------------------
# Weights file I/O
# ---------------------------------------------------------------------------

def save_weights(model: MlpSurrogate, path) -> None:
    """Write the surrogate to the documented JSON wire format."""
    doc = {
        "layers": [
            {"rows": int(W.shape[0]), "cols": int(W.shape[1]),
             "w": [float(x) for x in W.ravel(order="C")],
             "b": [float(x) for x in b]}
            for W, b in model.layers
        ],
        "activation": "tanh",
        "meta": model.meta,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_weights(path) -> MlpSurrogate:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("activation") != "tanh":
        raise ValueError(f"unsupported activation {doc.get('activation')!r}")
    layers = []
    for spec in doc["layers"]:
        W = np.array(spec["w"], dtype=float).reshape(spec["rows"], spec["cols"])
        b = np.array(spec["b"], dtype=float)
        layers.append((W, b))
    return MlpSurrogate(layers=tuple(layers), meta=doc.get("meta", {}))
