"""Aerodynamic force models: simplified drag-only and an MLP surrogate.

Two interchangeable models produce body-external forces and the pitching
moment about the cg from the vehicle state:

* :class:`SimplifiedAero` applies a fixed drag coefficient along the
  velocity vector with a fixed center of pressure (no lift).
* :class:`MlpSurrogate` maps (sin alpha, cos alpha), from
  :func:`flipopt.dynamics.wind_axes` in every form, through a small tanh
  network to (C_L, C_D, C_M) and assembles forces in wind axes.

The surrogate is trained against an analytic flat-plate style coefficient
model (:func:`standin_coeffs`), sampled on a uniform angle-of-attack grid.
Its weights file is JSON, written and read by :mod:`flipopt.scenario`.
Both models give the exact state Jacobian of their vector form, for a
batch of states at once, to the gradient engine.

Each model's ``forces`` states its force law once, for one state and for
a batch of lanes in the state layout of :mod:`flipopt.dynamics`; the
input chooses only how the law is evaluated.  A float64 state, (8,) or a
list of 8 Python floats, reads its fields as Python floats, takes
``math`` trigonometry, returns zero force at once below ``SPEED_FLOOR``
and returns Python floats; the surrogate's network then costs one BLAS
product, one bias add and one tanh per layer.  Otherwise each field is a
numpy value or lane vector, with numpy trigonometry, the fixed-order
einsum network and exactly zero force in each lane slower than the floor.
``forces_jac`` has only the vector form, with the same floor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import (
    IX_TH,
    IX_U,
    IX_V,
    SPEED_FLOOR,
    field_values,
    wind_axes,
)
from .optimizer import AdamState, OptimizerConfig, adam_step
from .scenario import read_json, write_json

_MATVEC = "...i,ji->...j"  # einsum subscripts of W @ h for each lane of h

def _floored(speed, arrays) -> tuple:
    """The vector form's ``arrays`` (lanes on the last axis), exactly zero in
    every lane whose speed is below SPEED_FLOOR (a NaN speed keeps its NaN
    values)."""
    still = speed < SPEED_FLOOR
    return tuple(np.where(still, 0.0, a) for a in arrays)


class TrainingError(FloatingPointError):
    """Raised when surrogate training produces a non-finite loss or update."""

    def __init__(self, msg: str, iteration: int):
        super().__init__(f"training diverged: {msg} at epoch {iteration}")
        self.iteration = iteration


# ---------------------------------------------------------------------------
# Disabled aero (free-flight tests, --no-aero simulation)
# ---------------------------------------------------------------------------

class NoAero:
    """Aero model that contributes nothing; used by oracles and --no-aero."""

    def forces(self, state, scn) -> tuple:
        return 0.0, 0.0, 0.0

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

    def __post_init__(self):
        if self.C_D < 0.0:
            raise ValueError("C_D must be >= 0")
        if not 0.0 < self.l_cp_frac < 1.0:
            raise ValueError("l_cp_frac must be in (0, 1)")

    def forces(self, state, scn) -> tuple:
        x, ops = field_values(state)
        u, v, th = x[IX_U], x[IX_V], x[IX_TH]
        speed = ops.hypot(u, v)
        if ops is math and speed < SPEED_FLOOR:
            return 0.0, 0.0, 0.0
        c = scn.q_coef * self.C_D
        lever = self.l_cp_frac - scn.l_cg_frac
        F = (-c * speed * u,
             -c * speed * v,
             lever * c * speed * (v * ops.cos(th) - u * ops.sin(th)))
        return F if ops is math else _floored(speed, F)

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
    if not 4 <= n_samples <= 100_000:
        raise ValueError(f"need 4 to 100000 samples (got {n_samples})")
    samples = []
    for i in range(n_samples):
        alpha = 2.0 * math.pi * i / n_samples
        samples.append(CoeffSample(alpha, *standin_coeffs(alpha)))
    return samples


# ---------------------------------------------------------------------------
# MLP surrogate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpSurrogate:
    """Small tanh MLP mapping (sin alpha, cos alpha) -> (C_L, C_D, C_M).

    ``layers`` holds (W, b) pairs ordered input to output: W of shape
    (rows, cols), where cols is the previous layer's rows (2 for the first
    layer) and the last layer has 3 rows, and b of shape (rows,).  Hidden
    activations are tanh, the output layer is affine.  All arrays are
    read-only, so instances are immutable and evaluation is pure and
    thread-safe.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("the surrogate needs at least one layer")
        cols = 2  # the first layer takes (sin a, cos a)
        for i, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or W.shape[1] != cols or b.shape != W.shape[:1]:
                raise ValueError(f"layer {i} does not chain: W {W.shape}, b "
                                 f"{b.shape}; expected (rows, {cols}), (rows,)")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError("non-finite surrogate parameters")
            cols = len(W)
        if cols != 3:
            raise ValueError(f"layer {len(self.layers) - 1} must emit 3 "
                             f"coefficients, not {cols}")
        for W, b in self.layers:
            W.setflags(write=False)
            b.setflags(write=False)

    # -- coefficient evaluation ---------------------------------------------

    def coeffs_from_encoding(self, z) -> np.ndarray:
        """Forward pass from the (sin a, cos a) encoding ``z``: per layer one
        BLAS product W @ h, then the bias, then tanh on a hidden layer."""
        h = z
        *hidden, (W_out, b_out) = self.layers
        for W, b in hidden:
            h = np.tanh(np.dot(W, h) + b)
        return np.dot(W_out, h) + b_out

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

    def forces(self, state, scn) -> tuple:
        x, ops = field_values(state)
        u, v, th = x[IX_U], x[IX_V], x[IX_TH]
        speed = ops.hypot(u, v)
        if ops is math:
            if speed < SPEED_FLOOR:
                return 0.0, 0.0, 0.0
            C_L, C_D, C_M = self.coeffs_from_encoding(
                wind_axes(u, v, th, speed, math)).tolist()
        else:
            # a lane at rest divides by zero here and is zeroed by the floor
            with np.errstate(divide="ignore", invalid="ignore"):
                sin_a, cos_a = wind_axes(u, v, th, speed)
            C_L, C_D, C_M = self._network(np.stack((sin_a, cos_a), axis=-1)).T
        s = scn.q_coef
        # drag along -v_hat, lift along the +90 deg rotation of v_hat
        F = (s * speed * (-C_D * u - C_L * v),
             s * speed * (-C_D * v + C_L * u),
             s * speed * speed * C_M)
        return F if ops is math else _floored(speed, F)

    def forces_jac(self, states, scn):
        # alpha depends on the state through the encoding only: its tangent
        # along alpha is (cos a, -sin a), d alpha / d(u, v) = (-v, u) / speed^2
        # and d alpha / d theta = -1
        u, v = states[IX_U], states[IX_V]
        speed = np.hypot(u, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            sin_a, cos_a = wind_axes(u, v, states[IX_TH], speed)
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
    """(C_L, C_D, C_M) at an angle of attack; 2*pi periodic bit-exactly."""
    return model.coeffs_from_encoding((np.sin(alpha), np.cos(alpha)))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters for the surrogate fit (full-batch Adam on MSE)."""

    hidden: tuple[int, ...] = (32, 32)
    lr: float = 1e-3
    epochs: int = 20000


def train_surrogate(dataset: Sequence[CoeffSample],
                    hyper: TrainerConfig | None = None,
                    seed: int = 0) -> MlpSurrogate:
    """Fit the MLP to the dataset, deterministically for a given seed.

    Full-batch Adam on the mean squared error; each layer's (W, b) and
    gradient (gW, gb) are views of one parameter and one gradient vector.
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
    flat = np.zeros(sum((i + 1) * o for i, o in zip(sizes, sizes[1:])))
    grad = np.empty_like(flat)
    layers, grads = [], []
    end = 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        at, mid, end = end, end + n_out * n_in, end + n_out * (n_in + 1)
        limit = math.sqrt(6.0 / (n_in + n_out))
        W = flat[at:mid].reshape(n_out, n_in)
        W[:] = rng.uniform(-limit, limit, size=W.shape)
        layers.append((W, flat[mid:end]))
        grads.append((grad[at:mid].reshape(n_out, n_in), grad[mid:end]))
    state, adam = AdamState.zeros_like(flat), OptimizerConfig()
    final_mse = math.inf

    # a diverging fit raises below at its first non-finite loss or update
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, hyper.epochs + 1):
            hs = [X]
            for W, b in layers[:-1]:
                hs.append(np.tanh(hs[-1] @ W.T + b))
            W, b = layers[-1]
            err = hs[-1] @ W.T + b - Yn
            final_mse = float(np.mean(err * err))
            if not math.isfinite(final_mse):
                raise TrainingError("non-finite training loss", epoch)

            # backward from the output; g passes W while a layer is below
            g = (2.0 / err.size) * err
            for (W, _), (gW, gb), h in zip(layers[::-1], grads[::-1],
                                           hs[::-1]):
                np.matmul(g.T, h, out=gW)
                np.sum(g, axis=0, out=gb)
                if h is not X:
                    g = (g @ W) * (1.0 - h ** 2)

            try:
                new_flat, state = adam_step(flat, grad, state, hyper.lr, adam)
            except FloatingPointError as exc:
                raise TrainingError(str(exc), epoch) from exc
            flat[:] = new_flat

    # fold the target standardization into the output layer
    W, b = layers[-1]
    layers[-1] = (sig[:, None] * W, sig * b + mu)

    model = MlpSurrogate(layers=tuple(layers), meta={})
    preds = np.array([mlp_forward(model, s.alpha) for s in dataset])
    raw_mse = float(np.mean((preds - Y) ** 2))
    max_abs = np.abs(preds - Y).max(axis=0)
    model.meta.update({
        "train_mse_normalized": final_mse,
        "train_mse": raw_mse,
        "max_abs_err": {"C_L": float(max_abs[0]), "C_D": float(max_abs[1]),
                        "C_M": float(max_abs[2])},
        "n_samples": len(dataset),
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
    write_json(path, doc)


def load_weights(path) -> MlpSurrogate:
    """Read a surrogate written by :func:`save_weights`; a file that cannot
    be read or parsed raises the reader's ScenarioError, which names it."""
    doc = read_json(path, "surrogate weights file")
    if unknown := sorted(doc.keys() - {"layers", "activation", "meta"}):
        raise ValueError(f"unknown weights file keys {unknown}")
    if doc.get("activation") != "tanh":
        raise ValueError(f"unsupported activation {doc.get('activation')!r}")
    layers = []
    for i, spec in enumerate(doc["layers"]):
        shape = (spec["rows"], spec["cols"])
        if (set(spec) != {"rows", "cols", "w", "b"}
                or any(type(n) is not int or n < 1 for n in shape)
                or any(type(x) not in (int, float)
                       or abs(x) > sys.float_info.max   # an int past float
                       for x in [*spec["w"], *spec["b"]])):
            raise ValueError(f"layer {i}: expected keys rows, cols (positive "
                             f"JSON integers) and w, b (JSON number lists)")
        layers.append((np.array(spec["w"], dtype=float).reshape(shape),
                       np.array(spec["b"], dtype=float)))
    return MlpSurrogate(layers=tuple(layers), meta=doc.get("meta", {}))
