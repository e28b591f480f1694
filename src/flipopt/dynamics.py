"""Planar rigid-body flight dynamics and the RK4 integrator.

State vector layout (nondimensional throughout):

    index  0  1  2  3  4      5      6  7
    field  x  y  u  v  theta  omega  m  delta_d

``theta`` is the pitch angle of the body axis measured from +x; the body
axis unit vector (cos theta, sin theta) points from the engine base toward
the nose.  ``delta_d`` is the lagged (actual) gimbal deflection responding
to the commanded deflection through a first-order element.

The derivative of the state is

    r'       = v
    v'       = (F_T + eps * F_A) / m + (0, -g)
    theta'   = omega
    omega'   = (M_T + eta * M_A) / J_z
    m'       = -T / c_ex
    delta_d' = (delta - delta_d) / T_d

with thrust applied at the vehicle base, deflected by delta_d from the
body axis:  F_T = T (cos(theta + delta_d), sin(theta + delta_d)) and
M_T = -T sin(delta_d) l_arm.  Positive gimbal therefore pitches the nose
down, which is the sense needed to flip from 170 deg toward 90 deg.

A state's fields are its first axis: one state is (8,) and B lanes are
(8, B), so ``x[IX_M]`` reads a scalar or a lane vector the same way.

All functions are pure and dtype-generic: feeding long-double states
through produces long-double results, which the finite-difference
gradient oracle relies on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol

import numpy as np

if TYPE_CHECKING:
    from .scenario import NondimScenario

STATE_DIM = 8
IX_X, IX_Y, IX_U, IX_V, IX_TH, IX_OM, IX_M, IX_DD = range(STATE_DIM)
STATE_FIELDS = ("x", "y", "u", "v", "theta", "omega", "m", "delta_d")

SPEED_FLOOR = 1e-12  # below this nondim speed, aero forces and AoA vanish


class IntegrationError(RuntimeError):
    """Raised when an RK4 stage or result goes non-finite."""

    def __init__(self, msg: str, stage: int | None = None, step: int | None = None):
        super().__init__(msg)
        self.stage = stage
        self.step = step


class AeroForces(NamedTuple):
    """Aerodynamic force components and moment about the cg (nondim)."""

    F_Ax: float
    F_Ay: float
    M_A: float


class AeroModel(Protocol):
    """Anything that can produce aero forces and their state Jacobian."""

    def forces(self, state: np.ndarray, scn: "NondimScenario") -> AeroForces:
        """(F_Ax, F_Ay, M_A) at one state or a batch of lanes, in the state
        layout of this module; a float64 state may give Python floats or
        numpy scalars, the RK4 kernel takes both."""

    def forces_jac(
        self, states: np.ndarray, scn: "NondimScenario"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For a batch of B states (8, B), return (F, dF_dv, dF_dtheta) with
        F = (F_Ax, F_Ay, M_A) of shape (3, B), its partials with respect to
        (u, v) of shape (3, 2, B) and with respect to theta of shape (3, B),
        all exactly zero in every lane whose speed is below SPEED_FLOOR."""
        ...


def field_values(state: np.ndarray):
    """A state's fields and the module whose trigonometry they take: Python
    floats and ``math`` for one float64 state, far cheaper than numpy
    scalars; otherwise the array, whose rows are the fields, and ``np``."""
    if state.dtype == np.float64 and state.ndim == 1:
        return state.tolist(), math
    return state, np


def angle_of_attack(state: np.ndarray) -> float:
    """Angle between the velocity vector and the body axis, in [0, 2*pi).

    Returns 0 by convention when the speed is below SPEED_FLOOR (the aero
    forces vanish there anyway).
    """
    u, v = state[IX_U], state[IX_V]
    if np.hypot(u, v) < SPEED_FLOOR:
        return 0.0
    alpha = np.arctan2(v, u) - state[IX_TH]
    wrapped = float(alpha % (2.0 * np.pi))
    # float modulo can round a barely-negative angle up to exactly 2*pi
    return 0.0 if wrapped >= 2.0 * math.pi else wrapped


def wind_axes(state: np.ndarray):
    """(sin alpha, cos alpha, speed) computed without arctan branch cuts.

    These are the velocity components resolved in body axes, normalized by
    speed, which is what the surrogate consumes; they are smooth in the
    state wherever speed > 0.
    """
    u, v, th = state[IX_U], state[IX_V], state[IX_TH]
    speed = np.hypot(u, v)
    cth = np.cos(th)
    sth = np.sin(th)
    cos_a = (u * cth + v * sth) / speed
    sin_a = (v * cth - u * sth) / speed
    return sin_a, cos_a, speed


def _derivative(s, F, T, delta, mdot, cos, sin, scn) -> tuple:
    """State derivative on scalars: ``s`` is the state, ``F`` the aero
    forces and ``mdot`` the mass rate -T / c_ex."""
    m = s[IX_M]
    dd = s[IX_DD]
    psi = s[IX_TH] + dd
    return (
        s[IX_U],
        s[IX_V],
        (T * cos(psi) + scn.eps_corr * F[0]) / m,
        (T * sin(psi) + scn.eps_corr * F[1]) / m - scn.g,
        s[IX_OM],
        (-T * sin(dd) * scn.l_arm + scn.eta_corr * F[2]) / scn.J_z,
        mdot,
        (delta - dd) / scn.T_d,
    )


def rhs(state: np.ndarray, ctrl: tuple, aero: AeroForces, scn) -> np.ndarray:
    """State derivative given control (T, delta) and aero forces."""
    T, delta = ctrl
    f = _derivative(state, aero, T, delta, -T / scn.c_ex, np.cos, np.sin, scn)
    return np.array(np.broadcast_arrays(*f), dtype=state.dtype)


def rhs_and_jacobians(states: np.ndarray, T, scn, aero_model: AeroModel):
    """``[J | B]`` of shape (n, 8, 10) for a batch of states (8, n), with
    ``T`` one thrust per lane: J = d f/d state and B = d f/d (T, delta),
    the structural ones included.  The aero model gives the partials of
    (F_Ax, F_Ay, M_A) in (u, v, theta) through ``forces_jac``; the rest is
    closed form, and nothing depends on the gimbal command.  Every
    operation is elementwise per lane, so a lane's bits do not depend on
    its batch.
    """
    th, m, dd = states[IX_TH], states[IX_M], states[IX_DD]
    psi = th + dd
    (Fx, Fy, _), dF_dv, dF_dth = aero_model.forces_jac(states, scn)
    im = 1.0 / m
    em = scn.eps_corr * im
    eta_J = scn.eta_corr / scn.J_z
    arm_J = scn.l_arm / scn.J_z

    JB = np.zeros((len(th), STATE_DIM, STATE_DIM + 2))
    J, B_T, B_delta = JB[..., :STATE_DIM], JB[..., STATE_DIM], JB[..., -1]
    J[:, IX_X, IX_U] = J[:, IX_Y, IX_V] = J[:, IX_TH, IX_OM] = 1.0
    B_T[:, IX_U] = B_uT = np.cos(psi) * im
    B_T[:, IX_V] = B_vT = np.sin(psi) * im
    J[:, IX_U, IX_DD] = J_udd = -T * B_vT
    J[:, IX_V, IX_DD] = J_vdd = T * B_uT
    J[:, IX_U, IX_U:IX_V + 1] = (em * dF_dv[0]).T
    J[:, IX_U, IX_TH] = em * dF_dth[0] + J_udd
    J[:, IX_U, IX_M] = -(J_vdd + em * Fx) * im        # -f_u / m
    J[:, IX_V, IX_U:IX_V + 1] = (em * dF_dv[1]).T
    J[:, IX_V, IX_TH] = em * dF_dth[1] + J_vdd
    J[:, IX_V, IX_M] = (J_udd - em * Fy) * im         # -(f_v + g) / m
    J[:, IX_OM, IX_U:IX_V + 1] = (eta_J * dF_dv[2]).T
    J[:, IX_OM, IX_TH] = eta_J * dF_dth[2]
    J[:, IX_OM, IX_DD] = -arm_J * T * np.cos(dd)
    J[:, IX_DD, IX_DD] = -1.0 / scn.T_d
    B_T[:, IX_OM] = -arm_J * np.sin(dd)
    B_T[:, IX_M] = -1.0 / scn.c_ex
    B_delta[:, IX_DD] = 1.0 / scn.T_d
    return JB


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------

def rk4_generic(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                dt: float) -> np.ndarray:
    """One classical RK4 step of y' = f(y) for an autonomous system."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_advance(state: np.ndarray, T, delta, dt, scn, aero_model: AeroModel):
    """One RK4 step of the vehicle dynamics, returning the stage states.

    ``state`` is one state of shape (8,) or a batch of B lanes of shape
    (8, B), with ``T`` and ``delta`` scalars or one value per lane.
    Control is held constant over the step (zero-order hold); the aero
    model is re-evaluated at each stage state.  Returns
    (next_state, (a2, a3, a4)) where a2..a4 are the interior stage states
    (the first stage state is ``state`` itself).  Bit-identical across
    repeated calls with the same inputs.

    The step runs on :func:`field_values`: Python floats for one float64
    state.  Lanes never mix, and in extended precision each lane is
    bit-identical to a single-state call on it.  Python floats raise where
    numpy returns inf or nan (the cosine of an infinite angle, a zero
    mass); such a step is taken again as a one-lane batch, so a diverging
    state still yields the non-finite result that the callers detect.
    """
    x, ops = field_values(state)
    try:
        return _rk4_kernel(state, x, ops, T, delta, dt, scn, aero_model)
    except (ValueError, ZeroDivisionError):
        if ops is np:
            raise
        nxt, stages = rk4_advance(state[:, None], T, delta, dt, scn,
                                  aero_model)
        return nxt[:, 0], tuple(a[:, 0] for a in stages)


def _rk4_kernel(state, x, ops, T, delta, dt, scn, aero_model):
    """RK4 on the fields ``x`` of ``state`` with the trigonometry of module
    ``ops``.  The operation order is the vector form's, k1 + 2 k2 + 2 k3
    + k4, so every result is bit-identical to it.  Stage arrays are built
    only for the aero model."""
    cos, sin = ops.cos, ops.sin
    num = float if ops is math else state.dtype.type
    mdot = num(-T / scn.c_ex)
    T = num(T)
    delta = num(delta)
    h2 = 0.5 * dt

    k = _derivative(x, aero_model.forces(state, scn), T, delta, mdot, cos,
                    sin, scn)
    ks = [k]
    stages = []
    for h in (h2, h2, dt):
        a = [xi + h * ki for xi, ki in zip(x, k)]
        A = np.array(a)
        k = _derivative(a, aero_model.forces(A, scn), T, delta, mdot, cos, sin, scn)
        ks.append(k)
        stages.append(A)
    h6 = dt / 6.0
    nxt = [xi + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
           for xi, k1, k2, k3, k4 in zip(x, *ks)]
    return np.array(nxt), tuple(stages)


def rk4_step(state: np.ndarray, ctrl: tuple, aero_model: AeroModel, dt,
             scn) -> np.ndarray:
    """Public single-step integrator with non-finite detection."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    T, delta = ctrl
    nxt, stages = rk4_advance(state, T, delta, dt, scn, aero_model)
    if not np.isfinite(nxt).all():
        for i, a in enumerate(stages):
            if not np.isfinite(a).all():
                raise IntegrationError(
                    f"non-finite RK4 stage state (stage {i + 2})", stage=i + 2)
        bad = [STATE_FIELDS[i] for i in np.flatnonzero(~np.isfinite(nxt))]
        raise IntegrationError(
            f"non-finite RK4 result in field(s) {bad}", stage=4)
    return nxt
