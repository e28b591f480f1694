"""Trajectory rollout, composite loss, and gradients of loss w.r.t. controls.

The rollout advances the coupled dynamics + aero system over K RK4 steps
from the scenario's initial state.  The loss combines terminal residuals
with path penalties (control smoothness, dry-mass floor, pitch error after
the flip deadline).  Gradients come from one engine and one oracle:

* :func:`_grad` - reverse accumulation through every RK4 step, along the
  very stage states that the forward pass produced.  Segments of
  ``seg_len`` steps are recorded, turned into dense step Jacobians
  ``[Phi_k | G_k]`` by batched ``matmul`` and swept newest first with
  lam_k = Phi_k^T lam_{k+1} + path terms; each earlier segment is
  recorded again from its checkpoint: checkpointed reverse mode
  (Griewank & Walther, *Evaluating Derivatives*, 2008).  Two storage
  policies, which differ only in ``seg_len``, are exposed under the
  engine names of the config and the CLI.  :func:`grad_bptt` records and
  linearizes the whole horizon at once (memory linear in K, nothing
  recomputed); :func:`grad_adjoint` keeps a checkpoint every 4 steps and
  linearizes one 4-step segment at a time (8 floats per checkpoint, at
  the price of one extra forward recompute).  Both run the same code, so
  their gradients agree to the last bit; only the memory counters differ.
* :func:`finite_diff_grad` - central differences on the raw parameters,
  the independent validation oracle.  Its 4K perturbed rollouts advance
  together as the lanes of one state batch, each starting from the
  unperturbed rollout at the step it perturbs, and it can evaluate them
  in extended precision to push the difference roundoff floor far below
  the gradient-check tolerances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .controls import (
    ControlSequence,
    RawControlParams,
    reparameterize,
    reparameterize_grads,
    smoothness_grads,
    smoothness_penalty,
)
from .dynamics import (
    IX_M,
    IX_OM,
    IX_TH,
    IX_U,
    IX_V,
    IX_X,
    IX_Y,
    STATE_DIM,
    STATE_FIELDS,
    AeroModel,
    rhs_and_jacobians,
    rk4_advance,
)

ADJOINT_SEG_LEN = 4  # adjoint steps per checkpoint and linearization call

LOSS_TERM_NAMES = ("terminal_position", "terminal_velocity", "terminal_pitch",
                   "terminal_omega", "smoothness", "mass_floor", "flip_deadline")


class RolloutError(RuntimeError):
    """Raised when the state goes non-finite during a rollout."""

    def __init__(self, msg: str, step: int, fields: list[str]):
        super().__init__(msg)
        self.step = step
        self.fields = fields


@dataclass(frozen=True)
class LossWeights:
    """Weights of the loss terms, in gate units.

    Residuals are nondimensional, so each terminal weight is 1/gate^2 in
    nondimensional units for the default reference scales: a term reads
    1.0 exactly at its acceptance gate (1 m, 0.5 m/s, 1 deg, 0.01 rad/s).
    Unit weights would rank the gates by the reference scales instead:
    the 0.5 m/s gate is then worth about 2e-6 and loses to any path term.
    ``w_mass`` prices 1 kg below the dry mass at one gate unit.

    ``w_smooth`` and ``w_flip`` shape the path and must stay small against
    the gates.  The flip penalty sums the squared pitch error over every
    state after the deadline and can never reach zero (see
    :func:`first_flip_index`), so a large ``w_flip`` buys pitch shaping
    with terminal error.  At 0.01, a 10 deg error held over the ~80
    post-deadline states of a K = 90 preset costs about 0.02 gate units.
    """

    w_r: float = 2500.0
    w_v: float = 450428.9
    w_theta: float = 3282.8
    w_omega: float = 450428.9
    w_smooth: float = 0.01
    w_mass: float = 5.76e8
    w_flip: float = 0.01


@dataclass(frozen=True)
class Trajectory:
    """Record of one rollout: its states and the controls that drove them.

    ``states`` has K+1 rows in the dynamics module's layout; the controls
    have one entry per step.  Anything else, such as the angle of attack,
    follows from a state.
    """

    states: np.ndarray        # (K+1, 8)
    thrust: np.ndarray        # (K,)
    delta_cmd: np.ndarray     # (K,)
    dt: float

    @property
    def K(self) -> int:
        return self.thrust.shape[0]

    def controls(self) -> ControlSequence:
        return ControlSequence(thrust=self.thrust, delta=self.delta_cmd)


@dataclass(frozen=True)
class LossBreakdown:
    """Composite loss and its named terms; total is the exact sum."""

    total: float
    terms: dict[str, float]


@dataclass
class GradientReport:
    """Gradient of the loss with respect to the raw control parameters."""

    grad_u_T: np.ndarray
    grad_u_delta: np.ndarray
    engine: str               # "bptt" | "adjoint" | "finite_diff"
    wall_time_s: float
    peak_aux_floats: int = 0  # peak auxiliary state storage, in float slots
    n_rollouts: int = 0       # forward rollouts consumed (finite differences)
    loss: LossBreakdown | None = None  # None from the finite-difference oracle

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.grad_u_T, self.grad_u_delta])


# ---------------------------------------------------------------------------
# Forward simulation
# ---------------------------------------------------------------------------

def _check_finite(x: np.ndarray, k: int) -> None:
    if not np.isfinite(x).all():
        bad = [STATE_FIELDS[i] for i in np.flatnonzero(~np.isfinite(x))]
        raise RolloutError(
            f"non-finite state at step {k}: field(s) {bad}", step=k, fields=bad)


def first_flip_index(scn) -> int:
    """Smallest state index k with t_k strictly past the flip deadline.

    The flip-deadline penalty covers states k >= first_flip_index.  In
    both presets it is a soft term that cannot reach zero.  Neglecting
    aero, a rest-to-rest 80 deg turn at T_max with the full 10 deg gimbal
    takes 2 sqrt(theta J_z / M) with theta = 80 deg and the engine moment
    M = T_max sin(10 deg) * 20 m.  That is 2.96 s for case1 and 4.73 s
    for case2, against a 2.4 s deadline.  The belly-flop aero moment
    speeds the turn but cannot be cancelled in time.  Under one-switch
    full-gimbal bang-bang at T_max, every switch time that reaches 90 deg
    by the deadline leaves the vehicle still turning: at best 89.0 deg
    and -0.32 rad/s for case1, and 90.0 deg and -0.71 rad/s for case2.
    The pitch then overshoots, and the later states keep the sum above
    zero.
    """
    for k in range(scn.K + 1):
        if k * scn.dt > scn.t_flip:
            return k
    return scn.K + 1


class _PathAccumulator:
    """Streams the per-state loss contributions in ascending step order.

    The gradient engine and the finite-difference oracle feed states
    through this accumulator, so every route sums the loss terms in an
    identical floating-point order.  With ``lanes`` it keeps one mass
    floor and one flip sum per lane: a batch of p states (8, p) updates
    lanes 0 to p - 1, and :meth:`seed` starts later lanes from lane 0's
    sums.  The oracle uses both to let a perturbed rollout take over the
    base rollout's prefix (see :func:`finite_diff_grad`).
    """

    def __init__(self, scn, w: LossWeights, dtype=None, lanes: int | None = None):
        self.scn = scn
        self.w = w
        self.k_flip = first_flip_index(scn)
        shape = () if lanes is None else lanes
        self.mass_acc = np.zeros(shape, dtype)
        self.flip_acc = np.zeros(shape, dtype)

    def add(self, x: np.ndarray, k: int) -> None:
        m = x[IX_M]
        m_dry = self.scn.m_dry
        p = slice(len(m)) if m.ndim else ()  # the lanes that x holds
        if m.ndim or m < m_dry:
            # a lane above the floor adds an exact zero
            d = np.where(m < m_dry, m_dry - m, 0.0)
            self.mass_acc[p] += d * d
        if k >= self.k_flip:
            e = x[IX_TH] - self.scn.theta_f
            self.flip_acc[p] += e * e

    def seed(self, lanes: slice) -> None:
        """Copy lane 0's sums into ``lanes``."""
        self.mass_acc[lanes] = self.mass_acc[0]
        self.flip_acc[lanes] = self.flip_acc[0]

    def finish(self, x: np.ndarray, smoothness):
        """Total and terms at the final state ``x``, given the smoothness
        penalty of the controls (one value per lane for a batch); a term
        that overflows is inf."""
        scn, w = self.scn, self.w
        dr = (x[IX_X] - scn.r_f[0], x[IX_Y] - scn.r_f[1])
        dv = (x[IX_U] - scn.v_f[0], x[IX_V] - scn.v_f[1])
        dth = x[IX_TH] - scn.theta_f
        dom = x[IX_OM] - scn.omega_f
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (
                w.w_r * (dr[0] * dr[0] + dr[1] * dr[1]),
                w.w_v * (dv[0] * dv[0] + dv[1] * dv[1]),
                w.w_theta * dth * dth,
                w.w_omega * dom * dom,
                w.w_smooth * smoothness,
                w.w_mass * self.mass_acc,
                w.w_flip * self.flip_acc,
            )
            total = terms[0]
            for t in terms[1:]:
                total = total + t
        return total, terms


def _breakdown(total, terms) -> LossBreakdown:
    """The loss as floats; raises FloatingPointError naming the first
    non-finite term, or the total if only the sum overflows."""
    named = {name: float(t) for name, t in zip(LOSS_TERM_NAMES, terms)}
    for name, t in (*named.items(), ("total", float(total))):
        if not np.isfinite(t):
            raise FloatingPointError(f"non-finite loss: {name} is {t}")
    return LossBreakdown(total=float(total), terms=named)


# ---------------------------------------------------------------------------
# Public rollout and loss
# ---------------------------------------------------------------------------

def rollout(raw: RawControlParams, scn, aero: AeroModel) -> Trajectory:
    """Roll out the reparameterized controls from the scenario start state."""
    seq = reparameterize(raw, scn)
    return rollout_controls(seq, scn, aero)


def rollout_controls(seq: ControlSequence, scn, aero: AeroModel) -> Trajectory:
    """Roll out an explicit control sequence (used by forward-only replay)."""
    if seq.K != scn.K:
        raise ValueError(f"control sequence length {seq.K} != scenario K {scn.K}")
    K = scn.K
    states = np.empty((K + 1, STATE_DIM))
    states[0] = x = scn.x0
    # divergence is detected explicitly per step; intermediate overflow is
    # expected on the way to the RolloutError
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            x = rk4_advance(x, seq.thrust[k], seq.delta[k], scn.dt, scn,
                            aero)[0]
            _check_finite(x, k + 1)
            states[k + 1] = x
    return Trajectory(states=states, thrust=seq.thrust.copy(),
                      delta_cmd=seq.delta.copy(), dt=float(scn.dt))


def loss(traj: Trajectory, w: LossWeights, scn) -> LossBreakdown:
    """Composite loss of a completed trajectory.

    The control sequence embedded in the trajectory supplies the
    smoothness term, so no raw parameters are needed here.
    """
    acc = _PathAccumulator(scn, w)
    for k in range(traj.states.shape[0]):
        acc.add(traj.states[k], k)
    return _breakdown(*acc.finish(traj.states[-1],
                                  smoothness_penalty(traj.controls(), scn)))


# ---------------------------------------------------------------------------
# Reverse sweep building blocks
# ---------------------------------------------------------------------------

def _terminal_cotangent(x_final: np.ndarray, scn, w: LossWeights) -> np.ndarray:
    weight = np.array([w.w_r, w.w_r, w.w_v, w.w_v, w.w_theta, w.w_omega])
    target = [*scn.r_f, *scn.v_f, scn.theta_f, scn.omega_f]
    lam = np.zeros(STATE_DIM)
    lam[:6] = 2.0 * weight * (x_final[:6] - target)
    return lam


def _add_path_cotangent(lam: np.ndarray, x: np.ndarray, k: int, k_flip: int,
                        scn, w: LossWeights) -> None:
    m = float(x[IX_M])
    if m < scn.m_dry:
        lam[IX_M] += -2.0 * w.w_mass * (scn.m_dry - m)
    if k >= k_flip:
        lam[IX_TH] += 2.0 * w.w_flip * (float(x[IX_TH]) - scn.theta_f)


def _step_jacobians(lanes: np.ndarray, T: np.ndarray, scn,
                    aero: AeroModel) -> np.ndarray:
    """``[Phi_k | G_k]`` = d x_{k+1} / d (x_k, T_k, delta_k), shape
    (n, 8, 10), for n steps whose start and stage states are ``lanes``
    (4, n, 8), with one thrust per step in ``T``.  With S_i = [J_i | B_i]
    from one :func:`rhs_and_jacobians` call, stage i's slope has the
    derivative d_1 = S_1, d_i = S_i + h_i J_i d_{i-1}, and the step
    [I | 0] + dt/6 (d_1 + 2 d_2 + 2 d_3 + d_4).  Batched ``matmul`` gives
    a matrix the same bits in any batch (``einsum``'s differ from it).
    """
    S = rhs_and_jacobians(lanes.reshape(-1, STATE_DIM).T, np.tile(T, 4), scn,
                          aero).reshape(4, len(T), STATE_DIM, STATE_DIM + 2)
    M = S[0].copy()  # d_1 + 2 d_2 + 2 d_3 + d_4, accumulated in place
    d = S[0].copy()
    tmp = np.empty_like(d)
    h2 = 0.5 * scn.dt
    for i, h, c in ((1, h2, 2.0), (2, h2, 2.0), (3, scn.dt, 1.0)):
        np.matmul(S[i, :, :, :STATE_DIM], d, out=tmp)
        tmp *= h
        np.add(S[i], tmp, out=d)
        M += np.multiply(c, d, out=tmp)
    M *= scn.dt / 6.0
    for r in range(STATE_DIM):
        M[:, r, r] += 1.0
    return M


# ---------------------------------------------------------------------------
# Gradient engine: one checkpointed reverse sweep, two storage policies
# ---------------------------------------------------------------------------

def _grad(raw: RawControlParams, scn, aero: AeroModel, w: LossWeights | None,
          seg_len: int, engine: str) -> GradientReport:
    """Exact gradient by one reverse sweep over checkpoint segments.

    The forward pass keeps the start state of every ``seg_len``-step
    segment but the last as a checkpoint, and records each step's start
    and three stage states, as :func:`rk4_advance` returns them, for the
    segment it is in.  The reverse sweep takes the segments newest first,
    recording each earlier one again from its checkpoint.  One
    :func:`_step_jacobians` call turns a segment's record into its M_k,
    and the sweep runs lam_k = Phi_k^T lam_{k+1} + path terms, with the
    control gradient G_k^T lam_{k+1}, as ``lam @ M_k``.  M_k does not
    depend on the batch, so every ``seg_len`` gives the same bits.
    ``bptt`` takes seg_len = K: one call linearizes the whole record.
    ``adjoint`` takes ``ADJOINT_SEG_LEN``: it recomputes up to one forward
    pass, and only its checkpoints grow with K.

    ``peak_aux_floats`` counts what the sweep holds while it composes a
    segment: n_seg - 1 checkpoints, the record of 4 seg_len states, ``x``,
    ``lam``, and 560 floats per step of the segment (four stage
    ``[J | B]``, then ``M``, ``d`` and a product buffer).  The O(K)
    control-sized arrays are not counted: on case2 the adjoint's traced
    peak grows from 40 KB at K = 180 to 57 KB at K = 360, while the two
    policies' peaks differ by 8 bytes per counted float to within 2 % on
    the drag model, the surrogate and ``NoAero``.  Their ``forces_jac``
    temporaries are freed before the dense arrays exist and are smaller:
    about 9, 36 and 134 floats per stage, against 140.
    """
    w = w or scn.weights
    t0 = time.perf_counter()
    seq = reparameterize(raw, scn)
    K = scn.K
    n_seg = -(-K // seg_len)
    ckpt = np.empty((n_seg - 1, STATE_DIM))
    # rec[:, i]: the start state and stage states of the segment's step i
    rec = np.empty((4, seg_len, STATE_DIM))

    def advance(x, k):
        """Step k from x, recorded in its segment's record."""
        nxt, stages = rk4_advance(x, seq.thrust[k], seq.delta[k], scn.dt,
                                  scn, aero)
        rec[:, k % seg_len] = (x, *stages)
        return nxt

    acc = _PathAccumulator(scn, w)
    x = scn.x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            if k % seg_len == 0 and k // seg_len < len(ckpt):
                ckpt[k // seg_len] = x
            acc.add(x, k)
            x = advance(x, k)
            _check_finite(x, k + 1)
    acc.add(x, K)
    breakdown = _breakdown(*acc.finish(x, smoothness_penalty(seq, scn)))

    lam = _terminal_cotangent(x, scn, w)
    _add_path_cotangent(lam, x, K, acc.k_flip, scn, w)

    g = np.empty((2, K))  # d loss / d (T_k, delta_k)
    for j in range(n_seg - 1, -1, -1):
        s = j * seg_len
        e = min(s + seg_len, K)
        if j < n_seg - 1:
            x = ckpt[j]
            for k in range(s, e):
                x = advance(x, k)
        M = _step_jacobians(rec[:, :e - s], seq.thrust[s:e], scn, aero)
        for k in reversed(range(s, e)):
            lam = lam @ M[k - s]
            g[:, k] = lam[STATE_DIM:]
            lam = lam[:STATE_DIM]
            _add_path_cotangent(lam, rec[0, k - s], k, acc.k_flip, scn, w)

    # the smoothness term, then the chain rule through the squash mapping
    gu = ((g + w.w_smooth * np.array(smoothness_grads(seq, scn)))
          * reparameterize_grads(raw, scn))
    for name, gi in zip(("u_T", "u_delta"), gu):
        bad = np.flatnonzero(~np.isfinite(gi))
        if bad.size:
            raise FloatingPointError(
                f"non-finite gradient component {name}[{bad[0]}]")
    return GradientReport(
        grad_u_T=gu[0], grad_u_delta=gu[1], engine=engine,
        wall_time_s=time.perf_counter() - t0,
        peak_aux_floats=(ckpt.size + rec.size + 2 * STATE_DIM + 7 * STATE_DIM
                         * (STATE_DIM + 2) * seg_len),
        loss=breakdown)


def grad_bptt(raw: RawControlParams, scn, aero: AeroModel,
              w: LossWeights | None = None) -> GradientReport:
    """Exact gradient recording every step's stages (memory linear in K)."""
    return _grad(raw, scn, aero, w, scn.K, "bptt")


def grad_adjoint(raw: RawControlParams, scn, aero: AeroModel,
                 w: LossWeights | None = None) -> GradientReport:
    """Exact gradient from a checkpoint every ``ADJOINT_SEG_LEN`` steps
    (memory grows with K only through the 8-float checkpoints); the same
    bits as :func:`grad_bptt`."""
    return _grad(raw, scn, aero, w, ADJOINT_SEG_LEN, "adjoint")


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def finite_diff_grad(raw: RawControlParams, scn, aero: AeroModel,
                     w: LossWeights | None = None, h: float = 1e-6,
                     dtype=None) -> GradientReport:
    """Central differences on every raw parameter (2 rollouts per entry).

    The ``n_rollouts`` = 4K perturbed rollouts and the unperturbed base
    rollout advance together as the 4K + 1 lanes of one state batch.  Lane
    0 is the base rollout; lanes 4i + 1 to 4i + 4 move the entry of step i
    by u_T + h, u_T - h, u_delta + h and u_delta - h.  Such a lane equals
    the base rollout until step i, so it shares that prefix instead of
    computing it: at step k, lanes 4k + 1 to 4k + 4 take lane 0's state
    and loss sums, and one :func:`rk4_advance` call advances the first
    4k + 5 lanes.  That is 2K(K + 1) + K lane-steps against 4K^2 for
    running every lane from the start.  Lanes never mix, and in extended
    precision each lane's loss is bit-identical to a rollout of its
    perturbed controls on its own.  The base lane's loss is not reported,
    so the report's ``loss`` is None.  ``peak_aux_floats`` counts the lane
    states, the RK4 step's stage states, stage derivatives and result,
    the lane controls and loss sums, and the control sequences, for all
    4K + 1 lanes at the last step; the aero model's temporaries are not
    counted.

    ``dtype=np.longdouble`` runs the rollouts in extended precision, which
    drops the cancellation floor of the difference quotient by ~5 orders
    of magnitude on x86; the analytic engine stays untouched, so the
    oracle remains an independent route to the value.
    """
    w = w or scn.weights
    if h <= 0:
        raise ValueError("h must be positive")
    dtype = dtype or np.float64
    t0 = time.perf_counter()
    K = scn.K
    n = 4 * K
    u_T = raw.u_T.astype(dtype)
    u_d = raw.u_delta.astype(dtype)
    base = reparameterize(RawControlParams(u_T, u_d), scn)
    plus = reparameterize(RawControlParams(u_T + h, u_d + h), scn)
    minus = reparameterize(RawControlParams(u_T - h, u_d - h), scn)
    moved = (plus.thrust, minus.thrust, plus.delta, minus.delta)  # per lane
    smoothness = np.zeros(n + 1, dtype)  # lane 0's loss is not used
    for j in range(n):
        i, kind = divmod(j, 4)
        lane = [base.thrust.copy(), base.delta.copy()]
        lane[kind // 2][i] = moved[kind][i]
        smoothness[j + 1] = smoothness_penalty(ControlSequence(*lane), scn)

    acc = _PathAccumulator(scn, w, dtype=dtype, lanes=n + 1)
    x = np.tile(scn.x0.astype(dtype)[:, None], n + 1)
    for k in range(K):
        p = 4 * k + 5  # the base lane and the lanes that have left it
        new = slice(p - 4, p)
        x[:, new] = x[:, :1]
        acc.seed(new)
        acc.add(x[:, :p], k)
        T = np.full(p, base.thrust[k])
        T[p - 4:p - 2] = plus.thrust[k], minus.thrust[k]
        delta = np.full(p, base.delta[k])
        delta[p - 2:] = plus.delta[k], minus.delta[k]
        x[:, :p] = rk4_advance(x[:, :p], T, delta, scn.dt, scn, aero)[0]
    acc.add(x, K)
    total, _ = acc.finish(x, smoothness)
    # rows: u_T + h, u_T - h, u_delta + h, u_delta - h
    lp_lm = total[1:].reshape(K, 4).T
    g = ((lp_lm[0::2] - lp_lm[1::2]) / (2.0 * dtype(h))).astype(np.float64)

    # the three control sequences, and per lane the state, the RK4 step's
    # three stage states, four stage derivatives and result, the lane's
    # thrust, gimbal and mass rate, its two loss sums and its smoothness
    peak_aux = 6 * K + (n + 1) * (9 * STATE_DIM + 6)
    return GradientReport(
        grad_u_T=g[0], grad_u_delta=g[1], engine="finite_diff",
        wall_time_s=time.perf_counter() - t0,
        peak_aux_floats=peak_aux, n_rollouts=n)
