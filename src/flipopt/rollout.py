"""Trajectory rollout, composite loss, and gradients of loss w.r.t. controls.

The rollout advances the coupled dynamics + aero system over K RK4 steps
from the scenario's initial state.  The loss combines terminal residuals
with path penalties (control smoothness, dry-mass floor, pitch error after
the flip deadline).  :func:`terminal_residual` is the one statement of the
landing residual: the loss, its cotangent and the run summary all read
it.  :func:`_loss` is the one statement of the loss, a pure function of
the final state and of the path sums that :func:`_fold_path` adds up as
the states are made: :func:`loss`, the engine and every oracle lane fold
theirs so, in one order and without keeping a path.  Gradients come from
one engine and one oracle:

* :func:`_grad` - reverse accumulation through every RK4 step, along the
  very stage states that the forward pass produced.  Segments of
  ``seg_len`` steps are recorded by :func:`_advance`, the loop that
  :func:`rollout_controls` runs over the whole horizon, turned into dense
  step Jacobians ``[Phi_k | G_k]`` by batched ``matmul`` and swept newest
  first with lam_k = Phi_k^T lam_{k+1} + path terms; each earlier segment
  is recorded again from its checkpoint: checkpointed reverse mode
  (Griewank & Walther, *Evaluating Derivatives*, 2008).  Two storage
  policies, which differ only in ``seg_len``, are exposed under the
  engine names of the config and the CLI.  :func:`grad_bptt` records and
  linearizes the whole horizon at once (memory linear in K, nothing
  recomputed); :func:`grad_adjoint` keeps a checkpoint every
  ``ADJOINT_SEG_LEN`` = 30 steps and linearizes one 30-step segment at a
  time (8 floats per checkpoint, at the price of recomputing every step
  but the last segment's).  Both run the same code, so their gradients
  agree to the last bit; only the memory counters differ.
* :func:`finite_diff_grad` - central differences on the raw parameters,
  the independent validation oracle.  Its 4K perturbed rollouts advance
  together in one loop over the steps as the lanes of one state batch,
  each from the unperturbed rollout at the step it perturbs, and it can
  evaluate them in extended precision to push the difference roundoff
  floor far below the gradient-check tolerances.

A diverged state raises the dynamics module's :class:`RolloutError`, and a
non-finite loss term or gradient entry a ``FloatingPointError`` naming it.
"""

from __future__ import annotations

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
    IX_TH,
    STATE_DIM,
    AeroModel,
    RolloutError,  # noqa: F401  re-exported for the callers that catch it
    check_state,
    rhs_and_jacobians,
    rk4_advance,
)

# adjoint steps per checkpoint and linearization call; a call's fixed cost
# is that of linearizing about 20 steps (surrogate) to 60 (drag model)
ADJOINT_SEG_LEN = 30
# config and CLI names of the gradient engines; each is grad_<name> below
GRAD_ENGINES = ("bptt", "adjoint")

LOSS_TERM_NAMES = ("terminal_position", "terminal_velocity", "terminal_pitch",
                   "terminal_omega", "smoothness", "mass_floor", "flip_deadline")


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
    peak_aux_floats: int = 0  # engines' peak auxiliary storage, in floats
    n_rollouts: int = 0       # forward rollouts consumed (finite differences)
    loss: LossBreakdown | None = None  # None from the finite-difference oracle

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.grad_u_T, self.grad_u_delta])


# ---------------------------------------------------------------------------
# Forward simulation
# ---------------------------------------------------------------------------

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


def terminal_residual(x: np.ndarray, scn) -> np.ndarray:
    """x_K minus the landing target in (x, y, u, v, theta, omega), shape
    (6,) for one state (8,) and (6, B) for a batch (8, B), in the state's
    dtype."""
    target = np.array([*scn.r_f, *scn.v_f, scn.theta_f, scn.omega_f])
    return (x[:6].T - target).T  # lanes last, as in the state batch


def _fold_path(sums: np.ndarray, m: np.ndarray, th: np.ndarray, k0: int,
               scn) -> np.ndarray:
    """``sums``, (2,) or (2, B), plus the squared dry-mass deficit and the
    squared post-deadline pitch error of states k0, k0 + 1, ..., whose
    masses and pitches are ``m`` and ``th``, (n,) or (n, B).  Reducing
    the leading axis adds them to ``sums`` row by row, in step order, so
    any split of a rollout into calls gives the same bits (numpy adds
    pairwise only along a contiguous axis); an inactive term adds 0."""
    t = np.zeros((len(m) + 1, *np.shape(sums)), np.result_type(sums, m))
    t[0] = sums
    k = max(first_flip_index(scn) - k0, 0)  # the first row past the deadline
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(scn.m_dry, m, out=t[1:, 0], where=m < scn.m_dry)
        np.subtract(th[k:], scn.theta_f, out=t[1 + k:, 1])
        t[1:] *= t[1:]
        return np.add.reduce(t, axis=0)


def _loss(sums: np.ndarray, x_K: np.ndarray, smoothness, scn, w: LossWeights):
    """Total and terms of the loss from the path sums of :func:`_fold_path`,
    (2,) for one rollout or (2, B) for B lanes, the final state ``x_K``
    (8,) or (8, B) and the controls' smoothness penalty (one per lane).
    Raises as :func:`_check_loss` does instead of returning a term that is
    not finite."""
    mass, flip = sums
    dx, dy, du, dv, dth, dom = terminal_residual(x_K, scn)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (
            w.w_r * (dx * dx + dy * dy),
            w.w_v * (du * du + dv * dv),
            w.w_theta * dth * dth,
            w.w_omega * dom * dom,
            w.w_smooth * smoothness,
            w.w_mass * mass,
            w.w_flip * flip,
        )
        total = terms[0]
        for t in terms[1:]:
            total = total + t
    _check_loss(total, terms)
    return total, terms


def _add_path_cotangent(lam: np.ndarray, x: np.ndarray, k: int,
                        k_flip: int, scn, w: LossWeights) -> None:
    """Add to ``lam`` the derivative of the path terms at state k, ``x``;
    an inactive term adds nothing, so a -0.0 entry keeps its sign."""
    m = float(x[IX_M])
    if m < scn.m_dry:
        lam[IX_M] += -2.0 * w.w_mass * (scn.m_dry - m)
    if k >= k_flip:
        lam[IX_TH] += 2.0 * w.w_flip * (float(x[IX_TH]) - scn.theta_f)


def _check_loss(total, terms) -> None:
    """Raise FloatingPointError naming the first term that is non-finite
    in any lane, or the total if only the sum overflows.  Any non-finite
    term makes the total non-finite, so a finite total passes at once."""
    if np.isfinite(total).all():
        return
    for name, t in zip((*LOSS_TERM_NAMES, "total"), (*terms, total)):
        bad = np.asarray(t)[~np.isfinite(t)]
        if bad.size:
            raise FloatingPointError(f"non-finite loss: {name} is {bad[0]}")


def _breakdown(total, terms) -> LossBreakdown:
    """The loss of one rollout as floats."""
    return LossBreakdown(total=float(total), terms={
        name: float(t) for name, t in zip(LOSS_TERM_NAMES, terms)})


def _advance(x: np.ndarray, steps: range, rec: np.ndarray,
             seq: ControlSequence, scn, aero: AeroModel) -> np.ndarray:
    """Take ``steps`` from state ``x`` and return the state after the last.

    Step k's start state and three stage states, as :func:`rk4_advance`
    returns them, go to ``rec[:, k % rec.shape[1]]`` in one write after
    the steps, which run on lists of Python floats.  A non-finite field
    stays so through every later step, so only a non-finite returned state
    has :func:`check_state` scan the steps for the first that ended so.
    Every forward pass of this module but the oracle's lanes runs this
    loop; it computes no loss term.
    """
    x = x.tolist()
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for T, delta in zip(seq.thrust[steps].tolist(),
                            seq.delta[steps].tolist()):
            nxt, stages = rk4_advance(x, T, delta, scn.dt, scn, aero)
            out.append((x, *stages))
            x = nxt
    i = steps.start % rec.shape[1]
    rec.swapaxes(0, 1)[i:i + len(out)] = out
    x = np.array(x)
    if not np.isfinite(x).all():
        for k in steps:
            end = x if k == steps[-1] else rec[0, (k + 1) % rec.shape[1]]
            check_state(end, k + 1)
    return x


# ---------------------------------------------------------------------------
# Public rollout and loss
# ---------------------------------------------------------------------------

def _check_length(n: int, scn) -> None:
    """Refuse controls of ``n`` steps for a scenario of K steps."""
    if n != scn.K:
        raise ValueError(f"control sequence length {n} != scenario K {scn.K}")


def rollout(raw: RawControlParams, scn, aero: AeroModel) -> Trajectory:
    """Roll out the reparameterized controls from the scenario start state."""
    seq = reparameterize(raw, scn)
    return rollout_controls(seq, scn, aero)


def rollout_controls(seq: ControlSequence, scn, aero: AeroModel) -> Trajectory:
    """Roll out an explicit control sequence (used by forward-only replay),
    one ``ADJOINT_SEG_LEN`` segment of Python floats at a time."""
    _check_length(seq.K, scn)
    rec = np.empty((4, scn.K, STATE_DIM))
    x = scn.x0
    for s in range(0, scn.K, ADJOINT_SEG_LEN):
        steps = range(s, min(s + ADJOINT_SEG_LEN, scn.K))
        x = _advance(x, steps, rec, seq, scn, aero)
    return Trajectory(states=np.concatenate([rec[0], x[None]]),
                      thrust=seq.thrust.copy(), delta_cmd=seq.delta.copy(),
                      dt=float(scn.dt))


def loss(traj: Trajectory, w: LossWeights, scn) -> LossBreakdown:
    """Composite loss of a completed trajectory.

    The control sequence embedded in the trajectory supplies the
    smoothness term, so no raw parameters are needed here.
    """
    x = traj.states
    sums = _fold_path(np.zeros(2), x[:, IX_M], x[:, IX_TH], 0, scn)
    return _breakdown(*_loss(sums, x[-1],
                             smoothness_penalty(traj.controls(), scn), scn, w))


# ---------------------------------------------------------------------------
# Reverse sweep building blocks
# ---------------------------------------------------------------------------

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
    # [I | 0]: entry (r, r) of a step's flattened 8 x 10 matrix is at 11 r
    M.reshape(len(M), -1)[:, ::STATE_DIM + 3] += 1.0
    return M


# ---------------------------------------------------------------------------
# Gradient engine: one checkpointed reverse sweep, two storage policies
# ---------------------------------------------------------------------------

def _grad(raw: RawControlParams, scn, aero: AeroModel, w: LossWeights | None,
          seg_len: int) -> GradientReport:
    """Exact gradient by one reverse sweep over checkpoint segments.

    The forward pass keeps the start state of every ``seg_len``-step
    segment but the last as a checkpoint, and records each step's start
    and three stage states for the segment it is in: one :func:`_advance`
    call per segment, the loop of :func:`rollout_controls`.  The reverse
    sweep takes the segments newest first, recording each earlier one
    again from its checkpoint with the same call.  One
    :func:`_step_jacobians` call turns a segment's record into its M_k,
    and the sweep runs lam_k = Phi_k^T lam_{k+1} + path terms, with the
    control gradient G_k^T lam_{k+1}, as ``lam @ M_k``.  M_k does not
    depend on the batch, so every ``seg_len`` gives the same bits.
    ``bptt`` takes seg_len = K: one call linearizes the whole record.
    ``adjoint`` takes ``ADJOINT_SEG_LEN``: it recomputes every step but
    the last segment's, and only its checkpoints grow with K.  A horizon
    shorter than ``seg_len`` is one segment of K steps.  The forward pass
    folds each segment's states, then x_K, into the path sums, and the
    sweep adds each state's path cotangent from the segment record that it
    holds for the Jacobians.

    ``peak_aux_floats`` counts what the sweep holds while it composes a
    segment: n_seg - 1 checkpoints, the record of 4 seg_len states, ``x``,
    ``lam``, and 560 floats per step of the segment (four stage
    ``[J | B]``, then ``M``, ``d`` and a product buffer).  The O(K)
    controls and ``g`` are not counted, nor numpy's iterator buffers for
    the identity in :func:`_step_jacobians` (16 floats per step): on case2
    the adjoint's traced peak grows from 178 KB at K = 180 to 185 KB at
    K = 360, while the two policies' peaks differ by 8 bytes per counted
    float to within 2 % at K = 180 and 360 (5 % at K = 90) on the drag
    model, the surrogate and ``NoAero``.  Their ``forces_jac`` temporaries
    are freed before the dense arrays exist and are smaller: about 9, 36
    and 134 floats per stage, against 140.
    """
    w = w or scn.weights
    _check_length(raw.K, scn)
    seq = reparameterize(raw, scn)
    K = scn.K
    seg_len = min(seg_len, K)
    segs = [range(s, min(s + seg_len, K)) for s in range(0, K, seg_len)]
    ckpt = np.empty((len(segs) - 1, STATE_DIM))
    rec = np.empty((4, seg_len, STATE_DIM))  # one segment, as _advance writes

    sums = np.zeros(2)  # the path terms of the states made so far
    x = scn.x0
    for j, steps in enumerate(segs):
        if j < len(ckpt):
            ckpt[j] = x
        x = _advance(x, steps, rec, seq, scn, aero)
        fields = rec[0, :len(steps)].T  # the segment's states, fields first
        sums = _fold_path(sums, fields[IX_M], fields[IX_TH], steps.start, scn)
    sums = _fold_path(sums, x[IX_M:IX_M + 1], x[IX_TH:IX_TH + 1], K, scn)
    breakdown = _breakdown(*_loss(sums, x, smoothness_penalty(seq, scn), scn,
                                  w))

    k_flip = first_flip_index(scn)
    weight = np.array([w.w_r, w.w_r, w.w_v, w.w_v, w.w_theta, w.w_omega])
    lam = np.zeros(STATE_DIM)  # d loss / d x_K
    lam[:6] = 2.0 * weight * terminal_residual(x, scn)
    _add_path_cotangent(lam, x, K, k_flip, scn, w)
    g = np.empty((2, K))  # d loss / d (T_k, delta_k)
    for j, steps in reversed(list(enumerate(segs))):
        if j < len(ckpt):
            _advance(ckpt[j], steps, rec, seq, scn, aero)
        M = _step_jacobians(rec[:, :len(steps)], seq.thrust[steps], scn, aero)
        for k in reversed(steps):
            lam = lam @ M[k % seg_len]
            g[:, k] = lam[STATE_DIM:]
            lam = lam[:STATE_DIM]
            _add_path_cotangent(lam, rec[0, k % seg_len], k, k_flip, scn, w)

    # the smoothness term, then the chain rule through the squash mapping
    gu = ((g + w.w_smooth * np.array(smoothness_grads(seq, scn)))
          * reparameterize_grads(raw, scn))
    if not np.isfinite(gu).all():
        for name, gi in zip(("u_T", "u_delta"), gu):
            bad = np.flatnonzero(~np.isfinite(gi))
            if bad.size:
                raise FloatingPointError(
                    f"non-finite gradient component {name}[{bad[0]}]")
    return GradientReport(
        grad_u_T=gu[0], grad_u_delta=gu[1],
        peak_aux_floats=(ckpt.size + rec.size + 2 * STATE_DIM + 7 * STATE_DIM
                         * (STATE_DIM + 2) * seg_len),
        loss=breakdown)


def grad_bptt(raw: RawControlParams, scn, aero: AeroModel,
              w: LossWeights | None = None) -> GradientReport:
    """Exact gradient recording every step's stages (memory linear in K)."""
    return _grad(raw, scn, aero, w, scn.K)


def grad_adjoint(raw: RawControlParams, scn, aero: AeroModel,
                 w: LossWeights | None = None) -> GradientReport:
    """Exact gradient from a checkpoint every ``ADJOINT_SEG_LEN`` steps
    (memory grows with K only through the 8-float checkpoints); the same
    bits as :func:`grad_bptt`."""
    return _grad(raw, scn, aero, w, ADJOINT_SEG_LEN)


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
    computing it.  A lane carries its state, its two path sums, the
    controls it applied last and two sums of squared scaled control
    changes, ((T_k - T_{k-1}) / T_max)^2 and the same for the gimbal.  At
    step k, lanes 4k + 1 to 4k + 4 take all four from lane 0, the first
    4k + 5 lanes add state k (:func:`_fold_path`) and their control
    changes to their sums, and one :func:`rk4_advance` call advances
    them; one :func:`_loss` call scores all lanes.  That is 2K(K + 1) + K
    lane-steps against 4K^2 for running every lane from the start.  Lanes
    never mix, and in extended precision each lane's loss is bit-identical
    to a rollout of its perturbed controls on its own (long double's
    ``np.dot`` adds in index order, as a lane does).  The base lane's loss
    is not reported, so the report's ``loss`` is None.  A loss term that
    is not finite in some lane raises FloatingPointError, as it does for
    the engines, and an ``h`` that is not finite and positive ValueError.

    ``dtype=np.longdouble`` runs the rollouts in extended precision, which
    drops the cancellation floor of the difference quotient by ~5 orders
    of magnitude on x86; the analytic engine stays untouched, so the
    oracle remains an independent route to the value.
    """
    w = w or scn.weights
    if not 0 < h < np.inf:  # nan fails both comparisons
        raise ValueError(f"h must be positive and finite, not {h}")
    _check_length(raw.K, scn)
    dtype = dtype or np.float64
    K = scn.K
    n = 4 * K
    u_T = raw.u_T.astype(dtype)
    u_d = raw.u_delta.astype(dtype)
    base = reparameterize(RawControlParams(u_T, u_d), scn)
    plus = reparameterize(RawControlParams(u_T + h, u_d + h), scn)
    minus = reparameterize(RawControlParams(u_T - h, u_d - h), scn)
    lanes = np.zeros((6 + STATE_DIM, n + 1), dtype)
    sums, smooth, last, x = np.split(lanes, [2, 4, 6])
    x[:] = scn.x0[:, None]
    for k in range(K):
        p = 4 * k + 5  # the base lane and the lanes that have left it
        lanes[:, p - 4:p] = lanes[:, :1]
        sums[:, :p] = _fold_path(sums[:, :p], x[IX_M:IX_M + 1, :p],
                                 x[IX_TH:IX_TH + 1, :p], k, scn)
        u = np.empty((2, p), dtype)  # each lane's thrust and gimbal at step k
        u[0], u[1] = base.thrust[k], base.delta[k]
        u[0, p - 4:p - 2] = plus.thrust[k], minus.thrust[k]
        u[1, p - 2:] = plus.delta[k], minus.delta[k]
        if k:
            d = (u - last[:, :p]) / [[scn.T_max], [scn.delta_max]]
            smooth[:, :p] += d * d
        last[:, :p] = u
        x[:, :p] = rk4_advance(x[:, :p], u[0], u[1], scn.dt, scn, aero)[0]
    sums = _fold_path(sums, x[IX_M:IX_M + 1], x[IX_TH:IX_TH + 1], K, scn)
    total = _loss(sums, x, smooth[0] + smooth[1], scn, w)[0]
    # rows: u_T + h, u_T - h, u_delta + h, u_delta - h
    lp_lm = total[1:].reshape(K, 4).T
    g = ((lp_lm[0::2] - lp_lm[1::2]) / (2.0 * dtype(h))).astype(np.float64)
    return GradientReport(grad_u_T=g[0], grad_u_delta=g[1], n_rollouts=n)
