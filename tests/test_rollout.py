import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import flipopt as fo
import flipopt.aero as am
import flipopt.rollout as ro
from conftest import random_raw, spy_engines, truncate
from flipopt import dynamics as dyn


@pytest.fixture(scope="module")
def short_scn(case1_cfg):
    return fo.nondimensionalize(truncate(case1_cfg, 8))


# ---------------------------------------------------------------------------
# Rollout record
# ---------------------------------------------------------------------------

def test_initial_state_matches_preset(case1_scn, simplified):
    traj = ro.rollout(fo.init_raw_params(case1_scn), case1_scn, simplified)
    x0 = traj.states[0]
    assert x0[4] == pytest.approx(math.radians(170.0))
    assert x0[2] == pytest.approx(-18.82 / 335.57)
    assert x0[3] == pytest.approx(-106.73 / 335.57)
    assert x0[6] == case1_scn.m_wet
    assert x0[7] == 0.0


def test_rollout_replay_is_bit_identical(short_scn, simplified):
    raw = random_raw(short_scn, 1)
    a = ro.rollout(raw, short_scn, simplified)
    b = ro.rollout(raw, short_scn, simplified)
    assert np.array_equal(a.states, b.states)


def test_states_replay_through_rk4_step(short_scn, simplified):
    raw = random_raw(short_scn, 2)
    traj = ro.rollout(raw, short_scn, simplified)
    for k in range(traj.K):
        nxt = fo.rk4_step(traj.states[k], (traj.thrust[k], traj.delta_cmd[k]),
                          simplified, short_scn.dt, short_scn)
        assert np.array_equal(nxt, traj.states[k + 1])


def test_single_step_against_hand_rolled_rk4(short_scn):
    """Independent RK4 reimplementation in the test, aero disabled."""
    scn = short_scn
    T = scn.T_min
    raw = fo.RawControlParams(np.full(scn.K, -200.0), np.zeros(scn.K))
    traj = ro.rollout(raw, scn, am.NoAero())

    def f(s):
        x, y, u, v, th, om, m, dd = s
        psi = th + dd
        return np.array([
            u, v,
            T * math.cos(psi) / m,
            T * math.sin(psi) / m - scn.g,
            om,
            -T * math.sin(dd) * scn.l_arm / scn.J_z,
            -T / scn.c_ex,
            (0.0 - dd) / scn.T_d,
        ])

    s0 = scn.x0
    k1 = f(s0)
    k2 = f(s0 + 0.5 * scn.dt * k1)
    k3 = f(s0 + 0.5 * scn.dt * k2)
    k4 = f(s0 + scn.dt * k3)
    expected = s0 + scn.dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(traj.states[1], expected, rtol=1e-13, atol=1e-16)
    assert traj.thrust[0] == pytest.approx(scn.T_min, rel=1e-12)


def test_rollout_controls_length_check(short_scn, simplified):
    seq = fo.ControlSequence(thrust=np.full(3, 0.02), delta=np.zeros(3))
    with pytest.raises(ValueError, match="length"):
        fo.rollout_controls(seq, short_scn, simplified)


@pytest.mark.parametrize("entry", [
    "grad_bptt", "grad_adjoint", "finite_diff_grad", "optimize"])
@pytest.mark.parametrize("n", [6, 10], ids=["K-2", "K+2"])
def test_controls_of_the_wrong_length_are_refused(entry, n, short_scn,
                                                  simplified):
    """Every gradient entry point refuses raw controls that are not K long
    as the rollout does, not with a broadcast error or with a gradient of
    the scenario's length."""
    raw = fo.RawControlParams(np.zeros(n), np.zeros(n))
    with pytest.raises(ValueError,
                       match=f"^control sequence length {n} != scenario K 8$"):
        if entry == "optimize":
            fo.optimize(short_scn, simplified, raw0=raw, n_steps=1)
        else:
            getattr(ro, entry)(raw, short_scn, simplified)


ENTRY_POINTS = ["rollout", "grad_bptt", "grad_adjoint"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("K, step", [(8, 4), (40, 35)])
def test_nonfinite_state_reports_step(entry, K, step, case1_cfg):
    """Every forward pass names the step that diverged; at K = 40 step 35
    is in the second adjoint segment."""
    class BlowUpAero:
        def __init__(self):
            self.calls = 0

        def forces(self, s, scn):
            self.calls += 1
            if self.calls > 4 * (step - 1):  # poison the step's first stage
                return float("nan"), 0.0, 0.0
            return 0.0, 0.0, 0.0

        def forces_jac(self, states, scn):
            raise NotImplementedError

    scn = fo.nondimensionalize(truncate(case1_cfg, K))
    with pytest.raises(ro.RolloutError) as err:
        getattr(ro, entry)(fo.init_raw_params(scn), scn, BlowUpAero())
    assert err.value.step == step
    assert err.value.fields


@pytest.mark.parametrize("entry", [*ENTRY_POINTS, "rk4_step"])
@pytest.mark.parametrize("model_name", ["simplified", "surrogate"])
def test_infinite_pitch_raises_rollout_error(model_name, entry, short_scn,
                                             simplified, surrogate):
    """A single step and every rollout report the diverged state alike:
    one RolloutError at step 1 that names the fields."""
    model = {"simplified": simplified, "surrogate": surrogate}[model_name]
    x0 = short_scn.x0.copy()
    x0[dyn.IX_TH] = np.inf
    scn = replace(short_scn, x0=x0)
    raw = fo.init_raw_params(scn)
    with pytest.raises(ro.RolloutError) as err:
        if entry == "rk4_step":
            seq = fo.reparameterize(raw, scn)
            fo.rk4_step(x0, (seq.thrust[0], seq.delta[0]), model, scn.dt, scn)
        else:
            getattr(ro, entry)(raw, scn, model)
    assert err.value.step == 1
    assert "theta" in err.value.fields


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def _make_traj_hitting_targets(scn, K=4):
    x = np.zeros((K + 1, 8))
    x[:, 0] = scn.r_f[0]
    x[:, 1] = scn.r_f[1]
    x[:, 2] = scn.v_f[0]
    x[:, 3] = scn.v_f[1]
    x[:, 4] = scn.theta_f
    x[:, 5] = scn.omega_f
    x[:, 6] = scn.m_wet
    return ro.Trajectory(states=x, thrust=np.full(K, 0.02),
                         delta_cmd=np.zeros(K), dt=float(scn.dt))


def test_loss_zero_on_exact_targets(case1_scn):
    traj = _make_traj_hitting_targets(case1_scn)
    lb = fo.loss(traj, case1_scn.weights, case1_scn)
    assert lb.total == 0.0
    assert all(v == 0.0 for v in lb.terms.values())


def test_loss_unit_position_residual(case1_scn):
    scn = case1_scn
    traj = _make_traj_hitting_targets(scn)
    states = traj.states.copy()
    states[-1, 0] += 1.0  # one vehicle length off along x
    traj = replace(traj, states=states)
    w = fo.LossWeights(w_r=1.0, w_v=0, w_theta=0, w_omega=0, w_smooth=0,
                       w_mass=0, w_flip=0)
    lb = fo.loss(traj, w, scn)
    assert lb.total == pytest.approx(1.0, rel=1e-12)


def test_loss_total_is_sum_of_terms(case1_scn, simplified):
    traj = ro.rollout(random_raw(case1_scn, 7), case1_scn, simplified)
    lb = fo.loss(traj, case1_scn.weights, case1_scn)
    assert lb.total == pytest.approx(sum(lb.terms.values()), rel=1e-12)
    assert all(v >= 0.0 for v in lb.terms.values())
    assert set(lb.terms) == set(ro.LOSS_TERM_NAMES)


def test_case1_targets_nondimensional(case1_scn):
    np.testing.assert_allclose(case1_scn.r_f, [-7.2, -24.0], rtol=1e-14)


def test_mass_floor_and_flip_terms_activate(case1_scn):
    scn = case1_scn
    # horizon long enough that the flip deadline falls inside it
    traj = _make_traj_hitting_targets(scn, K=16)
    states = traj.states.copy()
    states[2, 6] = scn.m_dry - 0.01
    states[-1, 4] = scn.theta_f + 0.1
    traj = replace(traj, states=states)
    lb = fo.loss(traj, fo.LossWeights(w_r=0, w_v=0, w_theta=0, w_omega=0,
                                      w_smooth=0, w_mass=2.0, w_flip=3.0), scn)
    assert lb.terms["mass_floor"] == pytest.approx(2.0 * 0.01**2, rel=1e-10)
    k_flip = ro.first_flip_index(scn)
    assert k_flip <= traj.K  # deadline falls inside this short horizon
    assert lb.terms["flip_deadline"] == pytest.approx(3.0 * 0.1**2, rel=1e-10)


def test_first_flip_index_strictly_after_deadline(case1_scn):
    k = ro.first_flip_index(case1_scn)
    assert (k - 1) * case1_scn.dt <= case1_scn.t_flip < k * case1_scn.dt


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def _dry_floor(cfg, dry_margin_kg):
    """``cfg`` with the dry mass ``dry_margin_kg`` below the wet mass, which
    puts the dry-mass floor inside a K = 16 horizon; None keeps ``cfg``."""
    if dry_margin_kg is None:
        return cfg
    v = cfg.vehicle
    return replace(cfg, vehicle=replace(v, m_dry=v.m_wet - dry_margin_kg))


def test_fold_path_gives_the_same_bytes_however_the_states_are_split(
        case1_cfg, simplified):
    """One call, segments split at the adjoint's 30 and 60 and at the first
    flip index, and one state at a time fold the same bytes, for one
    rollout, for a (K+1, B) block of lanes and for a block as wide as the
    preset's oracle (4K + 1 lanes), where a pairwise sum would move bits."""
    scn = fo.nondimensionalize(_dry_floor(case1_cfg, 500.0))
    assert scn.K == 90
    lanes = np.stack([ro.rollout(random_raw(scn, seed), scn, simplified).states
                      for seed in range(4)], axis=-1)  # (K+1, 8, B)
    # each lane a rollout shrunk by up to 1e-3: its mass deficit only grows
    shrink = 1.0 - 1e-3 * np.random.default_rng(0).random(4 * scn.K + 1)
    wide = lanes[..., np.arange(shrink.size) % 4] * shrink
    splits = {
        "one call": [0, scn.K + 1],
        "segments": [0, *sorted({30, 60, ro.first_flip_index(scn)}),
                     scn.K + 1],
        "one state at a time": list(range(scn.K + 2)),
    }
    for x in (lanes[..., 0], lanes, wide):
        m, th = x[:, dyn.IX_M], x[:, dyn.IX_TH]
        folded = {}
        for name, cuts in splits.items():
            sums = np.zeros((2, *m.shape[1:]))
            for a, b in zip(cuts, cuts[1:]):
                sums = ro._fold_path(sums, m[a:b], th[a:b], a, scn)
            folded[name] = sums.tobytes()
        assert (sums > 0).all()  # every rollout has both terms active
        assert len(set(folded.values())) == 1, folded.keys()


# K = 1 has no control differences, so the smoothness term and its
# gradient come from empty sums
@pytest.mark.parametrize("model_name, K, dry_margin_kg", [
    ("simplified", 6, None), ("surrogate", 6, None),
    ("simplified", 1, None), ("surrogate", 1, None),
    ("simplified", 16, 500.0), ("surrogate", 16, 500.0)],
    ids=["simplified", "surrogate", "simplified-K1", "surrogate-K1",
         "K16-dry-floor-simplified", "K16-dry-floor-surrogate"])
def test_bptt_matches_finite_differences(model_name, K, dry_margin_kg,
                                         case1_cfg, surrogate):
    scn = fo.nondimensionalize(_dry_floor(truncate(case1_cfg, K),
                                          dry_margin_kg))
    model = am.SimplifiedAero(C_D=1.0) if model_name == "simplified" else surrogate
    raw = random_raw(scn, 11)
    rep = ro.grad_bptt(raw, scn, model, scn.weights)
    assert (rep.loss.terms["mass_floor"] > 0) == (dry_margin_kg is not None)
    g = rep.stacked()
    r = ro.finite_diff_grad(raw, scn, model, scn.weights, h=1e-6,
                            dtype=np.longdouble).stacked()
    big = np.abs(r) > 1e-8
    np.testing.assert_allclose(g[big], r[big], rtol=1e-5)
    np.testing.assert_allclose(g[~big], r[~big], atol=1e-8)


def _fd_reference(raw, scn, model, h):
    """Central differences from one long-double rollout per perturbed entry,
    each streamed through rk4_advance on its own and folded by _fold_path one
    state at a time, then scored by _loss."""
    def lane_loss(u_T, u_d):
        seq = fo.reparameterize(fo.RawControlParams(u_T, u_d), scn)
        x = scn.x0.astype(np.longdouble)
        sums = np.zeros(2, np.longdouble)
        for k in range(scn.K + 1):
            sums = ro._fold_path(sums, x[[dyn.IX_M]], x[[dyn.IX_TH]], k, scn)
            if k < scn.K:
                x = dyn.rk4_advance(x, seq.thrust[k], seq.delta[k], scn.dt,
                                    scn, model)[0]
        return ro._loss(sums, x, fo.smoothness_penalty(seq, scn), scn,
                        scn.weights)[0]

    u_T = raw.u_T.astype(np.longdouble)
    u_d = raw.u_delta.astype(np.longdouble)
    grads = []
    for base in (u_T, u_d):
        for i in range(scn.K):
            orig = base[i]
            base[i] = orig + h
            lp = lane_loss(u_T, u_d)
            base[i] = orig - h
            lm = lane_loss(u_T, u_d)
            base[i] = orig
            grads.append(float((lp - lm) / (2.0 * np.longdouble(h))))
    return np.array(grads)


@pytest.mark.parametrize("model_name, K, dry_margin_kg", [
    ("simplified", 6, None), ("surrogate", 6, None),
    ("simplified", 16, None), ("surrogate", 16, None),
    ("simplified", 16, 500.0), ("surrogate", 16, 500.0),
], ids=["simplified", "surrogate", "K16-simplified", "K16-surrogate",
        "K16-dry-floor-simplified", "K16-dry-floor-surrogate"])
def test_finite_diff_lanes_match_single_rollouts(model_name, K, dry_margin_kg,
                                                 case1_cfg, simplified,
                                                 surrogate):
    # K = 16 passes case1's first flip index (11), so lanes copy a prefix
    # of the base lane's path whose flip terms are non-zero; a dry mass
    # 500 kg below the wet mass puts the floor inside the horizon, so its
    # mass-floor terms are non-zero too
    scn = fo.nondimensionalize(_dry_floor(truncate(case1_cfg, K),
                                          dry_margin_kg))
    model = {"simplified": simplified, "surrogate": surrogate}[model_name]
    raw = random_raw(scn, 19)
    terms = ro.loss(ro.rollout(raw, scn, model), scn.weights, scn).terms
    assert (terms["flip_deadline"] > 0) == (K > ro.first_flip_index(scn))
    assert (terms["mass_floor"] > 0) == (dry_margin_kg is not None)
    fd = ro.finite_diff_grad(raw, scn, model, scn.weights, h=1e-6,
                             dtype=np.longdouble)
    assert fd.n_rollouts == 4 * scn.K
    assert np.array_equal(fd.stacked(), _fd_reference(raw, scn, model, 1e-6))


@pytest.mark.parametrize("preset", ["case1", "case2"])
def test_engines_match_finite_differences_at_full_horizon(preset, case1_scn,
                                                          case2_scn, simplified,
                                                          surrogate):
    # criterion 1's tolerances at the presets' own K = 90
    scn, model = {"case1": (case1_scn, simplified),
                  "case2": (case2_scn, surrogate)}[preset]
    assert scn.K == 90
    raw = random_raw(scn, 0)
    r = ro.finite_diff_grad(raw, scn, model, scn.weights, h=1e-6,
                            dtype=np.longdouble).stacked()
    big = np.abs(r) > 1e-8
    for engine in (ro.grad_bptt, ro.grad_adjoint):
        g = engine(raw, scn, model, scn.weights).stacked()
        np.testing.assert_allclose(g[big], r[big], rtol=1e-5, atol=0)
        np.testing.assert_allclose(g[~big], r[~big], rtol=0, atol=1e-8)


def _dense_step_vjp(X, T, scn, model, lam):
    """Reference step VJP: the transposed RK4 recursion on dense J and B of
    the step's four stage states ``X``, each linearized on its own."""
    def jac(a):
        JB = dyn.rhs_and_jacobians(a[:, None], np.array([T]), scn, model)[0]
        return JB[:, :8], JB[:, 8:]

    dt = scn.dt
    (J1, B1), (J2, B2), (J3, B3), (J4, B4) = map(jac, X)
    g_k1, g_k2, g_k3, g_k4 = (dt / 6.0) * lam, (dt / 3.0) * lam, \
        (dt / 3.0) * lam, (dt / 6.0) * lam
    g_a4 = J4.T @ g_k4
    g_k3 = g_k3 + dt * g_a4
    g_a3 = J3.T @ g_k3
    g_k2 = g_k2 + 0.5 * dt * g_a3
    g_a2 = J2.T @ g_k2
    g_k1 = g_k1 + 0.5 * dt * g_a2
    g_x = lam + g_a4 + g_a3 + g_a2 + J1.T @ g_k1
    g_c = B4.T @ g_k4 + B3.T @ g_k3 + B2.T @ g_k2 + B1.T @ g_k1
    return g_x, g_c


@pytest.mark.parametrize("model_name", ["simplified", "surrogate"])
def test_step_vjp_matches_dense_recursion(model_name, case1_scn, simplified,
                                          surrogate):
    scn = case1_scn
    model = {"simplified": simplified, "surrogate": surrogate}[model_name]
    rng = np.random.default_rng(3)
    seq = fo.reparameterize(random_raw(scn, 4), scn)
    states = ro.rollout_controls(seq, scn, model).states
    for k in (0, 30, 60, 89):
        lam = rng.normal(size=8)
        T, delta = seq.thrust[k], seq.delta[k]
        _, stages = dyn.rk4_advance(states[k], T, delta, scn.dt, scn, model)
        X = np.array([states[k], *stages])
        M = ro._step_jacobians(X[:, None], np.array([T]), scn, model)[0]
        ref_x, ref_c = _dense_step_vjp(X, T, scn, model, lam)
        np.testing.assert_allclose(lam @ M, np.concatenate([ref_x, ref_c]),
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("model_name", ["simplified", "surrogate"])
def test_step_jacobians_do_not_depend_on_the_batch(model_name, case1_scn,
                                                   case2_scn, simplified,
                                                   surrogate):
    """Step k's [Phi | G] has the same bits alone, in its adjoint segment
    and in the whole horizon's batch; the two storage policies rely on it."""
    scn, model = {"simplified": (case1_scn, simplified),
                  "surrogate": (case2_scn, surrogate)}[model_name]
    seq = fo.reparameterize(random_raw(scn, 5), scn)
    states = ro.rollout_controls(seq, scn, model).states
    lanes = np.empty((4, scn.K, 8))
    for k in range(scn.K):
        _, stages = dyn.rk4_advance(states[k], seq.thrust[k], seq.delta[k],
                                    scn.dt, scn, model)
        lanes[:, k] = (states[k], *stages)
    whole = ro._step_jacobians(lanes, seq.thrust, scn, model)
    S = ro.ADJOINT_SEG_LEN
    for b in range(0, scn.K, S):
        block = ro._step_jacobians(lanes[:, b:b + S], seq.thrust[b:b + S],
                                   scn, model)
        assert np.array_equal(block, whole[b:b + S])
        for k in range(b, min(b + S, scn.K)):
            alone = ro._step_jacobians(lanes[:, k:k + 1], seq.thrust[k:k + 1],
                                       scn, model)
            assert np.array_equal(alone[0], whole[k])


class _RecordingAero:
    """Aero proxy that keeps a copy of every batch ``forces_jac`` receives."""

    def __init__(self, model):
        self.model = model
        self.forces = model.forces
        self.jac_batches = []

    def forces_jac(self, states, scn):
        self.jac_batches.append(np.array(states))
        return self.model.forces_jac(states, scn)


@pytest.mark.parametrize("engine", ["bptt", "adjoint"])
@pytest.mark.parametrize("K", [90, 97])
def test_engine_linearizes_the_forward_stages_in_blocks(engine, K, case2_cfg,
                                                        surrogate,
                                                        monkeypatch):
    """One forces_jac call for the whole bptt record and per adjoint
    segment, on states that are bit for bit the stage states of the
    rollout."""
    scn = fo.nondimensionalize(truncate(case2_cfg, K))
    raw = random_raw(scn, 23)
    produced = set()

    def recording_advance(x, *args):
        out = dyn.rk4_advance(x, *args)
        produced.update(np.asarray(a, np.float64).tobytes()
                        for a in (x, *out[1]))
        return out

    with monkeypatch.context() as m:
        m.setattr(ro, "rk4_advance", recording_advance)
        ro.rollout(raw, scn, surrogate)
    assert len(produced) == 4 * K

    proxy = _RecordingAero(surrogate)
    getattr(ro, f"grad_{engine}")(raw, scn, proxy, scn.weights)
    assert len(proxy.jac_batches) == (
        1 if engine == "bptt" else -(-K // ro.ADJOINT_SEG_LEN))
    seen = [lane.tobytes() for X in proxy.jac_batches for lane in X.T]
    assert len(seen) == 4 * K
    assert set(seen) <= produced


@pytest.mark.parametrize("K, dry_margin_kg", [
    (1, None), (7, None), (30, None), (31, None), (90, None), (97, None),
    (16, 500.0), (90, 500.0)],
    ids=["1", "7", "30", "31", "90", "97", "16-dry-floor", "90-dry-floor"])
def test_adjoint_equals_bptt_exactly(K, dry_margin_kg, case2_cfg, surrogate,
                                     monkeypatch):
    """Both storage policies give the same bits, below the checkpoint
    budget, with a one-step final segment (K = 31), at the presets' three
    segments (K = 90), when K is not a multiple of the segment length and
    with the dry-mass floor active in one segment (K = 16) or folded across
    three (K = 90); their loss is that of the rollout."""
    scn = fo.nondimensionalize(_dry_floor(truncate(case2_cfg, K),
                                          dry_margin_kg))
    raw = random_raw(scn, 13)
    gb = ro.grad_bptt(raw, scn, surrogate, scn.weights)
    ga = ro.grad_adjoint(raw, scn, surrogate, scn.weights)
    assert (gb.loss.terms["mass_floor"] > 0) == (dry_margin_kg is not None)
    assert np.array_equal(gb.grad_u_T, ga.grad_u_T)
    assert np.array_equal(gb.grad_u_delta, ga.grad_u_delta)
    assert gb.loss == ga.loss
    assert gb.loss == ro.loss(ro.rollout(raw, scn, surrogate), scn.weights, scn)
    if K <= ro.ADJOINT_SEG_LEN:  # one segment of K steps under both policies
        assert ga.peak_aux_floats == gb.peak_aux_floats
    calls = spy_engines(monkeypatch)
    runs = [fo.optimize(replace(scn, opt=replace(scn.opt, grad_engine=e)),
                        surrogate, raw0=raw, n_steps=5)
            for e in ("bptt", "adjoint")]
    assert calls == ["bptt"] * 5 + ["adjoint"] * 5
    assert np.array_equal(runs[0].trajectory.states, runs[1].trajectory.states)


def test_gradient_zero_at_exact_optimum(case1_cfg, simplified):
    """Roll out constant controls, then declare the endpoint the target."""
    scn = fo.nondimensionalize(truncate(case1_cfg, 10))
    raw = fo.RawControlParams(np.full(10, 0.3), np.full(10, -0.2))
    traj = ro.rollout(raw, scn, simplified)
    xK = traj.states[-1]
    scn_opt = replace(
        scn,
        x0=scn.x0.copy(), r_f=np.array([xK[0], xK[1]]),
        v_f=np.array([xK[2], xK[3]]), theta_f=float(xK[4]),
        omega_f=float(xK[5]),
        weights=replace(scn.weights, w_flip=0.0))
    for engine in (ro.grad_bptt, ro.grad_adjoint):
        rep = engine(raw, scn_opt, simplified, scn_opt.weights)
        assert rep.loss.total == 0.0
        assert np.abs(rep.stacked()).max() <= 1e-10


def test_smoothness_gradient_zero_for_constant_controls(case1_cfg, simplified):
    scn = fo.nondimensionalize(truncate(case1_cfg, 6))
    w = fo.LossWeights(w_r=0, w_v=0, w_theta=0, w_omega=0, w_smooth=1.0,
                       w_mass=0, w_flip=0)
    raw = fo.RawControlParams(np.full(6, 0.4), np.full(6, 0.1))
    rep = ro.grad_bptt(raw, scn, simplified, w)
    assert rep.loss.total == 0.0
    np.testing.assert_array_equal(rep.grad_u_T, np.zeros(6))
    np.testing.assert_array_equal(rep.grad_u_delta, np.zeros(6))


def test_fd_rollout_count_and_richardson(case1_cfg, simplified):
    scn = fo.nondimensionalize(truncate(case1_cfg, 5))
    raw = random_raw(scn, 17)
    fd1 = ro.finite_diff_grad(raw, scn, simplified, scn.weights, h=1e-3,
                              dtype=np.longdouble)
    assert fd1.n_rollouts == 2 * (2 * scn.K)
    fd2 = ro.finite_diff_grad(raw, scn, simplified, scn.weights, h=5e-4,
                              dtype=np.longdouble)
    fd4 = ro.finite_diff_grad(raw, scn, simplified, scn.weights, h=2e-3,
                              dtype=np.longdouble)
    # central differences converge at second order: errors shrink ~4x per
    # halving, so successive-step differences shrink ~4x as well
    d21 = np.abs(fd1.stacked() - fd2.stacked()).max()
    d14 = np.abs(fd4.stacked() - fd1.stacked()).max()
    assert d14 / max(d21, 1e-300) == pytest.approx(4.0, rel=0.35)
    for h in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="h must be positive"):
            ro.finite_diff_grad(raw, scn, simplified, scn.weights, h=h)


def test_finite_diff_names_a_non_finite_loss_term(case1_cfg, simplified):
    """A loss term that overflows in float64 stops the oracle before the
    difference quotient, as it stops the engines."""
    scn = fo.nondimensionalize(truncate(case1_cfg, 4))
    w = replace(scn.weights, w_r=1e308)
    with pytest.raises(FloatingPointError,
                       match="non-finite loss: terminal_position is inf"):
        ro.finite_diff_grad(fo.init_raw_params(scn), scn, simplified, w)


def test_finite_diff_memory_bound(case1_scn, simplified):
    """The oracle's lanes carry their state and path sums, not their path:
    in long double at the preset's K = 90 its traced peak stays under
    1 MiB (a (2, K+1, 4K+1) path record alone would take 1.05 MB)."""
    raw = random_raw(case1_scn, 0)
    args = (raw, case1_scn, simplified, case1_scn.weights)
    ro.finite_diff_grad(*args, dtype=np.longdouble)  # warm up
    tracemalloc.start()
    try:
        ro.finite_diff_grad(*args, dtype=np.longdouble)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rollout_memory_is_its_record(case1_cfg, simplified):
    """A long rollout holds its (4, K, 8) record and its (K + 1, 8) states,
    and the Python floats of one segment at a time: at case1's hover start
    with K = 1500 (it diverges at step 1556) the traced peak stays under
    1.25 times their bytes, about 586 KiB."""
    K = 1500
    scn = fo.nondimensionalize(truncate(case1_cfg, K))
    raw = fo.init_raw_params(scn)
    ro.rollout(raw, scn, simplified)  # warm up
    tracemalloc.start()
    try:
        ro.rollout(raw, scn, simplified)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * (4 * K * 8 + (K + 1) * 8)


def test_memory_meter_contract(case2_cfg, surrogate):
    """BPTT memory grows with K; the adjoint engine's only by 8 floats per
    checkpoint."""
    peaks = {}
    for K in (90, 180, 360):
        scn = fo.nondimensionalize(truncate(case2_cfg, K))
        raw = fo.init_raw_params(scn)
        peaks[("bptt", K)] = ro.grad_bptt(raw, scn, surrogate,
                                          scn.weights).peak_aux_floats
        peaks[("adjoint", K)] = ro.grad_adjoint(raw, scn, surrogate,
                                                scn.weights).peak_aux_floats
    assert peaks[("bptt", 180)] / peaks[("bptt", 90)] > 1.8
    assert peaks[("adjoint", 180)] / peaks[("adjoint", 90)] <= 1.25
    assert peaks[("adjoint", 90)] < peaks[("bptt", 90)]
    # the checkpoints, the segment record, x, lam and one segment's stage
    # Jacobians and composition arrays
    assert peaks == {("bptt", 90): 53296, ("adjoint", 90): 17792,
                     ("bptt", 180): 106576, ("adjoint", 180): 17816,
                     ("bptt", 360): 213136, ("adjoint", 360): 17864}


@pytest.mark.parametrize("K", [180, 360])
def test_memory_meter_matches_traced_allocation(K, case2_cfg, surrogate):
    """The two policies' traced peaks differ by 8 bytes per metered float."""
    scn = fo.nondimensionalize(truncate(case2_cfg, K))
    raw = fo.init_raw_params(scn)
    traced, metered = [], []
    for engine in (ro.grad_bptt, ro.grad_adjoint):
        engine(raw, scn, surrogate, scn.weights)  # warm up
        tracemalloc.start()
        try:
            rep = engine(raw, scn, surrogate, scn.weights)
            traced.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        metered.append(rep.peak_aux_floats)
    assert traced[0] - traced[1] == pytest.approx(
        8 * (metered[0] - metered[1]), rel=0.1)


def test_gradient_nonfinite_raises(short_scn):
    class NaNAero(am.NoAero):
        def forces_jac(self, states, scn):
            F, dF_dv, dF_dth = super().forces_jac(states, scn)
            return F, np.full_like(dF_dv, np.nan), dF_dth

    raw = fo.init_raw_params(short_scn)
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        ro.grad_bptt(raw, short_scn, NaNAero(), short_scn.weights)
