import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import flipopt as fo
import flipopt.aero as am
import flipopt.rollout as ro
from conftest import random_raw, truncate
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


def test_nonfinite_state_reports_step(short_scn):
    class BlowUpAero:
        def __init__(self):
            self.calls = 0

        def forces(self, s, scn):
            self.calls += 1
            if self.calls > 12:  # poison the fourth step
                return fo.AeroForces(float("nan"), 0.0, 0.0)
            return fo.AeroForces(0.0, 0.0, 0.0)

        def forces_jac(self, states, scn):
            raise NotImplementedError

    raw = fo.init_raw_params(short_scn)
    with pytest.raises(ro.RolloutError) as err:
        ro.rollout(raw, short_scn, BlowUpAero())
    assert err.value.step == 4
    assert err.value.fields


@pytest.mark.parametrize("model_name", ["simplified", "surrogate"])
def test_infinite_pitch_raises_rollout_error(model_name, short_scn, simplified,
                                             surrogate):
    model = {"simplified": simplified, "surrogate": surrogate}[model_name]
    x0 = short_scn.x0.copy()
    x0[dyn.IX_TH] = np.inf
    scn = replace(short_scn, x0=x0)
    with pytest.raises(ro.RolloutError) as err:
        ro.rollout(fo.init_raw_params(scn), scn, model)
    assert err.value.step == 1


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

@pytest.mark.parametrize("model_name", ["simplified", "surrogate"])
def test_bptt_matches_finite_differences(model_name, case1_cfg, surrogate):
    scn = fo.nondimensionalize(truncate(case1_cfg, 6))
    model = am.SimplifiedAero(C_D=1.0) if model_name == "simplified" else surrogate
    raw = random_raw(scn, 11)
    g = ro.grad_bptt(raw, scn, model, scn.weights).stacked()
    r = ro.finite_diff_grad(raw, scn, model, scn.weights, h=1e-6,
                            dtype=np.longdouble).stacked()
    big = np.abs(r) > 1e-8
    np.testing.assert_allclose(g[big], r[big], rtol=1e-5)
    np.testing.assert_allclose(g[~big], r[~big], atol=1e-8)


def _fd_reference(raw, scn, model, h):
    """Central differences from one long-double rollout per perturbed entry,
    each streamed through rk4_advance and the loss accumulator on its own."""
    def lane_loss(u_T, u_d):
        seq = fo.reparameterize(fo.RawControlParams(u_T, u_d), scn)
        acc = ro._PathAccumulator(scn, scn.weights, dtype=np.longdouble)
        x = scn.x0.astype(np.longdouble)
        for k in range(scn.K):
            acc.add(x, k)
            x = dyn.rk4_advance(x, seq.thrust[k], seq.delta[k], scn.dt, scn,
                                model)[0]
        acc.add(x, scn.K)
        return acc.finish(x, fo.smoothness_penalty(seq, scn))[0]

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
    # K = 16 passes case1's first flip index (11), so lanes start from the
    # base lane's non-zero flip sum; a dry mass 500 kg below the wet mass
    # puts the floor inside the horizon, so they start from its mass sum too
    cfg = truncate(case1_cfg, K)
    if dry_margin_kg is not None:
        v = cfg.vehicle
        cfg = replace(cfg, vehicle=replace(v, m_dry=v.m_wet - dry_margin_kg))
    scn = fo.nondimensionalize(cfg)
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
    """Step k's [Phi | G] has the same bits alone, in its 4-step segment
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
    for b in range(0, scn.K, 4):
        block = ro._step_jacobians(lanes[:, b:b + 4], seq.thrust[b:b + 4],
                                   scn, model)
        assert np.array_equal(block, whole[b:b + 4])
        for k in range(b, min(b + 4, scn.K)):
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
    """One forces_jac call for the whole bptt record and per 4-step adjoint
    segment, on states that are bit for bit the stage states of the
    rollout."""
    scn = fo.nondimensionalize(truncate(case2_cfg, K))
    raw = random_raw(scn, 23)
    produced = set()

    def recording_advance(x, *args):
        out = dyn.rk4_advance(x, *args)
        produced.update(a.tobytes() for a in (x, *out[1]))
        return out

    with monkeypatch.context() as m:
        m.setattr(ro, "rk4_advance", recording_advance)
        ro.rollout(raw, scn, surrogate)
    assert len(produced) == 4 * K

    proxy = _RecordingAero(surrogate)
    getattr(ro, f"grad_{engine}")(raw, scn, proxy, scn.weights)
    assert len(proxy.jac_batches) == (1 if engine == "bptt" else -(-K // 4))
    seen = [lane.tobytes() for X in proxy.jac_batches for lane in X.T]
    assert len(seen) == 4 * K
    assert set(seen) <= produced


@pytest.mark.parametrize("K", [1, 7, 30, 97])
def test_adjoint_equals_bptt_exactly(K, case2_cfg, surrogate):
    """Both storage policies give the same bits, below the checkpoint
    budget and when K is not a multiple of the segment length."""
    scn = fo.nondimensionalize(truncate(case2_cfg, K))
    raw = random_raw(scn, 13)
    gb = ro.grad_bptt(raw, scn, surrogate, scn.weights)
    ga = ro.grad_adjoint(raw, scn, surrogate, scn.weights)
    assert np.array_equal(gb.grad_u_T, ga.grad_u_T)
    assert np.array_equal(gb.grad_u_delta, ga.grad_u_delta)
    assert gb.loss == ga.loss
    assert gb.engine == "bptt" and ga.engine == "adjoint"
    runs = [fo.optimize(replace(scn, opt=replace(scn.opt, grad_engine=e)),
                        surrogate, raw0=raw, n_steps=5)
            for e in ("bptt", "adjoint")]
    assert [r.engine for r in runs] == ["bptt", "adjoint"]
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
    with pytest.raises(ValueError):
        ro.finite_diff_grad(raw, scn, simplified, scn.weights, h=0.0)


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
    assert peaks == {("bptt", 90): 53296, ("adjoint", 90): 2560,
                     ("bptt", 180): 106576, ("adjoint", 180): 2736,
                     ("bptt", 360): 213136, ("adjoint", 360): 3096}


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
    with pytest.raises(FloatingPointError):
        ro.grad_bptt(raw, short_scn, NaNAero(), short_scn.weights)
