import math
from dataclasses import replace

import numpy as np
import pytest

import flipopt as fo
import flipopt.optimizer as om
import flipopt.rollout as ro
from conftest import spy_engines, truncate


@pytest.fixture()
def cfg():
    return om.OptimizerConfig(n_steps=100)


# ---------------------------------------------------------------------------
# Cosine schedule
# ---------------------------------------------------------------------------

def test_cosine_endpoints(cfg):
    assert fo.cosine_lr(0, cfg) == pytest.approx(1e-3, rel=1e-12)
    assert fo.cosine_lr(cfg.n_steps, cfg) == pytest.approx(1e-5, rel=1e-12)


def test_cosine_midpoint(cfg):
    assert fo.cosine_lr(cfg.n_steps // 2, cfg) == pytest.approx(
        (1e-3 + 1e-5) / 2.0, rel=1e-12)
    assert fo.cosine_lr(cfg.n_steps // 2, cfg) == pytest.approx(5.05e-4)


def test_cosine_monotone_nonincreasing(cfg):
    lrs = [fo.cosine_lr(i, cfg) for i in range(cfg.n_steps + 1)]
    assert (np.diff(lrs) <= 0).all()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params(cfg):
    # from rest (zero moments) a zero gradient moves nothing
    p = np.array([1.0, -2.0])
    newp, news = fo.adam_step(p, np.zeros(2), om.AdamState.zeros_like(p),
                              1e-3, cfg)
    np.testing.assert_array_equal(newp, p)
    assert news.t == 1
    # with built-up moments the moments decay geometrically toward zero
    state = om.AdamState(m=np.array([0.5, -0.5]), v=np.array([0.2, 0.2]), t=3)
    _, news = fo.adam_step(p, np.zeros(2), state, 1e-3, cfg)
    np.testing.assert_allclose(news.m, 0.9 * state.m)
    np.testing.assert_allclose(news.v, 0.999 * state.v)
    assert news.t == 4


def test_adam_first_step_is_signed_lr(cfg):
    p = np.array([0.0])
    g = np.array([0.37])
    newp, _ = fo.adam_step(p, g, om.AdamState.zeros_like(p), 1e-3, cfg)
    # bias correction makes m_hat = g and v_hat = g^2 at t = 1
    assert newp[0] == pytest.approx(-1e-3, rel=1e-6)
    newp2, _ = fo.adam_step(p, -g, om.AdamState.zeros_like(p), 1e-3, cfg)
    assert newp2[0] == pytest.approx(1e-3, rel=1e-6)


def test_adam_deterministic(cfg):
    p = np.array([1.0, 2.0, 3.0])
    g = np.array([0.1, -0.2, 0.3])
    s = om.AdamState(m=np.full(3, 0.01), v=np.full(3, 0.04), t=7)
    a1, s1 = fo.adam_step(p, g, s, 2e-3, cfg)
    a2, s2 = fo.adam_step(p, g, s, 2e-3, cfg)
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1.m, s2.m)
    assert np.array_equal(s1.v, s2.v)


def test_adam_leaves_its_inputs_unchanged(cfg):
    p = np.array([1.0, -2.0, 3.0, 0.5])
    g = np.array([0.1, -0.2, 0.3, -4.0])
    s = om.AdamState(m=np.full(4, 0.01), v=np.full(4, 0.04), t=7)
    before = [a.tobytes() for a in (p, g, s.m, s.v)]
    newp, news = fo.adam_step(p, g, s, 2e-3, cfg)
    assert [a.tobytes() for a in (p, g, s.m, s.v)] == before
    for out in (newp, news.m, news.v):
        assert not any(np.shares_memory(out, a) for a in (p, g, s.m, s.v))


def test_adam_names_the_first_non_finite_update(cfg):
    p = np.zeros(6)
    g = np.array([0.1, -0.2, np.inf, 0.3, np.nan, 0.4])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError,
                          match=r"^non-finite Adam update at index 2$"):
        fo.adam_step(p, g, om.AdamState.zeros_like(p), 1e-3, cfg)


def test_adam_shape_mismatch(cfg):
    with pytest.raises(ValueError):
        fo.adam_step(np.zeros(3), np.zeros(2), om.AdamState.zeros_like(np.zeros(3)),
                     1e-3, cfg)
    # a second moment that would broadcast is refused too
    with pytest.raises(ValueError, match="shapes disagree"):
        fo.adam_step(np.zeros(3), np.zeros(3),
                     om.AdamState(m=np.zeros(3), v=np.zeros(1)), 1e-3, cfg)


def test_adam_worst_case_update_bound(cfg):
    # Kingma's bound: |dp| <= lr (1-beta1)/sqrt(1-beta2) under adversarial
    # gradient histories (= 3.163 lr at the default betas)
    bound = (1.0 - cfg.beta1) / math.sqrt(1.0 - cfg.beta2)
    p = np.zeros(1)
    s = om.AdamState.zeros_like(p)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(300):
        g = np.array([rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)])
        newp, s = fo.adam_step(p, g, s, 1e-3, cfg)
        worst = max(worst, abs(newp[0] - p[0]) / 1e-3)
        p = newp
    assert worst <= bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Optimization loop
# ---------------------------------------------------------------------------

@pytest.fixture()
def tiny_scn(case1_cfg):
    cfg = truncate(case1_cfg, 6)
    cfg = replace(cfg, opt=replace(cfg.opt, n_steps=25, log_every=0))
    return fo.nondimensionalize(cfg)


def test_single_step_contract(tiny_scn, simplified):
    res = fo.optimize(tiny_scn, simplified, n_steps=1)
    assert len(res.loss_history) == 1
    assert res.best_step == 0


def test_history_finite_and_best_not_worse(tiny_scn, simplified):
    res = fo.optimize(tiny_scn, simplified)
    assert len(res.loss_history) == 25
    assert all(math.isfinite(b.total) for b in res.loss_history)
    final = ro.loss(res.trajectory, tiny_scn.weights, tiny_scn)
    assert final.total <= res.loss_history[0].total
    assert res.loss_history[res.best_step].total == final.total


def test_optimize_bit_reproducible(tiny_scn, simplified):
    a = fo.optimize(tiny_scn, simplified)
    b = fo.optimize(tiny_scn, simplified)
    assert np.array_equal(a.best_raw.u_T, b.best_raw.u_T)
    assert np.array_equal(a.best_raw.u_delta, b.best_raw.u_delta)
    assert np.array_equal(a.trajectory.states, b.trajectory.states)
    assert [x.total for x in a.loss_history] == [x.total for x in b.loss_history]


def test_update_ratio_bounded_on_real_run(tiny_scn, simplified):
    res = fo.optimize(tiny_scn, simplified)
    bound = (1.0 - tiny_scn.opt.beta1) / math.sqrt(1.0 - tiny_scn.opt.beta2)
    assert 0.0 < res.max_update_ratio <= bound * (1.0 + 1e-9)


def test_engine_choice_respected(tiny_scn, simplified, monkeypatch):
    scn = replace(tiny_scn, x0=tiny_scn.x0.copy(),
                  opt=replace(tiny_scn.opt, grad_engine="adjoint"))
    calls = spy_engines(monkeypatch)
    fo.optimize(scn, simplified)
    assert calls == ["adjoint"] * scn.opt.n_steps
    with pytest.raises(ValueError):
        om._engine_fn("simultaneous")


def test_numerical_abort_carries_snapshot(case1_cfg):
    # a one-step horizon of 3000 km in a single RK4 step overflows the
    # drag term; the abort snapshot must identify the failing step
    cfg = replace(case1_cfg, K=2, t_f=1e6)
    cfg = replace(cfg, opt=replace(cfg.opt, n_steps=2, log_every=0))
    scn = fo.nondimensionalize(cfg)
    import flipopt.aero as am
    with pytest.raises(om.NumericalAbort) as err:
        fo.optimize(scn, am.SimplifiedAero(C_D=1.0))
    snap = err.value.snapshot
    assert snap["step"] == 0
    assert len(snap["u_T"]) == 2
