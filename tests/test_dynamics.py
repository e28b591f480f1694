import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipopt as fo
import flipopt.aero as am
from flipopt import dynamics as dyn


def state(x=0.0, y=0.0, u=0.0, v=0.0, theta=0.0, omega=0.0, m=5.0, delta_d=0.0):
    return np.array([x, y, u, v, theta, omega, m, delta_d])


# ---------------------------------------------------------------------------
# Thrust geometry
# ---------------------------------------------------------------------------

def thrust_from_rhs(s, T, scn):
    """Thrust force and moment about the cg, read back from the RHS with
    zero aero forces."""
    d = dyn.rhs(s, (T, 0.0), fo.AeroForces(0.0, 0.0, 0.0), scn)
    m = s[dyn.IX_M]
    return (m * d[dyn.IX_U], m * (d[dyn.IX_V] + scn.g)), d[dyn.IX_OM] * scn.J_z


def test_undeflected_engine_gives_zero_moment(case1_scn):
    F, M = thrust_from_rhs(state(theta=1.0), 0.02, case1_scn)
    assert M == 0.0
    # parallel to the body axis
    assert F[0] == pytest.approx(0.02 * math.cos(1.0))
    assert F[1] == pytest.approx(0.02 * math.sin(1.0))


def test_moment_arm_is_base_to_cg(case1_scn):
    # cg at 60% from the nose leaves 40% of the length to the base: 20 m
    assert case1_scn.l_arm == pytest.approx(0.40, rel=1e-15)
    assert case1_scn.l_arm * case1_scn.refs.L_ref == pytest.approx(20.0)


def test_full_gimbal_moment_magnitude_and_sign(case1_scn):
    T_nd = 2.3e6 / case1_scn.refs.force_scale
    s = state(theta=2.0, delta_d=math.radians(10.0))
    _, M = thrust_from_rhs(s, T_nd, case1_scn)
    M_dim = M * case1_scn.refs.moment_scale
    assert abs(M_dim) == pytest.approx(2.3e6 * math.sin(math.radians(10.0)) * 20.0,
                                       rel=1e-12)
    assert M < 0.0  # positive gimbal pitches the nose down


# ---------------------------------------------------------------------------
# Angle of attack
# ---------------------------------------------------------------------------

def test_belly_flop_angle_of_attack_near_90deg():
    # the preset initial condition: steep descent at 170 deg pitch
    s = state(u=-18.82 / 335.57, v=-106.73 / 335.57, theta=math.radians(170.0))
    alpha = fo.angle_of_attack(s)
    assert math.degrees(alpha) == pytest.approx(90.0, abs=1e-3)


def test_wind_aligned_with_body_axis():
    assert fo.angle_of_attack(state(u=1.0)) == 0.0


def test_zero_speed_convention():
    assert fo.angle_of_attack(state(u=0.0, v=0.0, theta=1.2)) == 0.0


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-20, 20),
       st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_alpha_wrap_and_scale_invariance(u, v, theta, c):
    if math.hypot(u, v) < 1e-6:
        return
    def circ_dist(a, b):
        d = abs(a - b)
        return min(d, 2.0 * math.pi - d)

    s1 = state(u=u, v=v, theta=theta)
    a1 = fo.angle_of_attack(s1)
    assert 0.0 <= a1 < 2.0 * math.pi
    # adding a full turn to pitch leaves alpha unchanged
    a2 = fo.angle_of_attack(state(u=u, v=v, theta=theta + 2.0 * math.pi))
    assert circ_dist(a1, a2) < 1e-9
    # speed scaling leaves alpha unchanged
    a3 = fo.angle_of_attack(state(u=c * u, v=c * v, theta=theta))
    assert circ_dist(a1, a3) < 1e-9


# ---------------------------------------------------------------------------
# RHS
# ---------------------------------------------------------------------------

def test_free_fall_rhs(case1_scn):
    s = state(u=0.3, v=-0.1, theta=1.0, omega=0.2, m=5.0, delta_d=0.0)
    out = fo.rhs(s, (0.0, 0.0), fo.AeroForces(0.0, 0.0, 0.0), case1_scn)
    assert out[dyn.IX_U] == 0.0
    assert out[dyn.IX_V] == -case1_scn.g
    assert out[dyn.IX_OM] == 0.0
    assert out[dyn.IX_M] == 0.0
    assert out[dyn.IX_X] == s[dyn.IX_U]
    assert out[dyn.IX_TH] == s[dyn.IX_OM]


def test_mass_flow_matches_dimensional_rate(case1_scn):
    refs = case1_scn.refs
    T_nd = 2.3e6 / refs.force_scale
    out = fo.rhs(state(m=5.625), (T_nd, 0.0), fo.AeroForces(0, 0, 0), case1_scn)
    mdot_si = out[dyn.IX_M] * refs.m_ref / refs.t_ref
    assert mdot_si == pytest.approx(-2.3e6 / (350.0 * 9.80665), rel=1e-12)
    # 15 t of propellant lasts about 22 s at full throttle
    assert 15000.0 / -mdot_si == pytest.approx(22.4, abs=0.1)


def test_lag_equilibrium(case1_scn):
    s = state(delta_d=0.05)
    out = fo.rhs(s, (0.01, 0.05), fo.AeroForces(0, 0, 0), case1_scn)
    assert out[dyn.IX_DD] == 0.0


def test_rhs_is_deterministic(case1_scn):
    s = state(u=0.1, v=-0.2, theta=2.0, omega=0.1, m=5.2, delta_d=0.03)
    a = fo.rhs(s, (0.02, 0.1), fo.AeroForces(0.001, -0.002, 0.0003), case1_scn)
    b = fo.rhs(s.copy(), (0.02, 0.1), fo.AeroForces(0.001, -0.002, 0.0003),
               case1_scn)
    assert np.array_equal(a, b)


def test_rhs_of_a_batch_matches_each_lane(case1_scn, simplified):
    # lanes are columns; scalar controls apply to every lane, and in long
    # double a lane is bit-identical to the state on its own
    rng = np.random.default_rng(8)
    X = (case1_scn.x0 + rng.normal(0.0, 0.05, (6, 8))).T.astype(np.longdouble)
    ctrl = (0.02, 0.1)
    batch = fo.rhs(X, ctrl, simplified.forces(X, case1_scn), case1_scn)
    assert batch.shape == (8, 6) and batch.dtype == np.longdouble
    for j in range(6):
        x = X[:, j]
        assert np.array_equal(
            batch[:, j], fo.rhs(x, ctrl, simplified.forces(x, case1_scn),
                                case1_scn))


# ---------------------------------------------------------------------------
# Jacobians against finite differences
# ---------------------------------------------------------------------------

def _numeric_jacobians(s, T, delta, scn, model, h=1e-7):
    def f(s, T, delta):
        return dyn.rhs(s, (T, delta), model.forces(s, scn), scn)

    J = np.zeros((8, 8))
    for j in range(8):
        sp, sm = s.copy(), s.copy()
        sp[j] += h
        sm[j] -= h
        J[:, j] = (f(sp, T, delta) - f(sm, T, delta)) / (2 * h)
    B = np.zeros((8, 2))
    for j, dc in enumerate([(h, 0.0), (0.0, h)]):
        fp = f(s, T + dc[0], delta + dc[1])
        fm = f(s, T - dc[0], delta - dc[1])
        B[:, j] = (fp - fm) / (2 * h)
    return J, B


@pytest.mark.parametrize("model_name", ["none", "simplified", "surrogate"])
def test_rhs_jacobians_match_finite_differences(model_name, case1_scn,
                                                surrogate):
    model = {"none": am.NoAero(), "simplified": am.SimplifiedAero(C_D=1.0),
             "surrogate": surrogate}[model_name]
    rng = np.random.default_rng(42)
    cases = []
    for _ in range(5):
        s = state(u=rng.uniform(-0.4, 0.4), v=rng.uniform(-0.5, -0.05),
                  theta=rng.uniform(-1.0, 4.0), omega=rng.uniform(-0.3, 0.3),
                  m=rng.uniform(5.0, 5.6), delta_d=rng.uniform(-0.17, 0.17))
        T = rng.uniform(0.01, 0.04)
        delta = rng.uniform(-0.17, 0.17)
        cases.append((s, T, delta))
    # the five states linearized as the lanes of one batch
    X = np.stack([c[0] for c in cases], axis=1)
    thrusts = np.array([c[1] for c in cases])
    JB = dyn.rhs_and_jacobians(X, thrusts, case1_scn, model)
    assert JB.shape == (5, 8, 10)
    for jb, (s, T, delta) in zip(JB, cases):
        Jn, Bn = _numeric_jacobians(s, T, delta, case1_scn, model)
        np.testing.assert_allclose(jb[:, :8], Jn, rtol=2e-6, atol=2e-7)
        np.testing.assert_allclose(jb[:, 8:], Bn, rtol=2e-6, atol=2e-7)


# ---------------------------------------------------------------------------
# RK4 integrator oracles
# ---------------------------------------------------------------------------

def test_gravity_only_matches_projectile(case1_scn):
    scn = case1_scn
    x = state(u=0.1, v=-0.05, theta=2.0, omega=0.0, m=5.0)
    x0 = x.copy()
    n = 50
    model = am.NoAero()
    for _ in range(n):
        x = fo.rk4_step(x, (0.0, 0.0), model, scn.dt, scn)
    t = n * scn.dt
    assert x[dyn.IX_Y] == pytest.approx(
        x0[dyn.IX_Y] + x0[dyn.IX_V] * t - 0.5 * scn.g * t * t, rel=1e-12)
    assert x[dyn.IX_X] == pytest.approx(x0[dyn.IX_X] + x0[dyn.IX_U] * t,
                                        rel=1e-12)
    # horizontal velocity is untouched
    assert x[dyn.IX_U] == pytest.approx(x0[dyn.IX_U], rel=1e-12)


def test_actuator_lag_matches_exponential(case1_scn):
    scn = case1_scn
    dt = scn.T_d / 10.0
    delta_cmd = 0.15
    x = state(m=5.0, delta_d=-0.05)
    model = am.NoAero()
    t = 0.0
    for _ in range(60):
        x = fo.rk4_step(x, (0.0, delta_cmd), model, dt, scn)
        t += dt
        exact = delta_cmd + (-0.05 - delta_cmd) * math.exp(-t / scn.T_d)
        assert x[dyn.IX_DD] == pytest.approx(exact, abs=1e-6)


def test_rk4_order_of_convergence():
    # y' = -y^2 from y0 = 1 has the exact solution 1 / (1 + t)
    def err(dt):
        y = np.array([1.0])
        n = round(1.0 / dt)
        for _ in range(n):
            y = dyn.rk4_generic(lambda z: -z * z, y, dt)
        return abs(y[0] - 1.0 / (1.0 + 1.0))

    ratio = err(0.02) / err(0.01)
    assert 14.0 <= ratio <= 18.0


def test_linear_pitch_growth_is_exact(case1_scn):
    scn = case1_scn
    x = state(theta=1.0, omega=0.25, m=5.0)
    model = am.NoAero()
    for _ in range(20):
        x = fo.rk4_step(x, (0.01, 0.0), model, scn.dt, scn)
    assert x[dyn.IX_TH] == pytest.approx(1.0 + 0.25 * 20 * scn.dt, rel=1e-14)


def test_mass_monotone_under_thrust(case1_scn, simplified):
    scn = case1_scn
    x = scn.x0.copy()
    masses = [x[dyn.IX_M]]
    for _ in range(20):
        x = fo.rk4_step(x, (scn.T_min, 0.01), simplified, scn.dt, scn)
        masses.append(x[dyn.IX_M])
    d = np.diff(masses)
    assert (d < 0.0).all()


def _vector_rk4(s, T, delta, dt, scn, model):
    """Reference RK4 in vector form: the kernel's formula on whole arrays."""
    def f(a):
        F = model.forces(a, scn)
        psi = a[dyn.IX_TH] + a[dyn.IX_DD]
        out = np.empty(8, dtype=a.dtype)
        out[0] = a[dyn.IX_U]
        out[1] = a[dyn.IX_V]
        out[2] = (T * np.cos(psi) + scn.eps_corr * F[0]) / a[dyn.IX_M]
        out[3] = (T * np.sin(psi) + scn.eps_corr * F[1]) / a[dyn.IX_M] - scn.g
        out[4] = a[dyn.IX_OM]
        out[5] = (-T * np.sin(a[dyn.IX_DD]) * scn.l_arm
                  + scn.eta_corr * F[2]) / scn.J_z
        out[6] = -T / scn.c_ex
        out[7] = (delta - a[dyn.IX_DD]) / scn.T_d
        return out

    k1 = f(s)
    a2 = s + (0.5 * dt) * k1
    k2 = f(a2)
    a3 = s + (0.5 * dt) * k2
    k3 = f(a3)
    a4 = s + dt * k3
    k4 = f(a4)
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (a2, a3, a4)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("model_name", ["none", "simplified", "surrogate"])
def test_rk4_advance_matches_vector_form_bit_for_bit(model_name, dtype,
                                                     case1_scn, surrogate):
    scn = case1_scn
    model = {"none": am.NoAero(), "simplified": am.SimplifiedAero(C_D=1.0),
             "surrogate": surrogate}[model_name]
    rng = np.random.default_rng(7)
    x = scn.x0.astype(dtype)
    for _ in range(6):
        T = dtype(rng.uniform(scn.T_min, scn.T_max))
        delta = dtype(rng.uniform(-scn.delta_max, scn.delta_max))
        nxt, stages = dyn.rk4_advance(x, T, delta, scn.dt, scn, model)
        ref, ref_stages = _vector_rk4(x, T, delta, scn.dt, scn, model)
        assert nxt.dtype == dtype
        assert np.array_equal(nxt, ref)
        for a, b in zip(stages, ref_stages):
            assert a.dtype == dtype and np.array_equal(a, b)
        x = nxt


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                    reason="long double is double on this platform")
def test_rk4_advance_keeps_extended_precision(case1_scn, simplified):
    scn = case1_scn
    T, delta = scn.T_min, 0.05
    x64 = dyn.rk4_advance(scn.x0, T, delta, scn.dt, scn, simplified)[0]
    xld = dyn.rk4_advance(scn.x0.astype(np.longdouble), T, delta, scn.dt, scn,
                          simplified)[0]
    assert xld.dtype == np.longdouble
    assert np.any(xld != x64.astype(np.longdouble))


@pytest.mark.parametrize("model_name", ["simplified", "surrogate"])
def test_infinite_pitch_raises_integration_error_with_aero(model_name,
                                                           case1_scn, surrogate):
    # math.cos(inf) raises ValueError; the one-lane retry runs numpy's
    # vector form, so the step ends in the stage-indexed IntegrationError
    model = {"simplified": am.SimplifiedAero(C_D=1.0),
             "surrogate": surrogate}[model_name]
    x = case1_scn.x0.copy()
    x[dyn.IX_TH] = np.inf
    with np.errstate(all="ignore"), pytest.raises(dyn.IntegrationError) as err:
        fo.rk4_step(x, (0.02, 0.0), model, case1_scn.dt, case1_scn)
    assert err.value.stage == 2


def test_non_finite_stage_raises():
    class ExplodingAero:
        def forces(self, s, scn):
            return fo.AeroForces(np.inf, 0.0, 0.0)

        def forces_jac(self, states, scn):
            raise NotImplementedError

    scn_cfg = fo.load_scenario("case1")
    scn = fo.nondimensionalize(scn_cfg)
    with pytest.raises(dyn.IntegrationError):
        fo.rk4_step(state(u=0.1, m=5.0), (0.01, 0.0), ExplodingAero(),
                    scn.dt, scn)


@pytest.mark.parametrize("field, value", [(dyn.IX_M, 0.0), (dyn.IX_TH, np.inf)])
def test_degenerate_state_raises_integration_error(field, value, case1_scn):
    # Python-float arithmetic raises on a zero mass or an infinite angle;
    # the step must still end in the stage-indexed IntegrationError
    x = case1_scn.x0.copy()
    x[field] = value
    with np.errstate(all="ignore"), pytest.raises(dyn.IntegrationError) as err:
        fo.rk4_step(x, (0.02, 0.0), am.NoAero(), case1_scn.dt, case1_scn)
    assert err.value.stage == 2


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("model_name", ["none", "simplified", "surrogate"])
def test_rk4_advance_batch_matches_single_states(model_name, dtype, case1_scn,
                                                 surrogate):
    scn = case1_scn
    model = {"none": am.NoAero(), "simplified": am.SimplifiedAero(C_D=1.0),
             "surrogate": surrogate}[model_name]
    rng = np.random.default_rng(5)
    B = 6
    X = (scn.x0 + rng.normal(0.0, 0.05, (B, 8))).T.astype(dtype)
    X[dyn.IX_U, 2] = X[dyn.IX_V, 2] = 0.0      # a lane at rest
    T = rng.uniform(scn.T_min, scn.T_max, B).astype(dtype)
    delta = rng.uniform(-scn.delta_max, scn.delta_max, B).astype(dtype)
    nxt, stages = dyn.rk4_advance(X, T, delta, scn.dt, scn, model)
    assert nxt.shape == (8, B) and nxt.dtype == dtype
    assert all(a.shape == (8, B) and a.dtype == dtype for a in stages)

    # A float64 single state runs on Python floats: math.hypot rounds
    # differently from np.hypot, and the surrogate's BLAS matrix-vector
    # product sums in another order than the batch's matrix product.  In
    # long double, and in float64 without aero (whose cos and sin the
    # vector-form test above also holds bit-equal), each lane is exact.
    exact = dtype == np.longdouble or model_name == "none"

    def same(a, b):
        if exact:
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    for j in range(B):
        ref, ref_stages = dyn.rk4_advance(X[:, j], T[j], delta[j], scn.dt, scn,
                                          model)
        same(nxt[:, j], ref)
        for a, b in zip(stages, ref_stages):
            same(a[:, j], b)


def test_rk4_rejects_nonpositive_dt(case1_scn):
    with pytest.raises(ValueError):
        fo.rk4_step(state(m=5.0), (0.0, 0.0), am.NoAero(), 0.0, case1_scn)
