import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipopt as fo
import flipopt.controls as ct


def raw(u_T, u_delta):
    return fo.RawControlParams(np.asarray(u_T, dtype=float),
                               np.asarray(u_delta, dtype=float))


def test_midpoint_mapping(case1_scn):
    scn = case1_scn
    seq = fo.reparameterize(raw([0.0], [0.0]), scn)
    assert seq.thrust[0] == pytest.approx((scn.T_min + scn.T_max) / 2.0,
                                          rel=1e-15)
    # 62.5 percent of max thrust with the 25 percent floor
    assert seq.thrust[0] / scn.T_max == pytest.approx(0.625, rel=1e-12)
    assert seq.delta[0] == 0.0


def test_asymptotes(case1_scn):
    scn = case1_scn
    seq = fo.reparameterize(raw([-200.0, 200.0], [-200.0, 200.0]), scn)
    assert seq.thrust[0] == pytest.approx(0.25 * scn.T_max, rel=1e-12)
    assert seq.thrust[1] == pytest.approx(scn.T_max, rel=1e-12)
    assert seq.delta[0] == pytest.approx(-scn.delta_max, rel=1e-12)
    assert seq.delta[1] == pytest.approx(scn.delta_max, rel=1e-12)
    # even saturated values stay inside the box
    assert scn.T_min <= seq.thrust[0] and seq.thrust[1] <= scn.T_max
    assert abs(seq.delta[0]) <= scn.delta_max


def test_half_gimbal_inverse(case1_scn):
    seq = fo.reparameterize(raw([0.0], [math.atanh(0.5)]), case1_scn)
    assert math.degrees(seq.delta[0]) == pytest.approx(5.0, rel=1e-12)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_bounds_hold_for_any_finite_raw(case1_scn, u_T, u_delta):
    n = min(len(u_T), len(u_delta))
    scn = case1_scn
    seq = fo.reparameterize(raw(u_T[:n], u_delta[:n]), scn)
    assert (seq.thrust >= scn.T_min).all()
    assert (seq.thrust <= scn.T_max).all()
    assert (np.abs(seq.delta) <= scn.delta_max).all()


def test_monotone_elementwise(case1_scn):
    u = np.linspace(-8, 8, 41)
    seq = fo.reparameterize(raw(u, u), case1_scn)
    assert (np.diff(seq.thrust) > 0).all()
    assert (np.diff(seq.delta) > 0).all()


def test_reparameterize_grads_match_fd(case1_scn):
    scn = case1_scn
    rng = np.random.default_rng(0)
    u = rng.uniform(-3, 3, 32)
    r = raw(u, u[::-1].copy())
    dT, dd = ct.reparameterize_grads(r, scn)
    assert (dT > 0).all() and (dd > 0).all()
    h = 1e-6
    for i in range(0, 32, 5):
        up, um = r.u_T.copy(), r.u_T.copy()
        up[i] += h
        um[i] -= h
        fd = (fo.reparameterize(raw(up, r.u_delta), scn).thrust[i]
              - fo.reparameterize(raw(um, r.u_delta), scn).thrust[i]) / (2 * h)
        assert dT[i] == pytest.approx(fd, rel=1e-8)
        up, um = r.u_delta.copy(), r.u_delta.copy()
        up[i] += h
        um[i] -= h
        fd = (fo.reparameterize(raw(r.u_T, up), scn).delta[i]
              - fo.reparameterize(raw(r.u_T, um), scn).delta[i]) / (2 * h)
        assert dd[i] == pytest.approx(fd, rel=1e-8)


def test_nonfinite_raw_rejected_with_index(case1_scn):
    bad = raw([0.0, np.nan, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"u_T\[1\]"):
        fo.reparameterize(bad, case1_scn)


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        fo.RawControlParams(np.zeros(3), np.zeros(4))


def test_smoothness_constant_sequence_is_zero(case1_scn):
    seq = fo.ControlSequence(thrust=np.full(8, 0.03), delta=np.full(8, 0.1))
    assert fo.smoothness_penalty(seq, case1_scn) == 0.0
    gT, gd = ct.smoothness_grads(seq, case1_scn)
    assert not gT.any() and not gd.any()


def test_smoothness_full_range_step(case1_scn):
    scn = case1_scn
    thrust = np.array([scn.T_min, scn.T_max, scn.T_max])
    seq = fo.ControlSequence(thrust=thrust, delta=np.zeros(3))
    # (T_max - T_min)^2 / T_max^2 = 0.75^2
    assert fo.smoothness_penalty(seq, scn) == pytest.approx(0.5625, rel=1e-12)


@given(st.lists(st.floats(-1, 1), min_size=2, max_size=10))
@settings(max_examples=100, deadline=None)
def test_smoothness_time_reversal_invariance(case1_scn, vals):
    scn = case1_scn
    t = np.interp(np.asarray(vals), [-1, 1], [scn.T_min, scn.T_max])
    d = np.asarray(vals) * scn.delta_max * 0.5
    fwd = fo.ControlSequence(thrust=t, delta=d)
    rev = fo.ControlSequence(thrust=t[::-1].copy(), delta=d[::-1].copy())
    assert fo.smoothness_penalty(fwd, scn) == pytest.approx(
        fo.smoothness_penalty(rev, scn), rel=1e-12, abs=1e-15)


def test_smoothness_keeps_the_control_dtype(case1_scn):
    scn = case1_scn
    rng = np.random.default_rng(3)
    t = rng.uniform(scn.T_min, scn.T_max, 12)
    d = rng.uniform(-scn.delta_max, scn.delta_max, 12)
    # float64 keeps the bits of the plain float64 sum
    s64 = fo.smoothness_penalty(fo.ControlSequence(t, d), scn)
    dT, dd = np.diff(t) / scn.T_max, np.diff(d) / scn.delta_max
    assert s64 == float(np.dot(dT, dT) + np.dot(dd, dd))
    # long double is summed, and returned, in long double
    tl, dl = t.astype(np.longdouble), d.astype(np.longdouble)
    sld = fo.smoothness_penalty(fo.ControlSequence(tl, dl), scn)
    dT, dd = np.diff(tl) / scn.T_max, np.diff(dl) / scn.delta_max
    assert sld.dtype == np.longdouble
    assert sld == np.dot(dT, dT) + np.dot(dd, dd)
    one = fo.ControlSequence(tl[:1], dl[:1])
    assert fo.smoothness_penalty(one, scn).dtype == np.longdouble


def test_smoothness_single_step_edge(case1_scn):
    seq = fo.ControlSequence(thrust=np.array([0.03]), delta=np.array([0.0]))
    assert fo.smoothness_penalty(seq, case1_scn) == 0.0


def test_init_is_hover_throttle_unsaturated(case1_scn):
    scn = case1_scn
    r = fo.init_raw_params(scn)
    assert r.K == scn.K
    assert (r.u_delta == 0.0).all()
    seq = fo.reparameterize(r, scn)
    # thrust balances the initial weight
    assert seq.thrust[0] == pytest.approx(scn.m_wet * scn.g, rel=1e-12)
    assert ct.max_saturation(r) < ct.SATURATION_LIMIT
