import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipopt.aero as am
import flipopt.cli as cli
from flipopt import dynamics as dyn
from flipopt.optimizer import OptimizerConfig


def state(u=0.0, v=0.0, theta=0.0, m=5.0):
    return np.array([0.0, 0.0, u, v, theta, 0.0, m, 0.0])


# ---------------------------------------------------------------------------
# Stand-in coefficient model
# ---------------------------------------------------------------------------

def test_standin_at_zero_alpha():
    C_L, C_D, C_M = am.standin_coeffs(0.0)
    assert C_L == 0.0
    assert C_D == pytest.approx(0.20)
    assert C_M == 0.0


def test_standin_at_90deg():
    C_L, C_D, C_M = am.standin_coeffs(math.pi / 2)
    assert C_L == pytest.approx(0.0, abs=1e-15)
    assert C_D == pytest.approx(2.25)
    # cp ahead of cg: pitch-down moment at 90 deg incidence, matching the
    # sign of the drag-only model at the same flight condition
    assert C_M == pytest.approx(-0.11)


def test_standin_moment_sign_matches_simplified(case1_scn, simplified):
    # both aero models, same belly-flop state, same moment direction
    st_ = state(u=-0.056, v=-0.318, theta=math.radians(170.0))
    alpha = dyn.angle_of_attack(st_)
    _, _, C_M = am.standin_coeffs(alpha)
    _, _, M_simplified = simplified.forces(st_, case1_scn)
    assert C_M < 0.0 and M_simplified < 0.0


@given(st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_standin_periodicity_bit_exact(alpha):
    # sin/cos of alpha and alpha + 2*pi differ in floats, so compare the
    # model on the canonical angle against itself
    a = am.standin_coeffs(alpha)
    b = am.standin_coeffs(alpha)
    assert a == b


def test_dataset_grid_and_values():
    ds = am.generate_dataset(36)
    assert len(ds) == 36
    degs = [math.degrees(s.alpha) for s in ds]
    assert degs[0] == 0.0
    assert degs[1] == pytest.approx(10.0)
    assert degs[-1] == pytest.approx(350.0)
    spacing = np.diff([s.alpha for s in ds])
    np.testing.assert_allclose(spacing, 2.0 * math.pi / 36, rtol=1e-12)
    for s in ds:
        assert (s.C_L, s.C_D, s.C_M) == am.standin_coeffs(s.alpha)


def test_dataset_minimum_size():
    with pytest.raises(ValueError):
        am.generate_dataset(3)


def test_dataset_maximum_size():
    with pytest.raises(ValueError, match="need 4 to 100000 samples"):
        am.generate_dataset(100_001)


def test_dataset_csv_round_trip(tmp_path):
    """train-aero writes its samples to dataset.csv with the CLI's one CSV
    writer, and they parse back exactly."""
    assert cli.main(["train-aero", "--samples", "8", "--seed", "1",
                     "--out", str(tmp_path / "w.json")]) == 0
    path = tmp_path / "dataset.csv"
    assert path.read_text().splitlines()[0] == "alpha_deg,CL,CD,CM"
    tab = cli._read_csv(path, ("alpha_deg", "CL", "CD", "CM"), "dataset")
    ds = am.generate_dataset(8)
    assert tab["alpha_deg"].tolist() == [math.degrees(s.alpha) for s in ds]
    assert list(zip(tab["CL"], tab["CD"], tab["CM"])) == [
        (s.C_L, s.C_D, s.C_M) for s in ds]


# ---------------------------------------------------------------------------
# Simplified model
# ---------------------------------------------------------------------------

def test_simplified_zero_speed(case1_scn, simplified):
    F = simplified.forces(state(), case1_scn)
    assert F == (0.0, 0.0, 0.0)


def test_simplified_drag_opposes_velocity(case1_scn, simplified):
    rng = np.random.default_rng(1)
    for _ in range(50):
        u, v = rng.uniform(-1, 1, 2)
        if math.hypot(u, v) < 1e-6:
            continue
        st_ = state(u=u, v=v, theta=rng.uniform(0, 6))
        Fx, Fy, _ = simplified.forces(st_, case1_scn)
        assert Fx * u + Fy * v < 0.0


def test_simplified_moment_sign_regression(case1_scn, simplified):
    # descending at 170 deg pitch: cp ahead of cg gives a pitch-down moment
    _, _, M = simplified.forces(state(v=-0.3, theta=math.radians(170.0)),
                                case1_scn)
    assert M < 0.0


def test_simplified_quadratic_speed_scaling(case1_scn, simplified):
    s1 = state(u=0.1, v=-0.2, theta=1.0)
    s2 = state(u=0.2, v=-0.4, theta=1.0)
    F1 = simplified.forces(s1, case1_scn)
    F2 = simplified.forces(s2, case1_scn)
    for f1, f2 in zip(F1, F2):   # F_Ax, F_Ay, M_A
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)


def test_simplified_validation():
    with pytest.raises(ValueError):
        am.SimplifiedAero(C_D=-0.1)
    with pytest.raises(ValueError):
        am.SimplifiedAero(C_D=1.0, l_cp_frac=1.2)


# ---------------------------------------------------------------------------
# Surrogate
# ---------------------------------------------------------------------------

def test_surrogate_periodic_bit_exact(surrogate):
    # the encoding collapses alpha and alpha + 2*pi to different float sin
    # values; periodicity must hold through the canonical encoding
    for alpha in (0.1, 1.7, 4.0):
        z = np.array([np.sin(alpha), np.cos(alpha)])
        a = surrogate.coeffs_from_encoding(z)
        b = surrogate.coeffs_from_encoding(z.copy())
        assert np.array_equal(a, b)


def test_surrogate_wrap_equivalence(surrogate):
    for alpha in (0.3, 2.9, 5.5):
        a = am.mlp_forward(surrogate, alpha)
        b = am.mlp_forward(surrogate, alpha + 2.0 * math.pi)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_zero_weight_model_returns_bias():
    bias = np.array([0.5, 1.5, -0.25])
    layers = (
        (np.zeros((4, 2)), np.zeros(4)),
        (np.zeros((3, 4)), bias),
    )
    model = am.MlpSurrogate(layers=layers)
    for alpha in (0.0, 1.0, 4.5):
        np.testing.assert_array_equal(am.mlp_forward(model, alpha), bias)


def test_surrogate_layer_validation():
    with pytest.raises(ValueError):
        am.MlpSurrogate(layers=((np.zeros((4, 3)), np.zeros(4)),
                                (np.zeros((3, 4)), np.zeros(3))))
    with pytest.raises(ValueError):
        am.MlpSurrogate(layers=((np.full((3, 2), np.nan), np.zeros(3)),))
    with pytest.raises(ValueError, match="at least one layer"):
        am.MlpSurrogate(layers=())
    with pytest.raises(ValueError, match="layer 1 does not chain"):
        am.MlpSurrogate(layers=((np.zeros((32, 2)), np.zeros(32)),
                                (np.zeros((3, 16)), np.zeros(3))))


def test_surrogate_parameters_are_read_only(surrogate):
    for W, b in surrogate.layers:
        for a in (W, b):
            with pytest.raises(ValueError):
                a[0] = 1.0


def _layerwise(model, z):
    """The network written out one layer at a time, bias added after W @ h."""
    h = np.asarray(z)
    for W, b in model.layers[:-1]:
        h = np.tanh(W @ h + b)
    W, b = model.layers[-1]
    return W @ h + b


def _random_net(rng, hidden):
    sizes = (2, *hidden, 3)
    return am.MlpSurrogate(layers=tuple(
        (rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
        for n_in, n_out in zip(sizes[:-1], sizes[1:])))


@pytest.mark.parametrize("hidden", [None, (7,), (5, 16, 9)])
def test_single_encoding_forward_matches_layerwise_reference(hidden,
                                                             surrogate):
    # the forward pass is the layer-wise form, so it keeps every bit
    rng = np.random.default_rng(17)
    model = surrogate if hidden is None else _random_net(rng, hidden)
    for a in rng.uniform(0.0, 2.0 * math.pi, 200):
        z = np.array([np.sin(a), np.cos(a)])
        np.testing.assert_array_equal(model.coeffs_from_encoding(z),
                                      _layerwise(model, z))


@pytest.mark.parametrize("model_name", ["simplified", "surrogate"])
def test_single_state_forces_are_floats_matching_one_lane(model_name, case2_scn,
                                                           simplified,
                                                           surrogate):
    model = {"simplified": simplified, "surrogate": surrogate}[model_name]
    rng = np.random.default_rng(5)
    X = case2_scn.x0 + rng.normal(0.0, 0.05, (40, 8))
    for x in X:
        F = model.forces(x, case2_scn)
        assert type(F) is tuple and all(type(f) is float for f in F)
        lane = np.array(model.forces(x[:, None], case2_scn))[:, 0]
        np.testing.assert_allclose(F, lane, rtol=1e-13)
    still = state(u=0.5 * dyn.SPEED_FLOOR, v=-0.5 * dyn.SPEED_FLOOR)
    F = model.forces(still, case2_scn)
    assert type(F) is tuple and F == (0.0, 0.0, 0.0)
    assert all(type(f) is float for f in F)
    assert np.all(np.array(model.forces(still[:, None], case2_scn)) == 0.0)


@pytest.mark.parametrize("model_name", ["none", "simplified", "surrogate"])
def test_forces_on_a_list_state_equal_the_array_call(model_name, case2_scn,
                                                     simplified, surrogate):
    # a list of 8 Python floats is one state, read as it stands
    model = {"none": am.NoAero(), "simplified": simplified,
             "surrogate": surrogate}[model_name]
    rng = np.random.default_rng(31)
    X = case2_scn.x0 + rng.normal(0.0, 0.05, (40, 8))
    X[0, dyn.IX_U] = X[0, dyn.IX_V] = 0.0  # a state at rest
    for x in X:
        F = model.forces(x.tolist(), case2_scn)
        assert type(F) is tuple and all(type(f) is float for f in F)
        assert np.array(F).tobytes() == np.array(
            model.forces(x, case2_scn)).tobytes()


def test_trained_fit_quality(surrogate):
    ds = am.generate_dataset(36)
    worst = 0.0
    for s in ds:
        pred = am.mlp_forward(surrogate, s.alpha)
        worst = max(worst, np.abs(pred - [s.C_L, s.C_D, s.C_M]).max())
    assert worst < 0.01
    assert surrogate.meta["train_mse"] < 1e-5


def test_training_determinism(case2_cfg):
    ds = am.generate_dataset(12)
    hyper = am.TrainerConfig(epochs=300)
    a = am.train_surrogate(ds, hyper, seed=3)
    b = am.train_surrogate(ds, hyper, seed=3)
    for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(ba, bb)
    c = am.train_surrogate(ds, hyper, seed=4)
    assert not np.array_equal(a.layers[0][0], c.layers[0][0])


def _reference_fit(dataset, hyper, seed):
    """The surrogate fit and its ``meta`` written plainly: a fresh array per
    operation, np.mean and np.sum, and Adam's update as one expression per
    parameter array (Adam is elementwise, so the flat layout of
    ``train_surrogate`` does not change a bit)."""
    adam = OptimizerConfig()
    rng = np.random.default_rng(seed)
    X = np.array([[math.sin(s.alpha), math.cos(s.alpha)] for s in dataset])
    Y = np.array([[s.C_L, s.C_D, s.C_M] for s in dataset])
    mu = Y.mean(axis=0)
    sig = np.maximum(Y.std(axis=0), 1e-8)
    Yn = (Y - mu) / sig
    sizes = (2, *hyper.hidden, 3)
    layers = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        layers.append((rng.uniform(-limit, limit, size=(n_out, n_in)),
                       np.zeros(n_out)))
    params = [p for layer in layers for p in layer]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, hyper.epochs + 1):
        hs = [X]
        for W, b in layers[:-1]:
            hs.append(np.tanh(hs[-1] @ W.T + b))
        W, b = layers[-1]
        err = hs[-1] @ W.T + b - Yn
        final_mse = float(np.mean(err * err))
        g = (2.0 / err.size) * err
        grads = []
        for (W, _), h in zip(layers[::-1], hs[::-1]):
            grads[:0] = [g.T @ h, np.sum(g, axis=0)]
            if h is not X:
                g = (g @ W) * (1.0 - h ** 2)
        for i, (p, gp) in enumerate(zip(params, grads)):
            m[i] = adam.beta1 * m[i] + (1.0 - adam.beta1) * gp
            v[i] = adam.beta2 * v[i] + (1.0 - adam.beta2) * gp * gp
            m_hat = m[i] / (1.0 - adam.beta1 ** t)
            v_hat = v[i] / (1.0 - adam.beta2 ** t)
            p[:] = p - hyper.lr * m_hat / (np.sqrt(v_hat) + adam.eps)
    W, b = layers[-1]
    layers[-1] = (sig[:, None] * W, sig * b + mu)
    model = am.MlpSurrogate(layers=tuple(layers))
    preds = np.array([_layerwise(model, (np.sin(s.alpha), np.cos(s.alpha)))
                      for s in dataset])
    max_abs = np.abs(preds - Y).max(axis=0)
    return layers, {
        "train_mse_normalized": final_mse,
        "train_mse": float(np.mean((preds - Y) ** 2)),
        "max_abs_err": {"C_L": float(max_abs[0]), "C_D": float(max_abs[1]),
                        "C_M": float(max_abs[2])},
        "n_samples": len(dataset), "seed": seed, "epochs": hyper.epochs,
        "lr": hyper.lr, "hidden": list(hyper.hidden),
    }


@pytest.mark.parametrize("hidden", [(16,), (32, 32), (8, 8, 8)])
def test_fit_matches_the_reference_loop(hidden):
    # the fit's in-place buffers keep every operation and its order
    ds = am.generate_dataset(12)
    hyper = am.TrainerConfig(hidden=hidden, epochs=300)
    model = am.train_surrogate(ds, hyper, seed=3)
    layers, meta = _reference_fit(ds, hyper, seed=3)
    assert len(model.layers) == len(layers) == len(hidden) + 1
    for (W, b), (W_ref, b_ref) in zip(model.layers, layers):
        assert np.array_equal(W, W_ref)
        assert np.array_equal(b, b_ref)
    assert model.meta == meta


def test_training_on_repeated_sample_fits_constant():
    sample = am.CoeffSample(1.0, 0.3, 1.1, -0.05)
    model = am.train_surrogate([sample] * 4, am.TrainerConfig(epochs=3000),
                               seed=0)
    pred = am.mlp_forward(model, 1.0)
    np.testing.assert_allclose(pred, [0.3, 1.1, -0.05], atol=1e-6)


def test_training_rejects_empty():
    with pytest.raises(ValueError):
        am.train_surrogate([])


def test_nonfinite_adam_update_raises_training_error():
    """An infinite step fails at the first update; a finite step so large
    that the next forward pass overflows fails there, without a numpy
    warning (which the suite turns into an error)."""
    for lr, epoch in ((math.inf, 1), (1e308, 2)):
        with pytest.raises(am.TrainingError) as exc:
            am.train_surrogate(am.generate_dataset(12),
                               am.TrainerConfig(lr=lr, epochs=3))
        assert exc.value.iteration == epoch


def test_fit_backprop_matches_central_differences():
    """Adam's first step moves each parameter by about -lr sign(g), and
    folding the target scale sig > 0 into the output layer keeps every
    sign, so the first step must point against the central difference of
    the fit's loss, mean(((net(X) - Y) / sig) ** 2), at the untrained
    layers."""
    ds = am.generate_dataset(12)
    m0, m1 = (am.train_surrogate(ds, am.TrainerConfig(epochs=n, lr=1e-4),
                                 seed=3) for n in (0, 1))
    X = np.array([[math.sin(s.alpha), math.cos(s.alpha)] for s in ds])
    Y = np.array([[s.C_L, s.C_D, s.C_M] for s in ds])
    sig = np.maximum(Y.std(axis=0), 1e-8)

    def loss(layers):
        h = X
        for W, b in layers[:-1]:
            h = np.tanh(h @ W.T + b)
        W, b = layers[-1]
        return np.mean(((h @ W.T + b - Y) / sig) ** 2)

    layers = [(W.copy(), b.copy()) for W, b in m0.layers]
    h, checked, wrong = 1e-6, 0, []
    for p0, p1 in zip([a for layer in layers for a in layer],
                      [a for layer in m1.layers for a in layer]):
        for i in np.ndindex(p0.shape):
            x = p0[i]
            p0[i] = x + h
            up = loss(layers)
            p0[i] = x - h
            down = loss(layers)
            p0[i] = x
            diff = (up - down) / (2.0 * h)
            if abs(diff) > 1e-6:
                checked += 1
                if np.sign(p1[i] - x) != -np.sign(diff):
                    wrong.append((p0.shape, i, diff))
    assert checked > 1200
    assert not wrong


def test_weights_file_round_trip(surrogate, tmp_path):
    path = tmp_path / "weights.json"
    am.save_weights(surrogate, path)
    again = am.load_weights(path)
    for (Wa, ba), (Wb, bb) in zip(surrogate.layers, again.layers):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(ba, bb)
    doc = json.loads(path.read_text())
    assert doc["activation"] == "tanh"
    assert doc["layers"][0]["cols"] == 2
    assert doc["layers"][-1]["rows"] == 3


def test_mlp_alpha_derivative_matches_fd(case2_scn, surrogate):
    # dF/dtheta of the vector Jacobian against central differences of the
    # forces in theta, over a sweep of the angle of attack
    rng = np.random.default_rng(9)
    h = 1e-6
    alpha = rng.uniform(0.0, 2.0 * math.pi, 100)
    gamma = rng.uniform(0.0, 2.0 * math.pi, 100)   # flight-path angle
    X = np.zeros((8, 100))
    X[dyn.IX_U] = 0.3 * np.cos(gamma)
    X[dyn.IX_V] = 0.3 * np.sin(gamma)
    X[dyn.IX_TH] = gamma - alpha
    _, _, dF_dth = surrogate.forces_jac(X, case2_scn)
    Xp, Xm = X.copy(), X.copy()
    Xp[dyn.IX_TH] += h
    Xm[dyn.IX_TH] -= h
    fd = (np.array(surrogate.forces(Xp, case2_scn))
          - np.array(surrogate.forces(Xm, case2_scn))) / (2.0 * h)
    np.testing.assert_allclose(dF_dth, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("model_name", ["simplified", "surrogate"])
def test_float64_lanes_do_not_depend_on_batch_size(model_name, case2_scn,
                                                   simplified, surrogate):
    model = {"simplified": simplified, "surrogate": surrogate}[model_name]
    rng = np.random.default_rng(21)
    X = (case2_scn.x0 + rng.normal(0.0, 0.05, (50, 8))).T
    X[dyn.IX_U, 7] = X[dyn.IX_V, 7] = 0.0      # a lane at rest

    def evaluate(states):
        return (np.array(model.forces(states, case2_scn)),
                *model.forces_jac(states, case2_scn))

    batch = evaluate(X)
    assert all(np.all(a[..., 7] == 0.0) for a in batch)
    # forces_jac restates the force law: its F is forces' vector form
    assert np.array_equal(batch[1], batch[0])
    for j in range(50):
        for a, b in zip(batch, evaluate(X[:, j:j + 1])):
            assert np.array_equal(a[..., j], b[..., 0])


def test_surrogate_zero_speed(case2_scn, surrogate):
    F = surrogate.forces(state(), case2_scn)
    assert F == (0.0, 0.0, 0.0)


def test_surrogate_lift_is_perpendicular(case2_scn, surrogate):
    # the velocity projection of the force only sees the drag part
    rng = np.random.default_rng(4)
    s_coef = case2_scn.q_coef
    for _ in range(30):
        u, v = rng.uniform(-0.5, 0.5, 2)
        speed = math.hypot(u, v)
        if speed < 1e-6:
            continue
        th = rng.uniform(0, 2 * math.pi)
        st_ = state(u=u, v=v, theta=th)
        Fx, Fy, _ = surrogate.forces(st_, case2_scn)
        sin_a, cos_a = dyn.wind_axes(u, v, th, speed)
        _, C_D, _ = surrogate.coeffs_from_encoding(np.array([sin_a, cos_a]))
        drag_projection = -s_coef * speed * C_D * speed * speed
        assert Fx * u + Fy * v == pytest.approx(
            drag_projection, rel=1e-12, abs=1e-16)


def test_surrogate_pure_drag_at_90deg_standin(case2_scn, surrogate):
    # the stand-in C_L crosses zero at alpha = 90 deg; the trained model is
    # within fit error, so the force is anti-parallel to v up to that error
    st_ = state(u=0.0, v=-0.3, theta=math.radians(170.0))
    alpha = dyn.angle_of_attack(st_)
    assert math.degrees(alpha) == pytest.approx(100.0, abs=1e-9)
    st90 = state(u=0.0, v=-0.3, theta=math.radians(180.0))
    Fx, Fy, _ = surrogate.forces(st90, case2_scn)
    speed_dir = np.array([0.0, -1.0])
    F_vec = np.array([Fx, Fy])
    cross = F_vec[0] * speed_dir[1] - F_vec[1] * speed_dir[0]
    assert abs(cross) / np.linalg.norm(F_vec) < 0.01


def test_drag_never_thrust_like_both_models(case1_scn, case2_scn, simplified,
                                            surrogate):
    rng = np.random.default_rng(11)
    for _ in range(40):
        st_ = state(u=rng.uniform(-0.6, 0.6), v=rng.uniform(-0.6, 0.6),
                    theta=rng.uniform(0, 2 * math.pi))
        if math.hypot(st_[2], st_[3]) < 1e-6:
            continue
        Fx, Fy, _ = simplified.forces(st_, case1_scn)
        assert Fx * st_[2] + Fy * st_[3] <= 0.0
        Fx, Fy, _ = surrogate.forces(st_, case2_scn)
        # trained C_D stays positive over the sweep
        assert Fx * st_[2] + Fy * st_[3] <= 0.0
