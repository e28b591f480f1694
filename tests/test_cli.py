import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import flipopt.cli as cli
import flipopt.dynamics as dyn
import flipopt.optimizer as om
import flipopt.plots as plots
import flipopt.rollout as ro
import flipopt.scenario as sc
from flipopt.dynamics import angle_of_attack

# short runs keep the CLI suite fast; full-budget runs live in acceptance
FAST = ["--k", "12", "--steps", "40"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop(cli.SEED_ENV_VAR, None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "flipopt.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


@pytest.fixture(scope="module")
def opt_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("opt")
    rc = cli.main(["optimize", "--scenario", "case1", "--out", str(out), *FAST])
    assert rc == 0
    return out


def test_optimize_writes_all_artifacts(opt_run):
    for name in ("trajectory.csv", "controls.csv", "loss_history.csv",
                 "summary.json", "manifest.json"):
        assert (opt_run / name).is_file(), name
    summary = json.loads((opt_run / "summary.json").read_text())
    assert summary["engine"] == "bptt"
    assert math.isfinite(summary["terminal"]["position_error_norm_m"])
    head = (opt_run / "trajectory.csv").read_text().splitlines()
    assert head[0] == cli.TRAJECTORY_HEADER
    assert len(head) == 1 + 12 + 1  # header, K+1 states
    hist = (opt_run / "loss_history.csv").read_text().splitlines()
    assert hist[0] == cli.LOSS_HISTORY_HEADER
    assert len(hist) == 1 + 40


def test_loss_history_lr_is_the_cosine_schedule(opt_run):
    """Row i of loss_history.csv holds step i and the schedule's rate at
    it, under the run's recorded opt settings, written with repr."""
    opt = cli._read_manifest(opt_run / "manifest.json")[1].opt
    rows = [line.split(",") for line in
            (opt_run / "loss_history.csv").read_text().splitlines()[1:]]
    assert len(rows) == opt.n_steps
    for i, row in enumerate(rows):
        assert row[:2] == [str(i), repr(om.cosine_lr(i, opt))]


def test_summary_residuals_are_the_last_trajectory_row_minus_the_target(
        opt_run):
    """Each terminal residual in summary.json is the final row of
    trajectory.csv minus the recorded scenario's landing target, in SI."""
    bc = cli._read_manifest(opt_run / "manifest.json")[1].bc
    last = dict(zip(cli.TRAJECTORY_HEADER.split(","), map(float, (
        opt_run / "trajectory.csv").read_text().splitlines()[-1].split(","))))
    terminal = json.loads((opt_run / "summary.json").read_text())["terminal"]
    expected = {
        "position_error_m": [last["x_m"] - bc.r_f[0], last["y_m"] - bc.r_f[1]],
        "velocity_error_mps": [last["u_mps"] - bc.v_f[0],
                               last["v_mps"] - bc.v_f[1]],
        "pitch_error_deg": last["theta_deg"] - math.degrees(bc.theta_f),
        "omega_error_radps": last["omega_radps"] - bc.omega_f,
    }
    for key, value in expected.items():
        np.testing.assert_allclose(terminal[key], value, rtol=0, atol=1e-9,
                                   err_msg=key)


def test_optimize_engine_tag(tmp_path):
    out = tmp_path / "adj"
    rc = cli.main(["optimize", "--scenario", "case1", "--out", str(out),
                   "--engine", "adjoint", "--k", "8", "--steps", "5"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["engine"] == "adjoint"


def test_unknown_scenario_exits_2():
    proc = run_cli("optimize", "--scenario", "case9", "--out", "/tmp/x")
    assert proc.returncode == 2
    assert "case1" in proc.stderr and "case2" in proc.stderr


SURROGATE = {"kind": "surrogate"}


@pytest.mark.parametrize("data, field", [
    ({"K": "abc"}, "'K'"),
    ({"t_f_s": math.inf}, "t_f_s"),
    ({"bc": {"theta_f_deg": math.nan}}, "bc.theta_f"),
    ({"loss_weights": {"w_smoth": 1.0}}, "loss_weights.w_smoth"),
    ({"vehicel": {"J_z_kgm2": 2e7}}, "vehicel"),
    ({"refs": 5}, "refs"),
    ({"vehicle": {"T_max_N": "2e6"}}, "vehicle.T_max_N"),
    ({"aero": {"C_D": True}}, "aero.C_D"),
    ({"K": 2.7}, "'K'"),
    ({"opt": {"n_steps": 10.9}}, "opt.n_steps"),
    ({"opt": {"log_every": 2.5}}, "opt.log_every"),
    ({"seed": 0.5}, "'seed'"),
    ({"bc": {"v0_mps": [1, 2, 3]}}, "bc.v0_mps"),
    ({"bc": {"r0_m": "12"}}, "bc.r0_m"),
    ({"aero": {**SURROGATE, "weights_path": 5}}, "aero.weights_path"),
    ({"aero": {**SURROGATE, "weights_path": "missing.json"}}, "aero.weights_path"),
    ({"aero": {**SURROGATE, "weights_path": "layers-3.json"}}, "aero.weights_path"),
], ids=["K-abc", "t_f_s-inf", "theta_f-nan", "w_smoth-unknown",
        "vehicel-unknown", "refs-not-object", "T_max-string", "C_D-bool",
        "K-fraction", "n_steps-fraction", "log_every-fraction",
        "seed-fraction", "v0-three-numbers", "r0-string",
        "weights_path-number", "weights-missing", "weights-malformed"])
def test_malformed_scenario_value_exits_2(tmp_path, data, field):
    (tmp_path / "layers-3.json").write_text(
        json.dumps({"activation": "tanh", "layers": 3}))
    aero = data.get("aero", {})
    if isinstance(aero.get("weights_path"), str):   # a file name in tmp_path
        data = {**data, "aero": {**aero, "weights_path": str(
            tmp_path / aero["weights_path"])}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))   # writes Infinity and NaN literals
    proc = run_cli("optimize", "--scenario", str(bad), "--out",
                   str(tmp_path / "out"))
    assert proc.returncode == 2
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, key", [
    ("optimize", "--k", "'K'"),
    ("optimize", "--steps", "'opt.n_steps'"),
    ("check-grad", "--k", "'K'"),
], ids=["optimize-k", "optimize-steps", "check-grad-k"])
def test_a_count_past_its_bound_exits_2(tmp_path, command, flag, key):
    """An override of K or opt.n_steps too large for numpy to allocate
    exits 2 naming the key, before the run directory exists."""
    out = tmp_path / "out"
    proc = run_cli(command, "--scenario", "case1", flag, str(10**30),
                   "--out", str(out))
    assert proc.returncode == 2
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_scenario_that_is_not_utf8_exits_2(tmp_path):
    """A scenario file that is not UTF-8 text is a configuration error:
    exit 2 naming the file, and no run directory."""
    bad = tmp_path / "f.json"
    bad.write_bytes(b'{"K": 6}\xff')
    proc = run_cli("optimize", "--scenario", str(bad), "--out",
                   str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"cannot read scenario file {bad}: " in proc.stderr
    assert "can't decode byte 0xff in position 8" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


# written as text: json.dumps hits the same recursion limit as the parser
DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("text, why", [
    ('{"K": ' + DEEP + "}", "maximum recursion depth exceeded"),
    ('{"K": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)"),
], ids=["nested-too-deep", "integer-too-long"])
def test_scenario_that_the_parser_cannot_read_exits_2(tmp_path, text, why):
    """A scenario file nested deeper than the parser's recursion limit, or
    holding an integer longer than Python converts, is a configuration
    error: exit 2 naming the file, and no run directory."""
    bad = tmp_path / "f.json"
    bad.write_text(text)
    proc = run_cli("optimize", "--scenario", str(bad), "--out",
                   str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"cannot read scenario file {bad}: {why}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, key", [
    ('{"K": 90, "K": 7}', "K"),
    ('{"opt": {"n_steps": 5000, "n_steps": 2}}', "n_steps"),
], ids=["top-level", "nested"])
def test_scenario_with_a_repeated_key_exits_2(tmp_path, text, key):
    """A scenario that names a key twice in one object is refused, not read
    with its last value: exit 2 naming the key and the file, and no run
    directory."""
    bad = tmp_path / "f.json"
    bad.write_text(text)
    proc = run_cli("optimize", "--scenario", str(bad), "--out",
                   str(tmp_path / "out"))
    assert proc.returncode == 2
    assert (f"cannot read scenario file {bad}: duplicate key {key!r}"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_weights_with_a_repeated_key_exit_2(tmp_path, small_weights):
    """A weights file that names a key twice exits 2 naming
    aero.weights_path and the key, with no run directory."""
    text = small_weights.read_text()
    stderr = _assert_weights_exit_2(
        tmp_path, "optimize", '{"activation": "tanh", ' + text[1:])
    assert "duplicate key 'activation'" in stderr


def test_weights_nested_too_deep_exit_2(tmp_path):
    """A weights file nested deeper than the parser's recursion limit exits
    2 naming aero.weights_path and the file once, with no run directory."""
    stderr = _assert_weights_exit_2(tmp_path, "optimize", DEEP)
    weights = tmp_path / "weights.json"
    assert (f"cannot read surrogate weights file {weights}: maximum recursion "
            f"depth exceeded") in stderr
    assert stderr.count(str(weights)) == 1


@pytest.mark.parametrize("command", ["check-grad", "optimize", "simulate"])
@pytest.mark.parametrize("layers", [
    [],
    [{"rows": 32, "cols": 2, "w": [0.1] * 64, "b": [0.0] * 32},
     {"rows": 3, "cols": 16, "w": [0.1] * 48, "b": [0.0] * 3}],
], ids=["no-layers", "16-after-32"])
def test_weights_that_do_not_chain_exit_2(tmp_path, layers, command):
    """A weights file with no layers, or whose layers do not chain, exits 2
    naming aero.weights_path, from every command that loads it, and makes
    no run directory."""
    _assert_weights_exit_2(tmp_path, command,
                           {"activation": "tanh", "layers": layers})


@pytest.mark.parametrize("command", ["check-grad", "optimize", "simulate"])
@pytest.mark.parametrize("edit", [
    lambda doc: doc["layers"][0].update(
        w=[repr(x) for x in doc["layers"][0]["w"]]),
    lambda doc: doc["layers"][-1]["b"].__setitem__(0, True),
    lambda doc: doc.update(bias=[0.0, 0.0, 0.0]),
    lambda doc: doc["layers"][0].update(scale=1.0),
    lambda doc: doc["layers"][0].update(rows=-1),
    lambda doc: doc["layers"][0]["w"].__setitem__(0, 10**400),
], ids=["w-strings", "b-true", "unknown-top-key", "unknown-layer-key",
        "rows-negative", "w-past-float-range"])
def test_lax_weights_exit_2(tmp_path, small_weights, edit, command):
    """A saved surrogate's weights file with string weights, a boolean
    bias, an unknown key at either level, a row count that reshape would
    infer or an integer weight too large for a float exits 2 naming
    aero.weights_path, from every command that loads it, and makes no run
    directory."""
    doc = json.loads(small_weights.read_text())
    edit(doc)
    _assert_weights_exit_2(tmp_path, command, doc)


def _assert_weights_exit_2(tmp_path, command, doc):
    """``command`` on a surrogate scenario whose weights file holds ``doc``
    (JSON text as it is, or an object to encode) exits 2 naming
    aero.weights_path, with no traceback and no run directory; returns
    the command's stderr."""
    weights = tmp_path / "weights.json"
    weights.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        {"aero": {**SURROGATE, "weights_path": str(weights)}}))
    controls = tmp_path / "controls.csv"
    controls.write_text("thrust_N,delta_deg\n" + "2e6,0\n" * 6)
    extra = ["--controls", str(controls)] if command == "simulate" else []
    proc = run_cli(command, "--scenario", str(scenario), "--k", "6",
                   "--out", str(tmp_path / "out"), *extra)
    assert proc.returncode == 2
    assert "aero.weights_path" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
    return proc.stderr


@pytest.mark.parametrize("value", [-1.0, None], ids=["negative", "null"])
def test_removed_grad_clip_is_an_unknown_key(tmp_path, value):
    """opt.grad_clip is gone: set to anything, null included, it is an
    unknown key, and the CLI exits 2 naming it."""
    data = {"opt": {"grad_clip": value}}
    with pytest.raises(sc.ScenarioError,
                       match=r"unknown scenario key 'opt\.grad_clip'"):
        sc.scenario_from_dict(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("optimize", "--scenario", str(bad), "--out",
                   str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "unknown scenario key 'opt.grad_clip'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_numerical_abort_exits_3_and_persists(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 2, "t_f_s": 1e6,
                               "opt": {"n_steps": 2, "log_every": 0}}))
    out = tmp_path / "out"
    proc = run_cli("optimize", "--scenario", str(bad), "--out", str(out))
    assert proc.returncode == 3
    assert "non-finite state at step 2: field(s)" in proc.stderr
    snap = json.loads((out / "abort_snapshot.json").read_text())
    assert snap["step"] == 0


def test_non_finite_adam_update_exits_3_and_persists(tmp_path, caplog):
    """An Adam step that overflows aborts as a failed gradient does: exit
    3 with a snapshot of the step, and no numpy warning on the way."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"opt": {"lr_max": 1e308, "lr_min": 1e308}}))
    out = tmp_path / "out"
    rc = cli.main(["optimize", "--scenario", str(bad), "--k", "4",
                   "--steps", "3", "--out", str(out)])
    assert rc == 3
    assert "non-finite Adam update" in caplog.text
    snap = json.loads((out / "abort_snapshot.json").read_text())
    assert snap["step"] == 0


def test_every_numerical_failure_is_a_floating_point_error():
    """main maps FloatingPointError to exit 3, so every numerical failure
    is one; the diverged-state report has one type under both names."""
    assert ro.RolloutError is dyn.RolloutError
    for exc in (ro.RolloutError, cli.opt_mod.NumericalAbort,
                cli.aero_mod.TrainingError):
        assert issubclass(exc, FloatingPointError)


def test_simulate_replays_bit_exact(opt_run, tmp_path):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--scenario", "case1", "--k", "12",
                   "--controls", str(opt_run / "controls.csv"),
                   "--out", str(out)])
    assert rc == 0
    assert (out / "trajectory.csv").read_bytes() == \
        (opt_run / "trajectory.csv").read_bytes()


def test_simulate_length_mismatch_exits_2(opt_run, tmp_path):
    rc = cli.main(["simulate", "--scenario", "case1", "--k", "11",
                   "--controls", str(opt_run / "controls.csv"),
                   "--out", str(tmp_path / "z")])
    assert rc == 2


@pytest.mark.parametrize("case, edit, where", [
    pytest.param("missing", None, None, id="missing"),
    pytest.param("directory", None, None, id="directory"),
    pytest.param("not-utf8", None, None, id="not-utf8"),
    pytest.param("edit", lambda r: r[:2] + ["abc", r[3]],
                 "line 3, column 'thrust_N'", id="text-cell"),
    pytest.param("edit", lambda r: r[:3], "line 3, column 'delta_deg'",
                 id="short-row"),
    pytest.param("edit", lambda r: r[:3] + ["nan"],
                 "line 3, column 'delta_deg'", id="nan"),
    pytest.param("edit", lambda r: r[:2] + ["-inf", r[3]],
                 "line 3, column 'thrust_N'", id="inf"),
])
def test_simulate_rejects_bad_controls_with_exit_2(case, edit, where, opt_run,
                                                   tmp_path, caplog):
    """Every unreadable controls file exits 2 with a message that names it,
    and the line and column of a bad cell, before the run directory is
    made."""
    lines = (opt_run / "controls.csv").read_text().splitlines()
    ctrl = tmp_path / "controls.csv"
    if case == "directory":
        ctrl.mkdir()
    elif case == "not-utf8":
        ctrl.write_bytes("\n".join(lines).encode() + b"\n# caf\xe9\n")
    elif case == "edit":
        lines[2] = ",".join(edit(lines[2].split(",")))
        ctrl.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--scenario", "case1", "--k", "12",
                   "--controls", str(ctrl), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert str(ctrl) in caplog.text
    if where is not None:
        assert where in caplog.text


def test_simulate_no_aero_projectile(tmp_path, case1_cfg):
    """Min throttle, zero gimbal, no aero: rocket in a fixed direction.

    With the gimbal centered there is no torque, so the thrust direction is
    frozen at the initial pitch; the analytic solution follows from the
    rocket equation with a linear mass drain.  Gravity-only terms must be
    exact; the thrust integral is checked against the closed form.
    """
    K = 10
    refs = case1_cfg.refs
    dt_s = case1_cfg.t_f / case1_cfg.K
    ctrl = tmp_path / "controls.csv"
    T_N = 0.25 * 2.3e6
    lines = ["k,t_s,thrust_N,delta_deg"]
    for k in range(K):
        lines.append(f"{k},{k * dt_s!r},{T_N!r},0.0")
    ctrl.write_text("\n".join(lines) + "\n")
    out = tmp_path / "proj"
    rc = cli.main(["simulate", "--scenario", "case1", "--k", str(K),
                   "--controls", str(ctrl), "--out", str(out), "--no-aero"])
    assert rc == 0
    rows = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    t = K * dt_s
    theta = math.radians(170.0)
    m0, c_ex = 135000.0, 350.0 * 9.80665
    b = T_N / c_ex     # mass drain rate kg/s
    m_t = m0 - b * t
    dv_thrust = c_ex * math.log(m0 / m_t)
    # integral of the thrust velocity gain: c_ex [t - (m_t/b) ln(m0/m_t)]
    dx_thrust = c_ex * (t - (m_t / b) * math.log(m0 / m_t))
    vx = -18.82 + math.cos(theta) * dv_thrust
    vy = -106.73 - 9.80665 * t + math.sin(theta) * dv_thrust
    x = 0.0 + -18.82 * t + math.cos(theta) * dx_thrust
    y = 0.0 + -106.73 * t - 0.5 * 9.80665 * t * t + math.sin(theta) * dx_thrust
    assert rows["mass_kg"][-1] == pytest.approx(m_t, rel=1e-9)
    assert rows["u_mps"][-1] == pytest.approx(vx, rel=1e-7)
    assert rows["v_mps"][-1] == pytest.approx(vy, rel=1e-7)
    assert rows["x_m"][-1] == pytest.approx(x, rel=1e-7)
    assert rows["y_m"][-1] == pytest.approx(y, rel=1e-7)
    assert rows["theta_deg"][-1] == pytest.approx(170.0, rel=1e-12)


def test_simulate_logs_alpha_of_every_state(tmp_path, case1_cfg):
    """alpha_deg is the angle of attack of each row's state, in [0, 360),
    on every row, the last state's included."""
    K = case1_cfg.K
    ctrl = tmp_path / "controls.csv"
    cli._write_csv(ctrl, cli.CONTROLS_HEADER,
                   [(k, 0.0, 1.2e6, 8.0 * math.sin(0.1 * k)) for k in range(K)])
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", "case1", "--controls",
                     str(ctrl), "--out", str(out)]) == 0
    states = ro.rollout_controls(
        cli._read_controls_csv(ctrl, case1_cfg.refs),
        sc.nondimensionalize(case1_cfg), cli.build_aero_model(case1_cfg)).states
    alpha_deg = cli._read_csv(out / "trajectory.csv", ("alpha_deg",),
                              "trajectory file")["alpha_deg"]
    assert len(alpha_deg) == K + 1
    assert ((0.0 <= alpha_deg) & (alpha_deg < 360.0)).all()
    assert alpha_deg.tolist() == [math.degrees(angle_of_attack(x))
                                  for x in states]


def test_train_aero_deterministic_and_reported(tmp_path):
    out1 = tmp_path / "a" / "weights.json"
    out2 = tmp_path / "b" / "weights.json"
    for out in (out1, out2):
        rc = cli.main(["train-aero", "--samples", "36", "--seed", "7",
                       "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads((out1.parent / "fit_report.json").read_text())
    assert max(report["max_abs_err"].values()) < 0.01


@pytest.fixture
def diverging_fit(monkeypatch):
    """Every default surrogate fit takes a non-finite Adam step."""
    trainer = cli.aero_mod.TrainerConfig
    monkeypatch.setattr(cli.aero_mod, "TrainerConfig",
                        lambda: trainer(lr=math.inf, epochs=3))


def test_train_aero_divergence_exits_3(tmp_path, diverging_fit):
    """A non-finite Adam update surfaces as a training error, not a crash,
    and the fit fails before the output directory is made."""
    rc = cli.main(["train-aero", "--samples", "12",
                   "--out", str(tmp_path / "sub" / "w.json")])
    assert rc == 3
    assert not (tmp_path / "sub").exists()


@pytest.mark.parametrize("command", ["check-grad", "optimize", "simulate"])
def test_surrogate_divergence_on_load_exits_3(tmp_path, diverging_fit,
                                              command, caplog):
    """A surrogate that diverges while a command trains it on load exits 3,
    as train-aero does, and makes no run directory."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"aero": SURROGATE}))
    controls = tmp_path / "controls.csv"
    controls.write_text("thrust_N,delta_deg\n" + "2e6,0\n" * 6)
    extra = ["--controls", str(controls)] if command == "simulate" else []
    rc = cli.main([command, "--scenario", str(scenario), "--k", "6",
                   "--out", str(tmp_path / "out"), *extra])
    assert rc == 3
    assert "training diverged" in caplog.text
    assert not (tmp_path / "out").exists()


def test_train_aero_rejects_tiny_dataset(tmp_path):
    rc = cli.main(["train-aero", "--samples", "3",
                   "--out", str(tmp_path / "w.json")])
    assert rc == 2


def test_train_aero_rejects_a_huge_dataset(tmp_path):
    """A sample count past generate_dataset's upper end exits 2 naming
    --samples before any memory is spent on it or any file is written."""
    out = tmp_path / "out" / "w.json"
    proc = run_cli("train-aero", "--samples", str(10**12), "--out", str(out))
    assert proc.returncode == 2
    assert "--samples" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.parent.exists()


def test_seed_env_var_override(tmp_path):
    out1 = tmp_path / "env" / "weights.json"
    out2 = tmp_path / "cli" / "weights.json"
    proc = run_cli("train-aero", "--samples", "12", "--out", str(out1),
                   env_extra={cli.SEED_ENV_VAR: "9"})
    assert proc.returncode == 0
    rc = cli.main(["train-aero", "--samples", "12", "--seed", "9",
                   "--out", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_non_integer_seed_env_var_exits_2(tmp_path):
    proc = run_cli("check-grad", "--scenario", "case1", "--k", "6", "--out",
                   str(tmp_path / "cg"), env_extra={cli.SEED_ENV_VAR: "abc"})
    assert proc.returncode == 2
    assert cli.SEED_ENV_VAR in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_aero_negative_seed_exits_2(tmp_path):
    proc = run_cli("train-aero", "--samples", "12", "--seed", "-1",
                   "--out", str(tmp_path / "w.json"))
    assert proc.returncode == 2
    assert "seed" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "w.json").exists()


def _assert_exit_2_naming(proc, path):
    assert proc.returncode == 2
    assert str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["optimize", "--scenario", "case1", "--k", "4", "--steps", "1"],
    ["simulate", "--scenario", "case1", "--k", "2"],
    ["check-grad", "--scenario", "case1", "--k", "2"],
], ids=lambda c: c[0])
def test_out_naming_an_existing_file_exits_2(tmp_path, command):
    """An --out that names a file, not a directory, is an output the run
    cannot write: it exits 2 naming the path."""
    controls = tmp_path / "controls.csv"
    controls.write_text("thrust_N,delta_deg\n" + "2e6,0\n" * 2)
    taken = tmp_path / "taken"
    taken.write_text("")
    extra = ["--controls", str(controls)] if command[0] == "simulate" else []
    _assert_exit_2_naming(run_cli(*command, *extra, "--out", str(taken)),
                          taken)


def test_train_aero_out_naming_a_directory_exits_2(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    _assert_exit_2_naming(run_cli("train-aero", "--samples", "4",
                                  "--out", str(taken)), taken)


def _refuse(*args, **kwargs):
    raise AssertionError("a refused run computed")


@pytest.mark.parametrize("command, directory", [
    (["optimize", "--scenario", "case1", "--k", "4", "--steps", "2"],
     "summary.json"),
    (["simulate", "--scenario", "case1", "--k", "2"], "summary.json"),
    (["check-grad", "--scenario", "case1", "--k", "2"], "check_grad.json"),
    (["check-grad", "--scenario", "case1", "--k", "2"], "manifest.json"),
    (["train-aero", "--samples", "4"], "fit_report.json"),
    (["plot"], "state_panel.svg"),
], ids=["optimize", "simulate", "check-grad", "check-grad-manifest",
        "train-aero", "plot"])
def test_an_output_that_is_a_directory_refuses_the_run(
        command, directory, opt_run, tmp_path, monkeypatch, caplog):
    """One output path is a directory, the last file a command writes
    before its manifest, or the manifest: the run exits 2 naming it
    before any optimization, rollout, gradient, oracle, fit or plot, and
    writes no other output."""
    for module, name in [(cli.opt_mod, "optimize"), (ro, "rollout_controls"),
                         (ro, "grad_bptt"), (ro, "finite_diff_grad"),
                         (cli.aero_mod, "train_surrogate"),
                         (plots, "write_panel_grid"),
                         (plots, "write_pose_plot")]:
        monkeypatch.setattr(module, name, _refuse)
    run = tmp_path / "run"
    (run / directory).mkdir(parents=True)
    inputs = []
    if command[0] == "plot":
        inputs = ["trajectory.csv", "manifest.json"]
        for name in inputs:
            (run / name).write_bytes((opt_run / name).read_bytes())
        command = ["plot", str(run)]
    elif command[0] == "train-aero":
        command = [*command, "--out", str(run / "weights.json")]
    else:
        command = [*command, "--out", str(run)]
    if command[0] == "simulate":
        controls = tmp_path / "controls.csv"
        controls.write_text("thrust_N,delta_deg\n" + "2e6,0\n" * 2)
        command += ["--controls", str(controls)]
    assert cli.main(command) == 2
    assert str(run / directory) in caplog.text
    assert sorted(f.name for f in run.iterdir()) == sorted(
        [directory, *inputs])


def test_plot_that_cannot_write_an_svg_exits_2(opt_run, tmp_path):
    """A run directory in which controls_velocity.svg is a directory."""
    for name in ("trajectory.csv", "manifest.json"):
        (tmp_path / name).write_bytes((opt_run / name).read_bytes())
    svg = tmp_path / "controls_velocity.svg"
    svg.mkdir()
    _assert_exit_2_naming(run_cli("plot", str(tmp_path)), svg)


def _corrupt_engine(monkeypatch):
    """Make the bptt engine, which the presets select, return its gradient
    with a fault in entry 0.  The fault scales with the component, so it
    exceeds the relative tolerance whatever the loss weights make of the
    gradient's size."""
    grad = ro.grad_bptt

    def corrupted(*args, **kwargs):
        report = grad(*args, **kwargs)
        report.grad_u_T = report.grad_u_T.copy()
        report.grad_u_T[0] += 1e-3 * max(1.0, abs(report.grad_u_T[0]))
        return report

    monkeypatch.setattr(ro, "grad_bptt", corrupted)


def test_check_grad_passes_and_detects_corruption(tmp_path, monkeypatch):
    rc = cli.main(["check-grad", "--scenario", "case1", "--k", "6",
                   "--out", str(tmp_path / "cg")])
    assert rc == 0
    _corrupt_engine(monkeypatch)
    rc = cli.main(["check-grad", "--scenario", "case1", "--k", "6",
                   "--out", str(tmp_path / "cg2")])
    assert rc == 1


def test_check_grad_non_finite_gradient_exits_3(tmp_path, caplog):
    """A loss weight that the schema accepts but that overflows the
    gradient is a numerical abort, as in optimize."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"loss_weights": {"w_r": 1e308}}))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["check-grad", "--scenario", str(bad), "--k", "4",
                       "--out", str(tmp_path / "cg")])
    assert rc == 3
    assert "non-finite loss: terminal_position is inf" in caplog.text


@pytest.mark.parametrize("command", ["check-grad", "optimize", "simulate"])
def test_non_finite_loss_exits_3_without_numpy_warnings(command, tmp_path,
                                                        opt_run, caplog):
    """An overflowing loss term stops every command at the loss: exit 3,
    no warning from numpy, and no summary with an infinite total."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"loss_weights": {"w_r": 1e308}}))
    extra = {"check-grad": ["--k", "4"],
             "optimize": ["--k", "4", "--steps", "3"],
             "simulate": ["--k", "12", "--controls",
                          str(opt_run / "controls.csv")]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, "--scenario", str(bad),
                       "--out", str(tmp_path / "out"), *extra])
    assert rc == 3
    assert "non-finite loss: terminal_position is inf" in caplog.text
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("engine", [[1.0, 2.0, 3e-8, 5.0],
                                    [1.0 + 1e-6, 2.0, 3e-8, 5.0]],
                         ids=["relative-exact", "relative-passing"])
def test_check_grad_failure_names_the_entry_outside_its_tolerance(
        engine, tmp_path, monkeypatch, capsys):
    """Entry 2 misses the absolute tolerance threefold while every relative
    entry passes, so the message and check_grad.json name entry 2."""
    fd = _report([1.0, 2.0, 0.0, 5.0])
    monkeypatch.setattr(cli.opt_mod, "_engine_fn",
                        lambda name: lambda *args: _report(engine))
    monkeypatch.setattr(ro, "finite_diff_grad", lambda *args, **kwargs: fd)
    rc = cli.main(["check-grad", "--scenario", "case1", "--k", "2",
                   "--out", str(tmp_path / "cg")])
    assert rc == 1
    assert ("FAILED at index 2: engine 3e-08 vs finite differences 0.0"
            in capsys.readouterr().out)
    doc = json.loads((tmp_path / "cg" / "check_grad.json").read_text())
    assert doc["worst_index"] == 2 and doc["pass"] is False


def _report(g):
    g = np.asarray(g, dtype=float)
    half = len(g) // 2
    return ro.GradientReport(grad_u_T=g[:half], grad_u_delta=g[half:])


def _grad_check_loop(g, r):
    """grad_check's rule entry by entry: the reference for finite inputs.
    The worst index is the entry furthest outside its own tolerance."""
    worst_rel, worst_abs, worst_idx, worst, ok = 0.0, 0.0, -1, 0.0, True
    for i, (a, b) in enumerate(zip(g, r)):
        if abs(b) > cli.GRAD_FD_FLOOR:
            rel = abs(a - b) / abs(b)
            worst_rel = max(worst_rel, rel)
            ok = ok and rel < cli.GRAD_REL_TOL
            excess = rel / cli.GRAD_REL_TOL
        else:
            worst_abs = max(worst_abs, abs(a - b))
            ok = ok and abs(a - b) < cli.GRAD_ABS_TOL
            excess = abs(a - b) / cli.GRAD_ABS_TOL
        if excess > worst:
            worst, worst_idx = excess, i
    return ok, worst_rel, worst_abs, worst_idx


@pytest.mark.parametrize("index", [1, 2], ids=["relative", "absolute"])
@pytest.mark.parametrize("side, value", [("engine", math.nan),
                                         ("oracle", math.nan),
                                         ("oracle", math.inf)],
                         ids=["engine-nan", "oracle-nan", "oracle-inf"])
def test_grad_check_fails_on_non_finite_entries(side, value, index):
    """Finite gradients get the entry-by-entry rule's verdict, worst errors
    and worst index; one non-finite entry on either side fails the check
    (an infinite engine entry already did)."""
    rng = np.random.default_rng(index)
    fd = np.array([1.0, -2.0, 1e-9, 0.0] * 4)
    for _ in range(50):
        p = [0.5, 0.48, 0.02]  # about half the cases pass
        g = fd * (1.0 + rng.choice([0.0, 1e-7, 1e-4], fd.size, p=p)) \
            + rng.choice([0.0, 5e-9, 5e-8], fd.size, p=p)
        assert (cli.grad_check(_report(g), _report(fd))
                == _grad_check_loop(g, fd))
    g = fd.copy()
    (g if side == "engine" else fd)[index] = value
    assert cli.grad_check(_report(g), _report(fd))[0] is False


def test_plot_emits_svgs(opt_run):
    rc = cli.main(["plot", str(opt_run)])
    assert rc == 0
    for name in ("controls_velocity.svg", "trajectory_pose.svg",
                 "state_panel.svg"):
        svg = (opt_run / name).read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg


def test_plot_missing_trajectory_exits_2(tmp_path):
    assert cli.main(["plot", str(tmp_path)]) == 2


def test_plot_empty_trajectory_exits_2(tmp_path, case1_cfg, caplog):
    (tmp_path / "trajectory.csv").write_text(cli.TRAJECTORY_HEADER + "\n")
    sc.write_json(tmp_path / "manifest.json",
                  {"scenario_snapshot": sc.scenario_to_dict(case1_cfg)})
    assert cli.main(["plot", str(tmp_path)]) == 2
    assert "no data rows" in caplog.text


@pytest.mark.parametrize("edit, where", [
    pytest.param(lambda r: r[:2] + ["abc"] + r[3:], "line 3, column 'x_m'",
                 id="text-cell"),
    pytest.param(lambda r: r[:5], "line 3, column 'u_mps'", id="ragged-row"),
    pytest.param(lambda r: r[:4] + ["nan"] + r[5:],
                 "line 3, column 'theta_deg'", id="nan"),
    pytest.param(None, "line 3, column 3: not UTF-8", id="not-utf8"),
])
def test_plot_rejects_bad_trajectory_with_exit_2(edit, where, opt_run,
                                                 tmp_path, caplog):
    """A malformed trajectory.csv exits 2 with a message that names the
    file, and the line and column of the bad cell."""
    (tmp_path / "manifest.json").write_bytes(
        (opt_run / "manifest.json").read_bytes())
    lines = (opt_run / "trajectory.csv").read_bytes().split(b"\n")
    cells = lines[2].split(b",")
    if edit is None:
        cells[2] = b"caf\xe9"
    else:
        cells = [c.encode() for c in edit([c.decode() for c in cells])]
    lines[2] = b",".join(cells)
    traj = tmp_path / "trajectory.csv"
    traj.write_bytes(b"\n".join(lines))
    assert cli.main(["plot", str(tmp_path)]) == 2
    assert str(traj) in caplog.text
    assert where in caplog.text
    assert not (tmp_path / "controls_velocity.svg").exists()


def test_plot_takes_the_runs_scenario(opt_run, tmp_path, caplog):
    run = tmp_path / "run"
    run.mkdir()
    (run / "trajectory.csv").write_bytes((opt_run / "trajectory.csv").read_bytes())
    assert cli.main(["plot", str(run)]) == 2  # no manifest
    assert "manifest.json" in caplog.text
    manifest = json.loads((opt_run / "manifest.json").read_text())
    snap = manifest["scenario_snapshot"]
    snap["refs"]["L_ref_m"] = 40.0
    snap["vehicle"]["l_cg_frac"] = 0.5
    sc.write_json(run / "manifest.json", manifest)
    assert cli.main(["plot", str(run)]) == 0
    tab = cli._read_csv(run / "trajectory.csv", ("x_m", "y_m", "theta_deg"),
                        "trajectory file")
    plots.write_pose_plot(tmp_path / "pose.svg", tab["x_m"] / 40.0,
                          tab["y_m"] / 40.0, np.radians(tab["theta_deg"]),
                          0.5, "Attitude and trajectory evolution")
    assert ((run / "trajectory_pose.svg").read_bytes()
            == (tmp_path / "pose.svg").read_bytes())


def test_manifest_replay_reproduces_outputs(opt_run, tmp_path):
    replay_dir = tmp_path / "replay"
    rc = cli.replay_manifest(opt_run / "manifest.json", replay_dir)
    assert rc == 0
    for name in ("trajectory.csv", "controls.csv", "loss_history.csv"):
        assert (replay_dir / name).read_bytes() == (opt_run / name).read_bytes()


def test_manifest_records_the_parsed_command(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host-process", "--whatever"])
    argv = ["check-grad", "--scenario", "case1", "--k", "4",
            "--out", str(tmp_path / "cg")]
    assert cli.main(argv) == 0
    path = tmp_path / "cg" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["command"] == argv
    # manifests written while check-grad took --steps carry it as null
    manifest["resolved_args"]["steps"] = None
    sc.write_json(path, manifest)
    assert cli.replay_manifest(path, tmp_path / "replay") == 0
    replayed = json.loads((tmp_path / "replay" / "manifest.json").read_text())
    assert replayed["command"] == argv
    assert ((tmp_path / "replay" / "check_grad.json").read_bytes()
            == (tmp_path / "cg" / "check_grad.json").read_bytes())


@pytest.mark.parametrize("command", ["optimize", "simulate", "check-grad"])
def test_manifest_leaves_folded_overrides_out(command, opt_run, tmp_path):
    """The scenario snapshot carries --steps, --engine and --k, so
    resolved_args leaves them out, and the run still replays byte for
    byte (summary.json holds a wall time)."""
    extra = {"optimize": ["--k", "6", "--steps", "5", "--engine", "adjoint"],
             "simulate": ["--k", "12", "--controls",
                          str(opt_run / "controls.csv")],
             "check-grad": ["--k", "4", "--engine", "adjoint"]}[command]
    out = tmp_path / "run"
    assert cli.main([command, "--scenario", "case1", "--out", str(out),
                     *extra]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert not {"steps", "engine", "k"} & manifest["resolved_args"].keys()
    replay = tmp_path / "replay"
    assert cli.replay_manifest(out / "manifest.json", replay) == 0
    replayed = json.loads((replay / "manifest.json").read_text())
    assert replayed["scenario_snapshot"] == manifest["scenario_snapshot"]
    for name in manifest["outputs"]:
        if name not in ("manifest.json", "summary.json"):
            assert (replay / name).read_bytes() == (out / name).read_bytes()


@pytest.fixture(scope="module")
def small_weights(tmp_path_factory):
    """A weights file from a short fit of a small surrogate."""
    path = tmp_path_factory.mktemp("weights") / "weights.json"
    am = cli.aero_mod
    am.save_weights(am.train_surrogate(
        am.generate_dataset(12), am.TrainerConfig(hidden=(8,), epochs=50)),
        path)
    return path


@pytest.mark.parametrize("kind", ["surrogate", "simplified"])
@pytest.mark.parametrize("command", [
    ["optimize", "--steps", "2"], ["check-grad"], ["simulate"],
    ["simulate", "--no-aero"]], ids=lambda c: " ".join(c))
def test_manifest_hashes_every_file_the_run_read(command, kind, small_weights,
                                                 tmp_path):
    """input_hashes maps each file the run read to its SHA-256: the
    scenario file, --controls, and the weights file only when a surrogate
    is loaded from it (a simplified model's weights_path may name no
    file at all)."""
    weights = small_weights if kind == "surrogate" else tmp_path / "none.json"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(
        {"aero": {"kind": kind, "weights_path": str(weights)}}))
    read = [scenario]
    if command[0] == "simulate":
        controls = tmp_path / "controls.csv"
        controls.write_text("thrust_N,delta_deg\n" + "2e6,0\n" * 6)
        command = [*command, "--controls", str(controls)]
        read.append(controls)
    if kind == "surrogate" and "--no-aero" not in command:
        read.append(weights)
    out = tmp_path / "out"
    assert cli.main([*command, "--scenario", str(scenario), "--k", "6",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_hashes"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in read}


@pytest.mark.parametrize("command, output, rc", [
    (["simulate", "--no-aero", "--k", "12"], "trajectory.csv", 0),
    (["check-grad", "--k", "4"], "check_grad.json", 1),
], ids=["simulate-no-aero", "check-grad-corrupt"])
def test_replay_keeps_flags_the_snapshot_does_not_carry(command, output, rc,
                                                        opt_run, tmp_path,
                                                        monkeypatch):
    """A parsed flag that the scenario snapshot does not carry is
    recorded in resolved_args and replayed to the same exit code and
    bytes; so is a failing check-grad, whose engine is corrupted for both
    runs."""
    if command[0] == "simulate":
        command = [*command, "--controls", str(opt_run / "controls.csv")]
    else:
        _corrupt_engine(monkeypatch)
    out = tmp_path / "run"
    assert cli.main([*command, "--scenario", "case1", "--out", str(out)]) == rc
    replay = tmp_path / "replay"
    assert cli.replay_manifest(out / "manifest.json", replay) == rc
    assert (replay / output).read_bytes() == (out / output).read_bytes()


def test_manifest_from_before_the_grad_clip_removal_replays(tmp_path):
    """Older manifests record opt.grad_clip as null and --steps, --engine
    and --k in resolved_args; they replay to the same bytes.  A clip that
    was set cannot be reproduced, so its replay fails naming the key."""
    run = tmp_path / "cg"
    assert cli.main(["check-grad", "--scenario", "case1", "--k", "4",
                     "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["scenario_snapshot"]["opt"]["grad_clip"] = None
    manifest["resolved_args"].update(steps=None, engine="bptt", k=4)
    old = tmp_path / "old.json"
    sc.write_json(old, manifest)
    assert cli.replay_manifest(old, tmp_path / "replay") == 0
    assert ((tmp_path / "replay" / "check_grad.json").read_bytes()
            == (run / "check_grad.json").read_bytes())
    manifest["scenario_snapshot"]["opt"]["grad_clip"] = 0.5
    sc.write_json(old, manifest)
    with pytest.raises(sc.ScenarioError, match=r"'opt\.grad_clip'"):
        cli.replay_manifest(old, tmp_path / "replay-clipped")
    assert not (tmp_path / "replay-clipped").exists()


def test_plot_of_a_run_from_before_the_grad_clip_removal(opt_run, tmp_path):
    """plot reads a run's scenario as replay does: an older manifest's
    opt.grad_clip of null is no clipping, so the run plots to the same
    SVGs as with the key absent."""
    manifest = json.loads((opt_run / "manifest.json").read_text())
    svgs = {}
    for name, clip in (("now", {}), ("old", {"grad_clip": None})):
        run = tmp_path / name
        run.mkdir()
        (run / "trajectory.csv").write_bytes(
            (opt_run / "trajectory.csv").read_bytes())
        manifest["scenario_snapshot"]["opt"].update(clip)
        sc.write_json(run / "manifest.json", manifest)
        assert cli.main(["plot", str(run)]) == 0
        svgs[name] = [p.read_bytes() for p in sorted(run.glob("*.svg"))]
    assert len(svgs["old"]) == 3
    assert svgs["old"] == svgs["now"]


def test_manifest_nested_too_deep_exits_2(opt_run, tmp_path):
    """plot of a run whose manifest.json is nested deeper than the parser's
    recursion limit exits 2 naming the file, and writes no SVG; replay of
    it raises the same ScenarioError before its directory exists."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "trajectory.csv").write_bytes(
        (opt_run / "trajectory.csv").read_bytes())
    manifest = run / "manifest.json"
    manifest.write_text(DEEP)
    proc = run_cli("plot", str(run))
    assert proc.returncode == 2
    assert (f"cannot read run manifest {manifest}: maximum recursion depth "
            f"exceeded") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(run.glob("*.svg"))
    with pytest.raises(sc.ScenarioError, match="cannot read run manifest"):
        cli.replay_manifest(manifest, tmp_path / "replay")
    assert not (tmp_path / "replay").exists()


def test_manifest_with_a_repeated_key_exits_2(opt_run, tmp_path):
    """plot of a run whose manifest.json names a key twice exits 2 naming
    the file and the key, and writes no SVG; replay of it raises the same
    ScenarioError before its directory exists."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "trajectory.csv").write_bytes(
        (opt_run / "trajectory.csv").read_bytes())
    manifest = run / "manifest.json"
    text = (opt_run / "manifest.json").read_text()
    manifest.write_text('{"seed": 1, ' + text[1:])
    proc = run_cli("plot", str(run))
    assert proc.returncode == 2
    assert (f"cannot read run manifest {manifest}: duplicate key 'seed'"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not list(run.glob("*.svg"))
    with pytest.raises(sc.ScenarioError, match="duplicate key 'seed'"):
        cli.replay_manifest(manifest, tmp_path / "replay")
    assert not (tmp_path / "replay").exists()


def test_replay_of_a_manifest_without_out_leaves_no_directory(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "subcommand": "check-grad", "scenario_snapshot": None,
        "resolved_args": {"scenario": "case1"}}))
    with pytest.raises(ValueError, match="replayable"):
        cli.replay_manifest(manifest, tmp_path / "replay")
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("doc", [
    {"scenario_snapshot": None},
    {"subcommand": "optimize", "scenario_snapshot": None},
    {"subcommand": "optimize", "scenario_snapshot": None,
     "resolved_args": ["out", "run"]},
], ids=["no-subcommand", "no-resolved-args", "resolved-args-not-object"])
def test_replay_of_a_malformed_manifest_leaves_no_directory(tmp_path, doc):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(sc.ScenarioError) as err:
        cli.replay_manifest(manifest, tmp_path / "replay")
    assert str(manifest) in str(err.value)
    assert not (tmp_path / "replay").exists()


def test_replay_of_removed_subcommand_exits_2(tmp_path, caplog):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "subcommand": "compare-engines", "scenario_snapshot": None,
        "resolved_args": {"scenario": "case1", "out": str(tmp_path)}}))
    assert cli.replay_manifest(manifest, tmp_path / "replay") == 2
    assert "compare-engines" in caplog.text


def test_controls_csv_round_trip_exact(opt_run, case1_cfg):
    seq = cli._read_controls_csv(opt_run / "controls.csv", case1_cfg.refs)
    text = (opt_run / "controls.csv").read_text().splitlines()[1:]
    thrust_written = np.array([float(line.split(",")[2]) for line in text])
    np.testing.assert_array_equal(seq.thrust * case1_cfg.refs.force_scale,
                                  thrust_written)
