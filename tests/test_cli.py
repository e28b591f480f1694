import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import flipopt.cli as cli
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


def test_numerical_abort_exits_3_and_persists(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 2, "t_f_s": 1e6,
                               "opt": {"n_steps": 2, "log_every": 0}}))
    out = tmp_path / "out"
    proc = run_cli("optimize", "--scenario", str(bad), "--out", str(out))
    assert proc.returncode == 3
    snap = json.loads((out / "abort_snapshot.json").read_text())
    assert snap["step"] == 0


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


def test_train_aero_divergence_exits_3(tmp_path, monkeypatch):
    """A non-finite Adam update surfaces as a training error, not a crash."""
    trainer = cli.aero_mod.TrainerConfig
    monkeypatch.setattr(cli.aero_mod, "TrainerConfig",
                        lambda: trainer(lr=math.inf, epochs=3))
    rc = cli.main(["train-aero", "--samples", "12",
                   "--out", str(tmp_path / "w.json")])
    assert rc == 3


def test_train_aero_rejects_tiny_dataset(tmp_path):
    rc = cli.main(["train-aero", "--samples", "3",
                   "--out", str(tmp_path / "w.json")])
    assert rc == 2


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


def test_check_grad_passes_and_detects_corruption(tmp_path):
    rc = cli.main(["check-grad", "--scenario", "case1", "--k", "6",
                   "--out", str(tmp_path / "cg")])
    assert rc == 0
    rc = cli.main(["check-grad", "--scenario", "case1", "--k", "6",
                   "--out", str(tmp_path / "cg2"), "--corrupt"])
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
    entry passes, so the message names entry 2 and shows its values."""
    fd = _report([1.0, 2.0, 0.0, 5.0])
    monkeypatch.setattr(cli.opt_mod, "_engine_fn",
                        lambda name: lambda *args: _report(engine))
    monkeypatch.setattr(ro, "finite_diff_grad", lambda *args, **kwargs: fd)
    rc = cli.main(["check-grad", "--scenario", "case1", "--k", "2",
                   "--out", str(tmp_path / "cg")])
    assert rc == 1
    assert ("FAILED at index 2: engine 3e-08 vs finite differences 0.0"
            in capsys.readouterr().out)


def _report(g):
    g = np.asarray(g, dtype=float)
    half = len(g) // 2
    return ro.GradientReport(grad_u_T=g[:half], grad_u_delta=g[half:],
                             engine="test", wall_time_s=0.0)


def _grad_check_loop(g, r):
    """grad_check's rule entry by entry: the reference for finite inputs."""
    worst_rel, worst_abs, worst_idx, ok = 0.0, 0.0, -1, True
    for i, (a, b) in enumerate(zip(g, r)):
        if abs(b) > cli.GRAD_FD_FLOOR:
            rel = abs(a - b) / abs(b)
            if rel > worst_rel:
                worst_rel, worst_idx = rel, i
            ok = ok and rel < cli.GRAD_REL_TOL
        else:
            worst_abs = max(worst_abs, abs(a - b))
            ok = ok and abs(a - b) < cli.GRAD_ABS_TOL
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
    cli._write_json(tmp_path / "manifest.json",
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
    cli._write_json(run / "manifest.json", manifest)
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
    cli._write_json(path, manifest)
    assert cli.replay_manifest(path, tmp_path / "replay") == 0
    replayed = json.loads((tmp_path / "replay" / "manifest.json").read_text())
    assert replayed["command"] == argv
    assert ((tmp_path / "replay" / "check_grad.json").read_bytes()
            == (tmp_path / "cg" / "check_grad.json").read_bytes())


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
