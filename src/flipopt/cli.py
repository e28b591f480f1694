"""Command-line surface: optimize, simulate, train-aero, check-grad, plot.

Every run writes a manifest.json capturing the fully resolved scenario,
seed, arguments, input hashes and output list; replaying a manifest
reproduces all CSV outputs byte for byte.  CSV files are dimensional SI
(floats serialized with repr, so parsing them back is exact); all
internal computation stays nondimensional.

Exit codes: 0 success, 1 tolerance breach, 2 configuration error,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import aero as aero_mod
from . import optimizer as opt_mod
from . import plots
from . import rollout as ro
from . import scenario as sc
from .controls import ControlSequence, RawControlParams, init_raw_params
from .dynamics import angle_of_attack

log = logging.getLogger(__name__)

SEED_ENV_VAR = "FLIPOPT_SEED"

TRAJECTORY_HEADER = ("k,t_s,x_m,y_m,theta_deg,u_mps,v_mps,omega_radps,"
                     "mass_kg,delta_d_deg,alpha_deg,thrust_N,delta_cmd_deg")
CONTROLS_HEADER = "k,t_s,thrust_N,delta_deg"
LOSS_HISTORY_HEADER = ("step,lr,total,terminal_position,terminal_velocity,"
                       "terminal_pitch,terminal_omega,smoothness,mass_floor,"
                       "flip_deadline")

GRAD_REL_TOL = 1e-5
GRAD_ABS_TOL = 1e-8
GRAD_FD_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, int) else _fmt(c)
                              for c in row) + "\n")


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve_seed(args, cfg_seed: int) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise sc.ScenarioError(
                f"invalid environment variable {SEED_ENV_VAR}={env!r}: "
                f"expected an integer seed") from None
    return cfg_seed


def _load_config(args) -> sc.ScenarioConfig:
    """Scenario with CLI overrides folded in; the result is self-contained."""
    name = args.scenario
    if name not in sc.PRESET_NAMES and not Path(name).exists():
        raise sc.ScenarioError(
            f"unknown scenario {name!r}: expected a file path or one of the "
            f"presets {', '.join(sc.PRESET_NAMES)}")
    cfg = sc.load_scenario(name)
    cfg = replace(cfg, seed=_resolve_seed(args, cfg.seed))
    if getattr(args, "steps", None) is not None:
        cfg = replace(cfg, opt=replace(cfg.opt, n_steps=int(args.steps)))
    if getattr(args, "engine", None) is not None:
        cfg = replace(cfg, opt=replace(cfg.opt, grad_engine=args.engine))
    if getattr(args, "k", None) is not None:
        # keep dt fixed: truncate or extend the horizon with the step count
        dt = cfg.t_f / cfg.K
        cfg = replace(cfg, K=int(args.k), t_f=dt * int(args.k))
    return cfg


def build_aero_model(cfg: sc.ScenarioConfig):
    """Aero model instance for a scenario (training the surrogate if needed)."""
    a = cfg.aero
    if a.kind == "simplified":
        return aero_mod.SimplifiedAero(C_D=a.C_D, l_cp_frac=a.l_cp_frac)
    if a.weights_path is not None:
        try:
            return aero_mod.load_weights(a.weights_path)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise sc.ScenarioError(
                f"invalid scenario field 'aero.weights_path': cannot load "
                f"surrogate weights from {a.weights_path!r}: {exc}") from exc
    return aero_mod.train_surrogate(aero_mod.generate_dataset(36),
                                    seed=cfg.seed)


def _write_manifest(out_dir: Path, args, resolved_args: dict,
                    cfg: sc.ScenarioConfig | None, seed: int,
                    input_paths: list[str], outputs: list[str]) -> None:
    doc = {
        "subcommand": args.cmd,
        "command": args.command,
        "tool_version": __version__,
        "seed": seed,
        "resolved_args": resolved_args,
        "scenario_snapshot": sc.scenario_to_dict(cfg) if cfg else None,
        "input_hashes": {p: _sha256(p) for p in input_paths if Path(p).is_file()},
        "outputs": outputs,
    }
    _write_json(out_dir / "manifest.json", doc)


def replay_manifest(manifest_path, out_dir) -> int:
    """Re-run a recorded command from its manifest into a new directory."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    commands = {"optimize": cmd_optimize, "simulate": cmd_simulate,
                "train-aero": cmd_train_aero, "check-grad": cmd_check_grad}
    if doc["subcommand"] not in commands:
        log.error("cannot replay a %r manifest: this version has no such "
                  "subcommand", doc["subcommand"])
        return 2
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ns_args = dict(doc["resolved_args"], cmd=doc["subcommand"],
                   command=doc.get("command"))
    if doc["scenario_snapshot"] is not None:
        snap = out_dir / "_scenario_replay.json"
        _write_json(snap, doc["scenario_snapshot"])
        ns_args["scenario"] = str(snap)
        # the snapshot already carries every override
        for key in ("steps", "engine", "k"):
            if key in ns_args:
                ns_args[key] = None
    if "out" in ns_args:
        if doc["subcommand"] == "train-aero":
            # train-aero --out names the weights file, not a directory:
            # keep the recorded file name inside the replay directory
            ns_args["out"] = str(out_dir / Path(ns_args["out"]).name)
        else:
            ns_args["out"] = str(out_dir)
        return commands[doc["subcommand"]](argparse.Namespace(**ns_args))
    raise ValueError("manifest does not describe a replayable command")


# ---------------------------------------------------------------------------
# Trajectory / controls / summary writers
# ---------------------------------------------------------------------------

def _trajectory_rows(traj_nd: ro.Trajectory, refs: sc.ReferenceQuantities):
    si = sc.redimensionalize(traj_nd, refs)
    K = traj_nd.K
    rows = []
    for k in range(K + 1):
        s = si.states[k]
        kk = min(k, K - 1)  # zero-order hold extends the last command
        rows.append((
            k, k * si.dt, s[0], s[1], math.degrees(s[4]), s[2], s[3], s[5],
            s[6], math.degrees(s[7]),
            math.degrees(angle_of_attack(traj_nd.states[k])),
            si.thrust[kk], math.degrees(si.delta_cmd[kk]),
        ))
    return rows


def _controls_rows(traj_nd: ro.Trajectory, refs: sc.ReferenceQuantities):
    F = refs.force_scale
    dt_s = traj_nd.dt * refs.t_ref
    return [(k, k * dt_s, traj_nd.thrust[k] * F,
             math.degrees(traj_nd.delta_cmd[k]))
            for k in range(traj_nd.K)]


def _summary(traj_nd: ro.Trajectory, breakdown: ro.LossBreakdown,
             scn, engine: str, wall_time: float, extra: dict | None = None):
    refs = scn.refs
    xK = traj_nd.states[-1]
    dr = (np.array([xK[0], xK[1]]) - scn.r_f) * refs.L_ref
    dv = (np.array([xK[2], xK[3]]) - scn.v_f) * refs.v_ref
    y_over_L = traj_nd.states[:, 1]
    theta_deg = np.degrees(traj_nd.states[:, 4])
    flip_y = plots.flip_altitude_over_L(
        y_over_L, theta_deg, math.degrees(scn.config.bc.theta0),
        math.degrees(scn.theta_f))
    doc = {
        "engine": engine,
        "wall_time_s": wall_time,
        "terminal": {
            "position_error_m": [float(dr[0]), float(dr[1])],
            "position_error_norm_m": float(np.hypot(*dr)),
            "velocity_error_mps": [float(dv[0]), float(dv[1])],
            "velocity_error_norm_mps": float(np.hypot(*dv)),
            "pitch_error_deg": math.degrees(float(xK[4] - scn.theta_f)),
            "omega_error_radps": float((xK[5] - scn.omega_f) / refs.t_ref),
        },
        "mass_min_kg": float(traj_nd.states[:, 6].min() * refs.m_ref),
        "m_dry_kg": scn.m_dry * refs.m_ref,
        "flip_y_over_Lref": None if flip_y is None else float(flip_y),
        "loss": {"total": breakdown.total, "terms": breakdown.terms},
    }
    if extra:
        doc.update(extra)
    return doc


def _write_traj_and_summary(out: Path, traj_nd: ro.Trajectory, scn,
                            summary: dict) -> list[str]:
    _write_csv(out / "trajectory.csv", TRAJECTORY_HEADER,
               _trajectory_rows(traj_nd, scn.refs))
    _write_json(out / "summary.json", summary)
    return ["trajectory.csv", "summary.json"]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scn = sc.nondimensionalize(cfg)
    aero = build_aero_model(cfg)
    try:
        result = opt_mod.optimize(scn, aero)
    except opt_mod.NumericalAbort as exc:
        _write_json(out / "abort_snapshot.json", exc.snapshot)
        log.error("numerical abort: %s (snapshot persisted)", exc)
        return 3

    hist_rows = [
        (i, lr, b.total, *(b.terms[name] for name in ro.LOSS_TERM_NAMES))
        for i, (lr, b) in enumerate(zip(result.lr_history, result.loss_history))
    ]
    _write_csv(out / "loss_history.csv", LOSS_HISTORY_HEADER, hist_rows)
    # controls.csv is the canonical record; the persisted trajectory and
    # summary are recomputed from its parsed values, so `simulate` on that
    # file reproduces trajectory.csv byte for byte (the SI round-trip sits
    # 1 ulp from the optimizer's internal nondim value)
    _write_csv(out / "controls.csv", CONTROLS_HEADER,
               _controls_rows(result.trajectory, cfg.refs))
    seq = _read_controls_csv(out / "controls.csv", cfg.refs)
    traj = ro.rollout_controls(seq, scn, aero)
    breakdown = ro.loss(traj, scn.weights, scn)
    summary = _summary(traj, breakdown, scn,
                       result.engine, result.wall_time_s,
                       extra={"best_step": result.best_step,
                              "n_steps": cfg.opt.n_steps})
    outputs = _write_traj_and_summary(out, traj, scn, summary)
    outputs += ["controls.csv", "loss_history.csv"]
    resolved = {"scenario": args.scenario, "out": str(out), "seed": cfg.seed,
                "steps": None, "engine": None, "k": None}
    inputs = [args.scenario] if args.scenario not in sc.PRESET_NAMES else []
    if cfg.aero.weights_path:
        inputs.append(cfg.aero.weights_path)
    _write_manifest(out, args, resolved, cfg, cfg.seed, inputs,
                    outputs + ["manifest.json"])
    finite = all(math.isfinite(v) for v in
                 summary["terminal"]["position_error_m"] +
                 summary["terminal"]["velocity_error_mps"])
    print(f"terminal position error {summary['terminal']['position_error_norm_m']:.3f} m, "
          f"speed error {summary['terminal']['velocity_error_norm_mps']:.3f} m/s, "
          f"pitch error {summary['terminal']['pitch_error_deg']:.3f} deg")
    return 0 if finite else 3


def _read_csv(path, names, what: str) -> dict[str, np.ndarray]:
    """The columns ``names`` of a CSV file with a header line, as float
    arrays; a fault raises a ScenarioError that names ``what`` file, and
    the line and column of a bad cell."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        header, *lines = data.decode("utf-8").split("\n")
    except OSError as exc:
        raise sc.ScenarioError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        line_no = data.count(b"\n", 0, start) + 1
        col_no = data.count(b",", start, exc.start) + 1
        raise sc.ScenarioError(f"{what} {path}, line {line_no}, column "
                               f"{col_no}: not UTF-8 text") from None
    cols = header.strip().split(",")
    if not set(names) <= set(cols):
        raise sc.ScenarioError(f"{what} {path} missing column: "
                               f"expected {', '.join(names)} in {header!r}")
    rows = []
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        row = []
        for name in names:
            i = cols.index(name)
            cell = parts[i] if i < len(parts) else ""
            try:
                row.append(float(cell))
            except ValueError:
                row.append(math.nan)  # reported as not finite below
            if not math.isfinite(row[-1]):
                raise sc.ScenarioError(
                    f"{what} {path}, line {line_no}, column {name!r}: "
                    f"expected a finite number, got {cell.strip()!r}")
        rows.append(row)
    if not rows:
        raise sc.ScenarioError(f"{what} {path} has no data rows")
    return dict(zip(names, np.array(rows).T))


def _read_controls_csv(path, refs: sc.ReferenceQuantities) -> ControlSequence:
    """The thrust and gimbal columns of a controls CSV, nondimensional."""
    tab = _read_csv(path, ("thrust_N", "delta_deg"), "controls file")
    return ControlSequence(thrust=tab["thrust_N"] / refs.force_scale,
                           delta=np.radians(tab["delta_deg"]))


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    seq = _read_controls_csv(args.controls, cfg.refs)
    if seq.K != cfg.K:
        log.error("controls file has %d rows but scenario K = %d", seq.K, cfg.K)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scn = sc.nondimensionalize(cfg)
    aero = aero_mod.NoAero() if args.no_aero else build_aero_model(cfg)
    t0 = time.perf_counter()
    traj = ro.rollout_controls(seq, scn, aero)
    breakdown = ro.loss(traj, scn.weights, scn)
    summary = _summary(traj, breakdown, scn, "forward",
                       time.perf_counter() - t0,
                       extra={"aero": "none" if args.no_aero else cfg.aero.kind})
    outputs = _write_traj_and_summary(out, traj, scn, summary)
    resolved = {"scenario": args.scenario, "out": str(out),
                "controls": args.controls, "no_aero": bool(args.no_aero),
                "seed": cfg.seed, "steps": None, "engine": None, "k": None}
    _write_manifest(out, args, resolved, cfg, cfg.seed,
                    [args.controls], outputs + ["manifest.json"])
    return 0


def cmd_train_aero(args) -> int:
    if args.samples < 4:
        log.error("--samples must be >= 4 (got %d)", args.samples)
        return 2
    seed = _resolve_seed(args, 0)
    if seed < 0:
        log.error("the seed must be >= 0 (got %d)", seed)
        return 2
    out_path = Path(args.out)
    out_dir = out_path.parent if out_path.parent != Path("") else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = aero_mod.generate_dataset(args.samples)
    try:
        model = aero_mod.train_surrogate(dataset, seed=seed)
    except aero_mod.TrainingError as exc:
        log.error("training diverged: %s", exc)
        return 3
    aero_mod.save_weights(model, out_path)
    aero_mod.write_dataset_csv(out_dir / "dataset.csv", dataset)
    report = {"max_abs_err": model.meta["max_abs_err"],
              "train_mse": model.meta["train_mse"],
              "n_samples": args.samples, "seed": seed}
    _write_json(out_dir / "fit_report.json", report)
    resolved = {"samples": args.samples, "seed": seed, "out": str(out_path)}
    _write_manifest(out_dir, args, resolved, None, seed, [],
                    [out_path.name, "dataset.csv", "fit_report.json",
                     "manifest.json"])
    worst = max(report["max_abs_err"].values())
    print(f"trained on {args.samples} samples; worst coefficient error "
          f"{worst:.2e} (mse {report['train_mse']:.2e})")
    return 0


def _random_raw(scn, seed: int) -> RawControlParams:
    rng = np.random.default_rng(seed)
    base = init_raw_params(scn)
    return RawControlParams(
        u_T=base.u_T + rng.normal(0.0, 0.5, scn.K),
        u_delta=base.u_delta + rng.normal(0.0, 0.5, scn.K),
    )


def grad_check(engine_report: ro.GradientReport, fd: ro.GradientReport):
    """Worst-offender comparison of an engine gradient against the oracle.

    Entries whose oracle value clears ``GRAD_FD_FLOOR`` are held to the
    relative tolerance, the rest to the absolute one.  A non-finite entry
    on either side makes its error NaN or inf, which fails both.
    """
    r = fd.stacked()
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(engine_report.stacked() - r)
        rel_side = np.abs(r) > GRAD_FD_FLOOR
        rel = np.divide(err, np.abs(r), out=np.zeros_like(err), where=rel_side)
    ok = bool(np.where(rel_side, rel < GRAD_REL_TOL, err < GRAD_ABS_TOL).all())
    worst_idx = int(np.argmax(rel))  # the first NaN, if there is one
    worst_rel = float(rel[worst_idx])
    if worst_rel == 0.0:
        worst_idx = -1
    worst_abs = float(np.max(err, where=~rel_side, initial=0.0))
    return ok, worst_rel, worst_abs, worst_idx


def cmd_check_grad(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scn = sc.nondimensionalize(cfg)
    aero = build_aero_model(cfg)
    raw = _random_raw(scn, cfg.seed)
    engine = opt_mod._engine_fn(cfg.opt.grad_engine if args.engine is None
                                else args.engine)
    report = engine(raw, scn, aero, scn.weights)
    if args.corrupt:
        # scale the fault with the component so it exceeds the relative
        # tolerance whatever the loss weights make of the gradient's size
        report.grad_u_T = report.grad_u_T.copy()
        report.grad_u_T[0] += 1e-3 * max(1.0, abs(report.grad_u_T[0]))
    fd = ro.finite_diff_grad(raw, scn, aero, scn.weights, h=1e-6,
                             dtype=np.longdouble)
    ok, worst_rel, worst_abs, worst_idx = grad_check(report, fd)
    doc = {"engine": report.engine, "K": cfg.K, "seed": cfg.seed,
           "worst_rel": worst_rel, "worst_abs": worst_abs,
           "worst_index": worst_idx, "n_rollouts_fd": fd.n_rollouts,
           "pass": ok}
    _write_json(out / "check_grad.json", doc)
    resolved = {"scenario": args.scenario, "out": str(out), "seed": cfg.seed,
                "engine": report.engine, "k": cfg.K,
                "corrupt": bool(args.corrupt)}
    _write_manifest(out, args, resolved, cfg, cfg.seed, [],
                    ["check_grad.json", "manifest.json"])
    if ok:
        print(f"gradient check passed: worst relative error {worst_rel:.3e}")
        return 0
    g, r = report.stacked(), fd.stacked()
    # name the entry furthest outside its own tolerance, a NaN first
    with np.errstate(all="ignore"):
        tol = np.where(np.abs(r) > GRAD_FD_FLOOR, GRAD_REL_TOL * np.abs(r),
                       GRAD_ABS_TOL)
        i = int(np.argmax(np.abs(g - r) / tol))
    print(f"gradient check FAILED at index {i}: engine {float(g[i])!r} vs "
          f"finite differences {float(r[i])!r} "
          f"(rel {worst_rel:.3e}, abs {worst_abs:.3e})")
    return 1


def _run_scenario(run_dir: Path) -> sc.ScenarioConfig:
    """The scenario snapshot that the run in ``run_dir`` recorded."""
    path = run_dir / "manifest.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return sc.scenario_from_dict(json.load(fh)["scenario_snapshot"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise sc.ScenarioError(
            f"cannot read the run's scenario from {path}: {exc}") from exc


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    traj_path = run_dir / "trajectory.csv"
    if not traj_path.is_file():
        log.error("no trajectory.csv in %s", run_dir)
        return 2
    cfg = _run_scenario(run_dir)
    L_ref = cfg.refs.L_ref
    l_cg = cfg.vehicle.l_cg_frac
    tab = _read_csv(traj_path, TRAJECTORY_HEADER.split(","), "trajectory file")
    try:
        t = tab["t_s"]
        theta_rad = np.radians(tab["theta_deg"])
        delta_d_rad = np.radians(tab["delta_d_deg"])
        speed = np.hypot(tab["u_mps"], tab["v_mps"])
        # engine pitch torque about the cg, from the logged lagged gimbal
        torque = -tab["thrust_N"] * np.sin(delta_d_rad) * ((1.0 - l_cg) * L_ref)
        k_red = tab["omega_radps"] * L_ref / (2.0 * np.maximum(speed, 1e-6))

        plots.write_panel_grid(run_dir / "controls_velocity.svg", [
            ("Thrust", "t [s]", "T [kN]",
             [plots.Series(t, tab["thrust_N"] / 1e3, "T")]),
            ("Gimbal angle", "t [s]", "deg",
             [plots.Series(t, tab["delta_cmd_deg"], "commanded"),
              plots.Series(t, tab["delta_d_deg"], "actual")]),
            ("Horizontal velocity", "t [s]", "u [m/s]",
             [plots.Series(t, tab["u_mps"], "u")]),
            ("Vertical velocity", "t [s]", "v [m/s]",
             [plots.Series(t, tab["v_mps"], "v")]),
        ])
        plots.write_pose_plot(run_dir / "trajectory_pose.svg",
                              tab["x_m"] / L_ref, tab["y_m"] / L_ref,
                              theta_rad, l_cg,
                              "Attitude and trajectory evolution")
        plots.write_panel_grid(run_dir / "state_panel.svg", [
            ("Engine torque", "t [s]", "M_T [MN m]",
             [plots.Series(t, torque / 1e6, "M_T")]),
            ("Mass", "t [s]", "m [t]",
             [plots.Series(t, tab["mass_kg"] / 1e3, "m")]),
            ("Pitch angle", "t [s]", "theta [deg]",
             [plots.Series(t, tab["theta_deg"], "theta")]),
            ("Angular rate", "t [s]", "omega [rad/s]",
             [plots.Series(t, tab["omega_radps"], "omega")]),
            ("Angle of attack", "t [s]", "alpha [deg]",
             [plots.Series(t, tab["alpha_deg"], "alpha")]),
            ("Reduced frequency", "t [s]", "omega L / (2 |v|)",
             [plots.Series(t, k_red, "k")]),
        ], ncols=2)
        flip_y = plots.flip_altitude_over_L(
            tab["y_m"] / L_ref, tab["theta_deg"],
            math.degrees(cfg.bc.theta0), math.degrees(cfg.bc.theta_f))
    except plots.PlotError as exc:
        log.error("%s", exc)
        return 2
    if flip_y is not None:
        print(f"flip crosses the pitch midpoint near y/L_ref = {flip_y:.2f}")
    print(f"wrote controls_velocity.svg, trajectory_pose.svg, "
          f"state_panel.svg in {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_scenario_args(p, with_out=True):
    p.add_argument("--scenario", required=True,
                   help="scenario JSON path or preset name (case1, case2)")
    if with_out:
        p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed override (also via ${SEED_ENV_VAR})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flipopt",
        description="Differentiable flip-and-landing trajectory optimization")
    ap.add_argument("--verbose", action="store_true", help="info-level logging")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("optimize", help="optimize a control sequence")
    _add_scenario_args(p)
    p.add_argument("--steps", type=int, default=None, help="override n_steps")
    p.add_argument("--engine", choices=("bptt", "adjoint"), default=None)
    p.add_argument("--k", type=int, default=None,
                   help="override step count (dt is kept fixed)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="forward-only rollout of a controls CSV")
    _add_scenario_args(p)
    p.add_argument("--controls", required=True, help="controls.csv to replay")
    p.add_argument("--no-aero", dest="no_aero", action="store_true",
                   help="disable aerodynamic forces")
    p.add_argument("--k", type=int, default=None,
                   help="override step count (dt is kept fixed)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-aero", help="train the aero surrogate")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", required=True, help="weights JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train_aero)

    p = sub.add_parser("check-grad", help="engine gradient vs finite differences")
    _add_scenario_args(p)
    p.add_argument("--k", type=int, default=10,
                   help="step count for the check (dt kept fixed)")
    p.add_argument("--engine", choices=("bptt", "adjoint"), default=None)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_check_grad)

    p = sub.add_parser("plot", help="emit SVG plots from a run directory")
    p.add_argument("run_dir",
                   help="run directory with trajectory.csv and manifest.json")
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.command = argv
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except sc.ScenarioError as exc:
        log.error("%s", exc)
        return 2
    except (opt_mod.NumericalAbort, FloatingPointError) as exc:
        log.error("numerical abort: %s", exc)
        return 3
    except ro.RolloutError as exc:
        log.error("rollout diverged: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
