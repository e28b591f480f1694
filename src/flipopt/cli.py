"""Command-line surface: optimize, simulate, train-aero, check-grad, plot.

Every run writes a manifest.json capturing the fully resolved scenario,
seed, parsed arguments, the SHA-256 of each file it read and the output
list; replaying a manifest reproduces all CSV outputs byte for byte.  A
run refuses an output path that is a directory before it computes, and
makes its output directory only once every input has loaded.  CSV
files are dimensional SI (floats serialized with repr, so parsing them
back is exact); all internal computation stays nondimensional.  JSON
goes through ``scenario.read_json`` and ``scenario.write_json`` alone.

Exit codes, which ``main`` alone assigns: 0 success, 1 tolerance breach,
2 configuration error (a JSON input that cannot be read or parsed
included) or unwritable output, 3 numerical abort (any
``FloatingPointError``).
"""

from __future__ import annotations

import argparse
import hashlib
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
LOSS_HISTORY_HEADER = ",".join(("step", "lr", "total", *ro.LOSS_TERM_NAMES))

GRAD_REL_TOL = 1e-5
GRAD_ABS_TOL = 1e-8
GRAD_FD_FLOOR = 1e-8

# never replayed, so resolved_args omits them: the parser's bookkeeping,
# --verbose, and the overrides that the scenario snapshot already carries
NOT_REPLAYED = frozenset({"cmd", "command", "func", "verbose", "steps",
                          "engine", "k"})


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, int) else repr(float(c))
                              for c in row) + "\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _refuse_directories(out_dir: Path, names) -> None:
    """Raise ScenarioError naming the first output ``out_dir / name`` that
    is a directory, before the command computes anything."""
    for path in (out_dir / name for name in names):
        if path.is_dir():
            raise sc.ScenarioError(f"cannot write {path}: it is a directory")


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
        except sc.ScenarioError as exc:   # the reader's, which names the file
            raise sc.ScenarioError(
                f"invalid scenario field 'aero.weights_path': {exc}") from exc
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise sc.ScenarioError(
                f"invalid scenario field 'aero.weights_path': cannot load "
                f"surrogate weights from {a.weights_path!r}: {exc}") from exc
    return aero_mod.train_surrogate(aero_mod.generate_dataset(36),
                                    seed=cfg.seed)


def _write_manifest(out_dir: Path, args, cfg: sc.ScenarioConfig | None,
                    seed: int, outputs: list[str]) -> None:
    """Record the run: parsed arguments, scenario snapshot, seed, outputs
    (manifest.json last) and the hash of each file read (scenario,
    --controls, loaded weights)."""
    inputs = [getattr(args, "controls", None)]
    if cfg is not None:
        if args.scenario not in sc.PRESET_NAMES:
            inputs.append(args.scenario)
        if cfg.aero.kind == "surrogate" and not getattr(args, "no_aero", False):
            inputs.append(cfg.aero.weights_path)
    resolved = {k: v for k, v in vars(args).items() if k not in NOT_REPLAYED}
    doc = {
        "subcommand": args.cmd,
        "command": args.command,
        "tool_version": __version__,
        "seed": seed,
        "resolved_args": dict(resolved, seed=seed),
        "scenario_snapshot": sc.scenario_to_dict(cfg) if cfg else None,
        "input_hashes": {p: _sha256(p) for p in inputs if p is not None},
        "outputs": outputs,
    }
    sc.write_json(out_dir / "manifest.json", doc)


def _read_manifest(path) -> tuple[dict, sc.ScenarioConfig | None]:
    """A run's manifest and its scenario (None for train-aero), or a
    ScenarioError naming the file.  Snapshots written while opt.grad_clip
    existed hold it as null, no clipping, as every run now does."""
    doc = sc.read_json(path, "run manifest")
    try:
        snapshot = doc["scenario_snapshot"]
        if snapshot is None:
            return doc, None
        opt = snapshot.get("opt", {})
        if "grad_clip" in opt and opt["grad_clip"] is None:
            del opt["grad_clip"]
        return doc, sc.scenario_from_dict(snapshot)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise sc.ScenarioError(
            f"cannot read the run's scenario from {path}: {exc}") from exc


def replay_manifest(manifest_path, out_dir) -> int:
    """Re-run a recorded command from its manifest into a new directory:
    2 for a subcommand this version lacks, else the command's exit code.
    A bad manifest raises a ScenarioError naming it before the directory
    exists; a failure of the command propagates as its exception, which
    ``main`` maps to a code."""
    doc, _ = _read_manifest(manifest_path)
    name, recorded = doc.get("subcommand"), doc.get("resolved_args")
    if (type(name) is not str or type(recorded) is not dict
            or "out" not in recorded):
        raise sc.ScenarioError(
            f"{manifest_path} does not describe a replayable command: it "
            f"needs a subcommand string and a resolved_args object with out")
    commands = {"optimize": cmd_optimize, "simulate": cmd_simulate,
                "train-aero": cmd_train_aero, "check-grad": cmd_check_grad}
    if name not in commands:
        log.error("cannot replay a %r manifest: this version has no such "
                  "subcommand", name)
        return 2
    ns_args = {k: v for k, v in recorded.items() if k not in NOT_REPLAYED}
    ns_args.update(cmd=name, command=doc.get("command"))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if doc["scenario_snapshot"] is not None:
        snap = out_dir / "_scenario_replay.json"
        sc.write_json(snap, doc["scenario_snapshot"])
        ns_args["scenario"] = str(snap)
    if name == "train-aero":
        # train-aero --out names the weights file, not a directory:
        # keep the recorded file name inside the replay directory
        ns_args["out"] = str(out_dir / Path(ns_args["out"]).name)
    else:
        ns_args["out"] = str(out_dir)
    return commands[name](argparse.Namespace(**ns_args))


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
    si = sc.redimensionalize(traj_nd, refs)
    return [(k, k * si.dt, si.thrust[k], math.degrees(si.delta_cmd[k]))
            for k in range(si.K)]


def _summary(traj_nd: ro.Trajectory, breakdown: ro.LossBreakdown, scn):
    refs = scn.refs
    res = ro.terminal_residual(traj_nd.states[-1], scn)
    dr = res[:2] * refs.L_ref
    dv = res[2:4] * refs.v_ref
    y_over_L = traj_nd.states[:, 1]
    theta_deg = np.degrees(traj_nd.states[:, 4])
    flip_y = plots.flip_altitude_over_L(
        y_over_L, theta_deg, math.degrees(scn.config.bc.theta0),
        math.degrees(scn.theta_f))
    return {
        "terminal": {
            "position_error_m": [float(dr[0]), float(dr[1])],
            "position_error_norm_m": float(np.hypot(*dr)),
            "velocity_error_mps": [float(dv[0]), float(dv[1])],
            "velocity_error_norm_mps": float(np.hypot(*dv)),
            "pitch_error_deg": math.degrees(float(res[4])),
            "omega_error_radps": float(res[5] / refs.t_ref),
        },
        "mass_min_kg": float(traj_nd.states[:, 6].min() * refs.m_ref),
        "m_dry_kg": scn.m_dry * refs.m_ref,
        "flip_y_over_Lref": None if flip_y is None else float(flip_y),
        "loss": {"total": breakdown.total, "terms": breakdown.terms},
    }


def _write_rollout(out: Path, seq: ControlSequence, scn, aero,
                   fields: dict) -> dict:
    """Roll ``seq`` out, write trajectory.csv and summary.json, and return
    the summary: the rollout-plus-loss wall time and the residuals, then
    ``fields``, which may replace the wall time."""
    t0 = time.perf_counter()
    traj = ro.rollout_controls(seq, scn, aero)
    breakdown = ro.loss(traj, scn.weights, scn)
    summary = {"wall_time_s": time.perf_counter() - t0,
               **_summary(traj, breakdown, scn), **fields}
    _write_csv(out / "trajectory.csv", TRAJECTORY_HEADER,
               _trajectory_rows(traj, scn.refs))
    sc.write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    cfg = _load_config(args)
    scn = sc.nondimensionalize(cfg)
    out = Path(args.out)
    outputs = ["trajectory.csv", "summary.json", "controls.csv",
               "loss_history.csv", "manifest.json"]
    _refuse_directories(out, [*outputs, "abort_snapshot.json"])
    aero = build_aero_model(cfg)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = opt_mod.optimize(scn, aero)
    except opt_mod.NumericalAbort as exc:
        sc.write_json(out / "abort_snapshot.json", exc.snapshot)
        raise

    hist_rows = [
        (i, opt_mod.cosine_lr(i, cfg.opt), b.total,
         *(b.terms[name] for name in ro.LOSS_TERM_NAMES))
        for i, b in enumerate(result.loss_history)
    ]
    _write_csv(out / "loss_history.csv", LOSS_HISTORY_HEADER, hist_rows)
    # controls.csv is the canonical record; the persisted trajectory and
    # summary are recomputed from its parsed values, so `simulate` on that
    # file reproduces trajectory.csv byte for byte (the SI round-trip sits
    # 1 ulp from the optimizer's internal nondim value)
    _write_csv(out / "controls.csv", CONTROLS_HEADER,
               _controls_rows(result.trajectory, cfg.refs))
    summary = _write_rollout(
        out, _read_controls_csv(out / "controls.csv", cfg.refs), scn, aero,
        {"engine": cfg.opt.grad_engine, "wall_time_s": result.wall_time_s,
         "best_step": result.best_step, "n_steps": cfg.opt.n_steps})
    _write_manifest(out, args, cfg, cfg.seed, outputs)
    print(f"terminal position error {summary['terminal']['position_error_norm_m']:.3f} m, "
          f"speed error {summary['terminal']['velocity_error_norm_mps']:.3f} m/s, "
          f"pitch error {summary['terminal']['pitch_error_deg']:.3f} deg")
    return 0


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
        raise sc.ScenarioError(
            f"controls file has {seq.K} rows but scenario K = {cfg.K}")
    scn = sc.nondimensionalize(cfg)
    out = Path(args.out)
    outputs = ["trajectory.csv", "summary.json", "manifest.json"]
    _refuse_directories(out, outputs)
    aero = aero_mod.NoAero() if args.no_aero else build_aero_model(cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_rollout(out, seq, scn, aero, {
        "engine": "forward", "aero": "none" if args.no_aero else cfg.aero.kind})
    _write_manifest(out, args, cfg, cfg.seed, outputs)
    return 0


def cmd_train_aero(args) -> int:
    try:
        dataset = aero_mod.generate_dataset(args.samples)
    except ValueError as exc:
        raise sc.ScenarioError(f"--samples: {exc}") from exc
    seed = _resolve_seed(args, 0)
    if seed < 0:
        raise sc.ScenarioError(f"the seed must be >= 0 (got {seed})")
    out_path = Path(args.out)
    out_dir = out_path.parent
    outputs = [out_path.name, "dataset.csv", "fit_report.json",
               "manifest.json"]
    _refuse_directories(out_dir, outputs)
    model = aero_mod.train_surrogate(dataset, seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    aero_mod.save_weights(model, out_path)
    _write_csv(out_dir / "dataset.csv", "alpha_deg,CL,CD,CM",
               [(math.degrees(d.alpha), d.C_L, d.C_D, d.C_M) for d in dataset])
    report = {"max_abs_err": model.meta["max_abs_err"],
              "train_mse": model.meta["train_mse"],
              "n_samples": args.samples, "seed": seed}
    sc.write_json(out_dir / "fit_report.json", report)
    _write_manifest(out_dir, args, None, seed, outputs)
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
    on either side makes its error NaN or inf, which fails both.  The
    worst index is the entry furthest outside its own tolerance, a NaN
    first, or -1 when every error is 0.
    """
    r = fd.stacked()
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(engine_report.stacked() - r)
        rel_side = np.abs(r) > GRAD_FD_FLOOR
        rel = np.divide(err, np.abs(r), out=np.zeros_like(err), where=rel_side)
        excess = np.where(rel_side, rel / GRAD_REL_TOL, err / GRAD_ABS_TOL)
    ok = bool(np.where(rel_side, rel < GRAD_REL_TOL, err < GRAD_ABS_TOL).all())
    worst_idx = int(np.argmax(excess)) if excess.any() else -1
    worst_abs = float(np.max(err, where=~rel_side, initial=0.0))
    return ok, float(np.max(rel)), worst_abs, worst_idx


def cmd_check_grad(args) -> int:
    cfg = _load_config(args)
    scn = sc.nondimensionalize(cfg)
    out = Path(args.out)
    outputs = ["check_grad.json", "manifest.json"]
    _refuse_directories(out, outputs)
    aero = build_aero_model(cfg)
    out.mkdir(parents=True, exist_ok=True)
    raw = _random_raw(scn, cfg.seed)
    engine = opt_mod._engine_fn(cfg.opt.grad_engine)
    report = engine(raw, scn, aero, scn.weights)
    fd = ro.finite_diff_grad(raw, scn, aero, scn.weights, h=1e-6,
                             dtype=np.longdouble)
    ok, worst_rel, worst_abs, i = grad_check(report, fd)
    doc = {"engine": cfg.opt.grad_engine, "K": cfg.K, "seed": cfg.seed,
           "worst_rel": worst_rel, "worst_abs": worst_abs,
           "worst_index": i, "n_rollouts_fd": fd.n_rollouts,
           "pass": ok}
    sc.write_json(out / outputs[0], doc)
    _write_manifest(out, args, cfg, cfg.seed, outputs)
    if ok:
        print(f"gradient check passed: worst relative error {worst_rel:.3e}")
        return 0
    print(f"gradient check FAILED at index {i}: engine "
          f"{float(report.stacked()[i])!r} vs finite differences "
          f"{float(fd.stacked()[i])!r} "
          f"(rel {worst_rel:.3e}, abs {worst_abs:.3e})")
    return 1


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    traj_path = run_dir / "trajectory.csv"
    if not traj_path.is_file():
        raise sc.ScenarioError(f"no trajectory.csv in {run_dir}")
    cfg = _read_manifest(run_dir / "manifest.json")[1]
    if cfg is None:
        raise sc.ScenarioError(f"the run in {run_dir} recorded no scenario")
    L_ref = cfg.refs.L_ref
    l_cg = cfg.vehicle.l_cg_frac
    tab = _read_csv(traj_path, TRAJECTORY_HEADER.split(","), "trajectory file")
    outputs = ["controls_velocity.svg", "trajectory_pose.svg",
               "state_panel.svg"]
    _refuse_directories(run_dir, outputs)
    t = tab["t_s"]
    theta_rad = np.radians(tab["theta_deg"])
    delta_d_rad = np.radians(tab["delta_d_deg"])
    speed = np.hypot(tab["u_mps"], tab["v_mps"])
    # engine pitch torque about the cg, from the logged lagged gimbal
    torque = -tab["thrust_N"] * np.sin(delta_d_rad) * ((1.0 - l_cg) * L_ref)
    k_red = tab["omega_radps"] * L_ref / (2.0 * np.maximum(speed, 1e-6))

    plots.write_panel_grid(run_dir / outputs[0], [
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
    plots.write_pose_plot(run_dir / outputs[1],
                          tab["x_m"] / L_ref, tab["y_m"] / L_ref,
                          theta_rad, l_cg,
                          "Attitude and trajectory evolution")
    plots.write_panel_grid(run_dir / outputs[2], [
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
    ])
    flip_y = plots.flip_altitude_over_L(
        tab["y_m"] / L_ref, tab["theta_deg"],
        math.degrees(cfg.bc.theta0), math.degrees(cfg.bc.theta_f))
    if flip_y is not None:
        print(f"flip crosses the pitch midpoint near y/L_ref = {flip_y:.2f}")
    print(f"wrote {', '.join(outputs)} in {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_scenario_args(p):
    p.add_argument("--scenario", required=True,
                   help="scenario JSON path or preset name (case1, case2)")
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
    p.add_argument("--engine", choices=ro.GRAD_ENGINES, default=None)
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
    p.add_argument("--engine", choices=ro.GRAD_ENGINES, default=None)
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
    except (sc.ScenarioError, plots.PlotError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except FloatingPointError as exc:
        log.error("numerical abort: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
