"""Record flipopt's numerical outputs from one source tree, and compare two
records bit for bit.

A refactor that should move no bit shows it by dumping its parent's tree
and its own, then comparing the two files:

    python3 tools/same_bits.py dump --src parent/src --out parent.npz
    python3 tools/same_bits.py dump --src src --out change.npz
    python3 tools/same_bits.py compare parent.npz change.npz

``dump`` imports ``flipopt`` from ``--src`` and records, for case1 (drag
model) and case2 (trained surrogate) at K in {1, 7, 16, 30, 31, 90} and
random controls of seeds 0 and 1: the rollout states, every loss term,
both engines' gradients, losses and ``peak_aux_floats``, and at K <= 16
the long-double finite-difference oracle.  K = 16 passes both presets'
first flip index (11 and 15), so its oracle lanes carry non-zero flip
sums.  The same arrays are recorded with the dry mass ``DRY_MARGIN_KG``
= 500 kg below the wet mass at K in {7, 16, 90}, which puts the dry-mass
floor inside the horizon of every rollout but case2's at K = 7.
It also records the layers and ``meta`` (as JSON bytes) of
``train_surrogate(generate_dataset(36), seed=0)`` and of three
``FIT_EPOCHS`` = 300-epoch fits to ``generate_dataset(12)`` with seed 3,
at hidden sizes ``FIT_HIDDEN`` = (16,), (32, 32) and (8, 8, 8), so that
the fit's buffers for one, two and three hidden layers are compared bit
for bit; then the case2 surrogate's
``coeffs_from_encoding`` at ``ENCODINGS`` = 4096 angles evenly spaced over
[0, 2 pi), so that a change of that forward pass's summation order shows
directly, and the exit code and
output bytes of five commands run through the tree's ``cli.main`` on
case1 in a temporary directory: ``optimize --k 6 --steps 5``,
``simulate`` of its controls.csv with and without ``--no-aero``,
``check-grad --k 4`` and ``train-aero --samples 12 --seed 1``.  Each
output file is recorded as ``uint8`` bytes, except manifest.json, which
holds run paths; summary.json is recorded without its wall time.  Then
``plot`` of the ``optimize`` run directory records its three SVGs, and
``replay_manifest`` of that run's manifest.json records the replayed
trajectory.csv, controls.csv and loss_history.csv, each with its exit
code.
``compare`` checks that both files hold the same arrays with the same
dtype, shape and bytes; it names the first mismatch and exits 1, or
exits 0.  A record holds 1118 arrays, and a run of ``dump`` takes about
ten seconds on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

KS = (1, 7, 16, 30, 31, 90)
SEEDS = (0, 1)
ORACLE_MAX_K = 16
DRY_KS = (7, 16, 90)
DRY_MARGIN_KG = 500.0
ENCODINGS = 4096
FIT_HIDDEN = ((16,), (32, 32), (8, 8, 8))
FIT_EPOCHS = 300


def _loss_arrays(prefix, breakdown, out):
    out[f"{prefix}/total"] = np.float64(breakdown.total)
    for name, value in breakdown.terms.items():
        out[f"{prefix}/{name}"] = np.float64(value)


def _fit_arrays(model, prefix, out) -> None:
    for i, (W, b) in enumerate(model.layers):
        out[f"{prefix}/layer{i}/W"] = W
        out[f"{prefix}/layer{i}/b"] = b
    out[f"{prefix}/meta"] = np.frombuffer(
        json.dumps(model.meta, sort_keys=True).encode(), np.uint8)


def _rollout_arrays(fo, cli, ro, cfg, aero, K, at, out) -> None:
    """Record the rollouts of ``cfg`` cut to K steps at dt, under ``at``,
    from the seeded starts of ``cli._random_raw``, as the tests draw them."""
    dt = cfg.t_f / cfg.K
    scn = fo.nondimensionalize(replace(cfg, K=K, t_f=dt * K))
    for seed in SEEDS:
        s = f"{at}/seed{seed}"
        raw = cli._random_raw(scn, seed)
        traj = ro.rollout(raw, scn, aero)
        out[f"{s}/states"] = traj.states
        _loss_arrays(f"{s}/loss", ro.loss(traj, scn.weights, scn), out)
        for name in ("bptt", "adjoint"):
            rep = getattr(ro, f"grad_{name}")(raw, scn, aero)
            e = f"{s}/{name}"
            out[f"{e}/grad"] = rep.stacked()
            out[f"{e}/peak_aux_floats"] = np.int64(rep.peak_aux_floats)
            _loss_arrays(f"{e}/loss", rep.loss, out)
        if K <= ORACLE_MAX_K:
            rep = ro.finite_diff_grad(raw, scn, aero, dtype=np.longdouble)
            out[f"{s}/oracle/grad"] = rep.stacked()


def _cli_outputs(cli, out) -> None:
    """Run the five commands, then plot and replay the ``optimize`` run, and
    record their exit codes and outputs."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        case1 = ["--scenario", "case1"]
        simulate = ["simulate", *case1, "--k", "6",
                    "--controls", str(tmp / "optimize" / "controls.csv")]
        runs = {
            "optimize": ["optimize", *case1, "--k", "6", "--steps", "5"],
            "simulate": simulate,
            "simulate-no-aero": [*simulate, "--no-aero"],
            "check-grad": ["check-grad", *case1, "--k", "4"],
            "train-aero": ["train-aero", "--samples", "12", "--seed", "1"],
        }
        for name, argv in runs.items():
            run = tmp / name
            dest = run / "weights.json" if name == "train-aero" else run
            out[f"cli/{name}/exit"] = np.int64(cli.main([*argv, "--out",
                                                         str(dest)]))
            if not run.is_dir():
                continue
            for f in sorted(run.iterdir()):
                if f.name == "manifest.json":
                    continue
                data = f.read_bytes()
                if f.name == "summary.json":
                    doc = json.loads(data)
                    del doc["wall_time_s"]
                    data = json.dumps(doc, indent=1, sort_keys=True).encode()
                out[f"cli/{name}/{f.name}"] = np.frombuffer(data, np.uint8)
        run = tmp / "optimize"
        out["cli/plot/exit"] = np.int64(cli.main(["plot", str(run)]))
        for f in sorted(run.glob("*.svg")):
            out[f"cli/plot/{f.name}"] = np.frombuffer(f.read_bytes(), np.uint8)
        replay = tmp / "replay"
        out["cli/replay/exit"] = np.int64(
            cli.replay_manifest(run / "manifest.json", replay))
        for name in ("trajectory.csv", "controls.csv", "loss_history.csv"):
            out[f"cli/replay/{name}"] = np.frombuffer(
                (replay / name).read_bytes(), np.uint8)


def dump(src: str, path: str) -> None:
    sys.path.insert(0, src)
    import flipopt as fo
    from flipopt import cli
    from flipopt import rollout as ro
    from flipopt.aero import TrainerConfig

    out: dict[str, np.ndarray] = {}
    _fit_arrays(fo.train_surrogate(fo.generate_dataset(36), seed=0),
                "train", out)
    for hidden in FIT_HIDDEN:
        hyper = TrainerConfig(hidden=hidden, epochs=FIT_EPOCHS)
        _fit_arrays(fo.train_surrogate(fo.generate_dataset(12), hyper, seed=3),
                    f"train/hidden{'x'.join(map(str, hidden))}", out)

    for case in ("case1", "case2"):
        cfg = fo.load_scenario(case)
        aero = cli.build_aero_model(cfg)
        for K in KS:
            _rollout_arrays(fo, cli, ro, cfg, aero, K, f"{case}/K{K}", out)
        v = cfg.vehicle
        dry = replace(cfg, vehicle=replace(v, m_dry=v.m_wet - DRY_MARGIN_KG))
        for K in DRY_KS:
            _rollout_arrays(fo, cli, ro, dry, aero, K, f"{case}/dry/K{K}",
                            out)
        if case == "case2":   # the fitted surrogate
            a = 2.0 * np.pi * np.arange(ENCODINGS) / ENCODINGS
            out["case2/coeffs_from_encoding"] = np.array([
                aero.coeffs_from_encoding(z)
                for z in zip(np.sin(a).tolist(), np.cos(a).tolist())])
    _cli_outputs(cli, out)
    np.savez(path, **out)
    print(f"{path}: {len(out)} arrays")


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as a, np.load(path_b) as b:
        for key in a.files:
            if key not in b.files:
                print(f"mismatch: {key} is in {path_a} only")
                return 1
            x, y = a[key], b[key]
            if x.dtype != y.dtype or x.shape != y.shape:
                print(f"mismatch: {key}: {x.dtype} {x.shape} != "
                      f"{y.dtype} {y.shape}")
                return 1
            xb, yb = (np.frombuffer(v.tobytes(), np.uint8).reshape(
                v.size, v.itemsize) for v in (x, y))
            differ = np.flatnonzero((xb != yb).any(axis=1))
            if differ.size:
                i = differ[0]
                print(f"mismatch: {key}, entry {i}: {x.ravel()[i]!r} != "
                      f"{y.ravel()[i]!r}")
                return 1
        extra = [key for key in b.files if key not in a.files]
        if extra:
            print(f"mismatch: {extra[0]} is in {path_b} only")
            return 1
        print(f"same bits: {len(a.files)} arrays")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record and compare flipopt's outputs bit for bit.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("dump", help="record one tree's outputs")
    p.add_argument("--src", required=True,
                   help="the tree's src directory, which holds flipopt/")
    p.add_argument("--out", required=True, help="the .npz file to write")
    p = sub.add_parser("compare", help="compare two records bit for bit")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        dump(args.src, args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
