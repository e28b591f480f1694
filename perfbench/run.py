#!/usr/bin/env python3
"""flipopt benchmark: optimizer and oracle throughput, set-up time, per-layer spans.

    python3 perfbench/run.py --workload case1-bptt --seed 1 --seconds 30 --trace 0

One single-threaded process runs one workload.  It sets the scenario up
several times, half before the rounds and half after them (``setup_s`` is
the median).  The rounds run until ``--seconds`` have passed; a round is

1. ``flipopt.optimize`` for a fixed step budget, started from raw controls
   drawn from ``--seed`` (timed: ``steps_per_s``);
2. the long-double central-difference oracle ``finite_diff_grad`` at the
   same seeded start (timed: ``fd_rollouts_per_s``);
3. untimed, the output checks: control bounds, the RK4 mass identity and
   progress of the optimizer, and both gradient engines against the oracle.

Every reported time is scaled to nominal host speed by the probes run just
before and after it (see ``probe.py``).

With ``--trace 1`` the rounds alternate between untraced and traced.  The
traced rounds give the per-layer metrics (see ``spans.py``); the gap between
the round times of the two kinds is ``trace.overhead_pct``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the run's metadata, and both are also written to
``perfbench/results/``.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

try:
    import flipopt
    import flipopt.cli
    import flipopt.optimizer
    import flipopt.rollout
    from flipopt.dynamics import IX_M
except ImportError as exc:
    sys.exit(f"perfbench: cannot import flipopt from {SRC}: {exc}")
if not Path(flipopt.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: flipopt was imported from {flipopt.__file__}, "
             f"not from {SRC}")

from probe import probe, scale  # noqa: E402
from spans import ENGINE_FORWARD, TracedAero, Tracer  # noqa: E402

# gradient tolerances of criterion 1 in tests/test_acceptance.py
GRAD_REL_TOL = 1e-5
GRAD_ABS_TOL = 1e-8
FD_FLOOR = 1e-8
FD_STEP = 1e-6
MASS_REL_TOL = 1e-12
START_SCALE = 0.5       # std of the seeded offsets from init_raw_params
ROLLOUT_REPEATS = 3     # timed rollout calls per traced round
PROBE_EVERY_S = 1.0     # longest stretch of set-ups between two probes


@dataclass(frozen=True)
class Workload:
    preset: str
    engine: str         # gradient engine that optimize runs with
    steps: int          # optimizer steps per round
    setups: int         # set-ups per run; setup_s is their median


WORKLOADS = {
    "case1-bptt": Workload("case1", "bptt", steps=150, setups=200),
    "case2-adjoint": Workload("case2", "adjoint", steps=120, setups=3),
}

# operations per round: the optimize call and the gradient check
OPS_PER_ROUND = 2


def configure(cfg, engine: str, K: int | None):
    """The preset with the workload's engine and, for smoke runs, a shorter K."""
    cfg = replace(cfg, opt=replace(cfg.opt, grad_engine=engine))
    if K is not None:
        cfg = replace(cfg, K=K, t_f=cfg.t_f / cfg.K * K)
    return cfg


def set_up(wl: Workload, K: int | None):
    """Load and scale the scenario and build its aero model, once.

    Returns (scn, aero, total seconds, scenario seconds).
    """
    t0 = perf_counter()
    cfg = configure(flipopt.load_scenario(wl.preset), wl.engine, K)
    scn = flipopt.nondimensionalize(cfg)
    t1 = perf_counter()
    aero = flipopt.cli.build_aero_model(cfg)
    return scn, aero, perf_counter() - t0, t1 - t0


def seeded_start(rng: np.random.Generator, scn) -> flipopt.RawControlParams:
    base = flipopt.init_raw_params(scn)
    return flipopt.RawControlParams(
        u_T=base.u_T + rng.normal(0.0, START_SCALE, scn.K),
        u_delta=base.u_delta + rng.normal(0.0, START_SCALE, scn.K))


def timed_round(scn, aero, raw0, steps: int, tracer: Tracer | None = None):
    """Optimize from ``raw0``, then run the oracle at ``raw0``; both timed.

    Returns (result, oracle report, (optimize s, oracle s), probe times
    before, between and after the two calls (see ``probe.py``)).
    """
    p_start = probe()
    if tracer:
        tracer.phase = "optimize"
    t0 = perf_counter()
    res = flipopt.optimize(scn, aero, raw0, n_steps=steps)
    t_opt = perf_counter() - t0
    p_mid = probe()
    if tracer:
        tracer.phase = "fd"
    t0 = perf_counter()
    fd = flipopt.rollout.finite_diff_grad(raw0, scn, aero, h=FD_STEP,
                                          dtype=np.longdouble)
    t_fd = perf_counter() - t0
    p_end = probe()
    return res, fd, (t_opt, t_fd), (p_start, p_mid, p_end)


# ---------------------------------------------------------------------------
# Output checks (properties of the method, run outside the timed region)
# ---------------------------------------------------------------------------

def check_optimize(res, scn) -> list[str]:
    """Control bounds, the RK4 mass identity and optimizer progress."""
    problems = []
    traj = res.trajectory
    T, delta = traj.thrust, traj.delta_cmd
    if not (np.all(T >= scn.T_min) and np.all(T <= scn.T_max)):
        problems.append(f"thrust outside [T_min, T_max]: {T.min()} .. {T.max()}")
    if not np.all(np.abs(delta) <= scn.delta_max):
        problems.append(f"|delta| {np.abs(delta).max()} > delta_max {scn.delta_max}")
    # the mass rate -T/c_ex is constant over a zero-order-hold step, so RK4
    # integrates it exactly
    m_expected = scn.x0[IX_M] - scn.dt * T.sum() / scn.c_ex
    m_final = traj.states[-1, IX_M]
    if not abs(m_final - m_expected) <= MASS_REL_TOL * abs(m_expected):
        problems.append(f"final mass {m_final!r} != m0 - dt sum(T)/c_ex "
                        f"{m_expected!r}")
    totals = np.array([b.total for b in res.loss_history])
    if not np.all(np.isfinite(totals)):
        problems.append("non-finite loss in the history")
    elif not totals.min() < totals[0]:
        problems.append(f"no progress: best loss {totals.min()} >= start "
                        f"{totals[0]}")
    return problems


def gradient_errors(g: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Worst relative error where |ref| > FD_FLOOR, worst absolute elsewhere."""
    err = np.abs(g - ref)
    big = np.abs(ref) > FD_FLOOR
    rel = float((err[big] / np.abs(ref[big])).max()) if big.any() else 0.0
    abs_ = float(err[~big].max()) if (~big).any() else 0.0
    return rel, abs_


def check_gradients(raw, fd, scn, aero) -> list[str]:
    """Both engines match the long-double oracle; the oracle made 4K rollouts."""
    problems = []
    if fd.n_rollouts != 4 * scn.K:
        problems.append(f"oracle made {fd.n_rollouts} rollouts, not 4K = {4 * scn.K}")
    ref = fd.stacked()
    for engine in (flipopt.rollout.grad_bptt, flipopt.rollout.grad_adjoint):
        rel, abs_ = gradient_errors(engine(raw, scn, aero, scn.weights).stacked(),
                                    ref)
        if not (rel < GRAD_REL_TOL and abs_ < GRAD_ABS_TOL):
            problems.append(f"{engine.__name__} vs oracle: rel {rel:.2e}, "
                            f"abs {abs_:.2e}")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def per_layer_metrics(tr: Tracer, steps: int, n_rollouts: int,
                      optimize_s: list[float], oracle_s: list[float],
                      rollout_s: list[float], scenario_s: list[float],
                      overhead: float, tracemalloc_kib: float,
                      peak_aux: int) -> dict[str, float]:
    """Per-layer values from the traced rounds' spans and timed calls."""
    n_steps = len(optimize_s) * steps
    fd_rollouts = len(oracle_s) * n_rollouts

    def per_call(phase, span, scale):
        calls = tr.calls(phase, span)
        return tr.seconds(phase, span) / calls * scale if calls else 0.0

    engine_calls = tr.calls("optimize", "rollout.grad")
    grad_ms = per_call("optimize", "rollout.grad", 1e3)
    forward_ms = (tr.seconds("optimize", ENGINE_FORWARD) / engine_calls * 1e3
                  if engine_calls else 0.0)
    rollout_ms = statistics.median(rollout_s) * 1e3
    loop_s = (sum(optimize_s) - tr.seconds("optimize", "rollout.grad")
              - tr.seconds("optimize", "optimizer.adam_step"))
    train_calls = tr.calls("setup", "aero.train")
    return {
        "scenario.setup_ms": statistics.median(scenario_s) * 1e3,
        "aero.forces_us": per_call("optimize", "aero.forces", 1e6),
        "aero.forces_jac_us": per_call("optimize", "aero.forces_jac", 1e6),
        "aero.forces_calls": tr.calls("optimize", "aero.forces") / n_steps,
        "aero.forces_jac_calls": tr.calls("optimize", "aero.forces_jac") / n_steps,
        "aero.fd_forces_us": per_call("fd", "aero.forces", 1e6),
        "aero.fd_forces_calls": tr.calls("fd", "aero.forces") / fd_rollouts,
        "aero.train_s": (tr.seconds("setup", "aero.train") / train_calls
                         if train_calls else 0.0),
        "dynamics.rk4_advance_us": per_call("optimize", "dynamics.rk4_advance", 1e6),
        "dynamics.rk4_advance_calls":
            tr.calls("optimize", "dynamics.rk4_advance") / n_steps,
        "dynamics.fd_rk4_advance_us": per_call("fd", "dynamics.rk4_advance", 1e6),
        "dynamics.fd_rk4_advance_calls":
            tr.calls("fd", "dynamics.rk4_advance") / fd_rollouts,
        "dynamics.rhs_and_jacobians_us":
            per_call("optimize", "dynamics.rhs_and_jacobians", 1e6),
        "dynamics.rhs_and_jacobians_calls":
            tr.calls("optimize", "dynamics.rhs_and_jacobians") / n_steps,
        "controls.reparameterize_us":
            per_call("optimize", "controls.reparameterize", 1e6),
        "rollout.grad_ms": grad_ms,
        "rollout.forward_ms": forward_ms,
        "rollout.reverse_ms": grad_ms - forward_ms,
        "rollout.rollout_ms": rollout_ms,
        "rollout.grad_over_rollout": grad_ms / rollout_ms,
        "rollout.fd_rollout_ms": sum(oracle_s) / fd_rollouts * 1e3,
        "rollout.peak_aux_floats": peak_aux,
        "rollout.tracemalloc_peak_kib": tracemalloc_kib,
        "optimizer.adam_step_us": per_call("optimize", "optimizer.adam_step", 1e6),
        "optimizer.loop_ms": loop_s / n_steps * 1e3,
        "trace.overhead_pct": overhead * 100.0,
    }


def engine_alloc_peak_kib(scn, aero) -> float:
    """Peak traced allocation of one untraced engine call at the preset start."""
    engine = getattr(flipopt.rollout, f"grad_{scn.opt.grad_engine}")
    raw = flipopt.init_raw_params(scn)
    engine(raw, scn, aero, scn.weights)   # warm caches outside the pass
    tracemalloc.start()
    try:
        engine(raw, scn, aero, scn.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, *, K: int | None = None,
        steps: int | None = None, setups: int | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, metadata with raw samples)."""
    wl = WORKLOADS[name]
    steps = steps or wl.steps
    setups = setups or wl.setups
    tracer = Tracer() if trace else None

    def set_up_batch(n: int):
        """``n`` set-ups; each stretch of up to about a second of them is
        scaled by the probes that bracket it."""
        total, scenario, scaled, pending = [], [], [], []
        before = probe()
        for j in range(n):
            if tracer:
                tracer.phase = "setup"
                with tracer.patched():
                    scn, aero, t, t_scn = set_up(wl, K)
            else:
                scn, aero, t, t_scn = set_up(wl, K)
            total.append(t)
            scenario.append(t_scn)
            pending.append(t)
            if sum(pending) > PROBE_EVERY_S or j == n - 1:
                after = probe()
                scaled += [x * scale(before, after) for x in pending]
                before, pending = after, []
        return scn, aero, total, scenario, scaled

    # half the set-ups run before the rounds and the rest after them, so that
    # the median samples the host's speed at both ends of the run
    scn, aero, setup_s, scenario_s, setup_scaled = set_up_batch(
        setups - setups // 2)

    rng = np.random.default_rng(seed)
    min_rounds = 2 if trace else 1      # a traced run needs one of each kind
    # measured seconds of the optimize and oracle calls and the same at
    # nominal host speed, keyed by "traced"
    opt_s = {False: [], True: []}
    fd_s = {False: [], True: []}
    opt_scaled = {False: [], True: []}
    fd_scaled = {False: [], True: []}
    rollout_s = []
    probe_s = []
    n_rollouts = 4 * scn.K
    attempted = failed = 0
    problems: list[str] = []
    t_start = perf_counter()
    i = 0
    while i < min_rounds or perf_counter() - t_start < seconds:
        traced = bool(tracer) and i % 2 == 1
        raw0 = seeded_start(rng, scn)
        attempted += OPS_PER_ROUND
        i += 1
        try:
            if traced:
                with tracer.patched():
                    proxy = TracedAero(aero, tracer)
                    res, fd, times, probes = timed_round(scn, proxy, raw0, steps,
                                                         tracer)
                    tracer.phase = "rollout"
                    for _ in range(ROLLOUT_REPEATS):
                        t0 = perf_counter()
                        flipopt.rollout.rollout(res.best_raw, scn, proxy)
                        rollout_s.append(perf_counter() - t0)
            else:
                res, fd, times, probes = timed_round(scn, aero, raw0, steps)
        except (flipopt.optimizer.NumericalAbort, flipopt.rollout.RolloutError,
                FloatingPointError) as exc:
            failed += OPS_PER_ROUND
            print(f"perfbench: round {i} failed: {exc}", file=sys.stderr)
            continue
        problems += check_optimize(res, scn)
        problems += check_gradients(raw0, fd, scn, aero)
        opt_s[traced].append(times[0])
        fd_s[traced].append(times[1])
        opt_scaled[traced].append(times[0] * scale(*probes[:2]))
        fd_scaled[traced].append(times[1] * scale(*probes[1:]))
        probe_s.append(probes)
        n_rollouts = fd.n_rollouts
    if setups // 2:
        *_, more_s, more_scenario_s, more_scaled = set_up_batch(setups // 2)
        setup_s += more_s
        scenario_s += more_scenario_s
        setup_scaled += more_scaled

    if trace:
        round_s = {k: [a + b for a, b in zip(opt_scaled[k], fd_scaled[k])]
                   for k in opt_scaled}
        overhead = (statistics.median(round_s[True])
                    / statistics.median(round_s[False]) - 1.0)
        values = per_layer_metrics(
            tracer, steps, n_rollouts, opt_s[True], fd_s[True], rollout_s,
            scenario_s, overhead, engine_alloc_peak_kib(scn, aero),
            getattr(tracer.last_engine_report, "peak_aux_floats", 0))
    else:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "steps_per_s": statistics.median(steps / t for t in opt_scaled[False]),
            "fd_rollouts_per_s": statistics.median(n_rollouts / t
                                                   for t in fd_scaled[False]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json "
                           f"{sorted(units)}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "preset": wl.preset, "engine": wl.engine, "K": scn.K, "steps": steps,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "samples": {"setup_s": setup_s, "scenario_s": scenario_s,
                    "optimize_s": opt_s[False], "oracle_s": fd_s[False],
                    "setup_scaled_s": setup_scaled,
                    "optimize_scaled_s": opt_scaled[False],
                    "oracle_scaled_s": fd_scaled[False], "probe_s": probe_s,
                    "traced_optimize_s": opt_s[True],
                    "traced_oracle_s": fd_s[True], "rollout_s": rollout_s},
    }
    if tracer:
        meta["spans"] = {f"{phase}/{span}": rec for (phase, span), rec
                         in sorted(tracer.stats.items())}
    return result, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({k: v for k, v in meta.items() if k not in ("samples", "spans")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
