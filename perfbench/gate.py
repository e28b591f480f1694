#!/usr/bin/env python3
"""Time-to-gate on the case1 preset's own 5000-step schedule.

    python3 perfbench/gate.py

This is not one of the workloads in ``BENCHMARK.json``: the gates first hold
near step 4320, more than a minute into the run, and a measured run of the
benchmark must stay well under a minute.  It runs ``flipopt.optimize`` on the
unmodified case1 preset (drag model, ``bptt``, K = 90, cosine schedule over
5000 steps) and reports

* ``steps_to_gate``: the index + 1 of the first step whose iterate meets the
  four terminal gates and the dry-mass floor, read from ``loss_history`` with
  each terminal term converted back to SI through the scenario's weights and
  reference scales;
* ``time_to_gate_s``: wall time from the start of ``optimize`` to the return
  of that step's gradient-engine call.

It then rolls the returned controls out through ``rollout_controls`` and
checks the gates in SI, the control bounds and the RK4 mass identity.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the BLAS threads and the import path first)

import flipopt  # noqa: E402
import flipopt.rollout  # noqa: E402

GATES = {"pos_m": 1.0, "vel_mps": 0.5, "pitch_deg": 1.0, "omega_radps": 0.01}


def residuals_from_terms(terms: dict[str, float], scn) -> dict[str, float]:
    """SI terminal residuals from the weighted loss terms of one iterate."""
    w, refs = scn.weights, scn.refs
    return {
        "pos_m": math.sqrt(terms["terminal_position"] / w.w_r) * refs.L_ref,
        "vel_mps": math.sqrt(terms["terminal_velocity"] / w.w_v) * refs.v_ref,
        "pitch_deg": math.degrees(math.sqrt(terms["terminal_pitch"] / w.w_theta)),
        "omega_radps": math.sqrt(terms["terminal_omega"] / w.w_omega) / refs.t_ref,
    }


def residuals_from_states(states, scn) -> dict[str, float]:
    """SI terminal residuals of a nondimensional trajectory."""
    refs, xK = scn.refs, states[-1]
    return {
        "pos_m": math.hypot(*(xK[0:2] - scn.r_f)) * refs.L_ref,
        "vel_mps": math.hypot(*(xK[2:4] - scn.v_f)) * refs.v_ref,
        "pitch_deg": abs(math.degrees(xK[4] - scn.theta_f)),
        "omega_radps": abs(xK[5] - scn.omega_f) / refs.t_ref,
    }


def meets_gates(residuals: dict[str, float], mass_ok: bool) -> bool:
    return mass_ok and all(residuals[k] < gate for k, gate in GATES.items())


def first_gate_step(history, scn) -> int | None:
    for i, b in enumerate(history):
        if meets_gates(residuals_from_terms(b.terms, scn),
                       b.terms["mass_floor"] == 0.0):
            return i
    return None


def main() -> int:
    cfg = flipopt.load_scenario("case1")
    scn = flipopt.nondimensionalize(cfg)
    aero = flipopt.cli.build_aero_model(cfg)

    engine = getattr(flipopt.rollout, f"grad_{scn.opt.grad_engine}")
    returned_at = []

    def stamped(*args, **kwargs):
        out = engine(*args, **kwargs)
        returned_at.append(perf_counter())
        return out

    setattr(flipopt.rollout, engine.__name__, stamped)
    try:
        t0 = perf_counter()
        res = flipopt.optimize(scn, aero)
        optimize_s = perf_counter() - t0
    finally:
        setattr(flipopt.rollout, engine.__name__, engine)

    problems = run.check_optimize(res, scn)
    i = first_gate_step(res.loss_history, scn)
    if i is None:
        problems.append("no step of the schedule meets the gates")
    seq = flipopt.reparameterize(res.best_raw, scn)
    states = flipopt.rollout_controls(seq, scn, aero).states
    final = residuals_from_states(states, scn)
    if not meets_gates(final, bool(states[:, run.IX_M].min() >= scn.m_dry)):
        problems.append(f"returned controls miss the gates: {final}")
    for p in problems:
        print(f"gate: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "git_sha": run.git_sha(),
        "steps": len(res.loss_history),
        "optimize_s": optimize_s,
        "steps_to_gate": None if i is None else i + 1,
        "time_to_gate_s": None if i is None else returned_at[i] - t0,
        "final_residuals": final,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
