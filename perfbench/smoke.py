"""Smoke test of the benchmark at a tiny horizon and step count.

    python3 -m pytest perfbench/smoke.py -q

Runs every workload's code path, traced and untraced, and every output check,
in about half a minute.  The tier-1 suite does not collect this file: it is
outside ``tests/`` and its name does not match ``test_*.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import run  # noqa: E402

TINY = {"K": 6, "steps": 5, "setups": 1}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_runs_and_reports_every_metric(name, trace):
    result, meta = run.run(name, seed=3, seconds=0.0, trace=trace, **TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == run.OPS_PER_ROUND * (2 if trace else 1)
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert meta["K"] == TINY["K"] and meta["blas_threads"] == 1
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # exact call counts of one bptt or adjoint step at K = 6
        assert m["dynamics.rhs_and_jacobians_calls"] == 4 * TINY["K"]
        assert m["aero.forces_jac_calls"] == 4 * TINY["K"]
        assert m["dynamics.rk4_advance_calls"] > TINY["K"]
        assert m["rollout.forward_ms"] + m["rollout.reverse_ms"] == pytest.approx(
            m["rollout.grad_ms"])


def test_same_seed_gives_same_inputs():
    scn, _, _, _ = run.set_up(run.WORKLOADS["case1-bptt"], TINY["K"])
    a = run.seeded_start(np.random.default_rng(5), scn)
    b = run.seeded_start(np.random.default_rng(5), scn)
    c = run.seeded_start(np.random.default_rng(6), scn)
    assert np.array_equal(a.u_T, b.u_T) and np.array_equal(a.u_delta, b.u_delta)
    assert not np.array_equal(a.u_T, c.u_T)


class ScaledJacobian:
    """Aero model whose Jacobian disagrees with its forces by 10 %."""

    def __init__(self, model):
        self.model = model
        self.forces = model.forces

    def forces_jac(self, state, scn):
        F, dF_dv, dF_dth = self.model.forces_jac(state, scn)
        return F, 1.1 * dF_dv, 1.1 * dF_dth


def _tiny_round():
    scn, aero, _, _ = run.set_up(run.WORKLOADS["case1-bptt"], TINY["K"])
    raw0 = run.seeded_start(np.random.default_rng(0), scn)
    res, fd, _, _ = run.timed_round(scn, aero, raw0, TINY["steps"])
    return scn, aero, raw0, res, fd


def test_checks_catch_faults():
    scn, aero, raw0, res, fd = _tiny_round()
    assert run.check_optimize(res, scn) == []
    assert run.check_gradients(raw0, fd, scn, aero) == []

    bad_jac = run.check_gradients(raw0, fd, scn, ScaledJacobian(aero))
    assert len(bad_jac) == 2 and "grad_bptt" in bad_jac[0]
    assert run.check_gradients(raw0, replace(fd, n_rollouts=1), scn, aero)

    traj = res.trajectory
    over = replace(res, trajectory=replace(traj, thrust=traj.thrust * 1.5))
    problems = run.check_optimize(over, scn)
    assert any("thrust" in p for p in problems)
    assert any("final mass" in p for p in problems)
    wide = replace(res, trajectory=replace(traj, delta_cmd=traj.delta_cmd + 1.0))
    assert any("delta" in p for p in run.check_optimize(wide, scn))
    stalled = replace(res, loss_history=res.loss_history[:1] * 3)
    assert any("no progress" in p for p in run.check_optimize(stalled, scn))


def test_gate_residuals_from_loss_terms_match_the_trajectory():
    scn, _, _, res, _ = _tiny_round()
    from_terms = gate.residuals_from_terms(res.loss_history[res.best_step].terms, scn)
    from_states = gate.residuals_from_states(res.trajectory.states, scn)
    for key, value in from_states.items():
        assert from_terms[key] == pytest.approx(value, rel=1e-9, abs=1e-12)
    assert gate.meets_gates(dict.fromkeys(gate.GATES, 0.0), True)
    assert not gate.meets_gates(dict.fromkeys(gate.GATES, 0.0), False)
    assert not gate.meets_gates({**dict.fromkeys(gate.GATES, 0.0), "vel_mps": 0.5},
                                True)


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and perfbench, it exits non-zero."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case1-bptt",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert "cannot import flipopt" in out.stderr
