"""Per-layer spans for the traced benchmark run, taken from outside the program.

The program is never edited for tracing.  Two seams let the benchmark see
inside a call:

* the aero model is passed in as a proxy: any object with ``forces`` and
  ``forces_jac`` is an ``AeroModel``, so :class:`TracedAero` times each call
  and forwards it to the real model;
* a few module attributes that the program looks up at call time are
  replaced, for the traced run only, by timing wrappers (:data:`TARGETS`).
  A target that a later change removes is skipped: its span reports no
  samples and does not fail.

Each span accumulates a call count and the time spent inside the call,
keyed by the phase the benchmark set (``setup``, ``optimize``, ``rollout``
or ``fd``).  Times are inclusive: an ``rk4_advance`` span contains the aero
calls it made.  Spans of the rk4 step that run inside a gradient-engine span
are also summed as that engine call's forward time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name, role); role "engine" marks a gradient engine
# and "forward" the step whose time inside an engine counts as forward time
TARGETS = (
    ("flipopt.rollout", "rk4_advance", "dynamics.rk4_advance", "forward"),
    ("flipopt.rollout", "rhs_and_jacobians", "dynamics.rhs_and_jacobians", ""),
    ("flipopt.rollout", "reparameterize", "controls.reparameterize", ""),
    ("flipopt.rollout", "grad_bptt", "rollout.grad", "engine"),
    ("flipopt.rollout", "grad_adjoint", "rollout.grad", "engine"),
    ("flipopt.optimizer", "adam_step", "optimizer.adam_step", ""),
    ("flipopt.aero", "train_surrogate", "aero.train", ""),
)

ENGINE_FORWARD = "rollout.engine_forward"


class Tracer:
    """Call counts and inclusive seconds per (phase, span)."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.engine_depth = 0
        self.last_engine_report = None

    def calls(self, phase: str, span: str) -> int:
        return self.stats[phase, span][0] if (phase, span) in self.stats else 0

    def seconds(self, phase: str, span: str) -> float:
        return self.stats[phase, span][1] if (phase, span) in self.stats else 0.0

    def wrap(self, span: str, fn, role: str = ""):
        def traced(*args, **kwargs):
            if role == "engine":
                self.engine_depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                if role == "engine":
                    self.engine_depth -= 1
                rec = self.stats[self.phase, span]
                rec[0] += 1
                rec[1] += elapsed
                if role == "forward" and self.engine_depth:
                    self.stats[self.phase, ENGINE_FORWARD][1] += elapsed
            if role == "engine":
                self.last_engine_report = out
            return out
        return traced

    @contextmanager
    def patched(self):
        """Replace every :data:`TARGETS` attribute that exists by its wrapper."""
        saved = []
        try:
            for module_name, attr, span, role in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(span, fn, role))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


class TracedAero:
    """Aero-model proxy that times ``forces`` and ``forces_jac``."""

    def __init__(self, model, tracer: Tracer) -> None:
        self.forces = tracer.wrap("aero.forces", model.forces)
        self.forces_jac = tracer.wrap("aero.forces_jac", model.forces_jac)
