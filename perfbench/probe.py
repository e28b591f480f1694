"""Host-speed probe: a fixed piece of work timed next to every timed call.

The benchmark's host is a shared 2-vCPU virtual machine whose speed swings
by up to 2x within seconds as other tenants load it (one process pinned to
one CPU measured 51 to 97 gradients/s in consecutive 2 s windows).  Every
timing the benchmark reports is therefore scaled by how fast this probe ran
just before and just after it, against its nominal time ``NOMINAL_S``:

    reported time = measured time * nominal probe time / probe time

The probe is frozen here and shares no code with ``flipopt``, so a change to
the program moves the reported figures and a change in the host's speed
moves the probe as well.  Its work has the program's shape: scalar RK4 over
an 8-state system on Python floats and small numpy arrays, with an 8x8
Jacobian and its transposed product per stage.  The state is long double:
in a trial of 8 case1 runs on the reference host, a long-double probe
tracked the host's speed for both the float64 optimizer and the long-double
oracle better than a float64 one (IQR/median 5.3 % and 5.8 % against 7.9 %
and 12 %; 37 % and 33 % unscaled).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

STEPS = 1500
# median probe time on the reference host (2-vCPU x86 VM, Python 3.11,
# numpy 2.4); it only sets the scale of the reported figures
NOMINAL_S = 0.1


def _rhs(x: np.ndarray, u: float) -> tuple[np.ndarray, np.ndarray]:
    speed = math.hypot(float(x[2]), float(x[3]))
    th = float(x[4])
    c, s = math.cos(th), math.sin(th)
    f = np.array([
        float(x[2]), float(x[3]),
        u * c - 0.05 * speed * float(x[2]),
        u * s - 0.05 * speed * float(x[3]) - 0.1,
        float(x[5]), -0.3 * float(x[5]) + 0.01 * (u - float(x[7])),
        -1e-3 * u, (u - float(x[7])) / 0.5,
    ], dtype=x.dtype)
    J = np.zeros((8, 8))
    J[0, 2] = J[1, 3] = J[4, 5] = 1.0
    J[2, 2] = J[3, 3] = -0.05 * speed
    J[2, 4] = -u * s
    J[3, 4] = u * c
    J[5, 5] = -0.3
    J[5, 7] = -0.01
    J[7, 7] = -2.0
    return f, J


def _rk4(x: np.ndarray, u: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    k1, J1 = _rhs(x, u)
    k2, J2 = _rhs(x + 0.5 * dt * k1, u)
    k3, J3 = _rhs(x + 0.5 * dt * k2, u)
    k4, J4 = _rhs(x + dt * k3, u)
    lam = (J1.T + J2.T + J3.T + J4.T) @ np.ones(8)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), lam


def probe() -> float:
    """Seconds the fixed work takes on this host now."""
    t0 = perf_counter()
    x = np.array([0.0, 0.0, -0.05, -0.3, 3.0, 0.0, 5.6, 0.0], dtype=np.longdouble)
    for k in range(STEPS):
        x, _ = _rk4(x, 0.5 + 0.4 * math.sin(0.1 * k), 0.01)
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time at
    nominal host speed."""
    return NOMINAL_S / (0.5 * (before + after))
