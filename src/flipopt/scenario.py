"""Scenario definition: physical constants, presets, and nondimensional scaling.

All simulation and optimization code operates on nondimensional quantities
built from a reference length, velocity and mass.  This module owns the
dimensional configuration (loaded from JSON or from an embedded preset),
its validation, and the conversion to and from the nondimensional scales.

The JSON schema is one table, ``_SCHEMA``: a row per key gives its config
field, its JSON type, its unit conversion and the values the field
admits.  That table reads a scenario, writes it back and validates it.
``ScenarioConfig`` validates itself on construction, so every config that
exists is valid, and every error names the JSON key the user wrote.
``read_json`` and ``write_json`` are the package's one JSON reader and
writer; a file that cannot be read or parsed is a ScenarioError naming it.

Scaling conventions:
    length  -> L_ref          velocity -> v_ref        mass   -> m_ref
    time    -> L_ref / v_ref  force    -> m_ref v_ref^2 / L_ref
    moment  -> force * L_ref  inertia  -> m_ref L_ref^2
    angular rate -> v_ref / L_ref
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .optimizer import OptimizerConfig
from .rollout import GRAD_ENGINES, LossWeights, Trajectory

PRESET_NAMES = ("case1", "case2")
_PRESET_DIR = Path(__file__).with_name("presets")


class ScenarioError(ValueError):
    """Raised for unparseable scenario files or invariant violations."""


@dataclass(frozen=True)
class ReferenceQuantities:
    """Reference scales used for nondimensionalization (SI units)."""

    L_ref: float = 50.0          # vehicle length [m]
    v_ref: float = 335.57        # sea-level speed of sound [m/s]
    m_ref: float = 24000.0       # mass scale [kg]
    rho: float = 1.225           # air density [kg/m^3]
    g0: float = 9.80665          # standard gravity [m/s^2]

    @property
    def t_ref(self) -> float:
        """Time scale [s], always recomputed as L_ref / v_ref."""
        return self.L_ref / self.v_ref

    @property
    def force_scale(self) -> float:
        """Force scale [N] = m_ref v_ref^2 / L_ref."""
        return self.m_ref * self.v_ref**2 / self.L_ref

    @property
    def inertia_scale(self) -> float:
        """Moment-of-inertia scale [kg m^2]."""
        return self.m_ref * self.L_ref**2


@dataclass(frozen=True)
class VehicleParams:
    """Vehicle and actuator parameters (SI units, angles in rad)."""

    J_z: float = 1.25e7          # pitch moment of inertia [kg m^2]
    I_sp: float = 350.0          # specific impulse [s]
    m_wet: float = 135000.0      # wet mass [kg]
    m_dry: float = 120000.0      # dry mass [kg]
    l_cg_frac: float = 0.60      # cg location from nose tip, fraction of L_ref
    T_max: float = 2.3e6         # maximum thrust [N]
    throttle_min_frac: float = 0.25
    delta_max: float = math.radians(10.0)   # gimbal limit [rad]
    T_d: float = 0.1             # gimbal first-order lag time constant [s]
    eps_corr: float = 1.0        # aero force correction coefficient
    eta_corr: float = 1.0        # aero moment correction coefficient
    S_ref: float = 450.0         # reference (planform) area [m^2]


@dataclass(frozen=True)
class BoundaryConditions:
    """Initial and target states (SI units, angles in rad).

    ``a0`` is recorded for completeness but never enforced: acceleration
    is not a state variable of the simulated system.
    """

    r0: tuple[float, float] = (0.0, 0.0)
    v0: tuple[float, float] = (-18.82, -106.73)
    theta0: float = math.radians(170.0)
    omega0: float = 0.0
    a0: tuple[float, float] = (0.0, 0.0)
    r_f: tuple[float, float] = (-360.0, -1200.0)
    v_f: tuple[float, float] = (0.0, -0.1)
    theta_f: float = math.radians(90.0)
    omega_f: float = 0.0
    t_flip_max: float = 2.4      # pitch-transition deadline [s]


@dataclass(frozen=True)
class AeroConfig:
    """Which aerodynamic model the scenario uses."""

    kind: str = "simplified"     # "simplified" | "surrogate"
    C_D: float = 1.0             # drag coefficient of the simplified model
    l_cp_frac: float = 0.55      # center of pressure from nose, fraction of L_ref
    weights_path: str | None = None  # surrogate weights file; None -> train on load


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete dimensional scenario description."""

    refs: ReferenceQuantities = field(default_factory=ReferenceQuantities)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    bc: BoundaryConditions = field(default_factory=BoundaryConditions)
    K: int = 90                  # number of control steps
    t_f: float = 15.0            # rollout horizon [s]
    aero: AeroConfig = field(default_factory=AeroConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        _validate(self)


@dataclass(frozen=True)
class NondimScenario:
    """Scenario with every quantity scaled to nondimensional form.

    Immutable after construction; safe to share across threads.  The
    originating dimensional config is retained for I/O conversions.
    """

    config: ScenarioConfig
    g: float                     # gravity, g0 L_ref / v_ref^2
    c_ex: float                  # effective exhaust velocity, I_sp g0 / v_ref
    T_max: float
    T_min: float
    delta_max: float
    T_d: float
    J_z: float
    m_wet: float
    m_dry: float
    l_arm: float                 # cg-to-base moment arm, fraction of L_ref
    l_cg_frac: float
    eps_corr: float
    eta_corr: float
    q_coef: float                # 0.5 * rho_nd * S_nd, reused by every aero model
    K: int
    dt: float
    t_flip: float                # flip deadline in nondim time
    x0: np.ndarray               # initial state vector, see dynamics module
    r_f: np.ndarray
    v_f: np.ndarray
    theta_f: float
    omega_f: float
    weights: LossWeights
    opt: OptimizerConfig

    def __post_init__(self) -> None:
        self.x0.setflags(write=False)
        self.r_f.setflags(write=False)
        self.v_f.setflags(write=False)

    @property
    def refs(self) -> ReferenceQuantities:
        return self.config.refs


# ---------------------------------------------------------------------------
# JSON schema: one row per key reads, writes and validates its field
#
# Each JSON type has read(), which only normalises a well-typed JSON value
# into its field form (int to float, list to tuple) and passes anything
# else on unchanged, and admits(), which decides whether a field value has
# the right type and range.  So a mistyped value read from JSON and a bad
# value set in code both fail in admits(), when the config is built.
# ---------------------------------------------------------------------------

class _String:
    """A JSON string, one of ``choices`` if any are given."""

    def __init__(self, *choices: str) -> None:
        self.choices = choices
        self.what = " or ".join(map(repr, choices)) if choices else "a string"

    def read(self, raw: Any) -> Any:
        return raw

    def admits(self, x: Any) -> bool:
        return type(x) is str and (not self.choices or x in self.choices)


class _Number:
    """A JSON number; its field lies in an interval such as '(0, 1]'."""

    noun = "a number"

    def __init__(self, interval: str = "(-inf, inf)") -> None:
        self.what = f"{self.noun} in {interval}"
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        # step open ends one ulp inwards: lo <= x <= hi then decides
        # membership, and it is false for NaN and for an infinite open end
        self.lo = math.nextafter(lo, math.inf) if interval[0] == "(" else lo
        self.hi = math.nextafter(hi, -math.inf) if interval[-1] == ")" else hi

    def read(self, raw: Any) -> Any:
        # an int outside the interval (even beyond float range) stays an
        # int, which admits() rejects
        return float(raw) if type(raw) is int and self.lo <= raw <= self.hi else raw

    def admits(self, x: Any) -> bool:
        # a JSON true is a Python bool, a subclass of int, but not a number
        return (type(x) is float or type(x) is int) and self.lo <= x <= self.hi


class _Integer(_Number):
    noun = "an integer"

    def read(self, raw: Any) -> Any:
        return int(raw) if type(raw) is float and raw.is_integer() else raw

    def admits(self, x: Any) -> bool:
        return type(x) is int and self.lo <= x <= self.hi


class _Vector(_Number):
    noun = "a list of 2 numbers"

    def read(self, raw: Any) -> Any:
        return tuple(map(super().read, raw)) if type(raw) is list else raw

    def admits(self, x: Any) -> bool:
        return type(x) is tuple and len(x) == 2 and all(map(super().admits, x))


class _Nullable:
    """JSON null, read as None, or a value of ``inner``."""

    def __init__(self, inner: _String | _Number) -> None:
        self.inner = inner
        self.what = f"null or {inner.what}"

    def read(self, raw: Any) -> Any:
        return raw if raw is None else self.inner.read(raw)

    def admits(self, x: Any) -> bool:
        return x is None or self.inner.admits(x)


_DEGREES = (math.radians, math.degrees)   # (JSON -> field, field -> JSON)


@dataclass(frozen=True)
class _Key:
    """One key of the scenario JSON, the config field it sets and the values
    that field admits.  A unit conversion scales the field; it moves no
    bound of the intervals used."""

    section: str                 # enclosing JSON object; "" at the top level
    key: str
    field: str
    value: _String | _Number | _Nullable
    unit: tuple[Callable[[float], float], Callable[[float], float]] | None = None

    def error(self) -> ScenarioError:
        name = f"{self.section}.{self.key}" if self.section else self.key
        return ScenarioError(
            f"invalid scenario field '{name}': must be {self.value.what}")

    def read(self, raw: Any) -> Any:
        value = self.value.read(raw)
        return self.unit[0](value) if self.unit and type(value) is float else value

    def write(self, value: Any) -> Any:
        if self.unit is not None:
            value = self.unit[1](value)
        return list(value) if type(value) is tuple else value


_SCHEMA = (
    _Key("refs", "L_ref_m", "L_ref", _Number("(0, inf)")),
    _Key("refs", "v_ref_mps", "v_ref", _Number("(0, inf)")),
    _Key("refs", "m_ref_kg", "m_ref", _Number("(0, inf)")),
    _Key("refs", "rho_kgpm3", "rho", _Number("(0, inf)")),
    _Key("refs", "g0_mps2", "g0", _Number("(0, inf)")),
    _Key("vehicle", "J_z_kgm2", "J_z", _Number("(0, inf)")),
    _Key("vehicle", "I_sp_s", "I_sp", _Number("(0, inf)")),
    _Key("vehicle", "m_wet_kg", "m_wet", _Number("(0, inf)")),
    _Key("vehicle", "m_dry_kg", "m_dry", _Number("(0, inf)")),
    _Key("vehicle", "l_cg_frac", "l_cg_frac", _Number("(0, 1)")),
    _Key("vehicle", "T_max_N", "T_max", _Number("(0, inf)")),
    _Key("vehicle", "throttle_min_frac", "throttle_min_frac", _Number("(0, 1)")),
    _Key("vehicle", "delta_max_deg", "delta_max", _Number("(0, inf)"), _DEGREES),
    _Key("vehicle", "T_d_s", "T_d", _Number("(0, inf)")),
    _Key("vehicle", "eps_corr", "eps_corr", _Number()),
    _Key("vehicle", "eta_corr", "eta_corr", _Number()),
    _Key("vehicle", "S_ref_m2", "S_ref", _Number("(0, inf)")),
    _Key("bc", "r0_m", "r0", _Vector()),
    _Key("bc", "v0_mps", "v0", _Vector()),
    _Key("bc", "theta0_deg", "theta0", _Number(), _DEGREES),
    _Key("bc", "omega0_radps", "omega0", _Number()),
    _Key("bc", "a0_mps2", "a0", _Vector()),
    _Key("bc", "r_f_m", "r_f", _Vector()),
    _Key("bc", "v_f_mps", "v_f", _Vector()),
    _Key("bc", "theta_f_deg", "theta_f", _Number(), _DEGREES),
    _Key("bc", "omega_f_radps", "omega_f", _Number()),
    _Key("bc", "t_flip_max_s", "t_flip_max", _Number()),
    # K and n_steps end where a run can still allocate and finish
    _Key("", "K", "K", _Integer("[1, 100000]")),
    _Key("", "t_f_s", "t_f", _Number("(0, inf)")),
    _Key("aero", "kind", "kind", _String("simplified", "surrogate")),
    _Key("aero", "C_D", "C_D", _Number("[0, inf)")),
    _Key("aero", "l_cp_frac", "l_cp_frac", _Number("(0, 1)")),
    _Key("aero", "weights_path", "weights_path", _Nullable(_String())),
    *(_Key("loss_weights", f.name, f.name, _Number("[0, inf)"))
      for f in fields(LossWeights)),
    _Key("opt", "beta1", "beta1", _Number("[0, 1)")),
    _Key("opt", "beta2", "beta2", _Number("[0, 1)")),
    _Key("opt", "eps", "eps", _Number("(0, inf)")),
    _Key("opt", "lr_max", "lr_max", _Number()),    # lr_max >= lr_min > 0 below
    _Key("opt", "lr_min", "lr_min", _Number()),
    _Key("opt", "n_steps", "n_steps", _Integer("[1, 10000000]")),
    _Key("opt", "grad_engine", "grad_engine", _String(*GRAD_ENGINES)),
    _Key("opt", "log_every", "log_every", _Integer("[0, inf)")),   # 0: silent
    _Key("", "seed", "seed", _Integer("[0, inf)")),   # numpy takes seeds >= 0
)

# the rows by JSON object and key; the top level ("") comes first
_SECTIONS: dict[str, dict[str, _Key]] = {"": {}}
for _row in _SCHEMA:
    _SECTIONS.setdefault(_row.section, {})[_row.key] = _row
# the config class behind each nested object
_SECTION_TYPES = {f.name: f.default_factory for f in fields(ScenarioConfig)
                  if f.default_factory is not MISSING}


def _validate(cfg: ScenarioConfig) -> None:
    """Check every field against its row, then the two cross-field rules."""
    for section, rows in _SECTIONS.items():
        obj = getattr(cfg, section) if section else cfg
        for row in rows.values():
            if not row.value.admits(getattr(obj, row.field)):
                raise row.error()
    v, o = cfg.vehicle, cfg.opt
    if not v.m_dry < v.m_wet:
        raise ScenarioError(f"invalid scenario field 'vehicle.m_dry_kg': must be < "
                            f"vehicle.m_wet_kg ({v.m_dry} >= {v.m_wet})")
    if not o.lr_max >= o.lr_min > 0.0:
        raise ScenarioError("invalid scenario field 'opt.lr_max': "
                            "need opt.lr_max >= opt.lr_min > 0")


def scenario_from_dict(data: Any) -> ScenarioConfig:
    """Build a config from the JSON schema in ``_SCHEMA``.

    Every key is optional; an omitted key leaves its field at the default.
    A key the schema does not know, a value of the wrong JSON type and a
    value out of range are each an error naming the key, so nothing the
    data says is silently ignored or changed."""
    kwargs: dict[str, Any] = {}
    for section, rows in _SECTIONS.items():
        obj = data.get(section, {}) if section else data
        if not isinstance(obj, dict):
            raise ScenarioError(f"scenario key '{section}' must be an object"
                                if section else "a scenario must be a JSON object")
        values = {}
        for key, raw in obj.items():
            if key in rows:
                values[rows[key].field] = rows[key].read(raw)
            elif section or key not in _SECTIONS:
                prefix = f"{section}." if section else ""
                raise ScenarioError(f"unknown scenario key '{prefix}{key}'")
        if section:
            kwargs[section] = _SECTION_TYPES[section](**values)
        else:
            kwargs.update(values)
    return ScenarioConfig(**kwargs)


def scenario_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    """Serialize a config back to the JSON schema (exact round-trip)."""
    doc: dict[str, Any] = {}
    for row in _SCHEMA:
        obj = getattr(cfg, row.section) if row.section else cfg
        (doc.setdefault(row.section, {}) if row.section else doc)[row.key] = \
            row.write(getattr(obj, row.field))
    return doc


def _object(pairs: list) -> dict:
    """A JSON object; a repeated key raises ValueError, not the last wins."""
    if len(doc := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {max(keys, key=keys.count)!r}")
    return doc


def read_json(path, what: str) -> Any:
    """The JSON document in the UTF-8 file ``path``.  A syntax error gives
    its line and column; a file that cannot be read, is not UTF-8, nests
    too deep, holds too long an integer or repeats a key in an object
    "cannot read ``what``"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc


def write_json(path, doc: Any) -> None:
    """Write ``doc`` as UTF-8 JSON: indent 1, sorted keys, final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scenario(path_or_name: str) -> ScenarioConfig:
    """Load a scenario from a JSON file or a preset name (case1 / case2)."""
    path = (_PRESET_DIR / f"{path_or_name}.json" if path_or_name in PRESET_NAMES
            else path_or_name)
    return scenario_from_dict(read_json(path, "scenario file"))


# ---------------------------------------------------------------------------
# Nondimensionalization
# ---------------------------------------------------------------------------

def nondimensionalize(cfg: ScenarioConfig) -> NondimScenario:
    """Scale every dimensional quantity by the reference power products."""
    r, v, b = cfg.refs, cfg.vehicle, cfg.bc
    L, V, M = r.L_ref, r.v_ref, r.m_ref
    t_ref = r.t_ref
    F = r.force_scale

    x0 = np.array([
        b.r0[0] / L, b.r0[1] / L,
        b.v0[0] / V, b.v0[1] / V,
        b.theta0,
        b.omega0 * t_ref,
        v.m_wet / M,
        0.0,                       # lagged gimbal starts centered
    ])

    return NondimScenario(
        config=cfg,
        g=r.g0 * L / V**2,
        c_ex=v.I_sp * r.g0 / V,
        T_max=v.T_max / F,
        T_min=v.throttle_min_frac * v.T_max / F,
        delta_max=v.delta_max,
        T_d=v.T_d / t_ref,
        J_z=v.J_z / r.inertia_scale,
        m_wet=v.m_wet / M,
        m_dry=v.m_dry / M,
        l_arm=1.0 - v.l_cg_frac,
        l_cg_frac=v.l_cg_frac,
        eps_corr=v.eps_corr,
        eta_corr=v.eta_corr,
        q_coef=0.5 * (r.rho * L**3 / M) * (v.S_ref / L**2),
        K=cfg.K,
        dt=(cfg.t_f / cfg.K) / t_ref,
        t_flip=b.t_flip_max / t_ref,
        x0=x0,
        r_f=np.array([b.r_f[0] / L, b.r_f[1] / L]),
        v_f=np.array([b.v_f[0] / V, b.v_f[1] / V]),
        theta_f=b.theta_f,
        omega_f=b.omega_f * t_ref,
        weights=cfg.loss_weights,
        opt=cfg.opt,
    )


def redimensionalize(traj: Trajectory, refs: ReferenceQuantities) -> Trajectory:
    """Exact inverse of the rollout's nondimensional scaling, field by field.

    Produces a trajectory in SI units (positions m, velocities m/s, angular
    rate rad/s, mass kg, thrust N, time s).
    """
    L, V = refs.L_ref, refs.v_ref
    # x, y, u, v, theta, omega, m, delta_d
    scales = np.array([L, L, V, V, 1.0, 1.0 / refs.t_ref, refs.m_ref, 1.0])
    return replace(
        traj,
        states=traj.states * scales,
        thrust=traj.thrust * refs.force_scale,
        dt=traj.dt * refs.t_ref,
    )
