"""Scenario definition: physical constants, presets, and nondimensional scaling.

All simulation and optimization code operates on nondimensional quantities
built from a reference length, velocity and mass.  This module owns the
dimensional configuration (loaded from JSON or from an embedded preset),
its validation, and the conversion to and from the nondimensional scales.

Scaling conventions:
    length  -> L_ref          velocity -> v_ref        mass   -> m_ref
    time    -> L_ref / v_ref  force    -> m_ref v_ref^2 / L_ref
    moment  -> force * L_ref  inertia  -> m_ref L_ref^2
    angular rate -> v_ref / L_ref
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from operator import attrgetter
from typing import Any

import numpy as np

from .optimizer import OptimizerConfig
from .rollout import LossWeights, Trajectory

PRESET_NAMES = ("case1", "case2")


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
    def moment_scale(self) -> float:
        """Moment scale [N m]."""
        return self.force_scale * self.L_ref

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

    @property
    def dt(self) -> float:
        """Step size [s]; t_f is always dt * K by construction."""
        return self.t_f / self.K


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
    seed: int

    def __post_init__(self) -> None:
        self.x0.setflags(write=False)
        self.r_f.setflags(write=False)
        self.v_f.setflags(write=False)

    @property
    def refs(self) -> ReferenceQuantities:
        return self.config.refs


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _field_names(kind: type) -> tuple[str, ...]:
    """Dotted names of the config fields whose default is a ``kind``."""
    sections = (("refs", ReferenceQuantities), ("vehicle", VehicleParams),
                ("bc", BoundaryConditions), ("aero", AeroConfig),
                ("loss_weights", LossWeights), ("opt", OptimizerConfig))
    return tuple(f"{section}.{name}" for section, cls in sections
                 for name, value in vars(cls()).items() if isinstance(value, kind))


# float and 2-vector fields, read in one call each by the finiteness check
_SCALAR_FIELDS = _field_names(float)
_VECTOR_FIELDS = _field_names(tuple)
_get_scalars = attrgetter(*_SCALAR_FIELDS)
_get_vectors = attrgetter(*_VECTOR_FIELDS)


def _require(cond: bool, name: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"invalid scenario field '{name}': {msg}")


def validate_config(cfg: ScenarioConfig) -> None:
    """Check every invariant, naming the offending field on failure.

    Every float field must be finite; the other checks follow."""
    scalars = _get_scalars(cfg)
    vectors = _get_vectors(cfg)
    # one sum is non-finite if any entry is (or if large entries overflow)
    if not math.isfinite(sum(scalars) + sum(map(sum, vectors))):
        for name, value in zip(_SCALAR_FIELDS, scalars):
            _require(math.isfinite(value), name, "must be finite")
        for name, value in zip(_VECTOR_FIELDS, vectors):
            _require(all(map(math.isfinite, value)), name, "must be finite")
    clip = cfg.opt.grad_clip
    _require(clip is None or math.isfinite(clip), "opt.grad_clip", "must be finite")
    _require(math.isfinite(cfg.t_f), "t_f_s", "must be finite")
    r = cfg.refs
    for name in ("L_ref", "v_ref", "m_ref", "rho", "g0"):
        _require(getattr(r, name) > 0.0, f"refs.{name}", "must be strictly positive")
    v = cfg.vehicle
    _require(v.m_dry < v.m_wet, "m_dry", f"m_dry ({v.m_dry}) must be < m_wet ({v.m_wet})")
    _require(v.m_dry > 0.0, "m_dry", "must be positive")
    _require(0.0 < v.throttle_min_frac < 1.0, "throttle_min_frac", "must be in (0, 1)")
    _require(v.delta_max > 0.0, "delta_max", "must be positive")
    _require(v.T_d > 0.0, "T_d", "must be positive")
    _require(v.T_max > 0.0, "T_max", "must be positive")
    _require(v.J_z > 0.0, "J_z", "must be positive")
    _require(v.I_sp > 0.0, "I_sp", "must be positive")
    _require(0.0 < v.l_cg_frac < 1.0, "l_cg_frac", "must be in (0, 1)")
    _require(v.S_ref > 0.0, "S_ref", "must be positive")
    _require(cfg.K >= 1, "K", "must be >= 1")
    _require(cfg.t_f > 0.0, "t_f_s", "must be positive")
    _require(cfg.aero.kind in ("simplified", "surrogate"), "aero.kind",
             "must be 'simplified' or 'surrogate'")
    _require(cfg.aero.C_D >= 0.0, "aero.C_D", "must be >= 0")
    _require(0.0 < cfg.aero.l_cp_frac < 1.0, "aero.l_cp_frac", "must be in (0, 1)")
    w = cfg.loss_weights
    for name in ("w_r", "w_v", "w_theta", "w_omega", "w_smooth", "w_mass", "w_flip"):
        _require(getattr(w, name) >= 0.0, f"loss_weights.{name}", "must be >= 0")
    o = cfg.opt
    _require(0.0 <= o.beta1 < 1.0, "opt.beta1", "must be in [0, 1)")
    _require(0.0 <= o.beta2 < 1.0, "opt.beta2", "must be in [0, 1)")
    _require(o.lr_max >= o.lr_min > 0.0, "opt.lr_max", "need lr_max >= lr_min > 0")
    _require(o.n_steps >= 1, "opt.n_steps", "must be >= 1")
    _require(o.grad_engine in ("bptt", "adjoint"), "opt.grad_engine",
             "must be 'bptt' or 'adjoint'")


# ---------------------------------------------------------------------------
# JSON schema (all keys optional; unspecified fields keep defaults)
# ---------------------------------------------------------------------------

def scenario_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Build a validated config from the documented JSON schema.

    A key the schema does not know is an error at every level, so a
    misspelt key cannot silently leave its field at the default."""
    _reject_unknown_keys(data)
    try:
        refs = _refs_from(data.get("refs", {}))
        vehicle = _vehicle_from(data.get("vehicle", {}))
        bc = _bc_from(data.get("bc", {}))
        aero = _aero_from(data.get("aero", {}))
        weights = _weights_from(data.get("loss_weights", {}))
        opt = _opt_from(data.get("opt", {}))
        cfg = ScenarioConfig(
            refs=refs, vehicle=vehicle, bc=bc,
            K=int(data.get("K", ScenarioConfig.K)),
            t_f=float(data.get("t_f_s", ScenarioConfig.t_f)),
            aero=aero, loss_weights=weights, opt=opt,
            seed=int(data.get("seed", ScenarioConfig.seed)),
        )
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario data: {exc}") from exc
    validate_config(cfg)
    return cfg


def _refs_from(d: dict[str, Any]) -> ReferenceQuantities:
    base = ReferenceQuantities()
    return ReferenceQuantities(
        L_ref=float(d.get("L_ref_m", base.L_ref)),
        v_ref=float(d.get("v_ref_mps", base.v_ref)),
        m_ref=float(d.get("m_ref_kg", base.m_ref)),
        rho=float(d.get("rho_kgpm3", base.rho)),
        g0=float(d.get("g0_mps2", base.g0)),
    )


def _vehicle_from(d: dict[str, Any]) -> VehicleParams:
    base = VehicleParams()
    return VehicleParams(
        J_z=float(d.get("J_z_kgm2", base.J_z)),
        I_sp=float(d.get("I_sp_s", base.I_sp)),
        m_wet=float(d.get("m_wet_kg", base.m_wet)),
        m_dry=float(d.get("m_dry_kg", base.m_dry)),
        l_cg_frac=float(d.get("l_cg_frac", base.l_cg_frac)),
        T_max=float(d.get("T_max_N", base.T_max)),
        throttle_min_frac=float(d.get("throttle_min_frac", base.throttle_min_frac)),
        delta_max=math.radians(float(d["delta_max_deg"])) if "delta_max_deg" in d
        else base.delta_max,
        T_d=float(d.get("T_d_s", base.T_d)),
        eps_corr=float(d.get("eps_corr", base.eps_corr)),
        eta_corr=float(d.get("eta_corr", base.eta_corr)),
        S_ref=float(d.get("S_ref_m2", base.S_ref)),
    )


def _bc_from(d: dict[str, Any]) -> BoundaryConditions:
    base = BoundaryConditions()

    def vec(key: str, default: tuple[float, float]) -> tuple[float, float]:
        raw = d.get(key, default)
        return (float(raw[0]), float(raw[1]))

    return BoundaryConditions(
        r0=vec("r0_m", base.r0),
        v0=vec("v0_mps", base.v0),
        theta0=math.radians(float(d["theta0_deg"])) if "theta0_deg" in d else base.theta0,
        omega0=float(d.get("omega0_radps", base.omega0)),
        a0=vec("a0_mps2", base.a0),
        r_f=vec("r_f_m", base.r_f),
        v_f=vec("v_f_mps", base.v_f),
        theta_f=math.radians(float(d["theta_f_deg"])) if "theta_f_deg" in d else base.theta_f,
        omega_f=float(d.get("omega_f_radps", base.omega_f)),
        t_flip_max=float(d.get("t_flip_max_s", base.t_flip_max)),
    )


def _aero_from(d: dict[str, Any]) -> AeroConfig:
    base = AeroConfig()
    return AeroConfig(
        kind=str(d.get("kind", base.kind)),
        C_D=float(d.get("C_D", base.C_D)),
        l_cp_frac=float(d.get("l_cp_frac", base.l_cp_frac)),
        weights_path=d.get("weights_path", base.weights_path),
    )


def _weights_from(d: dict[str, Any]) -> LossWeights:
    base = LossWeights()
    kwargs = {name: float(d.get(name, getattr(base, name)))
              for name in ("w_r", "w_v", "w_theta", "w_omega",
                           "w_smooth", "w_mass", "w_flip")}
    return LossWeights(**kwargs)


def _opt_from(d: dict[str, Any]) -> OptimizerConfig:
    base = OptimizerConfig()
    clip = d.get("grad_clip", base.grad_clip)
    return OptimizerConfig(
        beta1=float(d.get("beta1", base.beta1)),
        beta2=float(d.get("beta2", base.beta2)),
        eps=float(d.get("eps", base.eps)),
        lr_max=float(d.get("lr_max", base.lr_max)),
        lr_min=float(d.get("lr_min", base.lr_min)),
        n_steps=int(d.get("n_steps", base.n_steps)),
        grad_engine=str(d.get("grad_engine", base.grad_engine)),
        log_every=int(d.get("log_every", base.log_every)),
        grad_clip=None if clip is None else float(clip),
    )


def scenario_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    """Serialize a config back to the JSON schema (exact round-trip)."""
    r, v, b = cfg.refs, cfg.vehicle, cfg.bc
    return {
        "refs": {"L_ref_m": r.L_ref, "v_ref_mps": r.v_ref, "m_ref_kg": r.m_ref,
                 "rho_kgpm3": r.rho, "g0_mps2": r.g0},
        "vehicle": {"J_z_kgm2": v.J_z, "I_sp_s": v.I_sp, "m_wet_kg": v.m_wet,
                    "m_dry_kg": v.m_dry, "l_cg_frac": v.l_cg_frac,
                    "T_max_N": v.T_max, "throttle_min_frac": v.throttle_min_frac,
                    "delta_max_deg": math.degrees(v.delta_max), "T_d_s": v.T_d,
                    "eps_corr": v.eps_corr, "eta_corr": v.eta_corr,
                    "S_ref_m2": v.S_ref},
        "bc": {"r0_m": list(b.r0), "v0_mps": list(b.v0),
               "theta0_deg": math.degrees(b.theta0), "omega0_radps": b.omega0,
               "a0_mps2": list(b.a0), "r_f_m": list(b.r_f), "v_f_mps": list(b.v_f),
               "theta_f_deg": math.degrees(b.theta_f), "omega_f_radps": b.omega_f,
               "t_flip_max_s": b.t_flip_max},
        "K": cfg.K,
        "t_f_s": cfg.t_f,
        "aero": {"kind": cfg.aero.kind, "C_D": cfg.aero.C_D,
                 "l_cp_frac": cfg.aero.l_cp_frac,
                 "weights_path": cfg.aero.weights_path},
        "loss_weights": {name: getattr(cfg.loss_weights, name)
                         for name in ("w_r", "w_v", "w_theta", "w_omega",
                                      "w_smooth", "w_mass", "w_flip")},
        "opt": {"beta1": cfg.opt.beta1, "beta2": cfg.opt.beta2, "eps": cfg.opt.eps,
                "lr_max": cfg.opt.lr_max, "lr_min": cfg.opt.lr_min,
                "n_steps": cfg.opt.n_steps, "grad_engine": cfg.opt.grad_engine,
                "log_every": cfg.opt.log_every, "grad_clip": cfg.opt.grad_clip},
        "seed": cfg.seed,
    }


# every key of the schema, nested as in the JSON; a nested object is a section
_SCHEMA = scenario_to_dict(ScenarioConfig())
_SECTIONS = tuple(key for key, value in _SCHEMA.items() if isinstance(value, dict))


def _reject_unknown_keys(data: dict[str, Any]) -> None:
    levels = [("", data, _SCHEMA)]
    for section in _SECTIONS:
        value = data.get(section, {})
        if not isinstance(value, dict):
            raise ScenarioError(f"scenario key '{section}' must be an object")
        levels.append((section + ".", value, _SCHEMA[section]))
    for prefix, d, schema in levels:
        if not d.keys() <= schema.keys():
            raise ScenarioError("unknown scenario key "
                                f"'{prefix}{min(d.keys() - schema.keys())}'")


def load_scenario(path_or_name: str) -> ScenarioConfig:
    """Load a scenario from a JSON file or a preset name (case1 / case2)."""
    if path_or_name in PRESET_NAMES:
        text = resources.files("flipopt.presets").joinpath(
            f"{path_or_name}.json").read_text()
        source = f"preset '{path_or_name}'"
    else:
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
        source = path_or_name
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{source}: JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: top-level JSON value must be an object")
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# Nondimensionalization
# ---------------------------------------------------------------------------

def nondimensionalize(cfg: ScenarioConfig) -> NondimScenario:
    """Scale every dimensional quantity by the reference power products."""
    validate_config(cfg)
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
        seed=cfg.seed,
    )


_STATE_SCALE_KEYS = ("L", "L", "V", "V", "1", "W", "M", "1")


def state_scales(refs: ReferenceQuantities) -> np.ndarray:
    """Per-field multipliers turning a nondim state vector into SI units."""
    lut = {"L": refs.L_ref, "V": refs.v_ref, "1": 1.0,
           "W": 1.0 / refs.t_ref, "M": refs.m_ref}
    return np.array([lut[k] for k in _STATE_SCALE_KEYS])


def redimensionalize(traj: Trajectory, refs: ReferenceQuantities) -> Trajectory:
    """Exact inverse of the rollout's nondimensional scaling, field by field.

    Produces a trajectory in SI units (positions m, velocities m/s, angular
    rate rad/s, mass kg, forces N, moments N m, time s).
    """
    scales = state_scales(refs)
    aero = traj.aero.copy()
    aero[:, 0:2] *= refs.force_scale
    aero[:, 2] *= refs.moment_scale
    return replace(
        traj,
        states=traj.states * scales,
        thrust=traj.thrust * refs.force_scale,
        aero=aero,
        dt=traj.dt * refs.t_ref,
    )


def nondimensionalize_trajectory(traj: Trajectory,
                                 refs: ReferenceQuantities) -> Trajectory:
    """Inverse of :func:`redimensionalize` (SI trajectory back to nondim)."""
    scales = state_scales(refs)
    aero = traj.aero.copy()
    aero[:, 0:2] /= refs.force_scale
    aero[:, 2] /= refs.moment_scale
    return replace(
        traj,
        states=traj.states / scales,
        thrust=traj.thrust / refs.force_scale,
        aero=aero,
        dt=traj.dt / refs.t_ref,
    )
