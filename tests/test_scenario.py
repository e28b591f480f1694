import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import flipopt as fo
import flipopt.rollout as ro
from flipopt import scenario as sc


# Table-of-parameters values both presets must reproduce exactly.
COMMON = {
    "I_sp_s": 350.0, "m_wet_kg": 135000.0, "m_dry_kg": 120000.0,
    "l_cg_frac": 0.60, "T_max_N": 2.3e6, "throttle_min_frac": 0.25,
    "delta_max_deg": 10.0,
}


@pytest.mark.parametrize("name,J_z,r_f", [
    ("case1", 1.25e7, [-360.0, -1200.0]),
    ("case2", 3.2e7, [-287.5, -750.0]),
])
def test_presets_reproduce_parameter_table(name, J_z, r_f):
    cfg = fo.load_scenario(name)
    doc = sc.scenario_to_dict(cfg)
    assert doc["vehicle"]["J_z_kgm2"] == J_z
    assert doc["bc"]["r_f_m"] == r_f
    for key, val in COMMON.items():
        assert doc["vehicle"][key] == val
    assert doc["refs"]["L_ref_m"] == 50.0
    assert doc["refs"]["v_ref_mps"] == 335.57
    assert doc["refs"]["m_ref_kg"] == 24000.0
    assert doc["bc"]["theta0_deg"] == 170.0
    assert doc["bc"]["theta_f_deg"] == 90.0
    assert doc["bc"]["r0_m"] == [0.0, 0.0]
    assert doc["bc"]["v0_mps"] == [-18.82, -106.73]
    assert doc["bc"]["v_f_mps"] == [0.0, -0.1]
    assert doc["bc"]["a0_mps2"] == [0.0, 0.0]
    assert doc["bc"]["omega0_radps"] == 0.0
    assert doc["bc"]["omega_f_radps"] == 0.0
    assert doc["bc"]["t_flip_max_s"] == 2.4
    assert doc["K"] == 90


@pytest.mark.parametrize("cfg", [
    fo.load_scenario("case1"),
    fo.load_scenario("case2"),
    sc.ScenarioConfig(aero=sc.AeroConfig(kind="surrogate", weights_path="w.json")),
], ids=["case1", "case2", "nullables-set"])
def test_dict_round_trip_is_exact(cfg):
    doc = sc.scenario_to_dict(cfg)
    again = sc.scenario_from_dict(json.loads(json.dumps(doc)))
    assert again == cfg


def test_json_numbers_take_the_field_type():
    # a manifest records the scenario as read, so 1 and 1.0 must write alike
    doc = sc.scenario_to_dict(sc.scenario_from_dict(
        {"vehicle": {"J_z_kgm2": 20000000}, "bc": {"r0_m": [1, 2]}, "K": 1e2}))
    assert json.dumps([doc["vehicle"]["J_z_kgm2"], doc["bc"]["r0_m"], doc["K"]]) \
        == "[20000000.0, [1.0, 2.0], 100]"


def test_readme_schema_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario JSON schema")[1].split("```jsonc")[1]
    doc = json.loads(re.sub(r"//[^\n]*", "", block.split("```")[0]))

    def keys(d, prefix=""):
        return {k for key, value in d.items() for k in
                (keys(value, f"{prefix}{key}.") if isinstance(value, dict)
                 else [prefix + key])}

    assert keys(doc) == keys(sc.scenario_to_dict(sc.ScenarioConfig()))


def test_unspecified_fields_take_defaults():
    cfg = sc.scenario_from_dict({"vehicle": {"J_z_kgm2": 2e7}})
    assert cfg.vehicle.J_z == 2e7
    assert cfg.vehicle.I_sp == 350.0
    assert cfg.K == 90
    assert cfg.t_f == 15.0  # library default horizon


def test_mass_order_violation_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"vehicle": {"m_dry_kg": 140000.0, "m_wet_kg": 135000.0}}))
    with pytest.raises(fo.ScenarioError, match="m_dry"):
        fo.load_scenario(str(path))


def test_parse_failure_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "K": 90,\n "t_f_s": oops\n}')
    with pytest.raises(fo.ScenarioError, match="line 3"):
        fo.load_scenario(str(path))


@pytest.mark.parametrize("patch,field", [
    ({"vehicle": {"throttle_min_frac": 1.5}}, "throttle_min_frac"),
    ({"vehicle": {"T_d_s": 0.0}}, "T_d"),
    ({"K": 0}, "K"),
    ({"aero": {"kind": "cfd"}}, "aero.kind"),
    ({"opt": {"lr_min": 0.0}}, "opt.lr_max"),
    ({"opt": {"beta1": 1.0}}, "opt.beta1"),
    ({"opt": {"eps": 0.0}}, "opt.eps"),
    ({"K": 100_001}, "K"),
    ({"opt": {"n_steps": 10_000_001}}, "opt.n_steps"),
])
def test_invariant_violations_are_named(patch, field):
    with pytest.raises(fo.ScenarioError, match=field.replace(".", r"\.")):
        sc.scenario_from_dict(patch)


def test_nondimensional_reference_identities(case1_scn):
    refs = case1_scn.refs
    assert 50.0 / refs.L_ref == 1.0
    assert 335.57 / refs.v_ref == 1.0
    # gravity scale, cross-checked by redimensionalizing
    assert case1_scn.g == pytest.approx(9.80665 * 50.0 / 335.57**2, rel=1e-15)
    assert case1_scn.g * refs.v_ref**2 / refs.L_ref == pytest.approx(
        9.80665, rel=1e-12)
    # t_ref is always the derived ratio
    assert refs.t_ref == refs.L_ref / refs.v_ref


def test_dt_times_K_is_horizon(case1_cfg):
    scn = fo.nondimensionalize(case1_cfg)
    t_ref = case1_cfg.refs.t_ref
    assert scn.dt * scn.K * t_ref == pytest.approx(case1_cfg.t_f, rel=1e-12)


def test_final_position_scaling(case1_scn):
    # -1200 m is -24 vehicle lengths
    assert case1_scn.r_f[1] == pytest.approx(-24.0, rel=1e-15)
    assert case1_scn.r_f[1] * case1_scn.refs.L_ref == pytest.approx(-1200.0)


def test_initial_state_from_table(case1_scn):
    x0 = case1_scn.x0
    assert x0[4] == pytest.approx(math.radians(170.0), rel=1e-15)
    assert x0[2] == pytest.approx(-18.82 / 335.57, rel=1e-15)
    assert x0[3] == pytest.approx(-106.73 / 335.57, rel=1e-15)
    assert x0[5] == 0.0
    assert x0[6] == pytest.approx(135000.0 / 24000.0, rel=1e-15)
    assert x0[7] == 0.0


def _toy_trajectory(scn) -> ro.Trajectory:
    rng = np.random.default_rng(0)
    K = 5
    states = rng.normal(size=(K + 1, 8))
    states[:, 6] = np.abs(states[:, 6]) + 4.0
    return ro.Trajectory(
        states=states, thrust=np.abs(rng.normal(size=K)),
        delta_cmd=rng.normal(size=K) * 0.1, dt=float(scn.dt))


def test_redimensionalize_round_trip(case1_scn):
    traj = _toy_trajectory(case1_scn)
    si = fo.redimensionalize(traj, case1_scn.refs)
    # x, y in m; u, v in m/s; theta; omega in rad/s; m in kg; delta_d
    scales = [50.0, 50.0, 335.57, 335.57, 1.0, 335.57 / 50.0, 24000.0, 1.0]
    np.testing.assert_allclose(si.states / scales, traj.states, rtol=1e-12)
    np.testing.assert_allclose(si.thrust / (24000.0 * 335.57**2 / 50.0),
                               traj.thrust, rtol=1e-12)
    assert si.dt / (50.0 / 335.57) == pytest.approx(traj.dt, rel=1e-12)


def test_redimensionalize_units(case1_scn):
    traj = _toy_trajectory(case1_scn)
    si = fo.redimensionalize(traj, case1_scn.refs)
    refs = case1_scn.refs
    assert si.states[0, 0] == pytest.approx(traj.states[0, 0] * 50.0)
    assert si.states[0, 2] == pytest.approx(traj.states[0, 2] * 335.57)
    assert si.states[0, 6] == pytest.approx(traj.states[0, 6] * 24000.0)
    # nondim speed 1.0 is the reference speed
    assert 1.0 * refs.v_ref == 335.57


def test_unknown_preset_rejected():
    with pytest.raises(fo.ScenarioError):
        fo.load_scenario("/nonexistent/path.json")
