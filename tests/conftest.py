import pytest
from dataclasses import replace

import flipopt as fo
import flipopt.aero as am
import flipopt.cli as cli
import flipopt.rollout as ro


def truncate(cfg: fo.ScenarioConfig, K: int) -> fo.ScenarioConfig:
    """Shorten the horizon to K steps keeping dt fixed."""
    dt = cfg.t_f / cfg.K
    return replace(cfg, K=K, t_f=dt * K)


@pytest.fixture(scope="session")
def case1_cfg():
    return fo.load_scenario("case1")


@pytest.fixture(scope="session")
def case2_cfg():
    return fo.load_scenario("case2")


@pytest.fixture(scope="session")
def case1_scn(case1_cfg):
    return fo.nondimensionalize(case1_cfg)


@pytest.fixture(scope="session")
def case2_scn(case2_cfg):
    return fo.nondimensionalize(case2_cfg)


@pytest.fixture(scope="session")
def surrogate(case2_cfg):
    """The trained aero surrogate used by every case2-style test."""
    return am.train_surrogate(am.generate_dataset(36), seed=case2_cfg.seed)


@pytest.fixture(scope="session")
def simplified():
    return am.SimplifiedAero(C_D=1.0)


# the seeded start of check-grad: the hover start plus N(0, 0.5) draws
random_raw = cli._random_raw


def spy_engines(monkeypatch) -> list[str]:
    """Wrap each ``rollout.grad_<name>`` so that every call appends its
    name to the returned list; ``optimizer._engine_fn`` looks the engine
    up at call time, so the optimizer's calls count."""
    calls: list[str] = []
    for name in ro.GRAD_ENGINES:
        def spy(*args, _name=name, _engine=getattr(ro, f"grad_{name}")):
            calls.append(_name)
            return _engine(*args)
        monkeypatch.setattr(ro, f"grad_{name}", spy)
    return calls
