import math

import pytest

from latcsim import ChannelParams
from latcsim.scenario import build_scene, load_scenario


@pytest.fixture(scope="session")
def default_scenario():
    scenario, _ = load_scenario("default")
    return scenario


@pytest.fixture(scope="session")
def default_scene(default_scenario):
    """Default room with its codebook."""
    return build_scene(default_scenario)


@pytest.fixture(scope="session")
def five_ue_scenario():
    scenario, _ = load_scenario("five-ue")
    return scenario


@pytest.fixture()
def noiseless_params():
    return ChannelParams(
        k_ratio=math.inf, noise_std_w=0.0, detection_threshold_w=1e-12, seed=123
    )
