"""The range rule's refusal text, in each of its four forms, through the
settings that use it."""

import math

import pytest

from swarmbc.ensemble import TrainConfig
from swarmbc.errors import ConfigError, check_range
from swarmbc.harness import ExperimentConfig
from swarmbc.theory import GridDensity, gaussian_grid_density, mode_mass


@pytest.mark.parametrize("make, text", [
    (lambda: ExperimentConfig(n_seeds=0), "n_seeds must be >= 1, got 0"),
    (lambda: ExperimentConfig(eval_episodes=0), "eval_episodes must be >= 1, got 0"),
    (lambda: TrainConfig(hidden_dims=(4, 0)), "hidden_dims width must be >= 1, got 0"),
    (lambda: GridDensity([1.0], edge=0.0), "cell edge must be > 0, got 0.0"),
    (lambda: mode_mass(GridDensity([0.6, 0.4], edge=1.0), 0.5),
     "window edge must be in [1.0, inf), got 0.5"),
    (lambda: gaussian_grid_density(mean=2.0), "mean must be in (-1.0, 1.0), got 2.0"),
])
def test_a_value_out_of_range_is_refused_naming_the_setting_range_and_value(make, text):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == text


@pytest.mark.parametrize("low, high, above", [(0, None, False), (0, None, True),
                                              (0, math.inf, False), (0, math.inf, True)])
def test_nan_lies_in_no_range(low, high, above):
    with pytest.raises(ConfigError, match="got nan"):
        check_range("x", math.nan, low, high, above)
    assert check_range("x", 1, low, high, above) == 1
