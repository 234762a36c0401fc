import math
import warnings

import numpy as np
import pytest

from grpsel.errors import ConfigError
from grpsel.scenarios import ScenarioSpec, make_scenario, scenario_truth


def test_figure1_shape_and_norms():
    sizes, beta = scenario_truth(ScenarioSpec(name="figure1"))
    assert len(sizes) == 20
    assert sizes.sum() == 59
    assert sizes[0] == 2 and np.all(sizes[1:] == 3)
    assert np.linalg.norm(beta[:2]) == pytest.approx(2.0)
    assert np.linalg.norm(beta[2:5]) == pytest.approx(math.sqrt(1.5))
    assert np.all(beta[5:] == 0.0)
    data = make_scenario(ScenarioSpec(name="figure1", n=50, seed=1))
    assert data.X.shape == (50, 59)
    assert data.support == (0, 1)
    assert len(data.column_names) == 59


def test_figure3_truth():
    data = make_scenario(ScenarioSpec(name="figure3", n=30, seed=2))
    np.testing.assert_array_equal(data.beta_true, [1, 1, 0, 0, 0, -1])
    assert data.support == (0, 1)


def test_zero_noise_is_exact_linear_model():
    data = make_scenario(ScenarioSpec(name="figure3", n=40, sigma=0.0, seed=3))
    np.testing.assert_array_equal(data.y, data.X @ data.beta_true)


def test_seed_reproducibility_and_correlation():
    a = make_scenario(ScenarioSpec(name="figure1", n=25, seed=9, correlation=0.4))
    b = make_scenario(ScenarioSpec(name="figure1", n=25, seed=9, correlation=0.4))
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    big = make_scenario(ScenarioSpec(name="figure1", n=4000, seed=9,
                                     correlation=0.6))
    corr = np.corrcoef(big.X[:, 0], big.X[:, 30])[0, 1]
    assert corr == pytest.approx(0.6, abs=0.06)


def test_custom_scenario_and_validation():
    spec = ScenarioSpec(name="custom", n=20, sigma=0.1, seed=4,
                        group_sizes=(2, 2), beta=(1.0, 0.0, 0.0, 0.0))
    data = make_scenario(spec)
    assert data.X.shape == (20, 4)
    assert data.support == (0,)
    with pytest.raises(ConfigError):
        ScenarioSpec(name="custom", n=20)
    with pytest.raises(ConfigError):
        ScenarioSpec(name="figure1", correlation=1.0)
    with pytest.raises(ConfigError, match="^seed must be at least 0"):
        ScenarioSpec(name="figure1", seed=-3)
    with pytest.raises(ConfigError):
        ScenarioSpec(name="unknown")
    with pytest.raises(ConfigError):
        make_scenario(ScenarioSpec(name="custom", group_sizes=(2,), beta=(1.0,)))


def test_custom_scenario_refuses_a_response_that_overflows():
    # finite coefficients whose products with X overflow would give an inf y
    spec = ScenarioSpec(name="custom", n=40, group_sizes=(2,), beta=(1e308, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="not finite"):
            make_scenario(spec)
        # a response that stays finite, from a beta whose norm overflows
        data = make_scenario(ScenarioSpec(name="custom", n=40, group_sizes=(2, 1),
                                          beta=(1e200, 1e200, 0.0)))
    assert np.all(np.isfinite(data.y)) and data.support == (0,)
