import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmbc.errors import ConfigError, TiedModeError
from swarmbc.theory import (
    GridDensity,
    concentration_report,
    gaussian_grid_density,
    mode_mass,
    power_density,
    uniform_grid_density,
)


def test_density_must_normalize():
    with pytest.raises(ConfigError):
        GridDensity(np.array([1.0, 1.0]), edge=1.0)  # integrates to 2
    GridDensity(np.array([0.5, 0.5]), edge=1.0)  # ok


def test_density_rejects_a_cell_edge_of_nan():
    with pytest.raises(ConfigError, match="cell edge must be > 0, got nan"):
        GridDensity(np.array([0.5, 0.5]), edge=float("nan"))


def test_from_unnormalized_normalizes():
    p = GridDensity.from_unnormalized(np.array([3.0, 1.0]), edge=0.5)
    assert p.values.sum() * 0.5 == pytest.approx(1.0, abs=1e-15)


def test_power_uniform_stays_uniform():
    p = uniform_grid_density(n_cells=51)
    for n in (1, 2, 7, 32):
        q = power_density(p, n)
        assert q.values == pytest.approx(p.values, rel=1e-12)


def test_power_two_cell_hand_example():
    # cell masses (0.6, 0.4); squaring gives (0.36, 0.16)/0.52
    p = GridDensity(np.array([0.6, 0.4]), edge=1.0)
    q = power_density(p, 2)
    assert q.values[0] == pytest.approx(0.36 / 0.52)
    assert q.values[1] == pytest.approx(0.16 / 0.52)


def test_power_one_is_identity():
    p = gaussian_grid_density()
    q = power_density(p, 1)
    assert np.array_equal(q.values, p.values)


def test_power_rejects_bad_exponent():
    with pytest.raises(ConfigError):
        power_density(uniform_grid_density(), 0)


def test_power_preserves_argmax():
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.uniform(0.01, 1.0, size=33)
        p = GridDensity.from_unnormalized(values, edge=0.1)
        for n in (2, 5, 17):
            q = power_density(p, n)
            assert np.argmax(q.values) == np.argmax(p.values)


def test_mode_mass_whole_grid_is_one():
    # odd cell count with the mode at the center: a window spanning the
    # grid length covers every cell
    p = gaussian_grid_density(n_cells=101, mean=0.0)
    assert mode_mass(p, tau=2.0) == pytest.approx(1.0, abs=1e-12)


def test_mode_mass_dirac_is_one_for_any_window():
    values = np.zeros(21)
    values[3] = 1.0
    p = GridDensity.from_unnormalized(values, edge=0.1)
    assert mode_mass(p, tau=0.1) == pytest.approx(1.0, abs=1e-15)
    assert mode_mass(p, tau=0.5) == pytest.approx(1.0, abs=1e-15)


def test_mode_mass_single_cell_window():
    p = GridDensity(np.array([0.6, 0.4]), edge=1.0)
    assert mode_mass(p, tau=1.0) == pytest.approx(0.6)


def test_mode_mass_rejects_ties():
    with pytest.raises(TiedModeError):
        mode_mass(uniform_grid_density(), tau=0.5)


def test_mode_mass_rejects_subcell_window():
    p = GridDensity(np.array([0.6, 0.4]), edge=1.0)
    with pytest.raises(ConfigError):
        mode_mass(p, tau=0.5)


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_mode_mass_rejects_a_window_that_is_not_finite(tau):
    p = gaussian_grid_density()
    text = f"window edge must be in [{p.edge}, inf), got {tau}"
    with pytest.raises(ConfigError, match=re.escape(text)):
        mode_mass(p, tau)


@pytest.mark.parametrize("build", [uniform_grid_density, gaussian_grid_density])
@pytest.mark.parametrize("n_cells", [-1, 0, 2])
def test_grid_builders_need_three_cells(build, n_cells):
    with pytest.raises(ConfigError, match=f"n_cells must be >= 3, got {n_cells}"):
        build(n_cells=n_cells)


@pytest.mark.parametrize("std", [0.0, -1.0, np.inf, np.nan])
def test_gaussian_grid_rejects_a_std_outside_zero_to_inf(std):
    with pytest.raises(ConfigError, match="std"):
        gaussian_grid_density(std=std)


@pytest.mark.parametrize("std", [2e-4, 1e-5, 1e-200, 5e-324])
def test_gaussian_grid_keeps_the_nearest_cell_for_a_tiny_std(std):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = gaussian_grid_density(std=std)
        assert mode_mass(p, tau=0.4) == pytest.approx(1.0, abs=1e-12)
    centers = -1.0 + p.edge * (np.arange(101) + 0.5)
    assert np.argmax(p.values) == np.argmin(np.abs(centers - 0.15))
    assert p.values.max() * p.edge == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kwargs", [{}, dict(std=0.05), dict(mean=-0.3, std=1.0)])
def test_gaussian_grid_matches_the_plain_formula(kwargs):
    p = gaussian_grid_density(**kwargs)
    mean, std = kwargs.get("mean", 0.15), kwargs.get("std", 0.25)
    centers = -1.0 + p.edge * (np.arange(101) + 0.5)
    plain = np.exp(-0.5 * ((centers - mean) / std) ** 2)
    np.testing.assert_allclose(p.values, plain / (plain.sum() * p.edge), rtol=1e-13)


def test_mode_mass_2d():
    values = np.ones((5, 5))
    values[2, 3] = 10.0
    p = GridDensity.from_unnormalized(values, edge=0.2)
    # window of one cell edge: just the peak cell
    expected = 10.0 / (24.0 + 10.0)
    assert mode_mass(p, tau=0.2) == pytest.approx(expected)


def test_gaussian_concentration_is_monotone_and_saturates():
    p = gaussian_grid_density()
    report = concentration_report(p, tau=0.4, n_list=(1, 2, 4, 8, 16, 32))
    masses = [m for _, m in report]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
    assert masses[-1] >= 0.99
    assert report[0][1] == pytest.approx(mode_mass(p, 0.4))


def test_concentration_large_n_approaches_one():
    p = gaussian_grid_density(n_cells=201, std=0.3)
    mass = mode_mass(power_density(p, 4096), tau=0.05)
    assert mass >= 1.0 - 1e-6


def test_concentration_report_validates_n_list():
    p = gaussian_grid_density()
    with pytest.raises(ConfigError):
        concentration_report(p, 0.4, [])
    with pytest.raises(ConfigError):
        concentration_report(p, 0.4, [0, 1])


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_power_output_always_normalized(seed, n):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=31)
    values[int(rng.integers(31))] += 1.0  # ensure at least one positive cell
    p = GridDensity.from_unnormalized(values, edge=0.25)
    q = power_density(p, n)
    assert q.values.sum() * q.cell_volume == pytest.approx(1.0, abs=1e-12)
