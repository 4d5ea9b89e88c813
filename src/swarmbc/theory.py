"""Numerical demonstration that powering a density concentrates its mass.

Discretize a bounded 1-D or 2-D density on a regular grid, raise it
elementwise to the N-th power, renormalize, and watch the probability mass
inside a fixed window around the global mode climb toward 1 as N grows.
This is the grid version of the claim that sampling N agreeing draws is
equivalent to sampling from p^N / integral(p^N), which collapses onto the
unique global mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TiedModeError, check_range

NORMALIZATION_TOL = 1e-12
LOW, HIGH = -1.0, 1.0  # the domain of the built-in grid densities


@dataclass
class GridDensity:
    """Non-negative values on a regular grid; integrates to 1.

    ``values`` is 1-D or 2-D; ``edge`` is the cell edge length, so the cell
    volume is ``edge ** ndim``.
    """

    values: np.ndarray
    edge: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2):
            raise ConfigError("grid densities must be 1-D or 2-D")
        check_range("cell edge", self.edge, 0, above=True)
        if np.any(self.values < 0):
            raise ConfigError("density values must be non-negative")
        if not np.any(self.values > 0):
            raise ConfigError("density must have at least one positive cell")
        total = self.values.sum() * self.cell_volume
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ConfigError(
                f"density integrates to {total!r}, expected 1 within "
                f"{NORMALIZATION_TOL}"
            )

    @property
    def cell_volume(self) -> float:
        return self.edge**self.values.ndim

    @classmethod
    def from_unnormalized(cls, values, edge) -> "GridDensity":
        values = np.asarray(values, dtype=np.float64)
        total = values.sum() * edge ** values.ndim
        if total <= 0:
            raise ConfigError("cannot normalize an all-zero density")
        return cls(values / total, edge)


def power_density(p: GridDensity, n: int) -> GridDensity:
    """Elementwise N-th power, renormalized. Computed in the log domain so
    large N cannot underflow away the mode."""
    check_range("power", n, 1)
    if n == 1:
        return GridDensity(p.values.copy(), p.edge)
    with np.errstate(divide="ignore"):
        logs = n * np.log(p.values)
    shifted = np.exp(logs - logs.max())
    total = shifted.sum() * p.cell_volume
    if total <= 0:
        raise ConfigError("density vanished after powering")
    return GridDensity(shifted / total, p.edge)


def _mode_index(p: GridDensity):
    peak = p.values.max()
    ties = np.argwhere(p.values == peak)
    if len(ties) > 1:
        raise TiedModeError(
            f"{len(ties)} cells tie for the global maximum; mode mass needs "
            "a unique mode"
        )
    return tuple(ties[0])


def mode_mass(p: GridDensity, tau: float) -> float:
    """Probability mass inside the hypercube window of edge ``tau`` centered
    on the unique argmax cell."""
    check_range("window edge", tau, p.edge, math.inf)
    mode = _mode_index(p)
    # cells whose centers fall inside the window: |i - i_mode| * edge <= tau/2
    radius = int(np.floor(tau / (2.0 * p.edge) + 1e-9))
    slices = tuple(
        slice(max(0, m - radius), min(size, m + radius + 1))
        for m, size in zip(mode, p.values.shape)
    )
    return float(p.values[slices].sum() * p.cell_volume)


def concentration_report(p: GridDensity, tau: float, n_list):
    """Sweep the power and report ``[(N, mode_mass), ...]``."""
    n_list = [check_range("power", int(n), 1) for n in n_list]
    if not n_list:
        raise ConfigError("n_list must be non-empty")
    return [(n, mode_mass(power_density(p, n), tau)) for n in n_list]


def _grid_edge(n_cells: int) -> float:
    """The cell edge of a grid of ``n_cells`` cells on [LOW, HIGH]."""
    check_range("n_cells", n_cells, 3)
    return (HIGH - LOW) / n_cells


def gaussian_grid_density(n_cells: int = 101, mean: float = 0.15,
                          std: float = 0.25) -> GridDensity:
    """Truncated-Gaussian grid density on [LOW, HIGH] with a single interior
    mode; the built-in example for the concentration demo."""
    edge = _grid_edge(n_cells)
    check_range("mean", mean, LOW, HIGH, above=True)
    check_range("std", std, 0, math.inf, above=True)
    dist = np.abs(LOW + edge * (np.arange(n_cells) + 0.5) - mean)
    near = dist.min()
    # (dist**2 - near**2) / std**2, factored and taken left to right so that the
    # nearest cell's exponent is exactly 0 (never 0 * inf) and a tiny std
    # overflows only far cells, to exp(-inf) = 0
    with np.errstate(over="ignore"):
        values = np.exp(-0.5 * ((dist - near) / std * (dist + near) / std))
    return GridDensity.from_unnormalized(values, edge)


def uniform_grid_density(n_cells: int = 101) -> GridDensity:
    """All cells equal on [LOW, HIGH]: powering changes nothing, and every
    maximum ties."""
    edge = _grid_edge(n_cells)
    return GridDensity.from_unnormalized(np.ones(n_cells), edge)
