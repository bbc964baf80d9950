"""Uniform time grids.

All simulation and training code in this package runs on a uniform grid
``t_k = k*dt`` for ``k = 0..n_steps``.  The grid object carries the step
count and spacing; node coordinates are derived, never stored, so two grids
with equal ``(dt, n_steps)`` produce bitwise-identical time axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on ``[0, n_steps*dt]`` with ``n_steps`` steps of width ``dt``."""

    n_steps: int
    dt: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.dt > 0.0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    @property
    def n_points(self) -> int:
        """Number of grid nodes, including both endpoints."""
        return self.n_steps + 1

    def times(self) -> np.ndarray:
        """All node coordinates ``0, dt, ..., n_steps*dt`` (length ``n_points``)."""
        return self.dt * np.arange(self.n_points)

    def step_times(self) -> np.ndarray:
        """Left endpoints of each step (length ``n_steps``)."""
        return self.dt * np.arange(self.n_steps)


def unit_grid(n_steps: int) -> TimeGrid:
    """Grid over [0, 1] with ``n_steps`` equal steps."""
    return TimeGrid(n_steps=n_steps, dt=1.0 / n_steps)
