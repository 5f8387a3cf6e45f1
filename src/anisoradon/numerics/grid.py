"""Periodic tensor grids used by every discretized operator.

The domain is the torus [-L, L]^n sampled at midpoints (no node sits at the
origin, so dyadic shells near zero are always sampled).  Discrete frequencies
are the standard DFT set scaled by pi/L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """A periodic grid on [-half_width, half_width]^dim."""

    dim: int
    points_per_axis: int
    half_width: float = 2.0

    def __post_init__(self):
        n = self.points_per_axis
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two >= 8")
        try:
            volume = self.cell_volume
        except OverflowError:
            volume = math.inf
        if not (0 < self.half_width < math.inf and 0 < volume < math.inf):
            raise ValueError(f"half_width {self.half_width} must be positive "
                             "and finite, with a positive finite cell volume")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def nodes(self) -> np.ndarray:
        """1D midpoint nodes, shared by every axis."""
        n, h = self.points_per_axis, self.spacing
        return -self.half_width + (np.arange(n) + 0.5) * h

    def frequencies(self) -> np.ndarray:
        """1D discrete frequencies in FFT order: (pi/L) * {0, 1, ..., -1}."""
        n = self.points_per_axis
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)

    @property
    def max_frequency(self) -> float:
        """Largest representable frequency magnitude, (pi/L) * (N/2)."""
        return np.pi * (self.points_per_axis // 2) / self.half_width

    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim
