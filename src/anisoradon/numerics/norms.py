"""Operator norms of discretized pieces and dyadic decay fits.

Matrices act on grid values directly, so the natural quadrature-weighted
(p, q) norms reduce to matrix quantities with all cell volumes cancelling
except one:

  (1,1):     max column absolute sum,
  (inf,inf): max row absolute sum,
  (1,inf):   max absolute entry divided by the cell volume,
  (2,2):     largest singular value (power iteration on A^T A).

The first three are read off ``ComposedOperator.abs_stats``, which a
composite computes once however many of them are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NumericalError
from .operators import ComposedOperator, FourierMultiplier

_PAIR_ALIASES = {
    "11": "11", "(1,1)": "11",
    "oooo": "oooo", "(inf,inf)": "oooo", "(oo,oo)": "oooo",
    "1oo": "1oo", "(1,inf)": "1oo", "(1,oo)": "1oo",
    "22": "22", "(2,2)": "22",
}


def normalize_pair(pair: str) -> str:
    try:
        return _PAIR_ALIASES[pair]
    except KeyError:
        raise ValueError(f"unknown norm pair {pair!r}") from None


def power_iteration(op, tol: float = 1e-6, maxiter: int = 500,
                    seed: int = 0) -> float:
    """Largest singular value via power iteration on op^T op.

    Raises NumericalError (carrying the last iterate) if the relative change
    has not dropped below tol within maxiter steps.
    """
    size = op.grid.size
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(seed), np.uint64(0x9E3779B97F4A7C15)], dtype=np.uint64)))
    v = rng.standard_normal(size)
    nv = np.linalg.norm(v)
    if nv == 0:
        v[0] = 1.0
        nv = 1.0
    v /= nv
    last = None
    for _ in range(maxiter):
        w = op.apply(v)
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        u = op.apply_transpose(w)
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return sigma
        v = u / nu
        if last is not None and abs(sigma - last) <= tol * max(sigma, 1e-300):
            return sigma
        last = sigma
    raise NumericalError(
        f"power iteration did not converge within {maxiter} steps "
        f"(last estimate {last})", last_value=last)


def operator_norm(op, pair: str, tol: float = 1e-6, maxiter: int = 500,
                  seed: int = 0) -> float:
    """Quadrature-weighted operator norm of a grid operator."""
    pair = normalize_pair(pair)
    if pair == "22":
        if isinstance(op, FourierMultiplier):
            return float(np.abs(op.symbol).max())
        return power_iteration(op, tol=tol, maxiter=maxiter, seed=seed)
    if not isinstance(op, ComposedOperator):
        raise TypeError(
            f"absolute-kernel norms unavailable for {type(op).__name__}")
    col, row, entry = op.abs_stats
    if pair == "11":
        return col
    if pair == "oooo":
        return row
    return entry / op.grid.cell_volume


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (index, log2 norm) samples."""

    samples: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    max_residual: float


def decay_slope(samples: Sequence[tuple[float, float]]) -> DecayFit:
    """Fit log2(norm) ~ slope * index + intercept.

    Requires at least three samples with strictly positive norms.
    """
    if len(samples) < 3:
        raise ValueError("need at least three samples to fit a decay slope")
    xs, logs = [], []
    for idx, norm in samples:
        if not norm > 0:
            raise ValueError(f"nonpositive norm {norm} at index {idx}")
        xs.append(float(idx))
        logs.append(math.log2(norm))
    x = np.array(xs)
    y = np.array(logs)
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = np.abs(y - (slope * x + intercept))
    return DecayFit(samples=tuple(zip(xs, logs)), slope=float(slope),
                    intercept=float(intercept),
                    max_residual=float(resid.max()))
