"""Operator norms of discretized pieces and dyadic decay fits.

Matrices act on grid values directly, so the natural quadrature-weighted
(p, q) norms reduce to matrix quantities with all cell volumes cancelling
except one:

  (1,1):     max column absolute sum,
  (inf,inf): max row absolute sum,
  (1,inf):   max absolute entry divided by the cell volume,
  (2,2):     largest singular value (restarted Lanczos on A^T A).

The first three are read off ``ComposedOperator.abs_stats``, which a
composite computes once however many of them are asked for; only the (2,2)
norm assembles the slab's sparse matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NumericalError
from .operators import ComposedOperator

_RITZ_TOL = 1e-12   # relative residual of the top Ritz pair at which to stop
_KRYLOV_DIM = 20    # Lanczos steps between restarts


def normalize_pair(pair: str) -> str:
    if pair not in ("11", "oooo", "1oo", "22"):
        raise ValueError(f"unknown norm pair {pair!r}")
    return pair


def largest_singular_value(op, maxiter: int = 500) -> float:
    """Largest singular value via restarted Lanczos on op^T op with full
    reorthogonalization (Golub-Van Loan, Matrix Computations, 10.1).

    Stops once the residual of the top Ritz pair is at most _RITZ_TOL times
    its Ritz value.  Raises NumericalError (carrying the last estimate) if
    that takes more than maxiter products with op^T op.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(0), np.uint64(0x9E3779B97F4A7C15)], dtype=np.uint64)))
    v = rng.standard_normal(op.grid.size)
    basis = np.empty((_KRYLOV_DIM, v.size))
    basis[0] = v / np.linalg.norm(v)
    alpha, beta, last = [], [], None
    for _ in range(maxiter):
        k = len(alpha)
        w = op.apply_transpose(op.apply(basis[k]))
        alpha.append(float(basis[k] @ w))
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta.append(float(np.linalg.norm(w)))
        ritz, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
        theta, top = float(ritz[-1]), vecs[:, -1]
        last = math.sqrt(max(theta, 0.0))
        if beta[-1] * abs(top[-1]) <= _RITZ_TOL * theta:
            return last
        if k + 1 < _KRYLOV_DIM:
            basis[k + 1] = w / beta[-1]
        else:  # restart from the top Ritz vector
            basis[0] = top @ basis
            basis[0] /= np.linalg.norm(basis[0])
            alpha, beta = [], []
    raise NumericalError(
        f"Lanczos did not converge within {maxiter} products "
        f"(last estimate {last})", last_value=last)


def operator_norm(op, pair: str, maxiter: int = 500) -> float:
    """Quadrature-weighted operator norm of a grid operator."""
    pair = normalize_pair(pair)
    if pair == "22":
        return largest_singular_value(op, maxiter=maxiter)
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
