"""Operator norms of discretized pieces and dyadic decay fits.

Matrices act on grid values directly, so the natural quadrature-weighted
(p, q) norms reduce to matrix quantities with all cell volumes cancelling
except one:

  (1,1):     max column absolute sum,
  (inf,inf): max row absolute sum,
  (1,inf):   max absolute entry divided by the cell volume,
  (2,2):     largest singular value (thick-restart Lanczos on A^T A).

The first three are read off the ``abs_stats`` a ``ComposedOperator`` is
given: the statistics pass ``operators.absolute_stats`` computes them for
all the multipliers of a slab at once, however many pairs are asked for.
It reads the slab chunk by chunk and keeps a few arrays over the grid per
multiplier: at n'' = 1 in closed form from the breakpoints of the
y''-kernel, the slab streaming and never held whole; at n'' >= 2 by
multiplying each y'-block of the slab, built whole, by the dense
y''-kernel in pieces.  Only the (2,2) norm applies the slab, as the CSR of
its transpose that the same pass writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NumericalError

_RITZ_TOL = 1e-12   # relative residual of the top Ritz pair at which to stop
_KRYLOV_DIM = 20    # Lanczos vectors before a restart
_KEPT = 4           # top Ritz vectors kept at a restart
_MAX_PRODUCTS = 500  # products with A^T A before giving up


def normalize_pair(pair: str) -> str:
    if pair not in ("11", "oooo", "1oo", "22"):
        raise ValueError(f"unknown norm pair {pair!r}")
    return pair


def largest_singular_value(op) -> float:
    """Largest singular value via thick-restart Lanczos on op^T op with full
    reorthogonalization (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000).
    Stops once the residual of the top Ritz pair is at most _RITZ_TOL times
    its Ritz value; raises NumericalError, carrying the last estimate, if
    that takes more than _MAX_PRODUCTS products with op^T op."""
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(0), np.uint64(0x9E3779B97F4A7C15)], dtype=np.uint64)))
    v = rng.standard_normal(op.grid.size)
    basis = np.empty((_KRYLOV_DIM + 1, v.size))
    basis[0] = v / np.linalg.norm(v)
    proj = np.zeros((_KRYLOV_DIM, _KRYLOV_DIM))  # basis (op^T op) basis^T
    k, last = 0, None
    for _ in range(_MAX_PRODUCTS):
        w = op.apply_transpose(op.apply(basis[k]))
        for _ in range(2):  # proj's row k: the lower triangle eigh reads
            c = basis[:k + 1] @ w
            w -= basis[:k + 1].T @ c
            proj[k, :k + 1] += c
        norm = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(proj[:k + 1, :k + 1], UPLO="L")
        theta = float(ritz[-1])
        last = math.sqrt(max(theta, 0.0))
        if norm * abs(vecs[-1, -1]) <= _RITZ_TOL * theta:
            return last
        basis[k + 1] = w / norm
        k += 1
        if k == _KRYLOV_DIM:  # thick restart: the top Ritz vectors, then w
            basis[:_KEPT] = vecs[:, -_KEPT:].T @ basis[:k]
            basis[_KEPT] = basis[k]
            proj[:] = 0.0
            proj[:_KEPT, :_KEPT] = np.diag(ritz[-_KEPT:])
            k = _KEPT
    raise NumericalError(f"Lanczos did not converge within {_MAX_PRODUCTS} "
                         f"products (last estimate {last})", last_value=last)


def operator_norm(op, pair: str) -> float:
    """Quadrature-weighted operator norm of a grid operator."""
    pair = normalize_pair(pair)
    if pair == "22":
        return largest_singular_value(op)
    stats = getattr(op, "abs_stats", None)
    if stats is None:
        raise TypeError(
            f"absolute-kernel norms unavailable for {type(op).__name__}")
    col, row, entry = stats
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
