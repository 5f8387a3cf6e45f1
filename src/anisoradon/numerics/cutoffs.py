"""The fixed smooth cutoff profile and the bumps derived from it.

Everything dyadic in the package is built from a single even bump
``phi0(t) = g(2-|t|) / (g(2-|t|) + g(|t|-1))`` with ``g(s) = exp(-1/s)`` for
``s > 0`` and zero otherwise.  It is identically one on [-1, 1] (enforced
exactly, not just to rounding), supported in [-2, 2] and monotone on each
side of the origin, so dyadic differences of rescalings are nonnegative.
"""

from __future__ import annotations

import numpy as np


def bump_profile(s):
    """g(s) = exp(-1/s) for s > 0, else 0; smooth at 0 from the right."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def phi0(t):
    """The master cutoff: 1 on [-1, 1], 0 outside (-2, 2), monotone between."""
    t = np.asarray(t, dtype=float)
    r = np.abs(t)
    out = np.zeros(r.shape, dtype=float)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    if np.any(mid):
        rm = r[mid]
        a = bump_profile(2.0 - rm)
        b = bump_profile(rm - 1.0)
        out[mid] = a / (a + b)
    return out if out.shape else float(out)


def phi_radial(radii):
    """Radial cutoff: 1 on the ball of radius 1/2, supported in the unit
    ball.  ``radii`` holds Euclidean norms, already computed."""
    return phi0(2.0 * np.asarray(radii, dtype=float))
