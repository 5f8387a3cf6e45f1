"""Decay-law measurements, box-pair (Knapp) integrals and duality checks.

The decay tables measure norms of the dyadic pieces T_j Q_j (j = 1..jmax)
and T_j P_jk (k = 0..kmax) and fit log2(norm) against the slab index, to be
set against ``exponents.decay_laws``.  Each row carries a resolution flag: a
frequency projection is only meaningful while its symbol support fits inside
the grid's frequency range, and fits of frequency-side growth laws must be
restricted to the resolved rows.  The duality check draws all its samples in
one block and inverts the shear by Newton iteration over all of them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NumericalError, ResolutionError, SingularMapError
from ..exponents import OperatorSpec, check_homogeneity
from ..scaling import check_dilation
from .cutoffs import phi0
from .grid import Grid
from .norms import decay_slope, operator_norm
# discretize_tj is not called here: perfbench's tracer test reads it here
from .operators import (ComposedOperator, SlabMesh, absolute_stats,
                        discretize_tj, pass_account, pjk_multiplier,
                        qj_multiplier)

BOX_UNDERFLOW = 2.0 ** -40
# the duality check samples (x', y'', y') uniformly from [-DUAL_BOX, DUAL_BOX]
# and stops Newton at a residual of NEWTON_TOL within NEWTON_MAX_STEPS steps
DUAL_BOX = 0.5
NEWTON_TOL = 1e-12
NEWTON_MAX_STEPS = 50


# -- resolution flags -----------------------------------------------------------

def q_resolved(grid: Grid, beta_dprime, j: int) -> bool:
    """True when the Qj symbol support (radius 2^(j max beta'')) sits inside
    the grid's frequency range."""
    return j * max(beta_dprime) <= math.frexp(grid.max_frequency)[1] - 1


def p_shell_resolved(grid: Grid, beta_dprime, j: int, k: int) -> bool:
    """True when the Pjk shell (outer radius 2^(j max beta'' + k + 1)) sits
    inside the grid's frequency range."""
    return (j * max(beta_dprime) + k + 1
            <= math.frexp(grid.max_frequency)[1] - 1)


# -- decay tables ----------------------------------------------------------------

@dataclass(frozen=True)
class DecayRow:
    family: str          # "TjQj" or "TjPjk"
    j: int
    k: int | None
    pair: str
    value: float
    resolved: bool
    converged: bool      # False: Lanczos stopped at its cap of products


def _norm_with_flag(comp, pair: str) -> tuple[float, bool]:
    """Norm value and whether it converged.  When the Lanczos (2,2) norm
    stops at its cap the last Ritz estimate, a lower bound, is reported."""
    try:
        return operator_norm(comp, pair), True
    except NumericalError as exc:
        return float(exc.last_value), False


def _pieces(spec: OperatorSpec, grid: Grid, j: int, kmax: int):
    """The frequency pieces (family, k, multiplier, resolved) of slab j, in
    row order."""
    n_p, b_dd = spec.n_prime, spec.beta_dprime
    yield ("TjQj", None, qj_multiplier(grid, n_p, b_dd, j),
           q_resolved(grid, b_dd, j))
    for k in range(kmax + 1):
        yield ("TjPjk", k, pjk_multiplier(grid, n_p, b_dd, j, k),
               p_shell_resolved(grid, b_dd, j, k))


def decay_table(spec: OperatorSpec, grid: Grid, jmax: int, kmax: int = -1,
                pairs: tuple[str, ...] = ("11", "oooo", "1oo")
                ) -> list[DecayRow]:
    """Measure norms of T_j Q_j for j = 1..jmax and of T_j P_jk for
    k = 0..kmax (none when kmax < 0).  Raises DilationCapError before any
    slab is built if slab jmax is past the cap, and ResolutionError when no
    slab has a mesh entry on the grid, as every norm would then be zero.
    Each slab takes one pass over its chunks, ``absolute_stats``."""
    check_dilation(jmax + 1, spec.weights.flat, f"slab index {jmax}")
    rows: list[DecayRow] = []
    entries = 0
    for j in range(1, jmax + 1):
        entries += _slab_rows(spec, grid, j, kmax, pairs, rows)
    if not entries:
        raise ResolutionError(f"no grid node lies in the support of any "
                              f"slab j=1..{jmax}")
    return rows


def _slab_rows(spec: OperatorSpec, grid: Grid, j: int, kmax: int,
               pairs: tuple[str, ...], rows: list[DecayRow]) -> int:
    """Append the rows of slab j to ``rows``; returns its entry count.  A
    pass too large for the memory bound is refused before any multiplier
    or chunk is built.  Its CSR is dropped before the next slab is read."""
    mesh = SlabMesh(spec, grid, j, shell=True)
    pass_account(mesh, 2 + max(kmax, -1), "22" in pairs)
    pieces = list(_pieces(spec, grid, j, kmax))
    stats, entries, op = absolute_stats(
        mesh.chunks(), [mult for _, _, mult, _ in pieces],
        mesh.stored if "22" in pairs else None)
    for (family, k, mult, res), mult_stats in zip(pieces, stats):
        comp = ComposedOperator(op, mult, mult_stats)
        for pair in pairs:
            value, converged = _norm_with_flag(comp, pair)
            rows.append(DecayRow(family, j, k, pair, value, res, converged))
    return entries


def fit_decay_rows(rows: list[DecayRow], family: str, pair: str,
                   over: str = "j", fixed_j: int | None = None,
                   resolved_only: bool = False):
    """Least-squares slope of log2(norm) in j (or in k at fixed j), over
    the rows with a nonzero norm."""
    samples = []
    for row in rows:
        if row.family != family or row.pair != pair:
            continue
        if resolved_only and not row.resolved:
            continue
        if over == "j":
            if row.k not in (None, 0):
                continue
            idx = row.j
        elif over == "k":
            if fixed_j is None or row.j != fixed_j or row.k is None:
                continue
            idx = row.k
        else:
            raise ValueError("over must be 'j' or 'k'")
        if row.value == 0.0:
            continue
        samples.append((idx, row.value))
    return decay_slope(samples)


# -- box-pair (Knapp) integrals ------------------------------------------------------

def knapp_integral(spec: OperatorSpec, t: float, epsilon_box: float = 0.5,
                   nodes_per_axis: int = 16) -> float:
    """Quadrature of <chi_F, T chi_E> for the anisotropic box pair at
    parameter t <= -1.

    The boxes have side lengths epsilon_box * 2^(alpha~_i t) (the x-side) and
    epsilon_box * 2^(beta_i t) (the function-side); the quadrature lives at
    the box scale (midpoint nodes per axis), not on any fixed global grid,
    because the sides collapse as t -> -infinity.
    """
    if t > -1:
        raise ValueError("the box parameter t must be <= -1")
    if not 0 < epsilon_box <= 1:
        raise ValueError("epsilon_box must lie in (0, 1]")
    w = spec.weights
    n_p, n_d = spec.n_prime, spec.n_dprime
    # side lengths per quadrature axis: x' (alpha'), x'' (beta''), y' (beta')
    sides = ([epsilon_box * 2.0 ** (a * t) for a in w.alpha_prime]
             + [epsilon_box * 2.0 ** (b * t) for b in spec.beta_dprime]
             + [epsilon_box * 2.0 ** (b * t) for b in w.beta_prime])
    if min(sides) < BOX_UNDERFLOW:
        raise ResolutionError(
            f"box side underflow below 2^-40 at t={t}")
    axes = []
    ndims = 2 * n_p + n_d
    for d, side in enumerate(sides):
        pts = (np.arange(nodes_per_axis) + 0.5) / nodes_per_axis - 0.5
        arr = (pts * side).reshape((1,) * d + (-1,) + (1,) * (ndims - d - 1))
        axes.append(arr)

    # the cutoff on every axis, then the target-box indicator of each x''-slot
    factors = [phi0(a / spec.psi_radius) for a in axes]
    for l in range(n_d):
        target = axes[n_p + l] + spec.s[l].evaluate(
            axes[:n_p], axes[n_p:n_p + n_d], axes[n_p + n_d:])
        half = epsilon_box * 2.0 ** (spec.beta_dprime[l] * t) / 2.0
        factors.append(np.abs(target) <= half)
    return float(math.prod(factors).mean() * math.prod(sides))


def knapp_exponent_table(spec: OperatorSpec, t_min: int, t_max: int,
                         epsilon_box: float = 0.5,
                         nodes_per_axis: int = 16) -> list[dict]:
    """Successive-ratio estimates of the box-pair scaling exponent.

    Row at t reports value(t) and the implied exponent
    log2(value(t) / value(t-1)), which estimates the Knapp box exponent of
    ``exponents.decay_laws``.
    """
    if t_max > -1 or t_min > t_max:
        raise ValueError("need t_min <= t_max <= -1")
    values = {t: knapp_integral(spec, t, epsilon_box, nodes_per_axis)
              for t in range(t_min - 1, t_max + 1)}
    rows = []
    for t in range(t_min, t_max + 1):
        v, vm = values[t], values[t - 1]
        implied = math.log2(v / vm) if vm > 0 and v > 0 else float("nan")
        rows.append({"t": t, "value": v, "implied_exponent": implied})
    return rows


# -- duality ----------------------------------------------------------------------

def _newton_invert_shear(spec: OperatorSpec, partials, xp: np.ndarray,
                         yp: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve x'' + S(x', x'', y') = target for x'' by Newton iteration at
    every sample at once; coordinate arrays have shape (n, points) and
    partials[l][m] is dS_l/dx''_m.  A sample whose residual is within
    NEWTON_TOL takes no further step."""
    xdd = target.copy()
    for _ in range(NEWTON_MAX_STEPS):
        residual = xdd + np.array([s.evaluate(xp, xdd, yp)
                                   for s in spec.s]) - target
        live = np.max(np.abs(residual), axis=0) > NEWTON_TOL
        if not live.any():
            return xdd
        at = (xp[:, live], xdd[:, live], yp[:, live])
        jac = np.array([[d.evaluate(*at) for d in row] for row in partials])
        jac = np.moveaxis(jac, -1, 0) + np.eye(len(spec.s))
        try:
            step = np.linalg.solve(jac, residual[:, live].T[..., None])
        except np.linalg.LinAlgError as exc:
            raise SingularMapError(f"singular shear Jacobian: {exc}") from exc
        xdd[:, live] -= step[..., 0].T
        if not np.all(np.isfinite(xdd)):
            raise SingularMapError("Newton iterate diverged")
    raise SingularMapError(
        f"Newton inversion did not reach tolerance {NEWTON_TOL} in "
        f"{NEWTON_MAX_STEPS} steps")


def dual_principal_check(spec: OperatorSpec, levels: Sequence[int],
                         sample_points: int, seed: int = 0
                         ) -> dict[int, float]:
    """Max deviation between the rescaled dual shear and minus the principal
    part, for each level j in ``levels``.

    For each sample (x', y'', y') the forward shear is inverted by Newton
    iteration at the dilated scale, the dual shear
    S*(x', y'', y') = -S(x', Phi^{-1}(y''), y') is formed, and the deviation
    | 2^(j beta'') S*(2^(-j alpha') x', 2^(-j alpha'') y'', 2^(-j beta') y')
      + S^P(x', y'', y') | is maximized over the samples.  Every level uses
    the same samples.  A level past the dilation cap is refused first.
    """
    principal = check_homogeneity(spec)
    w = spec.weights
    top = max(map(abs, levels), default=0)
    check_dilation(top, w.flat + spec.beta_dprime.entries, f"level {top}")
    n_p, n_d = spec.n_prime, spec.n_dprime
    partials = [[s.partial_derivative("xx", m) for m in range(n_d)]
                for s in spec.s]
    rng = np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed), np.uint64(11)], dtype=np.uint64)))
    # one row per sample: x', y'', y', in the order of per-sample draws
    xp, ydd, yp = np.split(
        rng.uniform(-DUAL_BOX, DUAL_BOX,
                    size=(sample_points, 2 * n_p + n_d)).T,
        [n_p, n_p + n_d])
    s_principal = [s_p.evaluate(xp, ydd, yp) for s_p in principal]
    deviations = {}
    for j in levels:
        xp_s = np.ldexp(xp, [[-j * a] for a in w.alpha_prime])
        ydd_s = np.ldexp(ydd, [[-j * a] for a in w.alpha_dprime])
        yp_s = np.ldexp(yp, [[-j * b] for b in w.beta_prime])
        xdd_sol = _newton_invert_shear(spec, partials, xp_s, yp_s, ydd_s)
        worst = 0.0
        for s, s_p, b in zip(spec.s, s_principal, spec.beta_dprime):
            scaled = np.ldexp(-s.evaluate(xp_s, xdd_sol, yp_s), j * b)
            worst = max(worst, float(np.abs(scaled + s_p).max()))
        deviations[j] = worst
    return deviations
