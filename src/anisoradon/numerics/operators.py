"""Discretized operator pieces: dyadic slabs of the averaging operator and
frequency-side multipliers.

The averaging pieces act on grid functions by midpoint quadrature of the
defining y'-integral, with the shifted argument x'' + S(x, y') evaluated by
periodic multilinear interpolation (in the x''-slot only; y' lands on grid
nodes).  Multilinear interpolation keeps the matrices entrywise nonnegative
wherever the cutoff is, which the box-counting experiments rely on.  The
mesh is the product of per-axis node windows; cutoffs and index offsets are
built from per-axis factors that broadcast, not from mesh-sized scratch.  A
slab is kept as its nonzero mesh entries, y'-block after y'-block, which the
absolute-kernel statistics read directly; its sparse matrix is assembled
only when the slab is applied, as in the (2,2) norm.

The absolute-kernel statistics of a slab composed with a multiplier take
two paths.  At n'' = 1 they follow in closed form from the breakpoints of
the y''-kernel, with no product formed; at n'' >= 2 each y'-block is
multiplied by the dense y''-kernel, in pieces of bounded size.

Frequency multipliers depend on the y''-frequencies only and are stored as
that y''-block; they are matrix-free: real FFT over the trailing n'' axes,
multiplication by the even part of the block, inverse real FFT.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp

from ..exponents import OperatorSpec
from ..scaling import MultiIndex, check_dilation
from .cutoffs import phi0, phi_radial
from .grid import Grid

# A verify run peaks at about 72 B per mesh entry of its largest slab over
# a 54 MB base (275 MB at 3.2 M entries, 196 MB at 2.1 M), most of it in
# the slab build, so 2**23 entries keep a run under about 700 MB.
MAX_MESH_ENTRIES = 2 ** 23
# values (4 MB) per piece in ComposedOperator.abs_stats: histogram cells at
# n'' = 1, kernel values of a y'-block product at n'' >= 2
_PIECE_VALUES = 2 ** 19


# -- operator containers -------------------------------------------------------

class SparseKernelOperator:
    """A slab as its nonzero mesh entries, y'-block after y'-block.

    Entry e is row ``rows[e]``; its 2^n'' interpolation corners lie in one
    y'-block, at columns ``cols[e]`` with values ``vals[e]``: at n'' = 1 the
    x''-nodes i0 and i0 + 1 with base (1 - f) and base f, the pair (N-1, 0)
    stored in increasing column order.  Indices are int32 below 2^31 grid
    points.  The sparse matrix is assembled from the entries only when
    first asked for."""

    def __init__(self, grid: Grid, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray):
        self.grid = grid
        self.rows, self.cols, self.vals = rows, cols, vals

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        rows = np.repeat(self.rows, self.cols.shape[1])
        return sp.coo_matrix((self.vals.ravel(), (rows, self.cols.ravel())),
                             shape=(self.grid.size,) * 2).tocsr()

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.matrix.T @ v


class FourierMultiplier:
    """Real part of the multiplication by a real symbol s at each discrete
    frequency: a multiplication by the even part (s(xi) + s(-xi))/2, so the
    operator is symmetric.

    The symbol depends on the y''-frequencies only; ``ydd_block`` holds it
    as an array over the trailing n'' axes, the only axes the FFT runs over
    and the y''-kernel of the absolute-kernel statistics.
    """

    def __init__(self, grid: Grid, ydd_block: np.ndarray):
        if ydd_block.shape != grid.shape()[grid.dim - ydd_block.ndim:]:
            raise ValueError("y''-block shape does not match the grid")
        self.grid = grid
        self.ydd_block = ydd_block

    @functools.cached_property
    def _half_symbol(self) -> np.ndarray:
        flipped = block = self.ydd_block  # s(-xi): i goes to -i mod N
        for ax in range(block.ndim):
            flipped = np.roll(np.flip(flipped, ax), 1, ax)
        return ((block + flipped) / 2)[..., :block.shape[-1] // 2 + 1]

    def _filter(self, v: np.ndarray) -> np.ndarray:
        axes = tuple(range(-self._half_symbol.ndim, 0))
        field = np.asarray(v, dtype=float).reshape(self.grid.shape())
        spectrum = np.fft.rfftn(field, axes=axes) * self._half_symbol
        return np.fft.irfftn(spectrum, axes=axes).ravel()

    # two methods, not one under two names: a wrapper of one must not wrap both
    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._filter(v)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self._filter(v)

    def ydd_kernel_matrix(self) -> np.ndarray:
        """Dense convolution matrix of the y''-block on the y''-axes."""
        return _circulant(np.fft.ifftn(self.ydd_block).real)


def _circulant(kernel: np.ndarray) -> np.ndarray:
    """Dense matrix of periodic convolution with ``kernel`` (equal axes):
    entry (a, b) over C-order flat indices is kernel[(a - b) mod n]."""
    if kernel.size ** 2 > 64_000_000:
        raise MemoryError("convolution matrix too large to materialize")
    n, d = kernel.shape[0], kernel.ndim
    diff = np.subtract.outer(np.arange(n), np.arange(n)) % n
    # axis k of the index varies along output axes k (row) and d + k (column)
    sel = tuple(diff.reshape((1,) * k + (n,) + (1,) * (d - 1) + (n,)
                             + (1,) * (d - 1 - k)) for k in range(d))
    return kernel[sel].reshape(kernel.size, kernel.size)


class ComposedOperator:
    """left o right, applied right-to-left."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.grid = left.grid

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.left.apply(self.right.apply(v))

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.right.apply_transpose(self.left.apply_transpose(v))

    @functools.cached_property
    def abs_stats(self) -> tuple[float, float, float]:
        """(max column sum, max row sum, max entry) of the absolute kernel of
        a slab composed with a y''-only multiplier, computed once.

        The product is never materialized.  With two corners per entry
        (n'' = 1) the statistics follow in closed form from the breakpoints
        of the y''-kernel; with more, each y'-block is multiplied by the
        dense y''-kernel in pieces."""
        left, right = self.left, self.right
        if not (isinstance(left, SparseKernelOperator)
                and isinstance(right, FourierMultiplier)):
            raise TypeError("no absolute-kernel norms for this composite")
        if left.cols.shape[1] == 2:
            return _interpolation_stats(left, right)
        return _product_stats(left, right)


def _interpolation_stats(slab: SparseKernelOperator, mult: FourierMultiplier
                         ) -> tuple[float, float, float]:
    """``abs_stats`` at n'' = 1, from the breakpoints of the y''-kernel u.

    An entry with lower x''-node i0, weight sum ``base`` and fraction f (the
    weight at i0 + 1 over ``base``) has the product row base (u_m + f d_m)
    at column (i0 - m) mod N, where d_m = u_{m+1} - u_m.  Each u_m + f d_m
    changes sign at most once in f, at t_m = -u_m / d_m, so:

    - the row's absolute sum is |base| F(f) and its largest entry |base| G(f),
      with F = sum_m |u_m + f d_m| and G = max_m |u_m + f d_m| convex and
      piecewise linear: both are evaluated exactly at their knots (the t_m
      for F, the corners of the upper envelope of the lines for G) and
      interpolated between them;
    - a column sum is the signed sum with the signs just above f = 0, which
      is a circulant product of the per-(y'-block, i0) sums of |base| and
      |base| f, minus twice the terms of the entries past each t_m, read off
      cumulative sums of a (group, breakpoint rank) histogram.

    The entries are taken in pieces of ``_PIECE_VALUES // (breakpoints + 1)``
    so that the histogram of a piece has at most ``_PIECE_VALUES`` cells."""
    u = np.fft.ifft(mult.ydd_block).real
    n = u.size
    d = np.roll(u, -1) - u
    sign = np.sign(np.where(u != 0.0, u, d))  # of u_m + f d_m above f = 0
    signed_u, signed_d = sign * u, sign * d
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -u / d
    cross = np.flatnonzero((t > 0.0) & (t < 1.0))
    cross = cross[np.argsort(-t[cross], kind="stable")]  # highest t_m first
    rising = t[cross][::-1]
    ranks = cross.size + 1

    def exact(knots: np.ndarray, reduce) -> tuple[np.ndarray, np.ndarray]:
        knots = np.unique(np.concatenate(([0.0, 1.0], knots)))
        return knots, reduce(np.abs(u[:, None] + knots * d[:, None]), axis=0)

    row_fn = exact(rising, np.sum)
    entry_fn = exact(_envelope_knots(u, d), np.max)
    size = slab.grid.size
    rowsums, past_sums = np.zeros(size), np.zeros(size)
    base_sums, frac_sums = np.zeros(size), np.zeros(size)  # |base|, |base| f
    max_abs = 0.0
    step = max(1, _PIECE_VALUES // ranks)
    for a in range(0, slab.rows.size, step):
        cols, vals = slab.cols[a:a + step], slab.vals[a:a + step]
        wrap = cols[:, 1] - cols[:, 0] > 1  # the pair (0, N-1): i0 = N-1
        base = vals[:, 0] + vals[:, 1]
        f = np.where(wrap, vals[:, 0], vals[:, 1]) / base
        weight = np.abs(base)
        np.add.at(rowsums, slab.rows[a:a + step],
                  weight * np.interp(f, *row_fn))
        max_abs = max(max_abs, float((weight * np.interp(f, *entry_fn)).max()))
        # group: y'-block and i0, as the flat column of the lower corner,
        # counted from the piece's first y'-block; ``seen`` spans its blocks
        key = cols[:, 0] + wrap * (n - 1)
        first = key.min() - key.min() % n
        key -= first
        seen = np.zeros(key.max() - key.max() % n + n, dtype=np.intp)
        seen[key] = 1
        groups = np.flatnonzero(seen)
        # rank: how many t_m are >= f, so an entry is past the q-th highest
        # breakpoint exactly when its rank is at most q
        rank = cross.size - np.searchsorted(rising, f)
        cell = (np.cumsum(seen) - 1)[key] * ranks + rank
        past, past_f = (np.bincount(cell, w, minlength=groups.size * ranks)
                        .reshape(-1, ranks).cumsum(axis=1)
                        for w in (weight, weight * f))
        base_sums[first + groups] += past[:, -1]
        frac_sums[first + groups] += past_f[:, -1]
        target = (groups - groups % n)[:, None] + (groups[:, None] - cross) % n
        past_sums[first:first + seen.size] += np.bincount(
            target.ravel(), (past[:, :-1] * signed_u[cross]
                             + past_f[:, :-1] * signed_d[cross]).ravel(),
            minlength=seen.size)
    colsums = (base_sums.reshape(-1, n) @ _circulant(signed_u)
               + frac_sums.reshape(-1, n) @ _circulant(signed_d)).ravel()
    return (float((colsums - 2 * past_sums).max()), float(rowsums.max()),
            max_abs)


def _envelope_knots(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The f in (0, 1) where max_m |u_m + f d_m| changes line: the upper
    envelope of the lines +-(u_m + f d_m) is the upper convex hull of the
    points (slope, intercept), found by a monotone chain."""
    slope, icpt = np.concatenate((d, -d)), np.concatenate((u, -u))
    order = np.lexsort((icpt, slope))
    slope, icpt = slope[order], icpt[order]
    top = np.append(slope[1:] != slope[:-1], True)  # per slope, the highest
    hull: list[tuple[float, float]] = []
    for p in zip(slope[top].tolist(), icpt[top].tolist()):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0])
                                 * (p[1] - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1])
                                 * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    h = np.array(hull).reshape(-1, 2)
    knots = (h[:-1, 1] - h[1:, 1]) / (h[1:, 0] - h[:-1, 0])
    return knots[(knots > 0.0) & (knots < 1.0)]


def _product_stats(slab: SparseKernelOperator, mult: FourierMultiplier
                   ) -> tuple[float, float, float]:
    """``abs_stats`` at n'' >= 2: each y'-block is a contiguous run of the
    slab's entries, one row per entry with its corners as the columns,
    multiplied by the dense y''-kernel.  A run is multiplied in pieces of at
    most ``_PIECE_VALUES`` kernel values, written into one buffer reused for
    the whole slab, so the memory this takes does not grow with the slab."""
    kernel = mult.ydd_kernel_matrix()
    n_block = kernel.shape[0]
    n_corners = slab.cols.shape[1]
    step = max(1, _PIECE_VALUES // n_block)  # entries per piece
    indptr = np.arange(0, step * n_corners + 1, n_corners)
    # row 0 carries the block's column sums so far: summing it with the
    # piece's rows adds in the same order as one sum over the whole run
    buf = np.empty((step + 1, n_block))
    # y'-block bounds: 0, each entry that starts a new block, the end
    ends = np.flatnonzero(np.diff(slab.cols[:, 0] // n_block,
                                  prepend=-1, append=-1))
    rowsums = np.zeros(slab.grid.size)
    max_col = max_abs = 0.0
    for lo, hi in zip(ends[:-1], ends[1:]):
        buf[0] = 0.0
        for a in range(lo, hi, step):
            m = min(step, hi - a)
            sub = sp.csr_matrix(
                (slab.vals[a:a + m].ravel(),
                 slab.cols[a:a + m].ravel() % n_block, indptr[:m + 1]),
                shape=(m, n_block))
            g = np.abs(sub @ kernel, out=buf[1:m + 1])
            rowsums[slab.rows[a:a + m]] += g.sum(axis=1)
            max_abs = max(max_abs, float(g.max()))
            buf[0] = buf[:m + 1].sum(axis=0)
        max_col = max(max_col, float(buf[0].max()))
    return max_col, float(rowsums.max()), max_abs


# -- averaging-piece discretization --------------------------------------------

def _discretize(spec: OperatorSpec, grid: Grid, j: int,
                shell: bool) -> SparseKernelOperator:
    n_p, n_d = spec.n_prime, spec.n_dprime
    n = n_p + n_d
    if grid.dim != n:
        raise ValueError(f"grid dimension {grid.dim} != n' + n'' = {n}")
    weights = spec.weights.flat  # dilation weight of each mesh axis
    check_dilation(j + 1, weights, f"slab index {j}")
    if j < 0:
        raise ValueError("slab index must be nonnegative")

    N = grid.points_per_axis
    h = grid.spacing
    L = grid.half_width
    rho = spec.psi_radius
    nodes = grid.nodes()
    ndims = n + n_p  # mesh axes: x' x'' then y'

    # per-axis windows limited by supp(psi) (2 rho) and the outer phi shell
    windows: list[np.ndarray] = []
    for c in range(ndims):
        extent = min(2.0 * rho, np.ldexp(4.0 * rho, -j * weights[c]), L)
        idx = np.nonzero(np.abs(nodes) <= extent + 1e-12)[0]
        windows.append(idx)
    entries = math.prod(map(len, windows))
    if entries > MAX_MESH_ENTRIES:
        raise MemoryError(f"slab j={j} needs {entries} mesh entries, more "
                          f"than the limit of {MAX_MESH_ENTRIES}")

    def shaped(arr: np.ndarray, c: int) -> np.ndarray:
        # axis c of x', x'', y' lies on mesh dim c + n' (mod ndims): y' comes
        # first, so each y'-block is one run of the entries in mesh order
        dim = (c + n_p) % ndims
        return arr.reshape((1,) * dim + (-1,) + (1,) * (ndims - dim - 1))

    axes = [shaped(nodes[windows[c]], c) for c in range(ndims)]

    def product_cutoff(scale_j: int) -> np.ndarray:
        return math.prod(phi0(np.ldexp(t, scale_j * wt) / (2.0 * rho))
                         for t, wt in zip(axes, weights))

    cutoff = (product_cutoff(j) - product_cutoff(j + 1) if shell
              else product_cutoff(j))
    cutoff *= math.prod(phi0(t / rho) for t in axes)  # psi

    # one entry per nonzero of the cutoff; the 2^n'' corners of its x''-
    # interpolation run along trailing axes of length 2, one per x''-slot
    mask = cutoff != 0.0
    corner = (-1,) + (1,) * n_d
    vals = np.empty((np.count_nonzero(mask),) + (2,) * n_d)
    vals[...] = (cutoff[mask] * h ** n_p).reshape(corner)
    del cutoff
    index = np.int32 if grid.size < 2 ** 31 else np.int64
    cols = np.empty(vals.shape, dtype=index)  # y'-part, then x''-corners
    cols[...] = np.broadcast_to(sum(
        shaped(windows[n + i].astype(index), n + i) * N ** (n - 1 - i)
        for i in range(n_p)), mask.shape)[mask].reshape(corner)
    for l in range(n_d):
        frac = ((axes[n_p + l]  # the x''-position in cells, then its fraction
                 + spec.s[l].evaluate(axes[:n_p], axes[n_p:n], axes[n:])
                 + L) / h - 0.5)[mask]
        i0 = np.floor(frac)
        frac -= i0
        i0 = (i0.astype(np.int64) % N).astype(index)
        idx = np.stack((i0, (i0 + 1) % N), axis=1)
        wgt = np.stack((1.0 - frac, frac), axis=1)
        wrap = i0 == N - 1  # corners in increasing column order: (0, N-1)
        idx[wrap], wgt[wrap] = idx[wrap, ::-1], wgt[wrap, ::-1]
        sides = (-1,) + (1,) * l + (2,) + (1,) * (n_d - 1 - l)
        vals *= wgt.reshape(sides)
        idx *= N ** (n_d - 1 - l)
        cols += idx.reshape(sides)
    rows = np.broadcast_to(sum(
        shaped(windows[c].astype(index), c) * N ** (n - 1 - c)
        for c in range(n)), mask.shape)[mask]
    return SparseKernelOperator(grid, rows, cols.reshape(rows.size, 2 ** n_d),
                                vals.reshape(rows.size, 2 ** n_d))


def discretize_tj(spec: OperatorSpec, grid: Grid, j: int) -> SparseKernelOperator:
    """The j-th dyadic slab of the averaging operator (shell cutoff)."""
    return _discretize(spec, grid, j, shell=True)


def discretize_uj(spec: OperatorSpec, grid: Grid, j: int) -> SparseKernelOperator:
    """The tail operator: everything at scales j and beyond (ball cutoff)."""
    return _discretize(spec, grid, j, shell=False)


# -- frequency multipliers ------------------------------------------------------

def _scaled_ydd_radius(grid: Grid, beta_dprime: MultiIndex,
                       j: int) -> np.ndarray:
    """|2^(-j beta'') xi''| on the y''-frequency axes."""
    freq = grid.frequencies()
    n_dd = len(beta_dprime)
    r2 = np.zeros((grid.points_per_axis,) * n_dd)
    for l, b in enumerate(beta_dprime):
        scaled = np.ldexp(freq, -j * b)
        r2 = r2 + scaled.reshape((1,) * l + (-1,) + (1,) * (n_dd - 1 - l)) ** 2
    return np.sqrt(r2)


def qj_multiplier(grid: Grid, n_prime: int, beta_dprime: MultiIndex,
                  j: int) -> FourierMultiplier:
    """Low-pass in xi'' at the anisotropic scale 2^(j beta'')."""
    block = phi_radial(_scaled_ydd_radius(grid, beta_dprime, j))
    return FourierMultiplier(grid, block)


def pjk_multiplier(grid: Grid, n_prime: int, beta_dprime: MultiIndex,
                   j: int, k: int) -> FourierMultiplier:
    """Isotropic dyadic shell at radius 2^k on top of the Qj scaling."""
    rad = _scaled_ydd_radius(grid, beta_dprime, j)
    block = phi_radial(np.ldexp(rad, -k - 1)) - phi_radial(np.ldexp(rad, -k))
    return FourierMultiplier(grid, block)
