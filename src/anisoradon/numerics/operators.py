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

# A verify run peaks at about 100 B per mesh entry of its largest slab over
# a 50 MB base (375 MB at 3.2 M entries, 261 MB at 2.1 M), so 2**23 entries
# keep a run under about 1 GB.
MAX_MESH_ENTRIES = 2 ** 23
# kernel values (4 MB) per piece of a y'-block in ComposedOperator.abs_stats
_PIECE_VALUES = 2 ** 19


# -- operator containers -------------------------------------------------------

class SparseKernelOperator:
    """A slab as its nonzero mesh entries, y'-block after y'-block.

    Entry e is row ``rows[e]``; its 2^n'' interpolation corners lie in one
    y'-block, at columns ``cols[e]`` with values ``vals[e]``.  The sparse
    matrix is assembled from the entries only when first asked for."""

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
    and the dense y''-kernel of the streaming norm computations.
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

        The product is never materialized.  Each y'-block is a contiguous
        run of the slab's entries: one row per entry, its corners as the
        columns, multiplied by the dense y''-kernel of the multiplier.  A
        run is multiplied in pieces of at most ``_PIECE_VALUES`` kernel
        values, written into one buffer reused for the whole slab, so the
        memory this takes does not grow with the slab."""
        left, right = self.left, self.right
        if not (isinstance(left, SparseKernelOperator)
                and isinstance(right, FourierMultiplier)):
            raise TypeError("no absolute-kernel norms for this composite")
        kernel = right.ydd_kernel_matrix()
        n_block = kernel.shape[0]
        n_corners = left.cols.shape[1]
        step = max(1, _PIECE_VALUES // n_block)  # entries per piece
        indptr = np.arange(0, step * n_corners + 1, n_corners)
        # row 0 carries the block's column sums so far: summing it with the
        # piece's rows adds in the same order as one sum over the whole run
        buf = np.empty((step + 1, n_block))
        # y'-block bounds: 0, each entry that starts a new block, the end
        ends = np.flatnonzero(np.diff(left.cols[:, 0] // n_block,
                                      prepend=-1, append=-1))
        rowsums = np.zeros(self.grid.size)
        max_col = max_abs = 0.0
        for lo, hi in zip(ends[:-1], ends[1:]):
            buf[0] = 0.0
            for a in range(lo, hi, step):
                m = min(step, hi - a)
                sub = sp.csr_matrix(
                    (left.vals[a:a + m].ravel(),
                     left.cols[a:a + m].ravel() % n_block, indptr[:m + 1]),
                    shape=(m, n_block))
                g = np.abs(sub @ kernel, out=buf[1:m + 1])
                rowsums[left.rows[a:a + m]] += g.sum(axis=1)
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
    cols = np.empty(vals.shape, dtype=np.int64)  # y'-part, then x''-corners
    cols[...] = np.broadcast_to(sum(
        shaped(windows[n + i].astype(np.int64), n + i) * N ** (n - 1 - i)
        for i in range(n_p)), mask.shape)[mask].reshape(corner)
    for l in range(n_d):
        pos = ((axes[n_p + l]
                + spec.s[l].evaluate(axes[:n_p], axes[n_p:n], axes[n:])
                + L) / h - 0.5)[mask]
        i0 = np.floor(pos)
        frac = pos - i0
        i0 = i0.astype(np.int64) % N
        idx = np.stack((i0, (i0 + 1) % N), axis=1)
        wgt = np.stack((1.0 - frac, frac), axis=1)
        wrap = i0 == N - 1  # corners in increasing column order: (0, N-1)
        idx[wrap], wgt[wrap] = idx[wrap, ::-1], wgt[wrap, ::-1]
        sides = (-1,) + (1,) * l + (2,) + (1,) * (n_d - 1 - l)
        vals *= wgt.reshape(sides)
        idx *= N ** (n_d - 1 - l)
        cols += idx.reshape(sides)
    rows = np.broadcast_to(sum(
        shaped(windows[c].astype(np.int64), c) * N ** (n - 1 - c)
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
