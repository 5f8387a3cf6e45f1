"""Discretized operator pieces: dyadic slabs of the averaging operator and
frequency-side multipliers.

The averaging pieces act on grid functions by midpoint quadrature of the
defining y'-integral, with the shifted argument x'' + S(x, y') evaluated by
periodic multilinear interpolation (in the x''-slot only; y' lands on grid
nodes).  Multilinear interpolation keeps the matrices entrywise nonnegative
wherever the cutoff is, which the box-counting experiments rely on.  The
mesh is the product of per-axis node windows; cutoffs and index offsets are
built from per-axis factors that broadcast, not from mesh-sized scratch.

Frequency multipliers depend on the y''-frequencies only and are stored as
that y''-block; they are matrix-free: real FFT over the trailing n'' axes,
multiplication by the even part of the block, inverse real FFT.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.sparse as sp

from ..errors import DilationCapError
from ..exponents import OperatorSpec
from ..scaling import DILATION_EXPONENT_CAP, MultiIndex
from .cutoffs import phi0, phi_radial
from .grid import Grid

# A verify run peaks at about 180 B per mesh entry of its largest slab over a
# 50 MB base (616 MB at 3.2 M entries, 418 MB at 2.1 M), so 2**23 entries
# keep a run under about 1.6 GB.
MAX_MESH_ENTRIES = 2 ** 23


# -- operator containers -------------------------------------------------------

class SparseKernelOperator:
    """Explicit (sparse) matrix acting on flattened grid functions."""

    def __init__(self, grid: Grid, matrix: sp.spmatrix):
        self.grid = grid
        self.matrix = matrix.tocsr()

    @functools.cached_property
    def matrix_csc(self) -> sp.csc_matrix:
        return self.matrix.tocsc()

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

    def to_dense(self) -> np.ndarray:
        """Dense matrix on the whole grid, the tests' reference."""
        n_rest = self.grid.size // self.ydd_block.size
        return np.kron(np.eye(n_rest), self.ydd_kernel_matrix())


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

        The product is never materialized: its absolute column sums, row sums
        and entries are streamed one y'-block at a time through the dense
        y''-kernel of the multiplier."""
        left, right = self.left, self.right
        if not (isinstance(left, SparseKernelOperator)
                and isinstance(right, FourierMultiplier)):
            raise TypeError("no absolute-kernel norms for this composite")
        kernel = right.ydd_kernel_matrix()
        n_block = kernel.shape[0]
        a = left.matrix_csc
        rowsums = np.zeros(self.grid.size)
        max_col = max_abs = 0.0
        for b in range(self.grid.size // n_block):
            sub = a[:, b * n_block:(b + 1) * n_block]
            if sub.nnz == 0:
                continue
            sub_csr = sub.tocsr()
            rows_nz = np.unique(sub.indices)
            g = np.abs(sub_csr[rows_nz, :] @ kernel)
            max_col = max(max_col, float(g.sum(axis=0).max()))
            rowsums[rows_nz] += g.sum(axis=1)
            max_abs = max(max_abs, float(g.max()))
        return max_col, float(rowsums.max()), max_abs


# -- averaging-piece discretization --------------------------------------------

def _discretize(spec: OperatorSpec, grid: Grid, j: int,
                shell: bool) -> SparseKernelOperator:
    n_p, n_d = spec.n_prime, spec.n_dprime
    n = n_p + n_d
    if grid.dim != n:
        raise ValueError(f"grid dimension {grid.dim} != n' + n'' = {n}")
    w = spec.weights  # dilation weight of each mesh axis: x', x'', y'
    weights = list(w.alpha_prime) + list(w.alpha_dprime) + list(w.beta_prime)
    if (j + 1) * max(weights) > DILATION_EXPONENT_CAP:
        raise DilationCapError(f"slab index {j} exceeds the dilation cap")
    if j < 0:
        raise ValueError("slab index must be nonnegative")

    N = grid.points_per_axis
    h = grid.spacing
    L = grid.half_width
    rho = spec.psi_radius
    nodes = grid.nodes()
    ndims = n + n_p  # mesh dims: x' x'' then y'

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

    def shaped(arr: np.ndarray, dim: int) -> np.ndarray:
        return arr.reshape((1,) * dim + (-1,) + (1,) * (ndims - dim - 1))

    axes = [shaped(nodes[windows[c]], c) for c in range(ndims)]
    mesh_shape = tuple(len(w) for w in windows)

    def product_cutoff(scale_j: int) -> np.ndarray:
        return math.prod(phi0(np.ldexp(t, scale_j * wt) / (2.0 * rho))
                         for t, wt in zip(axes, weights))

    psi = math.prod(phi0(t / rho) for t in axes)
    if shell:
        cutoff = psi * (product_cutoff(j) - product_cutoff(j + 1))
    else:
        cutoff = psi * product_cutoff(j)

    mask = cutoff != 0.0
    if not mask.any():  # also when a window holds no node
        return SparseKernelOperator(grid, sp.csr_matrix((grid.size,
                                                         grid.size)))

    # flat row index over the x-axes, flat y'-part of the column index; each
    # broadcasts over the axes it does not depend on
    row_flat = sum(shaped(windows[c].astype(np.int64), c) * N ** (n - 1 - c)
                   for c in range(n))
    col_yprime = sum(shaped(windows[n + i].astype(np.int64), n + i)
                     * N ** (n - 1 - i) for i in range(n_p))

    # interpolation data per x''-slot
    corner_idx: list[tuple[np.ndarray, np.ndarray]] = []
    corner_wgt: list[tuple[np.ndarray, np.ndarray]] = []
    for l in range(n_d):
        pos = (axes[n_p + l]
               + spec.s[l].evaluate(axes[:n_p], axes[n_p:n], axes[n:])
               + L) / h - 0.5
        i0 = np.floor(pos)
        frac = pos - i0
        i0 = i0.astype(np.int64) % N
        i1 = (i0 + 1) % N
        corner_idx.append((i0, i1))
        corner_wgt.append((1.0 - frac, frac))
    del pos  # only the corner indices and weights are needed below

    base_val = cutoff * h ** n_p
    rows_out, cols_out, vals_out = [], [], []
    for combo in itertools.product((0, 1), repeat=n_d):
        val = base_val
        col = col_yprime
        for l, side in enumerate(combo):
            val = val * corner_wgt[l][side]
            col = col + corner_idx[l][side] * N ** (n_d - 1 - l)
        rows_out.append(np.broadcast_to(row_flat, mesh_shape)[mask])
        cols_out.append(np.broadcast_to(col, mesh_shape)[mask])
        vals_out.append(val[mask])

    coo = sp.coo_matrix(
        (np.concatenate(vals_out),
         (np.concatenate(rows_out), np.concatenate(cols_out))),
        shape=(grid.size, grid.size))
    return SparseKernelOperator(grid, coo.tocsr())


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
