"""Discretized operator pieces: dyadic slabs of the averaging operator and
frequency-side multipliers.

The averaging pieces act on grid functions by midpoint quadrature of the
defining y'-integral, with the shifted argument x'' + S(x, y') evaluated by
periodic multilinear interpolation (in the x''-slot only; y' lands on grid
nodes).  Multilinear interpolation keeps the matrices entrywise nonnegative
wherever the cutoff is, which the box-counting experiments rely on.  The
mesh is the product of per-axis node windows; cutoffs and index offsets are
built from per-axis factors that broadcast, not from mesh-sized scratch.  A
slab's nonzero mesh entries come y'-block after y'-block, in chunks of whole
y'-blocks of bounded size, and only a chunk's scratch is held while it is
built.

One pass over the chunks of a slab, ``absolute_stats``, gives all that the
norms read: the absolute-kernel statistics of the slab composed with each
of its multipliers, the slab's entry count and, for the (2,2) norm, the
slab as an operator, its transpose written as a CSR chunk after chunk.  The
statistics keep per-multiplier accumulators over the grid between chunks.
At n'' = 1 they follow in closed form from the breakpoints of the
y''-kernel, with no product formed, and the slab streams; at n'' >= 2 each
y'-block is multiplied by the dense y''-kernel, in pieces of bounded size,
and the slab is built whole, as one chunk.

Frequency multipliers depend on the y''-frequencies only and are stored as
that y''-block; they are matrix-free: real FFT over the trailing n'' axes,
multiplication by the even part of the block, inverse real FFT.

``scipy.sparse`` is imported only where a CSR is built, so commands that
build none do not pay for the import.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..exponents import OperatorSpec
from ..scaling import MultiIndex, check_dilation
from .cutoffs import phi0, phi_radial
from .grid import Grid

if TYPE_CHECKING:
    import scipy.sparse as sp

# Memory held at once is bounded by MAX_MESH_ENTRIES mesh entries.  A pass
# over mesh entries peaks at about 73 B per nonzero entry (a whole slab:
# 196 MB at 2.1 M entries over a 51 MB base).  What counts: a slab built
# whole; when streamed, one y'-slice, the least a chunk holds; and,
# together, the statistics' accumulators (8 B values) and the (2,2) norm's
# CSR (12 B per stored value: an 8 B value and a 4 B index; its row
# pointer, one index per grid point, is not counted), against
# _BYTES_PER_ENTRY, nine 8 B values, per mesh entry.  At n'' >= 2 one dense
# y''-kernel of N^(2 n'') values (134 MB at N = 64) is held on top,
# uncounted.  2**23 entries keep a run under about 700 MB.
MAX_MESH_ENTRIES = 2 ** 23
_BYTES_PER_ENTRY = 9 * 8
_BYTES_PER_STORED = 12
# mesh entries per chunk, unless one y'-slice is more: from 2**14 to 2**18
# the decay-2d and grid-512 rank_one verify jobs take the same time, and
# the peak grows past 2**17 (decay-2d: 78 MB at 2**15, 84 MB at 2**17,
# 128 MB at 2**19, 249 MB at 2**21)
_CHUNK_ENTRIES = 2 ** 17
# values (4 MB) per piece of the absolute-kernel statistics: histogram
# cells at n'' = 1, kernel values of a y'-block product at n'' >= 2
_PIECE_VALUES = 2 ** 19


# -- operator containers -------------------------------------------------------

class SparseKernelOperator:
    """A slab, or a chunk of whole y'-blocks of one, as its nonzero mesh
    entries, y'-block after y'-block.

    Entry e is row ``rows[e]``; its 2^n'' interpolation corners lie in one
    y'-block, at columns ``cols[e]`` with values ``vals[e]``: at n'' = 1 the
    x''-nodes i0 and i0 + 1 with base (1 - f) and base f, the pair (N-1, 0)
    stored in increasing column order.  Indices are int32 below 2^31 grid
    points.  The sparse matrix, for checks, is assembled from the entries
    only when first asked for, and is then held with them."""

    def __init__(self, grid: Grid, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray):
        self.grid = grid
        self.rows, self.cols, self.vals = rows, cols, vals

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        rows = np.repeat(self.rows, self.cols.shape[1])
        return sp.coo_matrix((self.vals.ravel(), (rows, self.cols.ravel())),
                             shape=(self.grid.size,) * 2).tocsr()


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
    """left o right, applied right-to-left.  ``abs_stats``, given for a slab
    composed with a y''-only multiplier, is the (max column sum, max row
    sum, max entry) of its absolute kernel, as ``absolute_stats`` returns
    it."""

    def __init__(self, left, right, abs_stats=None):
        self.left, self.right, self.abs_stats = left, right, abs_stats
        self.grid = right.grid

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.left.apply(self.right.apply(v))

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.right.apply_transpose(self.left.apply_transpose(v))


# -- absolute-kernel statistics ------------------------------------------------

def refuse_oversized_pass(grid: Grid, n_dprime: int, mults: int,
                          stored: int | None) -> None:
    """Refuse a pass of ``absolute_stats`` over ``mults`` multipliers of
    rank ``n_dprime``, and a CSR of ``stored`` values when given, whose
    accumulators and CSR would hold more than the memory of
    MAX_MESH_ENTRIES mesh entries; it needs no multiplier built."""
    sums = _InterpolationSums if n_dprime == 1 else _ProductSums
    arrays, csr = sums.arrays * mults, stored is not None
    need = 8 * arrays * grid.size + _BYTES_PER_STORED * (stored if csr else 0)
    limit = MAX_MESH_ENTRIES * _BYTES_PER_ENTRY
    if need > limit:
        with_csr = f" and a CSR of {stored} stored values" if csr else ""
        raise MemoryError(
            f"the statistics need {arrays} arrays of {grid.size} values"
            f"{with_csr}, {need} B, more than the {limit} B of the limit of "
            f"{MAX_MESH_ENTRIES} mesh entries")


def absolute_stats(chunks: Iterable[SparseKernelOperator],
                   mults: Sequence[FourierMultiplier],
                   stored: int | None = None
                   ) -> tuple[list, int, _TransposeRows | None]:
    """The one pass over a slab, given as chunks of whole y'-blocks in entry
    order, composed with each of ``mults`` (y''-only multipliers of one
    rank n'').  Each chunk goes to every multiplier in turn before the next
    chunk is read, so only the chunk and the accumulators of the statistics
    are held: at n'' = 1 the closed form from the breakpoints of the
    y''-kernel, at n'' >= 2 the product of each y'-block with the dense
    y''-kernel, in pieces.

    Returns the (max column sum, max row sum, max entry) of the absolute
    kernel of each composite, the slab's entry count and, given ``stored``,
    the slab as an operator: its transpose, written in the same pass as a
    CSR with room for ``stored`` values (else None).  What the pass holds
    is bounded by ``refuse_oversized_pass``, which the caller runs first."""
    sums = (_InterpolationSums if mults[0].ydd_block.ndim == 1
            else _ProductSums)
    accs = [sums(mult) for mult in mults]
    if stored is not None:
        accs.append(_TransposeRows(mults[0].grid, stored))
    start = 0  # index in the slab of the chunk's first entry
    for chunk in chunks:
        for acc in accs:
            acc.add(chunk, start)
        start += chunk.rows.size
    op = accs.pop().result() if stored is not None else None
    return [acc.result() for acc in accs], start, op


class _InterpolationSums:
    """The statistics at n'' = 1 of the slab composed with one multiplier,
    from the breakpoints of its y''-kernel u, accumulated chunk by chunk.

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
    so that the histogram of a piece has at most ``_PIECE_VALUES`` cells.
    Pieces are cut at multiples of that size counted from the slab's first
    entry and at chunk ends, which fall between y'-blocks: the groups of a
    piece, and so every sum, do not depend on how the slab is chunked."""

    arrays = 4  # accumulators over the grid

    def __init__(self, mult: FourierMultiplier):
        u = np.fft.ifft(mult.ydd_block).real
        self.n = u.size
        d = np.roll(u, -1) - u
        sign = np.sign(np.where(u != 0.0, u, d))  # of u_m + f d_m above f = 0
        self.signed_u, self.signed_d = sign * u, sign * d
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -u / d
        cross = np.flatnonzero((t > 0.0) & (t < 1.0))
        # highest t_m first
        self.cross = cross[np.argsort(-t[cross], kind="stable")]
        self.rising = t[self.cross][::-1]
        self.ranks = self.cross.size + 1

        def exact(knots: np.ndarray, reduce) -> tuple[np.ndarray, np.ndarray]:
            knots = np.unique(np.concatenate(([0.0, 1.0], knots)))
            return knots, reduce(np.abs(u[:, None] + knots * d[:, None]),
                                 axis=0)

        self.row_fn = exact(self.rising, np.sum)
        self.entry_fn = exact(_envelope_knots(u, d), np.max)
        size = mult.grid.size
        self.rowsums, self.past_sums = np.zeros(size), np.zeros(size)
        # per (y'-block, i0) group: the sums of |base| and |base| f
        self.base_sums, self.frac_sums = np.zeros(size), np.zeros(size)
        self.max_abs = 0.0
        self.step = max(1, _PIECE_VALUES // self.ranks)

    def add(self, chunk: SparseKernelOperator, start: int) -> None:
        """Add the entries of ``chunk``, the slab's entries from ``start``."""
        m = chunk.rows.size
        edges = np.unique(np.r_[0, np.arange(-start % self.step, m,
                                             self.step), m]).tolist()
        for a, b in zip(edges[:-1], edges[1:]):
            self._add_piece(chunk.rows[a:b], chunk.cols[a:b],
                            chunk.vals[a:b])

    def _add_piece(self, rows: np.ndarray, cols: np.ndarray,
                   vals: np.ndarray) -> None:
        n, cross, ranks = self.n, self.cross, self.ranks
        wrap = cols[:, 1] - cols[:, 0] > 1  # the pair (0, N-1): i0 = N-1
        base = vals[:, 0] + vals[:, 1]
        f = np.where(wrap, vals[:, 0], vals[:, 1]) / base
        weight = np.abs(base)
        np.add.at(self.rowsums, rows, weight * np.interp(f, *self.row_fn))
        self.max_abs = max(self.max_abs, float(
            (weight * np.interp(f, *self.entry_fn)).max()))
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
        rank = cross.size - np.searchsorted(self.rising, f)
        cell = (np.cumsum(seen) - 1)[key] * ranks + rank
        past, past_f = (np.bincount(cell, w, minlength=groups.size * ranks)
                        .reshape(-1, ranks).cumsum(axis=1)
                        for w in (weight, weight * f))
        self.base_sums[first + groups] += past[:, -1]
        self.frac_sums[first + groups] += past_f[:, -1]
        target = (groups - groups % n)[:, None] + (groups[:, None] - cross) % n
        self.past_sums[first:first + seen.size] += np.bincount(
            target.ravel(), (past[:, :-1] * self.signed_u[cross]
                             + past_f[:, :-1] * self.signed_d[cross]).ravel(),
            minlength=seen.size)

    def result(self) -> tuple[float, float, float]:
        n = self.n
        colsums = (self.base_sums.reshape(-1, n) @ _circulant(self.signed_u)
                   + self.frac_sums.reshape(-1, n)
                   @ _circulant(self.signed_d)).ravel()
        return (float((colsums - 2 * self.past_sums).max()),
                float(self.rowsums.max()), self.max_abs)


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


class _ProductSums:
    """The statistics at n'' >= 2 of the slab composed with one multiplier:
    each y'-block is a contiguous run of the slab's entries, one row per
    entry with its corners as the columns, multiplied by the dense
    y''-kernel.  The kernel, and one buffer of ``_PIECE_VALUES`` kernel
    values into which a run is multiplied piece after piece, are built in
    ``add`` and dropped when it returns: a pass over all the multipliers of
    a slab holds one kernel at a time, and the memory does not grow with
    the slab."""

    arrays = 1  # accumulators over the grid

    def __init__(self, mult: FourierMultiplier):
        self.mult = mult
        self.rowsums = np.zeros(mult.grid.size)
        self.max_col = self.max_abs = 0.0

    def add(self, chunk: SparseKernelOperator, start: int) -> None:
        """Add the entries of ``chunk``; a y'-block's pieces are counted
        from its first entry, so ``start`` is not needed."""
        import scipy.sparse as sp
        kernel = self.mult.ydd_kernel_matrix()
        n_block = kernel.shape[0]
        step = max(1, _PIECE_VALUES // n_block)  # entries per piece
        # row 0 carries the block's column sums so far: summing it with the
        # piece's rows adds in the same order as one sum over the whole run
        buf = np.empty((step + 1, n_block))
        n_corners = chunk.cols.shape[1]
        indptr = np.arange(0, step * n_corners + 1, n_corners)
        # y'-block bounds: 0, each entry that starts a new block, the end
        ends = np.flatnonzero(np.diff(chunk.cols[:, 0] // n_block,
                                      prepend=-1, append=-1))
        for lo, hi in zip(ends[:-1], ends[1:]):
            buf[0] = 0.0
            for a in range(lo, hi, step):
                m = min(step, hi - a)
                sub = sp.csr_matrix(
                    (chunk.vals[a:a + m].ravel(),
                     chunk.cols[a:a + m].ravel() % n_block, indptr[:m + 1]),
                    shape=(m, n_block))
                g = np.abs(sub @ kernel, out=buf[1:m + 1])
                self.rowsums[chunk.rows[a:a + m]] += g.sum(axis=1)
                self.max_abs = max(self.max_abs, float(g.max()))
                buf[0] = buf[:m + 1].sum(axis=0)
            self.max_col = max(self.max_col, float(buf[0].max()))

    def result(self) -> tuple[float, float, float]:
        return self.max_col, float(self.rowsums.max()), self.max_abs


class _TransposeRows:
    """The slab as an operator for the (2,2) norm: its transpose as a CSR
    ``at``, the rows written chunk after chunk.

    A chunk is a run of the first y'-axis window, the most significant
    digit of a column, so its columns, the rows of the transpose, form one
    range that no other chunk shares.  Within a y'-block the entries come in
    ascending row, so a stable sort of a chunk's columns keeps each row of
    the transpose in ascending column: the arrays, and the order in which
    products sum, are those of the canonical CSR of the slab transposed.
    The arrays are allocated once, with room for ``capacity`` stored
    values; pages never written are never resident."""

    def __init__(self, grid: Grid, capacity: int):
        index = np.int32 if max(grid.size, capacity) < 2 ** 31 else np.int64
        self.grid = grid
        self.indptr = np.zeros(grid.size + 1, dtype=index)
        self.indices = np.empty(capacity, dtype=index)
        self.data = np.empty(capacity)
        self.nnz = 0

    def add(self, chunk: SparseKernelOperator, start: int) -> None:
        """Write the rows of the columns of ``chunk``; ``start`` is not
        needed."""
        keys = chunk.cols.ravel()
        if not keys.size:
            return
        order = np.argsort(keys, kind="stable")
        lo, end = keys[order[0]], self.nnz + keys.size
        self.indices[self.nnz:end] = chunk.rows[order // chunk.cols.shape[1]]
        self.data[self.nnz:end] = chunk.vals.ravel()[order]
        self.nnz = end
        counts = np.bincount(keys - lo)
        self.indptr[lo + 1:lo + 1 + counts.size] += counts

    def result(self) -> _TransposeRows:
        """This operator, with ``at`` finished."""
        import scipy.sparse as sp
        # shrunk in place: scipy copies arrays that are views of less than
        # half of a larger one
        for values in (self.indices, self.data):
            values.resize(self.nnz, refcheck=False)
        np.cumsum(self.indptr, out=self.indptr)
        self.at = sp.csr_matrix((self.data, self.indices, self.indptr),
                                shape=(self.grid.size,) * 2)
        return self

    # two methods, not one under two names: a wrapper of one must not wrap both
    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.at.T @ v

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.at @ v


# -- averaging-piece discretization --------------------------------------------

class SlabMesh:
    """The mesh of slab j (shell cutoff) or of the tail from j on (ball
    cutoff), from which its entries are built in chunks of whole y'-blocks.
    The per-axis node windows are found once; a chunk is a run of the first
    y'-axis window, and its cutoff and index offsets are built from
    per-axis factors cut to that run.  Every entry is computed from the
    same per-axis values whatever the run, so the chunks put together are
    the whole slab bit for bit: at n'' = 1 ``absolute_stats`` reads the
    slab in these chunks and never holds it whole."""

    def __init__(self, spec: OperatorSpec, grid: Grid, j: int, shell: bool):
        n_p, n_d = spec.n_prime, spec.n_dprime
        n = n_p + n_d
        if grid.dim != n:
            raise ValueError(f"grid dimension {grid.dim} != n' + n'' = {n}")
        weights = spec.weights.flat  # dilation weight of each mesh axis
        check_dilation(j + 1, weights, f"slab index {j}")
        if j < 0:
            raise ValueError("slab index must be nonnegative")
        self.spec, self.grid, self.j, self.shell = spec, grid, j, shell
        rho = spec.psi_radius
        nodes = grid.nodes()
        # per-axis windows limited by supp(psi) (2 rho) and the outer phi
        # shell, on the mesh axes x', x'' then y'
        self.windows = [
            np.nonzero(np.abs(nodes) <= min(2.0 * rho, np.ldexp(
                4.0 * rho, -j * wt), grid.half_width) + 1e-12)[0]
            for wt in weights]
        self.axes = [self._shaped(nodes[w], c)
                     for c, w in enumerate(self.windows)]
        self.entries = math.prod(map(len, self.windows))
        self.y_nodes = len(self.windows[n])  # the first y'-axis: mesh dim 0
        self.per_slice = self.entries // max(1, self.y_nodes)

    def _shaped(self, arr: np.ndarray, c: int) -> np.ndarray:
        # axis c of x', x'', y' lies on mesh dim c + n' (mod ndims): y' comes
        # first, so each y'-block is one run of the entries in mesh order
        n_p = self.spec.n_prime
        ndims = 2 * n_p + self.spec.n_dprime
        dim = (c + n_p) % ndims
        return arr.reshape((1,) * dim + (-1,) + (1,) * (ndims - dim - 1))

    def hold(self, entries: int, what: str) -> None:
        """Refuse to hold more than MAX_MESH_ENTRIES mesh entries."""
        if entries > MAX_MESH_ENTRIES:
            raise MemoryError(f"{what} needs {entries} mesh entries, more "
                              f"than the limit of {MAX_MESH_ENTRIES}")

    def chunks(self) -> Iterator[SparseKernelOperator]:
        """The slab in runs of at most ``_CHUNK_ENTRIES`` mesh entries, or
        of one y'-slice when a slice is more; a y'-slice of more than
        MAX_MESH_ENTRIES is refused."""
        self.hold(self.per_slice, f"a y'-slice of slab j={self.j}")
        step = max(1, _CHUNK_ENTRIES // max(1, self.per_slice))
        for lo in range(0, max(1, self.y_nodes), step):
            yield self.chunk(slice(lo, lo + step))

    def chunk(self, run: slice) -> SparseKernelOperator:
        """The entries of the y'-slices ``run`` of the first y'-axis."""
        spec, grid, j = self.spec, self.grid, self.j
        n_p, n_d = spec.n_prime, spec.n_dprime
        n = n_p + n_d
        N, h, L = grid.points_per_axis, grid.spacing, grid.half_width
        weights, rho = spec.weights.flat, spec.psi_radius
        ax = [a[run] if c == n else a for c, a in enumerate(self.axes)]

        def product_cutoff(scale_j: int) -> np.ndarray:
            return math.prod(phi0(np.ldexp(t, scale_j * wt) / (2.0 * rho))
                             for t, wt in zip(ax, weights))

        cutoff = (product_cutoff(j) - product_cutoff(j + 1) if self.shell
                  else product_cutoff(j))
        cutoff *= math.prod(phi0(t / rho) for t in ax)  # psi

        # one entry per nonzero of the cutoff; the 2^n'' corners of its x''-
        # interpolation run along trailing axes of length 2, one per x''-slot
        mask = cutoff != 0.0
        corner = (-1,) + (1,) * n_d
        vals = np.empty((np.count_nonzero(mask),) + (2,) * n_d)
        vals[...] = (cutoff[mask] * h ** n_p).reshape(corner)
        del cutoff
        index = np.int32 if grid.size < 2 ** 31 else np.int64
        flat = [self._shaped(w.astype(index), c)
                for c, w in enumerate(self.windows)]
        cols = np.empty(vals.shape, dtype=index)  # y'-part, then x''-corners
        cols[...] = np.broadcast_to(sum(
            flat[n + i] * N ** (n - 1 - i) for i in range(n_p))[run],
            mask.shape)[mask].reshape(corner)
        for l in range(n_d):
            # the x''-position in cells, then its fraction
            frac = ((ax[n_p + l]
                     + spec.s[l].evaluate(ax[:n_p], ax[n_p:n], ax[n:])
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
        rows = np.broadcast_to(sum(flat[c] * N ** (n - 1 - c)
                                   for c in range(n)), mask.shape)[mask]
        return SparseKernelOperator(grid, rows,
                                    cols.reshape(rows.size, 2 ** n_d),
                                    vals.reshape(rows.size, 2 ** n_d))

    def whole(self) -> SparseKernelOperator:
        """The slab in one chunk, for n'' >= 2 and for checks against the
        streamed slab.  Put together from small chunks instead, a whole slab
        peaks higher from the second build in a process on, as the
        allocator keeps the chunks on its heap."""
        self.hold(self.entries, f"slab j={self.j}")
        return self.chunk(slice(None))


def discretize_tj(spec: OperatorSpec, grid: Grid, j: int) -> SparseKernelOperator:
    """The j-th dyadic slab of the averaging operator (shell cutoff)."""
    return SlabMesh(spec, grid, j, shell=True).whole()


def discretize_uj(spec: OperatorSpec, grid: Grid, j: int) -> SparseKernelOperator:
    """The tail operator: everything at scales j and beyond (ball cutoff)."""
    return SlabMesh(spec, grid, j, shell=False).whole()


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
