"""Discretized operator pieces: dyadic slabs of the averaging operator and
frequency-side multipliers.

The averaging pieces act on grid functions by midpoint quadrature of the
defining y'-integral, with the shifted argument x'' + S(x, y') evaluated by
periodic multilinear interpolation (in the x''-slot only; y' lands on grid
nodes).  Multilinear interpolation keeps the matrices entrywise nonnegative
wherever the cutoff is, which the box-counting experiments rely on.  The
mesh is the product of per-axis node windows; a slab's nonzero mesh entries
come y'-block after y'-block, in chunks that are runs of y'-blocks (of the
y'-window flattened in C order), each as its row, the column of its lower
x''-corner, its weight and its x''-fractions: its 2^n'' corners are laid
out only for a CSR (``SparseKernelOperator.corners``).

One pass over the chunks of a slab, ``absolute_stats``, gives all that the
norms read: the absolute-kernel statistics of the slab composed with each
of its multipliers (at n'' = 1 in closed form from the breakpoints of the
y''-kernel, at n'' >= 2 by products with the dense y''-kernel), the slab's
entry count and, for the (2,2) norm, the CSR of its transpose on its
support: the grid nodes that carry an entry and the whole y''-lines of the
y'-blocks that hold one, off which the composite vanishes.  The next chunk
is built on a worker thread while the pass reads this one.  From the mesh
alone, ``pass_account`` counts the bytes such a pass holds at one time,
both chunks included, and refuses one past MAX_PASS_BYTES before it
allocates.

Frequency multipliers depend on the y''-frequencies only and are stored as
that y''-block; they are matrix-free: real FFT over the trailing n'' axes,
multiplication by the even part of the block, inverse real FFT, on the
whole grid or on any run of whole y''-lines.

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
from .norms import KRYLOV_DIM

if TYPE_CHECKING:
    import scipy.sparse as sp

# the bytes a pass over a slab may hold at one time, by ``pass_account``
MAX_PASS_BYTES = 576 * 2 ** 20
# mesh entries per chunk, unless one y'-block is more; two chunks are alive
# at once.  The decay-2d verify job (2 cores, medians of 7, two runs) takes
# 0.51-0.52 s at 2**14, 0.32-0.33 s at 2**15, 0.26-0.29 s at 2**16 and
# 0.22-0.24 s at 2**17, and its ru_maxrss grows past 2**16: 38 MB at 2**14,
# 44 MB at 2**16, 51 MB at 2**17, 86 MB at 2**19, 180-188 MB at 2**21
_CHUNK_ENTRIES = 2 ** 16
# values (4 MB) per piece of the absolute-kernel statistics: histogram
# cells at n'' = 1, or one y'-block's; y'-block product values at n'' >= 2
_PIECE_VALUES = 2 ** 19


# -- operator containers -------------------------------------------------------

class SparseKernelOperator:
    """A slab, or a chunk of a run of its y'-blocks, as its nonzero mesh
    entries, y'-block after y'-block: entry e is row ``rows[e]`` with weight
    c = ``weight[e]`` (the cutoff times the y'-cell volume) at the lower
    column ``low[e]``, every x''-slot at its lower node i0, and ``frac[e, l]``
    of a cell further in slot l.  Indices are int32 below 2^31 grid points.
    The sparse matrix, for checks, is built when first asked for."""

    def __init__(self, grid: Grid, rows: np.ndarray, low: np.ndarray,
                 weight: np.ndarray, frac: np.ndarray):
        self.grid = grid
        self.rows, self.low, self.weight, self.frac = rows, low, weight, frac

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        cols, vals = self.corners()
        rows = np.repeat(self.rows, cols.shape[1])
        return sp.coo_matrix((vals.ravel(), (rows, cols.ravel())),
                             shape=(self.grid.size,) * 2).tocsr()

    def corners(self, part=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The one layout of the interpolation corners of the entries ``part``:
        columns and values, (entries, 2^n'') each, slot 0 most significant.
        Slot l has the x''-nodes i0 and i0 + 1 with weights 1 - f and f, the
        pair (N-1, 0) in increasing column order, (0, N-1) with f and 1 - f;
        a value is c times the weight of slot 0, then of slot 1, and so on."""
        n, n_d = self.grid.points_per_axis, self.frac.shape[1]
        low, frac = self.low[part], self.frac[part]
        cols, vals = low[:, None], self.weight[part, None]
        for l in range(n_d):
            stride = n ** (n_d - 1 - l)
            wrap = low // stride % n == n - 1
            wgt = np.stack((1.0 - frac[:, l], frac[:, l]), axis=1)
            step = np.zeros_like(wgt, dtype=low.dtype)
            step[:, 1] = stride
            wgt[wrap], step[wrap] = wgt[wrap, ::-1], ((1 - n) * stride, 0)
            shape = (low.size, 2 ** (l + 1))
            vals = (vals[:, :, None] * wgt[:, None]).reshape(shape)
            cols = (cols[:, :, None] + step[:, None]).reshape(shape)
        return cols, vals


class FourierMultiplier:
    """Real part of the multiplication by a real symbol s at each discrete
    frequency: a multiplication by the even part (s(xi) + s(-xi))/2, so the
    operator is symmetric.

    The symbol depends on the y''-frequencies only; ``ydd_block`` holds it
    as an array over the trailing n'' axes, the only axes the FFT runs over
    and the y''-kernel of the absolute-kernel statistics.  So it filters
    any number of whole y''-lines, not only the ``domain`` of the grid.
    """

    def __init__(self, grid: Grid, ydd_block: np.ndarray):
        if ydd_block.shape != grid.shape()[grid.dim - ydd_block.ndim:]:
            raise ValueError("y''-block shape does not match the grid")
        self.grid, self.domain = grid, grid.size
        self.ydd_block = ydd_block

    @functools.cached_property
    def _half_symbol(self) -> np.ndarray:
        flipped = block = self.ydd_block  # s(-xi): i goes to -i mod N
        for ax in range(block.ndim):
            flipped = np.roll(np.flip(flipped, ax), 1, ax)
        return ((block + flipped) / 2)[..., :block.shape[-1] // 2 + 1]

    def _filter(self, v: np.ndarray) -> np.ndarray:
        axes = tuple(range(-self._half_symbol.ndim, 0))
        field = np.asarray(v, dtype=float).reshape((-1,)
                                                   + self.ydd_block.shape)
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
    it.  Such a composite runs on the slab's support: the multiplier
    filters the whole y''-lines of the slab's ``domain``, and the slab
    maps them to its rows."""

    def __init__(self, left, right, abs_stats=None):
        self.left, self.right, self.abs_stats = left, right, abs_stats
        self.grid = right.grid

    @property
    def domain(self) -> int:
        return self.left.domain

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.left.apply(self.right.apply(v))

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.right.apply_transpose(self.left.apply_transpose(v))


# -- absolute-kernel statistics ------------------------------------------------

def pass_account(mesh: SlabMesh, mults: int = 0, csr: bool = False,
                 whole: bool = False) -> dict[str, int]:
    """The most bytes a pass over ``mesh`` (in chunks, or ``whole``) with
    ``mults`` multipliers, and the (2,2) CSR and its Lanczos run when
    ``csr``, holds at one time: what it keeps and its largest transient
    set, by the shape and dtype of each array the code allocates, from the
    mesh alone.  Refused with MemoryError, naming the two largest terms,
    past MAX_PASS_BYTES."""
    spec, n, size = mesh.spec, mesh.grid.points_per_axis, mesh.grid.size
    n_d, block = spec.n_dprime, n ** spec.n_dprime  # a y'-block's columns
    index = 4 if max(size, mesh.stored) < 2 ** 31 else 8
    blocks = mesh.blocks  # the mesh's y'-blocks
    chunk_blocks = blocks if whole else min(blocks, mesh.step)  # the first's
    entries = chunk_blocks * mesh.per_block
    # a chunk's columns: the y'_1-slices its run of y'-blocks meets, of
    # N^(n'-1) y'-blocks each
    y1 = max(1, len(mesh.windows[spec.n_prime + n_d]))
    rest = max(1, blocks // y1)  # y'-blocks per y'_1-slice
    slices = min(y1, (chunk_blocks + 2 * rest - 2) // rest)
    span = slices * n ** (spec.n_prime - 1) * block
    per_entry = 2 * index + 8 + 8 * n_d  # rows, low, weight, frac
    chunk = entries * per_entry
    # per corner: its column and value, their layout (``corners``), and an
    # argsort and the gathers of the CSR, or the CSR of a product's piece
    corner = 2 ** n_d * (32 + 3 * index)
    # the transient sets.  A chunk being built holds its mask and two
    # mesh-sized floats (S and an x''-position), four when a term of S
    # varies on every mesh axis; in chunks, the next is built while one is
    # read, so a set that reads a chunk holds the largest chunk after the
    # first and its scratch too
    full = any(all(m.exp_x + m.exp_xx) and any(m.exp_y)
               for poly in spec.s for m in poly.monomials())
    build = per_entry + 1 + 8 * (2 + 2 * full)
    later = 0 if whole else max(0, min(mesh.step, blocks - mesh.step))
    reading = chunk + later * mesh.per_block * build
    scratch = {"chunk scratch": max(entries * build, reading)}
    if n_d == 1:
        # per multiplier four arrays over the grid, sixteen over the y''-axis;
        # a piece holds three arrays and an index per entry, three over its
        # columns and three over its (x''-node, rank) cells: a y'-block
        # reaches its x''-window widened by the terms of S that vary in it,
        # with at most N + 1 ranks each (pieces: see _InterpolationSums)
        acc = 8 * mults * (4 * size + 16 * n)
        vary = sum(abs(float(m.coeff)) * math.prod(
            r ** e for r, e in zip(mesh.radii, m.exp_x + m.exp_xx + m.exp_y))
            for m in spec.s[0].monomials() if any(m.exp_x + m.exp_xx))
        reach = min(n, len(mesh.windows[spec.n_prime]) + 2
                    + int(2 * vary / mesh.grid.spacing))
        cells = min(chunk_blocks * reach * (n + 1),
                    max(_PIECE_VALUES * reach // n, reach * (n + 1)))
        scratch["statistics scratch"] = bool(mults) * (
            reading + entries * (24 + index) + 8 * (
                3 * min(span, max(_PIECE_VALUES, n)) + 3 * cells))
        # _circulant's matrix and index table; five arrays over the columns
        # of the y'-blocks that hold an entry, and a mark per y'-block
        scratch["circulants"] = bool(mults) * (8 * n * (2 * n + 5 * blocks)
                                               + size // n)
    else:
        # with any entry: the y''-kernel, a step + 1 row buffer, one product
        acc = 8 * mults * (size + 2 * block)
        step = max(1, _PIECE_VALUES // block)
        piece = min(step, entries)
        scratch["statistics scratch"] = bool(mults and entries) * (
            reading + 8 * block * (block + step + 1 + piece) + piece * corner)
    # the CSR at capacity, its row pointer and row mark over the grid, R and
    # C (at most the mesh's rows, and the y''-lines of its y'-blocks); one
    # y'-block's corners and column counts, as the chunk is written block
    # after block; Lanczos's basis and one product, over C
    rows, domain = mesh.per_block, blocks * block
    scratch["CSR scratch"] = csr * (reading + rows * corner + 8 * block)
    scratch["Lanczos"] = csr * 8 * ((KRYLOV_DIM + 7) * domain + 2 * rows)
    worst = max(scratch, key=scratch.get)
    terms = {"accumulators": acc,
             "CSR": csr * (mesh.stored * (8 + index) + (2 * size + 1) * index
                           + 8 * (rows + domain)),
             worst: scratch[worst], "objects": 2 ** 17}  # the interpreter's
    need = sum(terms.values())
    if need > MAX_PASS_BYTES:
        top = sorted(terms, key=terms.get, reverse=True)[:2]
        raise MemoryError(f"slab j={mesh.j} needs {need} B at once, more than "
                          f"the limit of {MAX_PASS_BYTES} B: " + ", ".join(
                              f"{terms[name]} B of {name}" for name in top))
    return terms


def absolute_stats(chunks: Iterable[SparseKernelOperator],
                   mults: Sequence[FourierMultiplier],
                   stored: int | None = None
                   ) -> tuple[list, int, _TransposeRows | None]:
    """The one pass over a slab, given as chunks of whole y'-blocks in entry
    order, composed with each of ``mults`` (y''-only multipliers of one
    rank n''): each chunk goes to every multiplier in turn before the next
    is read, and how the slab is chunked changes no bit of the result.  A
    worker thread takes the next chunk from ``chunks`` while this one is
    read, never more than one ahead, and ends with the pass; the sums stay
    on the calling thread, in chunk order.

    Returns the (max column sum, max row sum, max entry) of the absolute
    kernel of each composite, the slab's entry count and, given ``stored``,
    the slab as an operator on its support: its transpose, written in the
    same pass as a CSR with room for ``stored`` values (else None).  The
    caller bounds what the pass holds with ``pass_account`` first."""
    sums = (_InterpolationSums if mults[0].ydd_block.ndim == 1
            else _ProductSums)
    accs = [sums(mult) for mult in mults]
    if stored is not None:
        accs.append(_TransposeRows(mults[0].grid, mults[0].ydd_block.size,
                                   stored))
    from concurrent.futures import ThreadPoolExecutor
    chunks, entries = iter(chunks), 0
    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(next, chunks, None)
        while (chunk := ahead.result()) is not None:
            ahead = pool.submit(next, chunks, None)
            for acc in accs:
                acc.add(chunk)
            entries += chunk.rows.size
            del chunk  # before the one after the next is built
    op = accs.pop().result() if stored is not None else None
    return [acc.result() for acc in accs], entries, op


def _block_runs(low: np.ndarray, span: int) -> list[tuple[int, int]]:
    """The nonempty runs of entries whose lower columns lie in one range
    [k span, (k + 1) span), span a multiple of the y'-block size, found by
    bisection: ``low < k span`` is monotone along the entries."""
    if not low.size:
        return []
    cuts = np.arange(low[0] // span + 1, low[-1] // span + 1) * span
    edges = np.unique(np.r_[0, np.searchsorted(
        low, cuts.astype(low.dtype)), low.size]).tolist()
    return list(zip(edges[:-1], edges[1:]))


class _InterpolationSums:
    """The statistics at n'' = 1 of the slab composed with one multiplier,
    from the breakpoints of its y''-kernel u, accumulated chunk by chunk.

    An entry of weight c, lower x''-node i0 and fraction f has the product
    row c (u_m + f d_m) at column (i0 - m) mod N, where d_m = u_{m+1} - u_m.
    Each u_m + f d_m changes sign at most once in f, at t_m = -u_m / d_m, so:

    - the row's absolute sum is |c| F(f) and its largest entry |c| G(f),
      with F = sum_m |u_m + f d_m| and G = max_m |u_m + f d_m| convex and
      piecewise linear: both are evaluated exactly at their knots (the t_m
      for F, the corners of the upper envelope of the lines for G) and
      interpolated between them;
    - a column sum is the signed sum with the signs just above f = 0, which
      is a circulant product of the per-(y'-block, i0) sums of |c| and
      |c| f, minus twice the terms of the entries past each t_m, read off
      cumulative sums of a (group, breakpoint rank) histogram; the y'-blocks
      that hold no entry have column sums 0 and take no product.

    The entries are taken in pieces of max(1, ``_PIECE_VALUES`` // (ranks
    N)) whole y'-blocks, counted by the global block index: a histogram has
    at most max(``_PIECE_VALUES``, N ranks) cells, and as each y'-block adds
    its sums alone, no sum depends on the pieces or the chunks."""

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
        # per (y'-block, i0) group: the sums of |c| and |c| f
        self.base_sums, self.frac_sums = np.zeros(size), np.zeros(size)
        self.max_abs = 0.0
        self.span = self.n * max(1, _PIECE_VALUES // (self.ranks * self.n))

    def add(self, chunk: SparseKernelOperator) -> None:
        """Add the entries of ``chunk``."""
        for a, b in _block_runs(chunk.low, self.span):
            self._add_piece(chunk.rows[a:b], chunk.low[a:b],
                            chunk.weight[a:b], chunk.frac[a:b, 0])

    def _add_piece(self, rows: np.ndarray, low: np.ndarray,
                   weight: np.ndarray, f: np.ndarray) -> None:
        n, cross, ranks = self.n, self.cross, self.ranks
        weight = np.abs(weight)
        np.add.at(self.rowsums, rows, weight * np.interp(f, *self.row_fn))
        self.max_abs = max(self.max_abs, float(
            (weight * np.interp(f, *self.entry_fn)).max()))
        # group: y'-block and i0, as the lower column, counted from the
        # piece's first y'-block; ``seen`` spans its blocks
        first = low[0] - low[0] % n
        key = low - first
        seen = np.zeros(low[-1] - low[-1] % n + n - first, np.intp)
        seen[key] = 1
        groups = np.flatnonzero(seen)
        # cell: the group, then the rank: how many t_m are >= f, so an entry
        # is past the q-th highest breakpoint exactly when its rank is <= q
        cell = np.cumsum(seen)[key] * ranks
        del key
        cell -= np.searchsorted(self.rising, f) + 1
        past, past_f = (np.bincount(cell, w, minlength=groups.size * ranks)
                        .reshape(-1, ranks).cumsum(axis=1)
                        for w in (weight, weight * f))
        self.base_sums[first + groups] += past[:, -1]
        self.frac_sums[first + groups] += past_f[:, -1]
        # the terms in place of the cumulative sums, so that at most three
        # arrays over the cells are alive at once
        terms = past[:, :-1]
        terms *= self.signed_u[cross]
        terms += np.multiply(past_f[:, :-1], self.signed_d[cross],
                             out=past_f[:, :-1])
        del past_f
        target = (groups - groups % n)[:, None] + (groups[:, None] - cross) % n
        self.past_sums[first:first + seen.size] += np.bincount(
            target.ravel(), terms.ravel(), minlength=seen.size)

    def result(self) -> tuple[float, float, float]:
        base, frac, past = (sums.reshape(-1, self.n) for sums in (
            self.base_sums, self.frac_sums, self.past_sums))
        held = base.any(axis=1)
        colsums = (base[held] @ _circulant(self.signed_u) + frac[held]
                   @ _circulant(self.signed_d) - 2 * past[held])
        return (float(colsums.max(initial=-np.inf if held.all() else 0.0)),
                float(self.rowsums.max()), self.max_abs)


def _envelope_knots(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The f in (0, 1) where max_m |u_m + f d_m| changes line: the upper
    envelope of the lines +-(u_m + f d_m) is the upper convex hull of the
    points (slope, intercept), found by a monotone chain.  The knots do not
    change with the scale of u and d, so both are first scaled by a power
    of two (exactly) to a largest magnitude in [1/2, 1): the products of
    the turn test then do not underflow to 0, as they do for a subnormal
    kernel, where every turn would read as collinear and drop its knot."""
    peak = max(np.abs(u).max(), np.abs(d).max())
    if peak > 0.0:
        shift = -int(np.frexp(peak)[1])
        u, d = np.ldexp(u, shift), np.ldexp(d, shift)
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
    each y'-block, a run of entries with their corners as columns, times
    the dense y''-kernel, piece after piece into a buffer of
    ``_PIECE_VALUES`` kernel values.  ``add`` builds both and drops them."""

    def __init__(self, mult: FourierMultiplier):
        self.mult = mult
        self.rowsums = np.zeros(mult.grid.size)
        self.max_col = self.max_abs = 0.0

    def add(self, chunk: SparseKernelOperator) -> None:
        """Add the entries of ``chunk``, y'-block after y'-block; an empty
        chunk builds no kernel."""
        n_block = self.mult.ydd_block.size
        runs = _block_runs(chunk.low, n_block)
        if not runs:
            return
        import scipy.sparse as sp
        kernel = self.mult.ydd_kernel_matrix()
        step = max(1, _PIECE_VALUES // n_block)  # entries per piece
        # row 0 carries the block's column sums so far: summing it with the
        # piece's rows adds in the same order as one sum over the whole run
        buf = np.empty((step + 1, n_block))
        for lo, hi in runs:
            buf[0] = 0.0
            for a in range(lo, hi, step):
                m = min(step, hi - a)
                cols, vals = chunk.corners(slice(a, a + m))
                sub = sp.csr_matrix((vals.ravel(), cols.ravel() % n_block,
                                     np.arange(0, cols.size + 1, cols.shape[1])),
                                    shape=(m, n_block))
                g = np.abs(sub @ kernel, out=buf[1:m + 1])
                self.rowsums[chunk.rows[a:a + m]] += g.sum(axis=1)
                self.max_abs = max(self.max_abs, float(g.max()))
                buf[0] = buf[:m + 1].sum(axis=0)
            self.max_col = max(self.max_col, float(buf[0].max()))

    def result(self) -> tuple[float, float, float]:
        return self.max_col, float(self.rowsums.max()), self.max_abs


class _TransposeRows:
    """The slab as an operator for the (2,2) norm, on its support: its
    transpose restricted to C x R as a CSR ``at`` of shape (|C|, |R|), the
    rows written y'-block after y'-block.  R, ``rows``, holds the grid nodes
    that carry an entry; C, ``cols``, the whole y''-lines of every y'-block
    that holds one, both as sorted grid indices.  A y''-multiplier maps the
    lines of C to themselves, so slab o M vanishes off R x C and has the
    singular values of its restriction, whose vectors are a grid vector's
    values at ``cols`` (the ``domain``) and at ``rows``.

    The corners of an entry lie in its y'-block, and the y'-blocks come in
    ascending order (a chunk is a run of the y'-window flattened in C order,
    and the y'-axes are the leading digits of a column), so the columns of
    a y'-block, rows of the transpose, form one range that no other block
    shares.  Within a y'-block the entries come in ascending row, so a
    stable sort of the block's keys alone, its columns modulo the block
    size, keeps each row of the transpose in ascending column: the arrays,
    and the order in which products sum, are those of the canonical CSR of
    the slab transposed.
    The row pointer keeps the rows of C only; the rows it drops hold no
    entry, so no value moves.  At the end the column indices are mapped to
    positions in R through ``mark``, a table over the grid, in slices of
    ``_CHUNK_ENTRIES`` values.  The arrays are allocated once, at
    ``capacity`` stored values."""

    def __init__(self, grid: Grid, block: int, capacity: int):
        index = np.int32 if max(grid.size, capacity) < 2 ** 31 else np.int64
        self.grid, self.block = grid, block
        self.indptr = np.zeros(grid.size + 1, dtype=index)
        self.indices = np.empty(capacity, dtype=index)
        self.data = np.empty(capacity)
        self.mark = np.zeros(grid.size, dtype=index)  # 1 on R, then positions
        self.blocks = []  # the y'-blocks of C
        self.nnz = self.n_cols = 0

    def add(self, chunk: SparseKernelOperator) -> None:
        """Write the rows of the columns of ``chunk``, y'-block after
        y'-block, from each block's corners."""
        n = self.block
        for a, b in _block_runs(chunk.low, n):
            cols, vals = chunk.corners(slice(a, b))
            # the corners of an entry lie in its y'-block
            keys = (cols.ravel() % n).astype(np.min_scalar_type(n - 1))
            order = np.argsort(keys, kind="stable")
            end, k = self.nnz + keys.size, cols.shape[1]
            self.indices[self.nnz:end] = chunk.rows[a:b][order // k]
            self.data[self.nnz:end] = vals.ravel()[order]
            self.nnz = end
            self.indptr[self.n_cols + 1:self.n_cols + 1 + n] = np.bincount(
                keys, minlength=n)
            self.n_cols += n
            self.blocks.append(int(chunk.low[a]) // n)
        self.mark[chunk.rows] = 1

    def result(self) -> _TransposeRows:
        """This operator, with ``at``, ``rows`` and ``cols`` finished."""
        import scipy.sparse as sp
        # shrunk in place: scipy copies arrays that are views of less than
        # half of a larger one
        for values in (self.indices, self.data):
            values.resize(self.nnz, refcheck=False)
        self.indptr.resize(self.n_cols + 1, refcheck=False)
        np.cumsum(self.indptr, out=self.indptr)
        self.rows = np.flatnonzero(self.mark)
        self.mark[self.rows] = np.arange(self.rows.size)
        for a in range(0, self.nnz, _CHUNK_ENTRIES):
            part = self.indices[a:a + _CHUNK_ENTRIES]
            part[...] = self.mark[part]
        del self.mark
        self.cols = (np.array(self.blocks, dtype=np.intp)[:, None]
                     * self.block + np.arange(self.block)).ravel()
        self.domain = self.cols.size
        self.at = sp.csr_matrix((self.data, self.indices, self.indptr),
                                shape=(self.domain, self.rows.size))
        return self

    # two methods, not one under two names: a wrapper of one must not wrap both
    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.at.T @ v

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.at @ v


# -- averaging-piece discretization --------------------------------------------

class SlabMesh:
    """The mesh of slab j (shell cutoff) or of the tail from j on (ball
    cutoff), whose entries are built in chunks, runs of ``step`` y'-blocks
    of the y'-window flattened in C order, from per-axis factors cut to
    that run.  Every entry comes from the same per-axis values whatever the
    run, so the chunks put together are the whole slab bit for bit."""

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
        self.nodes = grid.nodes()
        # per-axis windows limited by supp(psi) (2 rho) and the outer phi
        # shell, on the mesh axes x', x'' then y'
        self.radii = [min(2.0 * rho, math.ldexp(4.0 * rho, -j * wt),
                          grid.half_width) for wt in weights]
        self.windows = [np.nonzero(np.abs(self.nodes) <= r + 1e-12)[0]
                        for r in self.radii]
        self.entries = math.prod(map(len, self.windows))
        self.per_block = math.prod(map(len, self.windows[:n]))
        self.blocks = math.prod(map(len, self.windows[n:]))  # y'-blocks
        self.step = max(1, _CHUNK_ENTRIES // max(1, self.per_block))
        self.stored = self.entries * 2 ** n_d  # values of the (2,2) CSR

    def _shaped(self, arr: np.ndarray, c: int) -> np.ndarray:
        # axis c of x', x'' lies on mesh dim c + 1, and every y'-axis on
        # dim 0, the y'-blocks: each y'-block is one run of the entries
        n = self.grid.dim
        dim = c + 1 if c < n else 0
        return arr.reshape((1,) * dim + (-1,) + (1,) * (n - dim))

    def chunks(self) -> Iterator[SparseKernelOperator]:
        """The slab in chunks, once ``pass_account`` admits one."""
        pass_account(self)
        for lo in range(0, max(1, self.blocks), self.step):
            yield self.chunk(slice(lo, lo + self.step))

    def chunk(self, run: slice) -> SparseKernelOperator:
        """The entries of the y'-blocks ``run`` of the flattened y'-window."""
        spec, grid, j = self.spec, self.grid, self.j
        n_p, n_d = spec.n_prime, spec.n_dprime
        n = n_p + n_d
        N, h, L = grid.points_per_axis, grid.spacing, grid.half_width
        weights, rho = spec.weights.flat, spec.psi_radius
        # the nodes of each y'-axis at the y'-blocks of the run
        ys = np.unravel_index(np.arange(self.blocks)[run],
                              [len(w) for w in self.windows[n:]])
        picked = self.windows[:n] + [w[i] for w, i in
                                     zip(self.windows[n:], ys)]
        ax = [self._shaped(self.nodes[w], c) for c, w in enumerate(picked)]

        def product_cutoff(scale_j: int) -> np.ndarray:
            return math.prod(phi0(np.ldexp(t, scale_j * wt) / (2.0 * rho))
                             for t, wt in zip(ax, weights))

        cutoff = product_cutoff(j)
        if self.shell:
            cutoff -= product_cutoff(j + 1)
        cutoff *= math.prod(phi0(t / rho) for t in ax)  # psi

        # one entry per nonzero of the cutoff
        mask = cutoff != 0.0
        weight = cutoff[mask] * h ** n_p
        del cutoff
        index = np.int32 if grid.size < 2 ** 31 else np.int64
        flat = [self._shaped(w.astype(index), c) for c, w in enumerate(picked)]
        low = np.broadcast_to(sum(  # y'-part, then the x''-slots' i0
            flat[n + i] * N ** (n - 1 - i) for i in range(n_p)),
            mask.shape)[mask]
        frac = np.empty((weight.size, n_d))
        for l in range(n_d):
            # the x''-position in cells, then its fraction; in place, so
            # that at most two mesh-sized floats are alive at once
            pos = ax[n_p + l] + spec.s[l].evaluate(ax[:n_p], ax[n_p:n], ax[n:])
            pos += L
            pos /= h
            pos -= 0.5
            pos = pos[mask]
            i0 = np.floor(pos)
            np.subtract(pos, i0, out=frac[:, l])
            del pos
            i0 = i0.astype(np.int64)
            i0 %= N
            i0 *= N ** (n_d - 1 - l)
            low += i0.astype(index)
            del i0
        rows = np.broadcast_to(sum(flat[c] * N ** (n - 1 - c)
                                   for c in range(n)), mask.shape)[mask]
        return SparseKernelOperator(grid, rows, low, weight, frac)

    def whole(self) -> SparseKernelOperator:
        """The slab in one chunk, for ``discretize_tj`` and ``discretize_uj``
        (from chunks, it peaks higher as the allocator keeps them)."""
        pass_account(self, whole=True)
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
