"""Mixed Hessians and exact rank estimation off the origin.

The central object is the n' x n' matrix whose (i, j) entry is
``d^2/dx'_i dy'_j`` of ``eta'' . S^P`` for a tuple S^P of weighted-homogeneous
polynomials.  Entries are linear in the auxiliary frequency variable eta''.
``mixed_hessian`` lists, for each entry, the exact second derivatives
d^2 s_l / dx'_i dy'_j of the components.

Rank sampling differentiates nothing symbolically: the second derivative
``d^2/dx'_i dy'_j`` of a monomial with exponents (a, b, c) is a_i c_j times a
monomial of lower degree.  ``_CompiledHessian`` does that bookkeeping once and
is then a linear map from integer monomial coefficients to Hessian terms;
``bind`` applies it to one coefficient tuple, in int64 when an a-priori bound
proves that exact and in Python integers otherwise.  ``sample-generic`` binds
every trial to the compiled monomial basis, ``analyze`` the principal part
with its denominators cleared.

A chunk of points is an int64 array of numerators, an int64 array of eta''
and one denominator: 1 for the axis probes, ``SAMPLE_DENOMINATOR`` for the
shell points, which are parsed from one draw per chunk.  A ``BoundHessian``
evaluates a chunk of about ``CHUNK_ENTRIES`` entries of its widest per-point
temporary (distinct lower monomials or n'^2 n'' terms) to integer matrices
that are nonzero multiples of the true ones, so ranks agree; an a-priori
bound on the chunk picks float64, exact while every partial sum is an
integer below 2^53, or Python integers otherwise.  Points run along the last,
contiguous axis of every temporary, so each step is a whole-row operation;
``min_rank_sample`` allocates the float64 temporaries (``EvalBuffers``) once
and every chunk writes into them.

Ranks are screened by a stacked elimination modulo the prime
``SCREEN_PRIME`` in float64, exact because p < 2^25 (see
``_nonsingular_mod_p``).  The rank mod p is at most the rank over Q, so a
nonzero determinant mod p certifies full rank; only the matrices that fail
the screen go to fraction-free (Bareiss) elimination over the integers.

Rank sampling draws rational points from a fundamental domain of the
anisotropic dilation group (the dilations act on the rank, so a compact shell
suffices) using counter-based per-trial random streams, and reports the
minimal observed rank, with the first point in draw order that attains it, as
an upper-bound certificate for the true minimal rank.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateSpace
from .polynomials import (Monomial, Polynomial, is_quasihomogeneous,
                          lambda_basis)
from .scaling import MultiIndex, Weights

Point = tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]

# denominator used for random rational sample coordinates; small integers keep
# the exact elimination fast
SAMPLE_DENOMINATOR = 16
# entries of the widest per-point temporary (distinct monomials or Hessian
# terms) evaluated at once, at least one point: keeps them to a few MB
CHUNK_ENTRIES = 2 ** 16
# modulus of the rank screen, the largest prime below 2^25: a difference of
# two products of residues is an integer below 2^50, exact in float64
SCREEN_PRIME = 33554393
# the bound M of the trial coefficients, uniform on {-M..M} \ {0}
COEFFICIENT_BOUND = 10


def _check_counts(s_principal: Sequence[Polynomial], w: Weights,
                  beta_dprime: MultiIndex) -> None:
    if len(s_principal) != w.n_dprime or len(beta_dprime) != w.n_dprime:
        raise ValueError("expected one polynomial and one degree per output "
                         "coordinate")


def _inhomogeneous(l: int, deg: int) -> ValueError:
    return ValueError(f"component {l} is not quasihomogeneous of degree {deg}")


def _check_principal(s_principal: Sequence[Polynomial], w: Weights,
                     beta_dprime: MultiIndex) -> None:
    """Reject a tuple whose component l is not weighted-homogeneous of
    degree beta''_l."""
    _check_counts(s_principal, w, beta_dprime)
    for l, (poly, deg) in enumerate(zip(s_principal, beta_dprime)):
        if not is_quasihomogeneous(poly, w, deg):
            raise _inhomogeneous(l, deg)


def mixed_hessian(s_principal: Sequence[Polynomial], w: Weights,
                  beta_dprime: MultiIndex
                  ) -> tuple[tuple[dict[int, Polynomial], ...], ...]:
    """The n' x n' matrix whose entry (i, j) maps each component l to
    d^2 s_l / dx'_i dy'_j, zero derivatives left out; the Hessian entry is
    sum_l eta''_l times these.

    Every component must be weighted-homogeneous of its target degree
    beta''_l (the zero polynomial qualifies for any degree).
    """
    _check_principal(s_principal, w, beta_dprime)
    n_p = w.n_prime
    rows = []
    for i in range(n_p):
        row = []
        for j in range(n_p):
            entry = {}
            for l, poly in enumerate(s_principal):
                second = poly.partial_derivative("x", i).partial_derivative("y", j)
                if not second.is_zero():
                    entry[l] = second
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


# -- exact rank --------------------------------------------------------------

def integer_matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss)
    elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
        piv = m[row][col]
        for r in range(row + 1, n_rows):
            mr = m[r]
            f = mr[col]
            base = m[row]
            for c in range(col + 1, n_cols):
                mr[c] = (piv * mr[c] - f * base[c]) // prev
            mr[col] = 0
        prev = piv
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def _nonsingular_mod_p(mats: np.ndarray) -> np.ndarray:
    """Which of a stack of integer matrices, shape (points, n, n), are
    nonsingular modulo ``SCREEN_PRIME``: one stacked elimination in float64
    on an (n, n, points) array.

    The entries are reduced once as x - p (x // p), exact for int64 and for
    Python integers.  A step forms a_kk a_rc - a_rk a_kc from residues below
    p < 2^25, an integer below 2^50 and so exact, and reduces it as
    x - p floor(x / p): the quotient is below 2^25, so x / p errs by at most
    2^-29, while a non-integer quotient lies at least 1/p > 2^-25 from an
    integer, so the floor is exact.  x * (1 / p) is not: for some p it puts
    an exact multiple of p just below its quotient and leaves p in place of 0.
    """
    n = mats.shape[1]
    p = SCREEN_PRIME
    a = np.moveaxis(mats, 0, -1)
    a = (a - p * (a // p)).astype(np.float64, order="C")
    nonsingular = np.ones(len(mats), dtype=bool)
    for k in range(n):
        nonzero = a[k:, k] != 0
        nonsingular &= nonzero.any(axis=0)
        piv = k + nonzero.argmax(axis=0)
        # swap rows only at the points whose pivot is off the diagonal
        pts = np.flatnonzero(piv != k)
        top = a[piv[pts], k:, pts]
        a[piv[pts], k:, pts] = a[k, k:, pts]
        a[k, k:, pts] = top
        # row_r <- a_kk row_r - a_rk row_k: a nonzero multiple of row_r plus
        # a multiple of row_k, so the rank mod p is unchanged; column k is
        # read no more
        x = a[k, k] * a[k + 1:, k + 1:] - a[k + 1:, k, None] * a[k, k + 1:]
        a[k + 1:, k + 1:] = x - p * np.floor(x / p)
    return nonsingular


def _screened_ranks(mats: np.ndarray) -> np.ndarray:
    """Ranks over Q of a stack of integer matrices, shape (points, n, n).

    The rank mod p is at most the rank over Q, so a matrix that is
    nonsingular mod p has full rank; only the others go to
    ``integer_matrix_rank``.
    """
    ranks = np.full(len(mats), mats.shape[1])
    for k in np.flatnonzero(~_nonsingular_mod_p(mats)):
        ranks[k] = integer_matrix_rank(mats[k].tolist())
    return ranks


# -- the compiled Hessian map ------------------------------------------------

def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array in lexicographic order and
    the index of each row among them, as ``np.unique(a, axis=0,
    return_inverse=True)`` gives them; one lexsort over the columns is
    several times faster than its sort of rows as opaque records."""
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[new], inverse


class _CompiledHessian:
    """The linear map from monomial coefficients to mixed-Hessian terms.

    ``components[l]`` lists the exponent tuples, over (x', x'', y'), of the
    monomials of component l.  Each term of the map is one (monomial, slot)
    pair whose second derivative is nonzero: the index of its coefficient in
    the concatenated coefficient list, its multiplier a_i c_j, its lower
    monomial and its row, l * n'^2 + slot.  A bound Hessian sums the terms
    into a matrix from the distinct lower monomials to the rows, so a chunk
    evaluates as one product of that matrix with its monomial values, one
    row per monomial and one column per point, after which the n'' blocks of
    n'^2 rows are weighted by eta'' and added.

    Each distinct lower monomial is stored as ``max_degree`` variable indices.
    Index ``nvars`` is a sentinel for the homogenizing variable, which reads
    the chunk's denominator, so the product of ``max_degree`` gathered
    factors evaluates every monomial of any degree scaled by den**max_degree.
    """

    def __init__(self, w: Weights,
                 components: Sequence[Sequence[tuple[int, ...]]]):
        n = self.n_prime = w.n_prime
        self.n_dprime = w.n_dprime
        self.weights_flat = w.flat
        self.nvars = len(self.weights_flat)
        self.sizes = [len(c) for c in components]
        exps = np.array([e for c in components for e in c],
                        dtype=np.int64).reshape(-1, self.nvars)
        component = np.repeat(np.arange(len(components)), self.sizes)
        y0 = self.nvars - n
        source, mult, lower, col = [], [], [], []
        for i in range(n):
            for j in range(n):
                hit = np.flatnonzero(exps[:, i] * exps[:, y0 + j])
                low = exps[hit]
                mult.append(low[:, i] * low[:, y0 + j])
                low[:, i] -= 1
                low[:, y0 + j] -= 1
                source.append(hit)
                lower.append(low)
                col.append(component[hit] * n * n + i * n + j)
        monos, mono = _unique_rows(np.concatenate(lower))
        self.n_monos = len(monos)
        degree = monos.sum(axis=1)
        self.max_degree = int(degree.max(initial=0))
        # pad every monomial with the sentinel up to max_degree factors; row k
        # of _var_idx holds the k-th factor of every distinct monomial
        padded = np.hstack([monos, (self.max_degree - degree)[:, None]])
        self._var_idx = np.repeat(
            np.tile(np.arange(self.nvars + 1), len(padded)),
            padded.ravel()).reshape(len(padded), self.max_degree).T.copy()
        # the terms in the order of their flat index into the matrix, so that
        # each entry sums one segment with ``np.add.reduceat``
        entry = np.concatenate(col) * self.n_monos + mono
        order = np.argsort(entry, kind="stable")
        self._source = np.concatenate(source)[order]
        self._mult = np.concatenate(mult)[order]
        self._entries, self._entry_starts = np.unique(entry[order],
                                                      return_index=True)
        # the quasidegree of every monomial, for the guard of
        # ``principal_hessian``
        self.degrees = exps @ np.array(self.weights_flat, dtype=np.int64)

    @property
    def n_terms(self) -> int:
        return len(self._source)

    def bind(self, coeffs: Sequence[Sequence[int]]) -> "BoundHessian":
        """The Hessian of eta'' . S for the integer coefficients
        ``coeffs[l]`` of the monomials of component l.

        A term is a coefficient times its multiplier a_i c_j, and a matrix
        entry sums at most ``n_terms`` terms.  The a-priori bound
        max |coeff| * max a_i c_j * n_terms picks int64, exact while it is
        below 2^63, or Python integers; ``BoundHessian.evaluate`` then picks
        its own tier per chunk."""
        if [len(c) for c in coeffs] != self.sizes:
            raise ValueError("expected one coefficient per monomial")
        try:
            flat = np.concatenate([np.asarray(c, dtype=np.int64)
                                   for c in coeffs])
            peak = max(int(flat.max(initial=0)), -int(flat.min(initial=0)))
            in_int64 = (peak * int(self._mult.max(initial=0)) * self.n_terms
                        < 2 ** 63)
        except OverflowError:  # some coefficient is past int64
            in_int64 = False
        if in_int64:
            return BoundHessian(self, flat[self._source] * self._mult)
        flat = np.array([int(v) for c in coeffs for v in c], dtype=object)
        return BoundHessian(self, flat[self._source]
                            * self._mult.astype(object))


class BoundHessian:
    """The mixed Hessian of one coefficient tuple, evaluated in batches of
    points; see ``_CompiledHessian`` for the layout.

    ``matrix`` is exact, in the tier that ``_CompiledHessian.bind`` chose:
    int64 or Python integers.  ``max_coeff`` is its largest |term|, a Python
    integer.  ``evaluate`` picks float64 or Python integers per chunk; the
    float64 copy of the matrix is made here when every entry is an integer
    below 2^53, the Python-integer one only for a chunk that needs it."""

    def __init__(self, compiled: _CompiledHessian, terms: np.ndarray):
        self.map = compiled
        self.max_coeff = max(int(terms.max(initial=0)),
                             -int(terms.min(initial=0)))
        self.matrix = np.zeros((compiled.n_prime ** 2 * compiled.n_dprime,
                                compiled.n_monos), dtype=terms.dtype)
        self.matrix.flat[compiled._entries] = np.add.reduceat(
            terms, compiled._entry_starts)
        # an entry sums at most n_terms terms, as the bound in evaluate does
        self._float = (self.matrix.astype(np.float64)
                       if self.max_coeff * compiled.n_terms < 2 ** 53
                       else None)

    def evaluate(self, nums: np.ndarray, den: int, etas: np.ndarray,
                 work: EvalBuffers | None = None) -> np.ndarray:
        """The matrices at the points ``nums[k] / den`` with eta'' =
        ``etas[k]``, each scaled by den**max_degree, in shape (points, n',
        n').  Requires |nums| <= den, as shell normalization guarantees.
        The temporaries hold n_monos or n'^2 n'' entries per point.  The
        a-priori bound picks float64, exact while every partial sum is an
        integer below 2^53 and returned as int64, or Python integers.

        In float64 the temporaries are written into ``work`` when it holds
        the chunk, so that a caller evaluating many chunks allocates them
        once; otherwise, and for Python integers, they are allocated here.
        The result never aliases them."""
        m = self.map
        n = m.n_prime
        points = len(nums)
        # each term is bounded by max_coeff * den**max_degree, and every
        # partial sum, weighted by eta'', by max |eta''| times n_terms of them
        bound = self.max_coeff * den ** m.max_degree * m.n_terms \
            * int(np.abs(etas).max(initial=1))
        dtype, out = ((np.float64, np.int64) if bound < 2 ** 53
                      else (object, object))
        if dtype is object or work is None or work.capacity < points:
            work = EvalBuffers(m, points, dtype)
        # one row per variable, the sentinel row holds the homogenizing one
        values = work.rows("values", points)
        values[:-1] = np.transpose(nums)
        values[-1] = den
        # the product of max_degree factors, none for a constant Hessian;
        # mode="clip" keeps take from buffering (every index is in range)
        monos = work.rows("monos", points)
        if m.max_degree:
            np.take(values, m._var_idx[0], axis=0, out=monos, mode="clip")
        else:
            monos.fill(1)
        factor = work.rows("factor", points)
        for idx in m._var_idx[1:]:
            np.take(values, idx, axis=0, out=factor, mode="clip")
            monos *= factor
        matrix = self._float if dtype is np.float64 else \
            self.matrix.astype(object)
        parts = np.matmul(matrix, monos, out=work.rows("parts", points))
        parts = parts.reshape(m.n_dprime, n, n, points)
        etas = np.transpose(np.asarray(etas, dtype=dtype))
        flat = parts[0]
        flat *= etas[0]
        for part, eta in zip(parts[1:], etas[1:]):
            part *= eta
            flat += part
        return np.moveaxis(flat, -1, 0).astype(out, copy=False)


class EvalBuffers:
    """The temporaries of ``BoundHessian.evaluate`` for chunks of up to
    ``capacity`` points: the variable values, the monomial values, one
    gathered factor and the n'' blocks of n'^2 Hessian rows.  Each is kept
    flat, so a shorter chunk takes a contiguous prefix."""

    def __init__(self, m: _CompiledHessian, capacity: int, dtype=np.float64):
        self.capacity = capacity
        self._rows = {"values": m.nvars + 1, "monos": m.n_monos,
                      "factor": m.n_monos if m.max_degree > 1 else 0,
                      "parts": m.n_dprime * m.n_prime ** 2}
        self._flat = {name: np.empty(rows * capacity, dtype=dtype)
                      for name, rows in self._rows.items()}

    def rows(self, name: str, points: int) -> np.ndarray:
        rows = self._rows[name]
        return self._flat[name][:rows * points].reshape(rows, points)


def principal_hessian(s_principal: Sequence[Polynomial], w: Weights,
                      beta_dprime: MultiIndex) -> BoundHessian:
    """The mixed Hessian of eta'' . S^P, compiled and bound for sampling.

    The coefficients are multiplied by their common denominator, a global
    positive factor that leaves every rank unchanged.  Every component must
    be weighted-homogeneous of its target degree beta''_l; the compiled map
    grades all the monomials in one product, not term by term.
    """
    _check_counts(s_principal, w, beta_dprime)
    monos = [p.monomials() for p in s_principal]
    den = math.lcm(*(m.coeff.denominator for ms in monos for m in ms))
    compiled = _CompiledHessian(w, [[_flat(m) for m in ms] for ms in monos])
    component = np.repeat(np.arange(w.n_dprime), compiled.sizes)
    off = compiled.degrees != np.asarray(beta_dprime.entries)[component]
    if off.any():
        l = int(component[off.argmax()])
        raise _inhomogeneous(l, beta_dprime[l])
    return compiled.bind([[int(m.coeff * den) for m in ms] for ms in monos])


def _flat(m: Monomial) -> tuple[int, ...]:
    return m.exp_x + m.exp_xx + m.exp_y


# -- sampling ----------------------------------------------------------------

@dataclass(frozen=True)
class RankSampleReport:
    min_rank: int
    witness: tuple[Point, tuple[Fraction, ...]]
    samples_tried: int
    rank_counts: Counter  # rank -> number of points evaluated at that rank


@dataclass
class GenericRankReport:
    trial_min_ranks: Counter = field(default_factory=Counter)
    evaluation_ranks: Counter = field(default_factory=Counter)

    def evaluation_fraction_at_least(self, r: int) -> Fraction:
        total = sum(self.evaluation_ranks.values())
        if total == 0:
            return Fraction(0)
        good = sum(v for k, v in self.evaluation_ranks.items() if k >= r)
        return Fraction(good, total)


def _stream(seed: int, *words: int) -> np.random.Generator:
    """Counter-based splittable stream: one Philox generator per index tuple."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(sum((w + 1) << (16 * i)
                                  for i, w in enumerate(words))
                              & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _probe_chunk(n_prime: int, n_dprime: int):
    """Deterministic coordinate-axis probes (covering each hyperplane of the
    shell) paired with eta'' unit vectors and the all-ones eta'': one chunk
    of integer points, (numerators, denominator 1, eta'')."""
    etas = np.eye(n_dprime + (n_dprime > 1), n_dprime, dtype=np.int64)
    etas[n_dprime:] = 1
    axes = np.eye(2 * n_prime + n_dprime, dtype=np.int64)
    return (np.repeat(axes, len(etas), axis=0), 1,
            np.tile(etas, (len(axes), 1)))


def _shell_chunks(weights_flat: Sequence[int], n_dprime: int, samples: int,
                  seed: int, per_chunk: int):
    """``samples`` random shell points, (numerators, SAMPLE_DENOMINATOR,
    integer eta''), in chunks of at most ``per_chunk``, each from one draw of
    the stream keyed by ``seed``.  A point reads its numerators, then its
    eta''; a draw that is all zero is dropped, and the next point starts
    right after it (in the next chunk, after a numerator draw)."""
    rng = _stream(seed, 0)
    D = SAMPLE_DENOMINATOR
    nv = len(weights_flat)
    width = nv + n_dprime
    # capping the weights at 4 changes no point: 2^4 = D, so a nonzero
    # numerator of weight 4 or more stops the growth, and a point that grows
    # has only zero numerators of such weight
    scale = 2 ** np.minimum(weights_flat, 4)
    rest = np.empty(0, dtype=np.int64)
    while samples > 0:
        # rest is shorter than the points left need, so the draw is nonempty
        raw = rng.integers(-D, D + 1,
                           size=min(per_chunk, samples) * width - len(rest))
        if len(rest):
            raw = np.concatenate([rest, raw])
        recs = raw.reshape(-1, width)
        zero = np.flatnonzero(~recs[:, :nv].any(axis=1))
        stop = zero[0] if len(zero) else len(recs)
        rest = raw[stop * width + (nv if len(zero) else 0):]
        points = recs[:stop][recs[:stop, nv:].any(axis=1)]
        nums = points[:, :nv]
        # integer shell normalization: grow by the weight dilation until some
        # |num_v| * 2^(w_v) >= D (i.e. some |z_v| >= 2^(-w_v)); |z_v| <= 1
        # holds throughout because it holds initially
        while (grow := (np.abs(nums) * scale < D).all(axis=1)).any():
            nums[grow] *= scale
        samples -= len(points)
        # the rank is invariant under rescaling eta'', so evaluate with the
        # raw integer eta and normalize only the reported witness
        if len(points):
            yield nums, D, points[:, nv:]


def min_rank_sample(h: BoundHessian, samples: int, seed: int,
                    include_probes: bool = True) -> RankSampleReport:
    """Minimal observed rank over sampled shell points.

    The result is an upper bound certificate for the true minimal rank off
    the origin: sampling can refute a rank hypothesis, never prove it.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    m = h.map
    n_p, n_d = m.n_prime, m.n_dprime
    per_chunk = max(1, CHUNK_ENTRIES // max(m.n_monos, n_p * n_p * n_d, 1))
    chunks = _shell_chunks(m.weights_flat, n_d, samples, seed, per_chunk)
    if include_probes:
        chunks = itertools.chain([_probe_chunk(n_p, n_d)], chunks)
    work = EvalBuffers(m, per_chunk)
    best = None
    hist = np.zeros(n_p + 1, dtype=np.int64)
    for nums, den, etas in chunks:
        ranks = _screened_ranks(h.evaluate(nums, den, etas, work))
        hist += np.bincount(ranks, minlength=n_p + 1)
        first = int(np.argmin(ranks))  # the first minimal rank in draw order
        if best is None or ranks[first] < best[0]:
            best = (int(ranks[first]), nums[first].tolist(), den,
                    etas[first].tolist())

    rank, nums, den, eta = best
    coords = [Fraction(k, den) for k in nums]
    point = (tuple(coords[:n_p]), tuple(coords[n_p:n_p + n_d]),
             tuple(coords[n_p + n_d:]))
    top = max(map(abs, eta))
    return RankSampleReport(
        min_rank=rank, witness=(point, tuple(Fraction(e, top) for e in eta)),
        samples_tried=int(hist.sum()),
        rank_counts=Counter({r: int(c) for r, c in enumerate(hist) if c}))


def _weighted_bases(w: Weights, beta_dprime: MultiIndex):
    """The monomial basis of each component, enumerated once per degree."""
    by_degree: dict[int, list[Monomial]] = {}
    for l, deg in enumerate(beta_dprime):
        if deg not in by_degree:
            by_degree[deg] = lambda_basis(w, deg)
        if not by_degree[deg]:
            raise DegenerateSpace(
                f"no monomials of quasidegree {deg} for component {l}")
    return [by_degree[deg] for deg in beta_dprime]


def _trial_coefficients(sizes: Sequence[int], seed: int, trial_index: int,
                        coefficient_bound: int) -> list[np.ndarray]:
    """The coefficients of trial ``trial_index``, one int64 array per
    component.

    They are uniform on {-M..M} \\ {0}, drawn from the counter-based stream
    keyed by (seed, trial_index), component after component.
    """
    rng = _stream(seed, trial_index, 1)
    M = coefficient_bound
    coeffs = []
    for size in sizes:
        raw = rng.integers(1, 2 * M + 1, size=size)
        coeffs.append(np.where(raw <= M, raw - M - 1, raw - M))
    return coeffs


def generic_trial_tuple(w: Weights, beta_dprime: MultiIndex, seed: int,
                        trial_index: int,
                        coefficient_bound: int = COEFFICIENT_BOUND
                        ) -> tuple[Polynomial, ...]:
    """The random weighted-homogeneous tuple of trial ``trial_index``.

    Its coefficients on each monomial basis are those that
    ``generic_rank_trial`` samples; callers can regenerate any trial for
    independent cross-checks.  The coefficients are drawn in int64 and
    converted to Python integers first: a ``Fraction`` of an int64 would
    keep it and wrap on overflow.
    """
    bases = _weighted_bases(w, beta_dprime)
    coeffs = _trial_coefficients([len(b) for b in bases], seed, trial_index,
                                 coefficient_bound)
    return tuple(Polynomial.from_monomials(
        w.n_prime, w.n_dprime,
        [Monomial(Fraction(c), m.exp_x, m.exp_xx, m.exp_y)
         for c, m in zip(cs.tolist(), basis)])
        for cs, basis in zip(coeffs, bases))


def generic_rank_trial(w: Weights, beta_dprime: MultiIndex,
                       tuples: int, points_per_tuple: int,
                       seed: int) -> GenericRankReport:
    """Monte-Carlo exploration of the minimal Hessian rank over random
    coefficient tuples on the weighted-homogeneous monomial basis.

    Deterministic given the seed: trial t draws from the counter-based
    stream keyed by (seed, t).  The basis is compiled once; each trial only
    binds its coefficients.
    """
    bases = _weighted_bases(w, beta_dprime)
    compiled = _CompiledHessian(w, [[_flat(m) for m in b] for b in bases])
    report = GenericRankReport()
    for t in range(tuples):
        h = compiled.bind(_trial_coefficients(
            compiled.sizes, seed, t, COEFFICIENT_BOUND))
        sub = min_rank_sample(h, points_per_tuple, seed=(seed * 1000003 + t),
                              include_probes=False)
        report.evaluation_ranks.update(sub.rank_counts)
        report.trial_min_ranks[sub.min_rank] += 1
    return report
