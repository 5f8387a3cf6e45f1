"""Mixed Hessians and exact rank estimation off the origin.

The central object is the n' x n' matrix whose (i, j) entry is
``d^2/dx'_i dy'_j`` of ``eta'' . S^P`` for a tuple S^P of weighted-homogeneous
polynomials.  Entries are linear in the auxiliary frequency variable eta''.
``mixed_hessian`` lists, for each entry, the exact second derivatives
d^2 s_l / dx'_i dy'_j of the components.

Rank sampling differentiates nothing symbolically.  The second derivative
``d^2/dx'_i dy'_j`` of a monomial with exponents (a, b, c) is a_i c_j times a
monomial of lower degree, in slot (i, j): integer bookkeeping.
``_CompiledHessian`` does that bookkeeping once for the weights and the
monomial exponents of each component, and is then a linear map from integer
monomial coefficients to Hessian terms; ``bind`` applies it to one tuple of
coefficients.  ``sample-generic`` compiles the monomial basis of each
component once and binds every trial's coefficients; ``analyze`` compiles
the monomials of the principal part and binds its coefficients with the
denominators cleared.

A ``BoundHessian`` evaluates chunks of points in draw order, about
``CHUNK_ENTRIES`` point x term entries at a time: one gather per factor over
(points x terms), then the terms, sorted by slot and component, are summed
with ``np.add.reduceat`` and weighted by eta''.  Each point carries its own
denominator (1 for the axis probes, ``SAMPLE_DENOMINATOR`` for shell points),
so both kinds share a chunk.  Each result is an integer matrix that is a
nonzero multiple of the true one, so ranks agree.  An a-priori bound on the
chunk picks int64 arithmetic when no sum can overflow, Python integers
otherwise.

Ranks are screened by a stacked elimination modulo the prime
``SCREEN_PRIME`` in int64.  The rank mod p is at most the rank over Q, so a
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
# point x term entries evaluated at once (at least one point): keeps the
# evaluation temporaries to a few MB
CHUNK_ENTRIES = 2 ** 16
# modulus of the rank screen: residues below 2^31 multiply without
# overflowing int64
SCREEN_PRIME = 2 ** 31 - 1
# the bound M of the trial coefficients, uniform on {-M..M} \ {0}
COEFFICIENT_BOUND = 10


def _check_principal(s_principal: Sequence[Polynomial], w: Weights,
                     beta_dprime: MultiIndex) -> None:
    """Reject a tuple whose component l is not weighted-homogeneous of
    degree beta''_l."""
    if len(s_principal) != w.n_dprime or len(beta_dprime) != w.n_dprime:
        raise ValueError("expected one polynomial and one degree per output "
                         "coordinate")
    for l, (poly, deg) in enumerate(zip(s_principal, beta_dprime)):
        if not is_quasihomogeneous(poly, w, deg):
            raise ValueError(
                f"component {l} is not quasihomogeneous of degree {deg}")


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
    nonsingular modulo ``SCREEN_PRIME``: one stacked elimination in int64."""
    n_points, n, _ = mats.shape
    p = SCREEN_PRIME
    a = np.mod(mats, p).astype(np.int64)
    nonsingular = np.ones(n_points, dtype=bool)
    rows = np.arange(n_points)
    for k in range(n):
        nonzero = a[:, k:, k] != 0
        nonsingular &= nonzero.any(axis=1)
        piv = k + nonzero.argmax(axis=1)
        top = a[rows, piv].copy()
        a[rows, piv] = a[rows, k]
        a[rows, k] = top
        # row_r <- a_kk row_r - a_rk row_k: a nonzero multiple of row_r plus
        # a multiple of row_k, so the rank mod p is unchanged
        a[:, k + 1:, k:] = (a[:, k, k, None, None] * a[:, k + 1:, k:]
                            - a[:, k + 1:, k:k + 1] * a[:, None, k, k:]) % p
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

class _CompiledHessian:
    """The linear map from monomial coefficients to mixed-Hessian terms.

    ``components[l]`` lists the exponent tuples, over (x', x'', y'), of the
    monomials of component l.  Each term of the map is one (monomial, slot)
    pair whose second derivative is nonzero: the index of its coefficient in
    the concatenated coefficient list, its multiplier a_i c_j and the
    variables of its lower monomial.  The terms are sorted by slot and, within
    a slot, by component l, so evaluation sums each (slot, l) segment with
    one ``np.add.reduceat``, multiplies it by eta''_l, and sums the segments
    of each slot with a second one.

    Each lower monomial is stored as ``max_degree`` variable indices.  Index
    ``nvars`` is a sentinel for the homogenizing variable, which reads the
    point's denominator, so ``max_degree`` gather-and-multiply steps evaluate
    every monomial of any degree already scaled by den**max_degree.
    """

    def __init__(self, w: Weights,
                 components: Sequence[Sequence[tuple[int, ...]]]):
        n = self.n_prime = w.n_prime
        self.n_dprime = w.n_dprime
        self.weights_flat = (tuple(w.alpha_prime) + tuple(w.alpha_dprime)
                             + tuple(w.beta_prime))
        self.nvars = len(self.weights_flat)
        self.sizes = [len(c) for c in components]
        exps = np.array([e for c in components for e in c],
                        dtype=np.int64).reshape(-1, self.nvars)
        component = np.repeat(np.arange(len(components)), self.sizes)
        y0 = self.nvars - n
        source, mult, lower, slot = [], [], [], []
        for i in range(n):
            for j in range(n):
                hit = np.flatnonzero(exps[:, i] * exps[:, y0 + j])
                low = exps[hit]
                mult.append(low[:, i] * low[:, y0 + j])
                low[:, i] -= 1
                low[:, y0 + j] -= 1
                source.append(hit)
                lower.append(low)
                slot.append(np.full(len(hit), i * n + j))
        self._source = np.concatenate(source)
        self._mult = np.concatenate(mult).astype(object)
        lower = np.concatenate(lower)
        degree = lower.sum(axis=1)
        self.max_degree = int(degree.max(initial=0))
        # pad every monomial with the sentinel up to max_degree factors; row k
        # of _var_idx holds the k-th factor of every term
        padded = np.hstack([lower, (self.max_degree - degree)[:, None]])
        self._var_idx = np.repeat(
            np.tile(np.arange(self.nvars + 1), len(padded)),
            padded.ravel()).reshape(len(padded), self.max_degree).T.copy()
        # within a slot the terms are already ordered by component, so each
        # (slot, component) segment is contiguous and sums before its eta''
        # factor is applied
        segments, self._starts = np.unique(
            np.concatenate(slot) * self.n_dprime + component[self._source],
            return_index=True)
        self._seg_eta = segments % self.n_dprime
        self._slots, self._slot_starts = np.unique(
            segments // self.n_dprime, return_index=True)

    @property
    def n_terms(self) -> int:
        return len(self._source)

    def bind(self, coeffs: Sequence[Sequence[int]]) -> "BoundHessian":
        """The Hessian of eta'' . S for the integer coefficients
        ``coeffs[l]`` of the monomials of component l."""
        if [len(c) for c in coeffs] != self.sizes:
            raise ValueError("expected one coefficient per monomial")
        flat = np.array([int(v) for c in coeffs for v in c], dtype=object)
        return BoundHessian(self, flat[self._source] * self._mult)


class BoundHessian:
    """The mixed Hessian of one coefficient tuple, evaluated in batches of
    points; see ``_CompiledHessian`` for the term layout."""

    def __init__(self, compiled: _CompiledHessian, terms: np.ndarray):
        self.map = compiled
        self.max_coeff = max(map(abs, terms), default=0)
        self._coeffs = {object: terms}
        if self.max_coeff < 2 ** 62:
            self._coeffs[np.int64] = terms.astype(np.int64)

    def _fits_int64(self, den: int, max_eta: int) -> bool:
        # |num_v| <= den after shell normalization, so each term is bounded by
        # max_coeff * den**max_degree, and every partial sum, weighted by
        # eta'', by max_eta times n_terms of them
        bound = self.max_coeff * den ** self.map.max_degree \
            * max(max_eta, 1) * self.map.n_terms
        return bound < 2 ** 62

    def evaluate(self, nums: Sequence[Sequence[int]], dens: Sequence[int],
                 etas: Sequence[Sequence[int]]) -> np.ndarray:
        """The matrices at points ``nums[k] / dens[k]`` with eta'' =
        ``etas[k]``, each scaled by dens[k]**max_degree, stacked into shape
        (points, n', n').

        Requires |nums[k][v]| <= dens[k] (guaranteed by shell
        normalization).  The a-priori bound on the whole batch picks the
        array type: int64 when no sum can overflow, exact Python integers
        otherwise.
        """
        m = self.map
        n = m.n_prime
        max_eta = max((abs(int(e)) for eta in etas for e in eta), default=1)
        dtype = np.int64 if self._fits_int64(max(map(int, dens)), max_eta) \
            else object
        values = np.empty((len(dens), m.nvars + 1), dtype=dtype)
        values[:, :m.nvars] = nums
        values[:, m.nvars] = dens
        terms = np.tile(self._coeffs[dtype], (len(dens), 1))
        for idx in m._var_idx:
            terms *= values[:, idx]
        flat = np.zeros((len(dens), n * n), dtype=dtype)
        if m.n_terms:
            sums = np.add.reduceat(terms, m._starts, axis=1) \
                * np.asarray(etas, dtype=dtype)[:, m._seg_eta]
            flat[:, m._slots] = np.add.reduceat(sums, m._slot_starts, axis=1)
        return flat.reshape(-1, n, n)


def principal_hessian(s_principal: Sequence[Polynomial], w: Weights,
                      beta_dprime: MultiIndex) -> BoundHessian:
    """The mixed Hessian of eta'' . S^P, compiled and bound for sampling.

    The coefficients are multiplied by their common denominator, a global
    positive factor that leaves every rank unchanged.
    """
    _check_principal(s_principal, w, beta_dprime)
    monos = [p.monomials() for p in s_principal]
    den = math.lcm(*(m.coeff.denominator for ms in monos for m in ms))
    compiled = _CompiledHessian(w, [[_flat(m) for m in ms] for ms in monos])
    return compiled.bind([[int(m.coeff * den) for m in ms] for ms in monos])


def _flat(m: Monomial) -> tuple[int, ...]:
    return m.exp_x + m.exp_xx + m.exp_y


# -- sampling ----------------------------------------------------------------

@dataclass(frozen=True)
class RankSampleReport:
    min_rank: int
    witness: tuple[Point, tuple[Fraction, ...]]
    samples_tried: int
    seed: int
    rank_counts: Counter  # rank -> number of points evaluated at that rank


@dataclass
class GenericRankReport:
    tuples: int
    points_per_tuple: int
    seed: int
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


def _probe_points(n_prime: int, n_dprime: int):
    """Deterministic coordinate-axis probes (covering each hyperplane of the
    shell) paired with eta'' unit vectors and the all-ones eta''.  They are
    integer points: (numerators, denominator 1, eta'')."""
    nvars = 2 * n_prime + n_dprime
    axes = [[int(v == i) for v in range(nvars)] for i in range(nvars)]
    etas = [[int(m == l) for m in range(n_dprime)] for l in range(n_dprime)]
    if n_dprime > 1:
        etas.append([1] * n_dprime)
    return [(p, 1, e) for p in axes for e in etas]


def _shell_points(weights_flat: Sequence[int], n_dprime: int, samples: int,
                  seed: int):
    """``samples`` random shell points (numerators, SAMPLE_DENOMINATOR,
    integer eta''), drawn from the stream keyed by ``seed``."""
    rng = _stream(seed, 0)
    D = SAMPLE_DENOMINATOR
    drawn = 0
    while drawn < samples:
        raw = rng.integers(-D, D + 1, size=len(weights_flat))
        if not np.any(raw):
            continue
        eta_raw = rng.integers(-D, D + 1, size=n_dprime)
        if not np.any(eta_raw):
            continue
        # integer shell normalization: grow by the weight dilation until some
        # |num_v| * 2^(w_v) >= D (i.e. some |z_v| >= 2^(-w_v)); |z_v| <= 1
        # holds throughout because it holds initially
        nums = [int(v) for v in raw]
        while all(abs(k) * 2 ** w < D for k, w in zip(nums, weights_flat)):
            nums = [k * 2 ** w for k, w in zip(nums, weights_flat)]
        # the rank is invariant under rescaling eta'', so evaluate with the
        # raw integer eta and normalize only the reported witness
        yield nums, D, [int(v) for v in eta_raw]
        drawn += 1


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
    points = _shell_points(m.weights_flat, n_d, samples, seed)
    if include_probes:
        points = itertools.chain(_probe_points(n_p, n_d), points)
    per_chunk = max(1, CHUNK_ENTRIES // max(m.n_terms, 1))

    best_rank = n_p + 1
    best_witness = None
    tried = 0
    counts: Counter = Counter()
    while chunk := list(itertools.islice(points, per_chunk)):
        ranks = _screened_ranks(h.evaluate(*zip(*chunk)))
        tried += len(chunk)
        counts.update(ranks.tolist())
        first = int(np.argmin(ranks))  # the first minimal rank in draw order
        if ranks[first] < best_rank:
            best_rank = int(ranks[first])
            nums, den, eta = chunk[first]
            coords = [Fraction(k, den) for k in nums]
            top = max(map(abs, eta))
            point = (tuple(coords[:n_p]), tuple(coords[n_p:n_p + n_d]),
                     tuple(coords[n_p + n_d:]))
            best_witness = (point, tuple(Fraction(e, top) for e in eta))

    assert best_witness is not None
    return RankSampleReport(min_rank=best_rank, witness=best_witness,
                            samples_tried=tried, seed=seed,
                            rank_counts=counts)


def _weighted_bases(w: Weights, beta_dprime: MultiIndex):
    bases = []
    for l, deg in enumerate(beta_dprime):
        basis = lambda_basis(w, deg)
        if not basis:
            raise DegenerateSpace(
                f"no monomials of quasidegree {deg} for component {l}")
        bases.append(basis)
    return bases


def _trial_coefficients(sizes: Sequence[int], seed: int, trial_index: int,
                        coefficient_bound: int) -> list[list[int]]:
    """The coefficients of trial ``trial_index``, one list per component.

    They are uniform on {-M..M} \\ {0}, drawn from the counter-based stream
    keyed by (seed, trial_index), component after component.
    """
    rng = _stream(seed, trial_index, 1)
    M = coefficient_bound
    coeffs = []
    for size in sizes:
        raw = rng.integers(1, 2 * M + 1, size=size)
        coeffs.append(np.where(raw <= M, raw - M - 1, raw - M).tolist())
    return coeffs


def generic_trial_tuple(w: Weights, beta_dprime: MultiIndex, seed: int,
                        trial_index: int,
                        coefficient_bound: int = COEFFICIENT_BOUND
                        ) -> tuple[Polynomial, ...]:
    """The random weighted-homogeneous tuple of trial ``trial_index``.

    Its coefficients on each monomial basis are those that
    ``generic_rank_trial`` samples; callers can regenerate any trial for
    independent cross-checks.
    """
    bases = _weighted_bases(w, beta_dprime)
    coeffs = _trial_coefficients([len(b) for b in bases], seed, trial_index,
                                 coefficient_bound)
    return tuple(Polynomial.from_monomials(
        w.n_prime, w.n_dprime,
        [Monomial(Fraction(c), m.exp_x, m.exp_xx, m.exp_y)
         for c, m in zip(cs, basis)]) for cs, basis in zip(coeffs, bases))


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
    report = GenericRankReport(tuples=tuples,
                               points_per_tuple=points_per_tuple, seed=seed)
    for t in range(tuples):
        h = compiled.bind(_trial_coefficients(
            compiled.sizes, seed, t, COEFFICIENT_BOUND))
        sub = min_rank_sample(h, points_per_tuple, seed=(seed * 1000003 + t),
                              include_probes=False)
        report.evaluation_ranks.update(sub.rank_counts)
        report.trial_min_ranks[sub.min_rank] += 1
    return report
