"""Symbolic mixed Hessians and exact rank estimation off the origin.

The central object is the n' x n' matrix whose (i, j) entry is
``d^2/dx'_i dy'_j`` of ``eta'' . S^P`` for a tuple S^P of weighted-homogeneous
polynomials.  Entries are linear in the auxiliary frequency variable eta'';
they are stored as eta''-polynomials with exact polynomial coefficients, from
which minor certificates are built symbolically.

For bulk sampling the entries are compiled once into a single evaluator that
returns the exact integer matrix at a rational point: int64 arithmetic when
an a-priori bound rules out overflow, Python integers otherwise.  Rank
sampling draws rational points from a fundamental domain of the anisotropic
dilation group (the dilations act on the rank, so a compact shell suffices)
using counter-based per-trial random streams, and reports the minimal
observed rank as an upper-bound certificate for the true minimal rank.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
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


class EtaPolynomial:
    """A polynomial in eta'' whose coefficients are (x', x'', y')-polynomials."""

    __slots__ = ("n_dprime", "terms")

    def __init__(self, n_dprime: int,
                 terms: dict[tuple[int, ...], Polynomial] | None = None):
        self.n_dprime = n_dprime
        self.terms: dict[tuple[int, ...], Polynomial] = {}
        if terms:
            for exp, poly in terms.items():
                if len(exp) != n_dprime:
                    raise ValueError("eta exponent length mismatch")
                if not poly.is_zero():
                    self.terms[exp] = poly

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "EtaPolynomial") -> "EtaPolynomial":
        terms = dict(self.terms)
        for exp, poly in other.terms.items():
            if exp in terms:
                s = terms[exp] + poly
                if s.is_zero():
                    del terms[exp]
                else:
                    terms[exp] = s
            else:
                terms[exp] = poly
        return EtaPolynomial(self.n_dprime, terms)

    def __neg__(self) -> "EtaPolynomial":
        return EtaPolynomial(self.n_dprime,
                             {e: -p for e, p in self.terms.items()})

    def __sub__(self, other: "EtaPolynomial") -> "EtaPolynomial":
        return self + (-other)

    def __mul__(self, other: "EtaPolynomial") -> "EtaPolynomial":
        acc: dict[tuple[int, ...], Polynomial] = {}
        for e1, p1 in self.terms.items():
            for e2, p2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = p1 * p2
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        return EtaPolynomial(self.n_dprime, acc)


@dataclass(frozen=True)
class HessianMatrix:
    """Mixed Hessian of eta'' . S^P; entries linear in eta'' by construction."""

    weights: Weights
    beta_dprime: MultiIndex
    entries: tuple[tuple[EtaPolynomial, ...], ...]

    @property
    def n_prime(self) -> int:
        return self.weights.n_prime

    @property
    def n_dprime(self) -> int:
        return self.weights.n_dprime


def mixed_hessian(s_principal: Sequence[Polynomial], w: Weights,
                  beta_dprime: MultiIndex) -> HessianMatrix:
    """Build the matrix with entries sum_l eta''_l d^2 s_l / dx'_i dy'_j.

    Every component must be weighted-homogeneous of its target degree
    beta''_l (the zero polynomial qualifies for any degree).
    """
    if len(s_principal) != w.n_dprime or len(beta_dprime) != w.n_dprime:
        raise ValueError("expected one polynomial and one degree per output "
                         "coordinate")
    for l, (poly, deg) in enumerate(zip(s_principal, beta_dprime)):
        if not is_quasihomogeneous(poly, w, deg):
            raise ValueError(
                f"component {l} is not quasihomogeneous of degree {deg}")
    n_p, n_d = w.n_prime, w.n_dprime
    rows = []
    for i in range(n_p):
        row = []
        for j in range(n_p):
            terms: dict[tuple[int, ...], Polynomial] = {}
            for l, poly in enumerate(s_principal):
                second = poly.partial_derivative("x", i).partial_derivative("y", j)
                if second.is_zero():
                    continue
                exp = tuple(1 if m == l else 0 for m in range(n_d))
                terms[exp] = second
            row.append(EtaPolynomial(n_d, terms))
        rows.append(tuple(row))
    return HessianMatrix(w, beta_dprime, tuple(rows))


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


# -- fast exact evaluation for bulk sampling ---------------------------------

class _CompiledHessian:
    """Integer-cleared entry evaluator for bulk rational sampling.

    All entries are multiplied by the common denominator of their
    coefficients, and sample points carry a common denominator, so the
    evaluated matrix is an integer matrix that is a global nonzero multiple
    of the true one: ranks agree.

    Each monomial is stored as ``max_degree`` variable indices.  Index
    ``nvars`` is a sentinel for the homogenizing variable, which reads the
    point's denominator, so ``max_degree`` gather-and-multiply steps evaluate
    every monomial of any degree already scaled by den**max_degree.
    """

    def __init__(self, h: HessianMatrix):
        self.n_prime = h.n_prime
        self.nvars = 2 * h.n_prime + h.n_dprime
        den = 1
        for row in h.entries:
            for entry in row:
                for poly in entry.terms.values():
                    for m in poly.monomials():
                        den = den * m.coeff.denominator // gcd(
                            den, m.coeff.denominator)
        coeffs: list[int] = []
        factors: list[list[int]] = []
        eta_idx: list[int] = []
        slot: list[int] = []
        for i, row in enumerate(h.entries):
            for j, entry in enumerate(row):
                for eta_exp, poly in entry.terms.items():
                    l = eta_exp.index(1)  # entries are linear in eta''
                    for m in poly.monomials():
                        coeffs.append(int(m.coeff * den))
                        factors.append([v for v, e in enumerate(
                            m.exp_x + m.exp_xx + m.exp_y) for _ in range(e)])
                        eta_idx.append(l)
                        slot.append(i * h.n_prime + j)
        self.max_degree = max(map(len, factors), default=0)
        self.max_coeff = max(map(abs, coeffs), default=0)
        # row k holds the k-th factor of every monomial
        self._var_idx = np.array(
            [f + [self.nvars] * (self.max_degree - len(f)) for f in factors],
            dtype=np.int64).reshape(len(factors), self.max_degree).T.copy()
        self._coeffs = {object: np.array(coeffs, dtype=object)}
        if self.max_coeff < 2 ** 62:
            self._coeffs[np.int64] = np.array(coeffs, dtype=np.int64)
        self._eta_idx = np.array(eta_idx, dtype=np.int64)
        self._slot = np.array(slot, dtype=np.int64)

    def _fits_int64(self, den: int, max_eta: int) -> bool:
        if not len(self._slot):
            return True
        # |num_v| <= den after shell normalization, so each term is bounded by
        # max_coeff * den**max_degree * max_eta; the slot sums add at most
        # len(coeffs) of them
        bound = self.max_coeff * den ** self.max_degree * max(max_eta, 1) \
            * len(self._slot)
        return bound < 2 ** 62

    def evaluate_scaled(self, nums: Sequence[int], den: int,
                        eta_nums: Sequence[int]) -> list[list[int]]:
        """Entries scaled by den**max_degree (times the eta numerators).

        Requires |nums_v| <= den (guaranteed by shell normalization).  The
        a-priori bound picks the array type: int64 when no sum can
        overflow, exact Python integers otherwise.
        """
        n = self.n_prime
        dtype = np.int64 if self._fits_int64(
            den, max(map(abs, eta_nums), default=1)) else object
        values = np.array([*nums, den], dtype=dtype)
        terms = self._coeffs[dtype] \
            * np.array(eta_nums, dtype=dtype)[self._eta_idx]
        for idx in self._var_idx:
            terms = terms * values[idx]
        flat = np.zeros(n * n, dtype=dtype)
        np.add.at(flat, self._slot, terms)
        return flat.reshape(n, n).tolist()


# -- sampling ----------------------------------------------------------------

@dataclass(frozen=True)
class RankSampleReport:
    min_rank: int
    witness: tuple[Point, tuple[Fraction, ...]]
    samples_tried: int
    seed: int


@dataclass
class GenericRankReport:
    tuples: int
    points_per_tuple: int
    seed: int
    coefficient_bound: int
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


def min_rank_sample(h: HessianMatrix, samples: int, seed: int,
                    include_probes: bool = True,
                    _report_ranks: Counter | None = None) -> RankSampleReport:
    """Minimal observed rank over sampled shell points.

    The result is an upper bound certificate for the true minimal rank off
    the origin: sampling can refute a rank hypothesis, never prove it.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    compiled = _CompiledHessian(h)
    n_p, n_d = h.n_prime, h.n_dprime
    weights_flat = (tuple(h.weights.alpha_prime)
                    + tuple(h.weights.alpha_dprime)
                    + tuple(h.weights.beta_prime))
    points = _shell_points(weights_flat, n_d, samples, seed)
    if include_probes:
        points = itertools.chain(_probe_points(n_p, n_d), points)

    best_rank = n_p + 1
    best_witness = None
    tried = 0
    for nums, den, eta in points:
        r = integer_matrix_rank(compiled.evaluate_scaled(nums, den, eta))
        tried += 1
        if _report_ranks is not None:
            _report_ranks[r] += 1
        if r < best_rank:
            best_rank = r
            coords = [Fraction(k, den) for k in nums]
            m = max(map(abs, eta))
            point = (tuple(coords[:n_p]), tuple(coords[n_p:n_p + n_d]),
                     tuple(coords[n_p + n_d:]))
            best_witness = (point, tuple(Fraction(e, m) for e in eta))

    assert best_witness is not None
    return RankSampleReport(min_rank=best_rank, witness=best_witness,
                            samples_tried=tried, seed=seed)


def _weighted_bases(w: Weights, beta_dprime: MultiIndex):
    bases = []
    for l, deg in enumerate(beta_dprime):
        basis = lambda_basis(w, deg)
        if not basis:
            raise DegenerateSpace(
                f"no monomials of quasidegree {deg} for component {l}")
        bases.append(basis)
    return bases


def generic_trial_tuple(w: Weights, beta_dprime: MultiIndex, seed: int,
                        trial_index: int,
                        coefficient_bound: int = 10) -> tuple[Polynomial, ...]:
    """The random weighted-homogeneous tuple of trial ``trial_index``.

    Coefficients are uniform on {-M..M} \\ {0} on each monomial basis, drawn
    from the counter-based stream keyed by (seed, trial_index); callers can
    regenerate any trial for independent cross-checks.
    """
    bases = _weighted_bases(w, beta_dprime)
    rng = _stream(seed, trial_index, 1)
    M = coefficient_bound
    polys = []
    for basis in bases:
        raw = rng.integers(1, 2 * M + 1, size=len(basis))
        coeffs = [int(c) - M - 1 if c <= M else int(c) - M for c in raw]
        polys.append(Polynomial.from_monomials(
            w.n_prime, w.n_dprime,
            [Monomial(Fraction(c), m.exp_x, m.exp_xx, m.exp_y)
             for c, m in zip(coeffs, basis)]))
    return tuple(polys)


def generic_rank_trial(w: Weights, beta_dprime: MultiIndex,
                       tuples: int, points_per_tuple: int, seed: int,
                       coefficient_bound: int = 10) -> GenericRankReport:
    """Monte-Carlo exploration of the minimal Hessian rank over random
    coefficient tuples on the weighted-homogeneous monomial basis.

    Deterministic given the seed: trial t draws from the counter-based
    stream keyed by (seed, t).
    """
    _weighted_bases(w, beta_dprime)  # fail fast on a degenerate space
    report = GenericRankReport(tuples=tuples,
                               points_per_tuple=points_per_tuple, seed=seed,
                               coefficient_bound=coefficient_bound)
    for t in range(tuples):
        polys = generic_trial_tuple(w, beta_dprime, seed, t,
                                    coefficient_bound)
        h = mixed_hessian(polys, w, beta_dprime)
        sub = min_rank_sample(h, points_per_tuple, seed=(seed * 1000003 + t),
                              include_probes=False,
                              _report_ranks=report.evaluation_ranks)
        report.trial_min_ranks[sub.min_rank] += 1
    return report


def symbolic_minor_certificate(h: HessianMatrix, r: int,
                               max_minors: int | None = 100000):
    """Search for an r x r minor that is a nonzero polynomial.

    Returns (row_indices, col_indices) for the first such minor, or None.
    A hit certifies that the Hessian has rank >= r on a Zariski-dense set
    (it complements sampling, which only ever bounds the rank from above).
    """
    n = h.n_prime
    if r < 1 or r > n:
        raise ValueError("minor size out of range")
    count = 0
    for rsel in itertools.combinations(range(n), r):
        for csel in itertools.combinations(range(n), r):
            count += 1
            if max_minors is not None and count > max_minors:
                return None
            det = _eta_det([[h.entries[i][j] for j in csel] for i in rsel])
            if not det.is_zero():
                return rsel, csel
    return None


def _eta_det(sub: list[list[EtaPolynomial]]) -> EtaPolynomial:
    k = len(sub)
    if k == 1:
        return sub[0][0]
    n_d = sub[0][0].n_dprime
    total = EtaPolynomial(n_d)
    for j in range(k):
        if sub[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in sub[1:]]
        term = sub[0][j] * _eta_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total
