"""Exact multivariate polynomials in the variables (x', x'', y').

Coefficients are arbitrary-precision rationals (``fractions.Fraction``), so
graded decompositions, principal parts, derivatives and point values are
computed with no rounding at all.  ``Polynomial.evaluate`` is the one
evaluator of polynomial values: exact at int or Fraction points, and in
floats over broadcast numpy coordinate arrays (the grid meshes and the
Newton samples of the numerics).  A polynomial is a mapping from exponent
triples ``(exp_x, exp_xx, exp_y)`` (one integer tuple per variable block) to
nonzero coefficients; the zero polynomial is the empty mapping.

The grading used throughout is the quasihomogeneous weight
``alpha' . a + alpha'' . b + beta' . c`` of the exponent triple (a, b, c).
Monomials are ordered graded-lexicographically by
``(total degree, exp_x, exp_xx, exp_y)`` so every report is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from .scaling import Weights

ExponentTriple = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

BLOCKS = ("x", "xx", "y")


@dataclass(frozen=True)
class Monomial:
    """A single term: coeff * x'^exp_x * x''^exp_xx * y'^exp_y."""

    coeff: Fraction
    exp_x: tuple[int, ...]
    exp_xx: tuple[int, ...]
    exp_y: tuple[int, ...]

    @property
    def exponents(self) -> ExponentTriple:
        return (self.exp_x, self.exp_xx, self.exp_y)


def _order_key(exps: ExponentTriple):
    a, b, c = exps
    return (sum(a) + sum(b) + sum(c), a, b, c)


class Polynomial:
    """Exact polynomial over Q in blocks x' (n' vars), x'' (n''), y' (n')."""

    __slots__ = ("n_prime", "n_dprime", "_terms")

    def __init__(self, n_prime: int, n_dprime: int,
                 terms: Mapping[ExponentTriple, Fraction] | None = None):
        if n_prime < 1 or n_dprime < 1:
            raise ValueError("dimensions must be positive")
        self.n_prime = n_prime
        self.n_dprime = n_dprime
        clean: dict[ExponentTriple, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                self._check_exps(exps)
                clean[exps] = coeff
        self._terms = clean

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_monomials(cls, n_prime: int, n_dprime: int,
                       monomials: Iterable[Monomial]) -> "Polynomial":
        terms: dict[ExponentTriple, Fraction] = {}
        for m in monomials:
            key = m.exponents
            terms[key] = terms.get(key, Fraction(0)) + m.coeff
        return cls(n_prime, n_dprime, terms)

    def _check_exps(self, exps: ExponentTriple) -> None:
        a, b, c = exps
        if len(a) != self.n_prime or len(b) != self.n_dprime or len(c) != self.n_prime:
            raise ValueError(f"exponent triple {exps} does not match dims "
                             f"(n'={self.n_prime}, n''={self.n_dprime})")
        if any(e < 0 for e in a + b + c):
            raise ValueError("exponents must be nonnegative")

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def monomials(self) -> list[Monomial]:
        """Terms in canonical graded-lex order."""
        return [Monomial(self._terms[e], *e)
                for e in sorted(self._terms, key=_order_key)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.n_prime, self.n_dprime) == (other.n_prime, other.n_dprime) \
            and self._terms == other._terms

    def __hash__(self):
        return hash((self.n_prime, self.n_dprime,
                     frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"

        def var_str(sym, exps):
            return "*".join(f"{sym}{i}^{e}" if e > 1 else f"{sym}{i}"
                            for i, e in enumerate(exps) if e)

        parts = []
        for m in self.monomials():
            factors = [s for s in (var_str("x", m.exp_x), var_str("X", m.exp_xx),
                                   var_str("y", m.exp_y)) if s]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({m.coeff})*{body}")
        return " + ".join(parts)

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, block: str, index: int) -> "Polynomial":
        """Exact formal partial derivative in x'_index, x''_index or y'_index."""
        if block not in BLOCKS:
            raise ValueError(f"unknown block {block!r}; expected one of {BLOCKS}")
        pos = BLOCKS.index(block)
        sizes = (self.n_prime, self.n_dprime, self.n_prime)
        if not 0 <= index < sizes[pos]:
            raise ValueError(f"index {index} out of range for block {block!r}")
        terms: dict[ExponentTriple, Fraction] = {}
        for exps, coeff in self._terms.items():
            e = exps[pos][index]
            if e == 0:
                continue
            new_block = list(exps[pos])
            new_block[index] = e - 1
            new_exps = list(exps)
            new_exps[pos] = tuple(new_block)
            key = tuple(new_exps)  # type: ignore[assignment]
            terms[key] = terms.get(key, Fraction(0)) + coeff * e
        return Polynomial(self.n_prime, self.n_dprime, terms)

    def evaluate(self, x: Sequence, xx: Sequence, y: Sequence):
        """Value at a point: exact when every coordinate is an int or a
        Fraction, otherwise a float array of the coordinates' broadcast
        shape (each monomial in canonical order multiplies its powers first
        and its coefficient last; the sum starts from zeros)."""
        if len(x) != self.n_prime or len(xx) != self.n_dprime or len(y) != self.n_prime:
            raise ValueError("evaluation point dimension mismatch")
        coords = tuple(x) + tuple(xx) + tuple(y)
        exact = all(isinstance(c, (int, Fraction)) for c in coords)
        if not exact:
            coords = tuple(np.asarray(c, dtype=float) for c in coords)
        total = Fraction(0) if exact else np.zeros(
            np.broadcast_shapes(*(c.shape for c in coords)))
        powcache: list[dict[int, object]] = [dict() for _ in coords]

        def power(i: int, e: int):
            cache = powcache[i]
            if e not in cache:
                cache[e] = coords[i] ** e
            return cache[e]

        for m in self.monomials():
            term = None
            for i, e in enumerate(m.exp_x + m.exp_xx + m.exp_y):
                if e:
                    term = power(i, e) if term is None else term * power(i, e)
            coeff = m.coeff if exact else float(m.coeff)
            total = total + (coeff if term is None else coeff * term)
        return total

    # -- grading -------------------------------------------------------------

    def quasidegree_of(self, exps: ExponentTriple, w: Weights) -> int:
        a, b, c = exps
        return sum(map(mul, w.flat, a + b + c))


def quasidegree_decompose(p: Polynomial, w: Weights) -> dict[int, Polynomial]:
    """Group the monomials of p by quasihomogeneous weight: quasidegree ->
    quasihomogeneous part.  The parts sum to p exactly."""
    if (w.n_prime, w.n_dprime) != (p.n_prime, p.n_dprime):
        raise ValueError("weights do not match polynomial dimensions")
    buckets: dict[int, dict[ExponentTriple, Fraction]] = {}
    for exps, coeff in p._terms.items():
        d = p.quasidegree_of(exps, w)
        buckets.setdefault(d, {})[exps] = coeff
    return {d: Polynomial(p.n_prime, p.n_dprime, t)
            for d, t in buckets.items()}


def is_quasihomogeneous(p: Polynomial, w: Weights, degree: int) -> bool:
    """True when every monomial of p has the given quasidegree (zero counts)."""
    return all(p.quasidegree_of(e, w) == degree for e in p._terms)


def lambda_basis(w: Weights, target_degree: int) -> list[Monomial]:
    """All unit monomials of quasidegree exactly target_degree.

    This enumerates the monomial basis of the space of weighted-homogeneous
    polynomials in (x', x'', y') used by the genericity analysis; the order is
    the canonical graded-lex order.
    """
    if target_degree < 0:
        raise ValueError("target degree must be nonnegative")
    weights_flat = w.flat
    # the exponent rows of the variables so far, and the weight each row
    # leaves to the variables after them
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([target_degree], dtype=np.int64)
    for wgt in weights_flat[:-1]:
        counts = left // wgt + 1
        first = np.repeat(np.cumsum(counts) - counts, counts)
        exps = np.arange(len(first)) - first
        rows = np.column_stack([np.repeat(rows, counts, axis=0), exps])
        left = np.repeat(left, counts) - exps * wgt
    # the last variable takes whatever weight is left, when it divides it
    last = weights_flat[-1]
    fits = left % last == 0
    rows = np.column_stack([rows[fits], left[fits] // last])
    # graded-lex: the total degree first, then the exponents in order
    rows = rows[np.lexsort(np.vstack([rows.T[::-1], rows.sum(axis=1)]))]
    np_, nd = w.n_prime, w.n_dprime
    one = Fraction(1)
    return [Monomial(one, flat[:np_], flat[np_:np_ + nd], flat[np_ + nd:])
            for flat in map(tuple, rows.tolist())]
