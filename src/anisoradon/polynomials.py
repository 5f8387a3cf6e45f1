"""Exact multivariate polynomial arithmetic in the variables (x', x'', y').

Coefficients are arbitrary-precision rationals (``fractions.Fraction``), so
graded decompositions, principal parts and Hessian entries are computed with
no rounding at all.  A polynomial is a mapping from exponent triples
``(exp_x, exp_xx, exp_y)`` (one integer tuple per variable block) to nonzero
coefficients; the zero polynomial is the empty mapping.

The grading used throughout is the quasihomogeneous weight
``alpha' . a + alpha'' . b + beta' . c`` of the exponent triple (a, b, c).
Monomials are ordered graded-lexicographically by
``(total degree, exp_x, exp_xx, exp_y)`` so every report is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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

    @property
    def total_degree(self) -> int:
        return sum(self.exp_x) + sum(self.exp_xx) + sum(self.exp_y)


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
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                self._check_exps(exps)
                clean[exps] = coeff
        self._terms = clean

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, n_prime: int, n_dprime: int) -> "Polynomial":
        return cls(n_prime, n_dprime)

    @classmethod
    def constant(cls, n_prime: int, n_dprime: int, value) -> "Polynomial":
        z = ((0,) * n_prime, (0,) * n_dprime, (0,) * n_prime)
        return cls(n_prime, n_dprime, {z: Fraction(value)})

    @classmethod
    def variable(cls, n_prime: int, n_dprime: int, block: str, index: int) -> "Polynomial":
        """The coordinate polynomial x'_index, x''_index or y'_index."""
        sizes = {"x": n_prime, "xx": n_dprime, "y": n_prime}
        if block not in sizes:
            raise ValueError(f"unknown block {block!r}; expected one of {BLOCKS}")
        if not 0 <= index < sizes[block]:
            raise ValueError(f"index {index} out of range for block {block!r}")
        exps = [[0] * n_prime, [0] * n_dprime, [0] * n_prime]
        exps[BLOCKS.index(block)][index] = 1
        return cls(n_prime, n_dprime,
                   {(tuple(exps[0]), tuple(exps[1]), tuple(exps[2])): Fraction(1)})

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

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def monomials(self) -> list[Monomial]:
        """Terms in canonical graded-lex order."""
        return [Monomial(self._terms[e], *e)
                for e in sorted(self._terms, key=_order_key)]

    def _same_dims(self, other: "Polynomial") -> None:
        if (self.n_prime, self.n_dprime) != (other.n_prime, other.n_dprime):
            raise ValueError("dimension mismatch between polynomials")

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

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_dims(other)
        terms = dict(self._terms)
        for exps, c in other._terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return Polynomial(self.n_prime, self.n_dprime, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n_prime, self.n_dprime,
                          {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.n_prime, self.n_dprime,
                              {e: c * other for e, c in self._terms.items()})
        self._same_dims(other)
        terms: dict[ExponentTriple, Fraction] = {}
        for (a1, b1, c1), q1 in self._terms.items():
            for (a2, b2, c2), q2 in other._terms.items():
                key = (tuple(u + v for u, v in zip(a1, a2)),
                       tuple(u + v for u, v in zip(b1, b2)),
                       tuple(u + v for u, v in zip(c1, c2)))
                terms[key] = terms.get(key, Fraction(0)) + q1 * q2
        return Polynomial(self.n_prime, self.n_dprime, terms)

    __rmul__ = __mul__

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
        """Evaluate at a point; exact when the inputs are ints/Fractions.

        Powers of each coordinate are cached so the evaluation does each
        multiplication once per needed power (Horner-like cost per variable).
        """
        if len(x) != self.n_prime or len(xx) != self.n_dprime or len(y) != self.n_prime:
            raise ValueError("evaluation point dimension mismatch")
        coords = tuple(x) + tuple(xx) + tuple(y)
        powcache: list[dict[int, object]] = [dict() for _ in coords]

        def power(i: int, e: int):
            cache = powcache[i]
            if e not in cache:
                cache[e] = coords[i] ** e
            return cache[e]

        total = Fraction(0)
        started = False
        for (a, b, c), coeff in self._terms.items():
            term = coeff
            flat = a + b + c
            for i, e in enumerate(flat):
                if e:
                    term = term * power(i, e)
            if not started:
                total = term
                started = True
            else:
                total = total + term
        if not started:
            return Fraction(0)
        return total

    # -- grading -------------------------------------------------------------

    def quasidegree_of(self, exps: ExponentTriple, w: Weights) -> int:
        a, b, c = exps
        return (sum(wi * e for wi, e in zip(w.alpha_prime, a))
                + sum(wi * e for wi, e in zip(w.alpha_dprime, b))
                + sum(wi * e for wi, e in zip(w.beta_prime, c)))


@dataclass(frozen=True)
class GradedDecomposition:
    """Quasidegree -> quasihomogeneous part; summing the parts reproduces the
    input exactly."""

    parts: dict[int, Polynomial]

    def degrees(self) -> list[int]:
        return sorted(self.parts)


def quasidegree_decompose(p: Polynomial, w: Weights) -> GradedDecomposition:
    """Group the monomials of p by quasihomogeneous weight."""
    if (w.n_prime, w.n_dprime) != (p.n_prime, p.n_dprime):
        raise ValueError("weights do not match polynomial dimensions")
    buckets: dict[int, dict[ExponentTriple, Fraction]] = {}
    for exps, coeff in p._terms.items():
        d = p.quasidegree_of(exps, w)
        buckets.setdefault(d, {})[exps] = coeff
    return GradedDecomposition(
        {d: Polynomial(p.n_prime, p.n_dprime, t) for d, t in buckets.items()})


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
    weights_flat = (tuple(w.alpha_prime) + tuple(w.alpha_dprime)
                    + tuple(w.beta_prime))
    nvars = len(weights_flat)
    results: list[tuple[int, ...]] = []

    def extend(pos: int, remaining: int, prefix: list[int]) -> None:
        if pos == nvars:
            if remaining == 0:
                results.append(tuple(prefix))
            return
        wgt = weights_flat[pos]
        # remaining weights are all >= 1, so cap the exponent early
        for e in range(remaining // wgt + 1):
            prefix.append(e)
            extend(pos + 1, remaining - e * wgt, prefix)
            prefix.pop()

    extend(0, target_degree, [])
    np_, nd = w.n_prime, w.n_dprime
    monos = [Monomial(Fraction(1), flat[:np_], flat[np_:np_ + nd],
                      flat[np_ + nd:]) for flat in results]
    monos.sort(key=lambda m: _order_key(m.exponents))
    return monos
