"""Exact calculators for the three theorem statements.

Everything here is driven by five integers: the weight sums |alpha'|, |beta'|,
|beta''|, the codimension n'' and the Hessian rank r.  ``decay_laws`` is the
one table of the dyadic pieces' decay laws; the Lebesgue-exponent region
interpolates them in the (1/p, 1/q) unit square, with exact rational
arithmetic.  The only real-valued output is the genericity threshold (a
square root), which is reported with a directed-rounding honesty interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, NamedTuple

from .errors import (DegenerateDenominator, HomogeneityViolation,
                     VanishingPrincipalPart, WeightOrderViolation)
from .polynomials import Polynomial, quasidegree_decompose
from .scaling import MultiIndex, Weights

DEFAULT_PSI_RADIUS = 0.3


@dataclass(frozen=True)
class OperatorSpec:
    """Complete description of one Radon-like averaging operator.

    ``s`` holds the n'' components of the shear polynomial S(x', x'', y');
    ``psi_radius`` is the plateau radius of the tensor cutoff used by the
    discretization (the cutoff is identically one on the box of that radius
    and supported on twice it).
    """

    weights: Weights
    beta_dprime: MultiIndex
    s: tuple[Polynomial, ...]
    psi_radius: float = DEFAULT_PSI_RADIUS

    def __post_init__(self):
        if len(self.beta_dprime) != self.weights.n_dprime:
            raise ValueError("beta'' length must equal n''")
        if any(b < 1 for b in self.beta_dprime):
            raise ValueError("beta'' entries must be positive")
        if len(self.s) != self.weights.n_dprime:
            raise ValueError("expected one S component per x'' coordinate")
        for poly in self.s:
            if (poly.n_prime, poly.n_dprime) != (self.n_prime, self.n_dprime):
                raise ValueError("S component dimensions do not match weights")
        if not self.psi_radius > 0:
            raise ValueError("psi_radius must be positive")

    @property
    def n_prime(self) -> int:
        return self.weights.n_prime

    @property
    def n_dprime(self) -> int:
        return self.weights.n_dprime

    def weight_sums(self) -> tuple[int, int, int]:
        """(|alpha'|, |beta'|, |beta''|)."""
        return (self.weights.alpha_prime.order, self.weights.beta_prime.order,
                self.beta_dprime.order)


def check_homogeneity(spec: OperatorSpec) -> tuple[Polynomial, ...]:
    """Validate the homogeneity conditions and return the principal parts.

    Succeeds iff the output weights strictly dominate the x''-weights, every
    monomial of every component sits at quasidegree >= its target (otherwise
    the rescaling limit diverges), and the graded parts at the target degrees
    are not all identically zero.
    """
    w = spec.weights
    for i, (b, a) in enumerate(zip(spec.beta_dprime, w.alpha_dprime)):
        if b <= a:
            raise WeightOrderViolation(
                f"beta''[{i}] = {b} must exceed alpha''[{i}] = {a}")
    principal = []
    any_nonzero = False
    for l, (poly, target) in enumerate(zip(spec.s, spec.beta_dprime)):
        decomp = quasidegree_decompose(poly, w)
        low = [d for d in decomp if d < target]
        if low:
            raise HomogeneityViolation(
                f"component {l} has monomials at quasidegree {min(low)} "
                f"below the target {target}; the rescaling limit diverges")
        part = decomp.get(target, Polynomial(spec.n_prime, spec.n_dprime))
        principal.append(part)
        any_nonzero = any_nonzero or not part.is_zero()
    if not any_nonzero:
        raise VanishingPrincipalPart(
            "every principal-part component is identically zero")
    return tuple(principal)


# -- Lebesgue exponent region -------------------------------------------------

Classification = Literal["strong", "restricted-weak", "outside"]


class DecayLaw(NamedTuple):
    """log2 of a piece's norm has a slope in j or k that is ``relation``
    ``slope``; ``symbol`` writes that slope in the weight sums, n'' and r."""

    relation: Literal["<=", "="]
    symbol: str
    slope: Fraction


def decay_laws(alpha_prime_sum: int, beta_prime_sum: int,
               beta_dprime_sum: int, n_dprime: int,
               rank: int | None) -> tuple[dict, int]:
    """The pieces' laws by (family, pair, axis), the (2,2) k-law only at a
    given rank, and the Knapp box exponent |alpha'| + |beta'| + |beta''|."""
    j_laws = {"11": DecayLaw("<=", "-|alpha'|", Fraction(-alpha_prime_sum)),
              "oooo": DecayLaw("<=", "-|beta'|", Fraction(-beta_prime_sum)),
              "1oo": DecayLaw("=", "+|beta''|", Fraction(beta_dprime_sum)),
              "22": DecayLaw("<=", "-(|alpha'|+|beta'|)/2",
                             Fraction(-alpha_prime_sum - beta_prime_sum, 2))}
    laws = {(family, pair, "j"): law for family in ("TjQj", "TjPjk")
            for pair, law in j_laws.items()}
    laws["TjPjk", "1oo", "k"] = DecayLaw("=", "+n''", Fraction(n_dprime))
    if rank is not None:
        laws["TjPjk", "22", "k"] = DecayLaw("<=", "-r/2", Fraction(-rank, 2))
    return laws, alpha_prime_sum + beta_prime_sum + beta_dprime_sum


@dataclass(frozen=True)
class RieszRegion:
    """The exponent region of the L^p -> L^q theorem for one (sums, n'', r)."""

    alpha_prime_sum: int
    beta_prime_sum: int
    beta_dprime_sum: int
    n_dprime: int
    rank: int
    hypothesis_holds: bool
    alpha_tilde_sum: int
    beta_sum: int
    delta1: int
    delta2: int
    vertex1: tuple[Fraction, Fraction] | None
    vertex2: tuple[Fraction, Fraction] | None

    def condition1(self, inv_p: Fraction, inv_q: Fraction) -> tuple[Fraction, Fraction]:
        """(lhs, rhs) of |beta|/p - |alpha~|/q <= |beta'| at (1/p, 1/q)."""
        lhs = self.beta_sum * inv_p - self.alpha_tilde_sum * inv_q
        return lhs, Fraction(self.beta_prime_sum)

    def condition2(self, inv_p: Fraction, inv_q: Fraction) -> tuple[Fraction, Fraction]:
        """(lhs, rhs) of |1/p + 1/q - 1| <= 1 - (2n''+r)/r (1/p - 1/q)."""
        lhs = abs(inv_p + inv_q - 1)
        rhs = 1 - Fraction(2 * self.n_dprime + self.rank, self.rank) \
            * (inv_p - inv_q)
        return lhs, rhs


def hypothesis_ratio(alpha_prime_sum: int, beta_prime_sum: int,
                     beta_dprime_sum: int, n_dprime: int,
                     rank: int) -> tuple[Fraction, Fraction]:
    """(r/n'', (|alpha'|+|beta'|)/|beta''|): the rank hypothesis is lhs > rhs."""
    return (Fraction(rank, n_dprime),
            Fraction(alpha_prime_sum + beta_prime_sum, beta_dprime_sum))


def riesz_region(alpha_prime_sum: int, beta_prime_sum: int,
                 beta_dprime_sum: int, n_dprime: int, rank: int) -> RieszRegion:
    """Exponent region with its two restricted-weak-type vertices.

    The vertices solve the balance system of the dyadic min-sum (the point
    where all three norm bounds coincide); they are exact rationals and are
    re-verified against both boundary conditions at equality before being
    returned.  When the rank hypothesis fails the region (without endpoint
    vertices) is still described.
    """
    if rank < 1 or n_dprime < 1:
        raise ValueError("rank and n'' must be positive")
    a_p, b_p, b_dd = alpha_prime_sum, beta_prime_sum, beta_dprime_sum
    at = a_p + b_dd
    bt = b_p + b_dd
    ratio = hypothesis_ratio(a_p, b_p, b_dd, n_dprime, rank)
    hypothesis = ratio[0] > ratio[1]
    delta1 = at * rank + (a_p - b_p) * n_dprime
    delta2 = bt * rank + (b_p - a_p) * n_dprime
    if not hypothesis:
        return RieszRegion(a_p, b_p, b_dd, n_dprime, rank, False, at, bt,
                           delta1, delta2, None, None)
    if delta1 <= 0 or delta2 <= 0:
        raise DegenerateDenominator(
            f"vertex denominators ({delta1}, {delta2}) must be positive "
            "under the rank hypothesis")
    v1 = (1 - Fraction(a_p * n_dprime, delta1),
          1 - Fraction(a_p * (n_dprime + rank), delta1))
    v2 = (Fraction(b_p * (n_dprime + rank), delta2),
          Fraction(b_p * n_dprime, delta2))
    region = RieszRegion(a_p, b_p, b_dd, n_dprime, rank, True, at, bt,
                         delta1, delta2, v1, v2)
    for v in (v1, v2):
        l1, r1 = region.condition1(*v)
        l2, r2 = region.condition2(*v)
        if l1 != r1 or l2 != r2:
            raise DegenerateDenominator(
                f"vertex {v} fails the boundary identities; this indicates "
                "an inconsistent parameter tuple")
    return region


def classify_pq(region: RieszRegion, inv_p: Fraction,
                inv_q: Fraction) -> Classification:
    """Classify an exponent pair against the region, exactly.

    Strong type requires both conditions with at most one equality;
    both-equalities is the restricted weak-type corner case.  When the rank
    hypothesis fails, equality in the first condition is excluded, so only
    strict points classify as strong.
    """
    inv_p, inv_q = Fraction(inv_p), Fraction(inv_q)
    if not (0 <= inv_p <= 1 and 0 <= inv_q <= 1):
        raise ValueError("exponent pair must lie in the unit square")
    l1, r1 = region.condition1(inv_p, inv_q)
    l2, r2 = region.condition2(inv_p, inv_q)
    if l1 > r1 or l2 > r2:
        return "outside"
    eq1, eq2 = l1 == r1, l2 == r2
    if not region.hypothesis_holds:
        return "outside" if eq1 else "strong"
    if eq1 and eq2:
        return "restricted-weak"
    return "strong"


# -- Sobolev smoothing ---------------------------------------------------------

@dataclass(frozen=True)
class SobolevBound:
    p: Fraction
    s_supremum: Fraction
    attained: bool
    binding_constraint: Literal["condition3", "condition4"]


def sobolev_smoothing(alpha_prime_sum: int, beta_prime_sum: int,
                      beta_dprime: MultiIndex, rank: int,
                      p: Fraction) -> SobolevBound:
    """Supremum of admissible Sobolev orders s at a fixed p in (1, oo).

    The order must satisfy a closed constraint s * max(beta'') <=
    |alpha'|/p + |beta'|(1 - 1/p) and an open one s/r < 1/2 - |1/2 - 1/p|;
    the supremum is attained only when the closed constraint binds strictly
    below the open one.
    """
    p = Fraction(p)
    if not p > 1:
        raise ValueError("p must lie in (1, oo)")
    inv_p = 1 / p
    bound3 = (alpha_prime_sum * inv_p + beta_prime_sum * (1 - inv_p)) \
        / max(beta_dprime)
    bound4 = rank * (Fraction(1, 2) - abs(Fraction(1, 2) - inv_p))
    if bound3 < bound4:
        return SobolevBound(p, bound3, True, "condition3")
    return SobolevBound(p, bound4, False, "condition4")


# -- genericity ----------------------------------------------------------------

@dataclass(frozen=True)
class GenericityReport:
    """The arithmetic quantities controlling generic Hessian rank.

    k1 is the lcm of the fixed weight entries, lambda_set the residues mod k1
    of the sums alpha'_i + beta'_j, and k2 their count.  The rank threshold
    n' - sqrt((1 - 1/k2) n'^2 + 2(n' + n'')) applies to every beta'' whose
    entries are congruent mod k1 to some residue in lambda_set; such beta''
    have lower density at least k1**(-n'').
    """

    n_prime: int
    n_dprime: int
    k1: int
    lambda_set: frozenset[int]
    k2: int
    density_lower_bound: Fraction

    def _radicand(self, n_prime: int) -> Fraction:
        return (Fraction(self.k2 - 1, self.k2) * n_prime ** 2
                + 2 * (n_prime + self.n_dprime))

    def threshold(self, n_prime: int | None = None) -> float:
        n_p = self.n_prime if n_prime is None else n_prime
        x = self._radicand(n_p)
        return n_p - math.sqrt(x.numerator / x.denominator)

    def threshold_interval(self) -> tuple[float, float]:
        """Honest enclosure of the threshold (sqrt bracketed by isqrt)."""
        x = self._radicand(self.n_prime)
        scale = 10 ** 17
        lo_i = math.isqrt(x.numerator * scale * scale // x.denominator)
        sqrt_lo = lo_i / scale
        sqrt_hi = (lo_i + 1) / scale
        return (math.nextafter(self.n_prime - sqrt_hi, -math.inf),
                math.nextafter(self.n_prime - sqrt_lo, math.inf))

    def threshold_exceeds(self, r: int, n_prime: int | None = None) -> bool:
        """Exact test of r < threshold (no floating point)."""
        n_p = self.n_prime if n_prime is None else n_prime
        if r >= n_p:
            return False
        return Fraction((n_p - r) ** 2) > self._radicand(n_p)

    def admissible(self, beta_dprime: MultiIndex) -> bool:
        return all(b % self.k1 in self.lambda_set for b in beta_dprime)


def genericity_report(w: Weights) -> GenericityReport:
    k1 = math.lcm(*w.alpha_prime, *w.alpha_dprime, *w.beta_prime)
    residues = frozenset((a + b) % k1 for a in w.alpha_prime
                         for b in w.beta_prime)
    return GenericityReport(
        n_prime=w.n_prime, n_dprime=w.n_dprime, k1=k1, lambda_set=residues,
        k2=len(residues),
        density_lower_bound=Fraction(1, k1 ** w.n_dprime))
