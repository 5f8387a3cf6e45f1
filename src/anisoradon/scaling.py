"""Multiindex arithmetic and the dilation weights of an operator family.

Every other module builds on the conventions fixed here: a multiindex is an
integer vector, and the dyadic dilation at scale j rescales a coordinate of
weight ``g`` by ``2**(j * g)``.  The weights (alpha', alpha'', beta') fix the
quasihomogeneous grading of polynomials and the windows of the grid
discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DilationCapError

# 2**900 stays comfortably inside the double range (overflow at 2**1024)
DILATION_EXPONENT_CAP = 900


@dataclass(frozen=True)
class MultiIndex:
    """An integer vector; entries may be negative where that makes sense."""

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]):
        tup = tuple(int(e) for e in entries)
        if len(tup) < 1:
            raise ValueError("a multiindex needs at least one entry")
        object.__setattr__(self, "entries", tup)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    @property
    def order(self) -> int:
        """Sum of the entries (may be negative)."""
        return sum(self.entries)


@dataclass(frozen=True)
class Weights:
    """The dilation weights (alpha', alpha'', beta') of an operator family.

    beta'' is deliberately not stored here: the genericity analysis varies it
    while these three stay fixed.
    """

    alpha_prime: MultiIndex
    alpha_dprime: MultiIndex
    beta_prime: MultiIndex

    def __post_init__(self):
        if len(self.alpha_prime) != len(self.beta_prime):
            raise ValueError("alpha' and beta' must have equal length n'")
        for name, mi in (("alpha'", self.alpha_prime),
                         ("alpha''", self.alpha_dprime),
                         ("beta'", self.beta_prime)):
            if any(e < 1 for e in mi):
                raise ValueError(f"{name} must have strictly positive entries")

    @property
    def n_prime(self) -> int:
        return len(self.alpha_prime)

    @property
    def n_dprime(self) -> int:
        return len(self.alpha_dprime)

    @property
    def flat(self) -> tuple[int, ...]:
        """The weights of the variables (x', x'', y'), in that order."""
        return (self.alpha_prime.entries + self.alpha_dprime.entries
                + self.beta_prime.entries)


def check_dilation(j: int, weights: Iterable[int], what: str) -> None:
    """Refuse the dilations 2**(j * g) of the weights g once some j * g
    exceeds ``DILATION_EXPONENT_CAP``."""
    if j * max(weights) > DILATION_EXPONENT_CAP:
        raise DilationCapError(f"{what} exceeds the dilation cap")


def isotropic_weights(n_prime: int, n_dprime: int) -> Weights:
    """All-ones weights (averages over hypersurface-like isotropic families)."""
    return Weights(MultiIndex([1] * n_prime), MultiIndex([1] * n_dprime),
                   MultiIndex([1] * n_prime))
