"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: schema/validation problems are
exit 1, numerical failures exit 2, and an unsatisfied boundedness hypothesis
exit 3 (the analysis is still emitted in that case).
"""


class AnisoradonError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(AnisoradonError, ValueError):
    """A spec document violates the published JSON schema."""


class HomogeneityViolation(AnisoradonError, ValueError):
    """Some monomial sits below the target quasidegree, so the rescaling
    limit diverges."""


class VanishingPrincipalPart(AnisoradonError, ValueError):
    """All components of the candidate principal part are identically zero."""


class WeightOrderViolation(AnisoradonError, ValueError):
    """The output weights do not strictly dominate the x''-weights."""


class DegenerateSpace(AnisoradonError, ValueError):
    """A requested weighted-homogeneous monomial space is empty."""


class DegenerateDenominator(AnisoradonError, ArithmeticError):
    """A vertex denominator came out nonpositive; reported rather than
    silently producing points outside the unit square."""


class DilationCapError(AnisoradonError, ValueError):
    """A dyadic dilation exponent left the safe floating-point range."""


class ResolutionError(AnisoradonError, ValueError):
    """The grid cannot resolve the requested scale."""


class NumericalError(AnisoradonError, RuntimeError):
    """An iterative numerical routine failed to converge.

    ``last_value`` carries the final iterate so callers can still report a
    best-effort bound.
    """

    def __init__(self, message, last_value=None):
        super().__init__(message)
        self.last_value = last_value


class SingularMapError(NumericalError):
    """Newton inversion of the x''-shear diverged."""
