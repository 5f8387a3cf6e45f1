"""anisoradon: exponent diagrams, genericity thresholds and desk-scale decay
experiments for degenerate Radon-like averaging operators with anisotropic
dilation structure."""

from .scaling import MultiIndex, Weights, isotropic_weights
from .polynomials import (Monomial, Polynomial, lambda_basis,
                          quasidegree_decompose)
from .hessian import (RankSampleReport, generic_rank_trial, min_rank_sample,
                      mixed_hessian, principal_hessian)
from .exponents import (GenericityReport, OperatorSpec, RieszRegion,
                        SobolevBound, check_homogeneity, classify_pq,
                        genericity_report, riesz_region, sobolev_smoothing)

__version__ = "0.1.0"

__all__ = [
    "MultiIndex", "Weights", "isotropic_weights", "Monomial", "Polynomial",
    "quasidegree_decompose", "lambda_basis", "RankSampleReport",
    "mixed_hessian", "principal_hessian", "min_rank_sample",
    "generic_rank_trial", "OperatorSpec", "RieszRegion", "SobolevBound",
    "GenericityReport", "check_homogeneity", "riesz_region", "classify_pq",
    "sobolev_smoothing", "genericity_report", "__version__",
]
