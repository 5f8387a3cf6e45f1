"""Structured analysis reports and the exponent-diagram SVG.

Reports are plain dicts serialized with sorted keys; every exact rational is
rendered as a string, every sampled report carries its seed, and identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from . import __version__
from .exponents import (GenericityReport, OperatorSpec, RieszRegion,
                        check_homogeneity, genericity_report,
                        hypothesis_ratio, riesz_region, sobolev_smoothing)
from .hessian import min_rank_sample, principal_hessian
from .scaling import MultiIndex
from .specfile import poly_to_terms, rational_str, spec_to_dict

# the p at which ``analyze`` tabulates the Sobolev smoothing order
ANALYZE_P_GRID = tuple(map(Fraction, ("6/5", "3/2", "2", "3", "6")))


def _point_strs(point) -> dict:
    (xp, xdd, yp), eta = point
    return {"x_prime": [rational_str(v) for v in xp],
            "x_dprime": [rational_str(v) for v in xdd],
            "y_prime": [rational_str(v) for v in yp],
            "eta_dprime": [rational_str(v) for v in eta]}


def region_block(spec: OperatorSpec, rank: int,
                 region: RieszRegion | None) -> dict:
    """Exponent-region block of ``spec`` at ``rank`` from its ``region``,
    None below rank 1; vertices are withheld when the rank hypothesis fails
    (the non-endpoint region is still described)."""
    lhs, rhs = hypothesis_ratio(*spec.weight_sums(), spec.n_dprime, rank)
    block: dict = {"rank": rank, "hypothesis_ratio": {
        "lhs": rational_str(lhs), "rhs": rational_str(rhs)}}
    if region is None:
        block["hypothesis_holds"] = False
        block["note"] = ("no certified positive Hessian rank; "
                         "endpoint vertices unavailable")
        return block
    block["hypothesis_holds"] = region.hypothesis_holds
    block["denominators"] = [region.delta1, region.delta2]
    block["boundary_coefficients"] = {
        "beta_sum": region.beta_sum,
        "alpha_tilde_sum": region.alpha_tilde_sum,
        "beta_prime_sum": region.beta_prime_sum,
    }
    if region.hypothesis_holds:
        block["vertices"] = {
            "V1": [rational_str(v) for v in region.vertex1],
            "V2": [rational_str(v) for v in region.vertex2],
        }
    else:
        block["note"] = ("rank hypothesis fails: boundary equality excluded, "
                         "vertices withheld")
    return block


def sobolev_block(spec: OperatorSpec, rank: int,
                  p_grid: Sequence[Fraction]) -> list[dict]:
    a_p, b_p, _ = spec.weight_sums()
    out = []
    for p in p_grid:
        bound = sobolev_smoothing(a_p, b_p, spec.beta_dprime, rank, p)
        out.append({"p": rational_str(p),
                    "s_supremum": rational_str(bound.s_supremum),
                    "attained": bound.attained,
                    "binding": bound.binding_constraint})
    return out


def genericity_block(rep: GenericityReport,
                     beta_dprime: MultiIndex | None = None) -> dict:
    """Genericity quantities; admissibility is reported only for a given
    beta''."""
    lo, hi = rep.threshold_interval()
    block = {
        "k1": rep.k1,
        "lambda_residues": sorted(rep.lambda_set),
        "k2": rep.k2,
        "threshold": rep.threshold(),
        "threshold_interval": [lo, hi],
        "density_lower_bound": rational_str(rep.density_lower_bound),
    }
    if beta_dprime is not None:
        block["beta_dprime_admissible"] = rep.admissible(beta_dprime)
    return block


def analyze_report(spec: OperatorSpec, samples: int, seed: int) -> dict:
    """Full analysis: homogeneity, Hessian rank sampling, exponent region,
    smoothing table and genericity quantities.

    A spec that fails the homogeneity conditions raises before anything is
    sampled."""
    principal = check_homogeneity(spec)
    spec_doc = spec_to_dict(spec)
    report: dict = {"tool_version": __version__, "seed": seed,
                    "spec": spec_doc}
    # a component that is its own principal part shares its term list
    report["homogeneity"] = {
        "status": "ok",
        "principal_parts": [terms if part == poly else poly_to_terms(part)
                            for part, poly, terms in zip(principal, spec.s,
                                                         spec_doc["S"])],
    }
    hess = principal_hessian(principal, spec.weights, spec.beta_dprime)
    sample = min_rank_sample(hess, samples, seed)
    report["hessian"] = {
        "min_rank_upper_bound": sample.min_rank,
        "witness": _point_strs(sample.witness),
        "samples_tried": sample.samples_tried,
        "note": "sampled minimum is an upper bound for the true minimal rank",
    }
    rank = sample.min_rank
    report["region"] = region_block(spec, rank, riesz_region(
        *spec.weight_sums(), spec.n_dprime, rank) if rank >= 1 else None)
    report["sobolev"] = {"rank": rank}
    if rank < 1:
        report["sobolev"]["note"] = ("no sampled positive Hessian rank; "
                                     "smoothing table withheld")
    else:
        report["sobolev"]["table"] = sobolev_block(spec, rank, ANALYZE_P_GRID)
    report["genericity"] = genericity_block(genericity_report(spec.weights),
                                            spec.beta_dprime)
    return report


def report_json(report: dict) -> str:
    """``report`` as one line of JSON with sorted keys and a final newline.

    Without ``indent`` ``json.dumps`` takes its C encoder; to read a report,
    pipe it through ``python -m json.tool``."""
    return json.dumps(report, sort_keys=True) + "\n"


def riesz_svg(region: RieszRegion) -> str:
    """Exponent-diagram figure: the boundedness polygon in the (1/p, 1/q)
    unit square with the restricted-weak-type vertices circled.

    Built directly from the exact rational vertices; presentation only.
    """
    size, pad = 420, 40
    side = size - 2 * pad

    def xy(col: Fraction, row: Fraction) -> str:
        x = pad + float(col) * side
        y = pad + (1.0 - float(row)) * side
        return f"{x:.2f},{y:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="{pad}" y="{pad}" width="{side}" height="{side}" '
        'fill="none" stroke="black"/>',
    ]
    if region.hypothesis_holds:
        v1, v2 = region.vertex1, region.vertex2
        corners = [(Fraction(0), Fraction(0)), v2, v1,
                   (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
        pts = " ".join(xy(*c) for c in corners)
        lines.append(f'<polygon points="{pts}" fill="lightgray" '
                     'stroke="black" stroke-width="1"/>')
        for v, name in ((v1, "V1"), (v2, "V2")):
            cx, cy = xy(*v).split(",")
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="none" '
                         'stroke="black"/>')
            lines.append(f'<text x="{float(cx) + 8:.2f}" y="{float(cy) - 8:.2f}" '
                         f'font-size="12">{name} = ({rational_str(v[0])}, '
                         f'{rational_str(v[1])})</text>')
    else:
        lines.append(f'<text x="{pad}" y="{pad - 10}" font-size="12">'
                     'rank hypothesis fails: endpoint vertices withheld'
                     '</text>')
    lines.append(f'<text x="{size // 2 - 10}" y="{size - 8}" '
                 'font-size="12">1/p</text>')
    lines.append(f'<text x="8" y="{size // 2}" font-size="12">1/q</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
