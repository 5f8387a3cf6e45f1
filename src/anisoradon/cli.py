"""Command-line orchestration.

Exit codes: 0 success; 1 invalid spec/schema; 2 numerical failure
(non-convergence, resolution error); 3 rank hypothesis not satisfied (the
analysis is still emitted, with flags).  Every error is also written as a
one-line JSON object on standard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (AnisoradonError, DilationCapError, NumericalError,
                     ResolutionError, SchemaError, SingularMapError)
from .exponents import decay_laws, genericity_report, riesz_region
from .hessian import COEFFICIENT_BOUND, generic_rank_trial
from .numerics import (Grid, decay_table, dual_principal_check,
                       fit_decay_rows, knapp_exponent_table)
from .numerics.norms import normalize_pair
from .report import (analyze_report, genericity_block, region_block,
                     report_json, riesz_svg, sobolev_block)
from .scaling import MultiIndex, Weights
from .specfile import load_spec, parse_rational, rational_str

_NUMERIC_ERRORS = (NumericalError, ResolutionError, SingularMapError,
                   DilationCapError, MemoryError)
# rows of a --p-grid table, and the top n' of a --n-range one
MAX_TABLE_ROWS = 10_000


class HypothesisNotSatisfied(AnisoradonError):
    """Raised after emitting output, to select exit code 3."""


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise SchemaError(f"expected a comma-separated integer list, "
                          f"got {text!r}") from exc


def _p_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError("p-grid must have the form start:stop:step")
    start, stop, step = (parse_rational(p) for p in parts)
    if step <= 0 or start <= 1 or stop < start:
        raise SchemaError("p-grid needs 1 < start <= stop and step > 0")
    rows = (stop - start) // step + 1
    if rows > MAX_TABLE_ROWS:
        raise SchemaError(f"p-grid {text} has {rows} rows > {MAX_TABLE_ROWS}")
    return [start + i * step for i in range(rows)]


def _load_ranked_spec(args):
    """The spec, after refusing a --rank outside 1..n' (the mixed Hessian
    is n' x n')."""
    spec = load_spec(args.spec)
    if args.rank is not None and not 1 <= args.rank <= spec.n_prime:
        raise SchemaError(f"--rank {args.rank} is outside 1..n' = "
                          f"1..{spec.n_prime}")
    return spec


def _refuse_below_one(**counts: int) -> None:
    """Refuse a count below 1: an empty sample prints a vacuous result."""
    for flag, value in counts.items():
        if value < 1:
            raise SchemaError(f"--{flag} {value} must be at least 1")


# -- subcommands -----------------------------------------------------------------

def _cmd_analyze(args) -> int:
    _refuse_below_one(samples=args.samples)
    spec = load_spec(args.spec)
    report = analyze_report(spec, samples=args.samples, seed=args.seed)
    _emit(report_json(report), args.out)
    return 0


def _cmd_region(args) -> int:
    """``region`` and ``sobolev``; both exit 3 if the rank hypothesis fails."""
    spec = _load_ranked_spec(args)
    region = riesz_region(*spec.weight_sums(), spec.n_dprime, args.rank)
    if args.command == "region":
        out = region_block(spec, args.rank, region)
    else:
        out = {"rank": args.rank, "hypothesis_holds": region.hypothesis_holds,
               "table": sobolev_block(spec, args.rank, _p_grid(args.p_grid))}
    _emit(report_json(out), args.out)
    if args.command == "region" and args.svg:
        Path(args.svg).write_text(riesz_svg(region))
    if not region.hypothesis_holds:
        raise HypothesisNotSatisfied("rank hypothesis fails for this spec")
    return 0


def _cmd_generic(args) -> int:
    weights = Weights(MultiIndex(_int_list(args.alpha_prime)),
                      MultiIndex(_int_list(args.alpha_dprime)),
                      MultiIndex(_int_list(args.beta_prime)))
    rep = genericity_report(weights)
    out = genericity_block(rep)
    if args.n_range:
        try:
            lo_n, hi_n = (int(v) for v in args.n_range.split(":"))
        except ValueError as exc:
            raise SchemaError("n-range must have the form a:b") from exc
        if not 1 <= lo_n <= hi_n <= MAX_TABLE_ROWS:
            raise SchemaError(f"n-range {args.n_range} needs 1 <= a <= b <= "
                              f"{MAX_TABLE_ROWS}")
        out["threshold_by_n_prime"] = [
            {"n_prime": n, "threshold": rep.threshold(n_prime=n),
             "exceeds_rank_1": rep.threshold_exceeds(1, n_prime=n)}
            for n in range(lo_n, hi_n + 1)]
    _emit(report_json(out), args.out)
    return 0


def _cmd_sample_generic(args) -> int:
    _refuse_below_one(tuples=args.tuples, points=args.points)
    spec = load_spec(args.spec)
    rep = generic_rank_trial(spec.weights, spec.beta_dprime,
                             tuples=args.tuples,
                             points_per_tuple=args.points, seed=args.seed)
    out = {
        "tuples": args.tuples,
        "points_per_tuple": args.points,
        "seed": args.seed,
        "coefficient_bound": COEFFICIENT_BOUND,
        "trial_min_rank_histogram": {str(k): v for k, v
                                     in sorted(rep.trial_min_ranks.items())},
        "evaluation_rank_histogram": {str(k): v for k, v in
                                      sorted(rep.evaluation_ranks.items())},
        "evaluation_fraction_rank_ge_2":
            rational_str(rep.evaluation_fraction_at_least(2)),
    }
    _emit(report_json(out), args.out)
    return 0


def _law_text(laws: dict, family: str, pair: str) -> str:
    """One (family, pair)'s laws as CSV text; (2,2) slopes print as floats."""
    return ";".join(
        f"{axis}-slope{law.relation}{law.symbol}="
        f"{float(law.slope) if pair == '22' else law.slope}"
        for axis in "jk" if (law := laws.get((family, pair, axis))))


def _cmd_verify(args) -> int:
    _refuse_below_one(jmax=args.jmax)
    pairs = tuple(normalize_pair(tok) for tok in args.norms.split(",") if tok)
    if not pairs:
        raise SchemaError(f"--norms {args.norms!r} names no norm pair")
    if len(set(pairs)) < len(pairs):
        raise SchemaError(f"--norms {args.norms!r} repeats a norm pair")
    spec = _load_ranked_spec(args)
    grid = Grid(dim=spec.n_prime + spec.n_dprime, points_per_axis=args.grid,
                half_width=args.half_width)
    rows = decay_table(spec, grid, jmax=args.jmax, kmax=args.kmax,
                       pairs=pairs)
    laws, _ = decay_laws(*spec.weight_sums(), spec.n_dprime, args.rank)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["j", "k", "normPair", "value", "predictedSlopeContext"])
    for r in rows:
        law = _law_text(laws, r.family, r.pair)
        flag = "" if r.converged else ";unconverged"
        ctx = f"family={r.family};{law}{flag};resolved={int(r.resolved)}"
        writer.writerow([r.j, "" if r.k is None else r.k, r.pair,
                         repr(r.value), ctx])
    _emit(buf.getvalue(), args.out)
    fitted: dict = {}
    skipped: dict = {}
    for pair in pairs:
        name = f"TjQj_{pair}_j_slope"
        try:
            growth = laws["TjQj", pair, "j"].slope > 0
            fit = fit_decay_rows(rows, "TjQj", pair, resolved_only=growth)
            fitted[name] = fit.slope
        except ValueError as exc:
            skipped[name] = str(exc)
    summary = {"fitted": fitted, "skipped": skipped, "rows": len(rows)}
    if args.out:
        summary["csv"] = args.out
        sys.stdout.write(report_json(summary))
    else:
        # the CSV owns stdout
        sys.stderr.write(report_json(summary))
    return 0


def _cmd_knapp(args) -> int:
    spec = load_spec(args.spec)
    rows = knapp_exponent_table(spec, t_min=args.tmin, t_max=args.tmax,
                                epsilon_box=args.epsilon)
    _, knapp_exponent = decay_laws(*spec.weight_sums(), spec.n_dprime, None)
    out = {"expected_exponent": knapp_exponent, "epsilon_box": args.epsilon,
           "rows": rows}
    _emit(report_json(out), args.out)
    return 0


def _cmd_dual_check(args) -> int:
    _refuse_below_one(jmax=args.jmax, points=args.points)
    spec = load_spec(args.spec)
    devs = dual_principal_check(spec, range(1, args.jmax + 1), args.points,
                                seed=args.seed)
    ratios = {j: (devs[j + 1] / devs[j] if devs[j] > 0 else None)
              for j in range(1, args.jmax)}
    out = {
        "samples_per_level": args.points,
        "seed": args.seed,
        "max_deviation_by_j": {str(j): devs[j] for j in devs},
        "successive_ratio_by_j": {str(j): ratios[j] for j in ratios},
    }
    _emit(report_json(out), args.out)
    return 0


# -- entry point -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisoradon",
        description="Exponent diagrams, genericity thresholds and decay "
                    "experiments for anisotropic Radon-like averages.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument("--spec", required=True, help="spec JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("analyze", help="full report for one spec")
    add_spec(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("region", help="exponent region and SVG diagram")
    add_spec(p)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--svg", default=None, help="write the diagram here")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("sobolev", help="smoothing order table over a p-grid")
    add_spec(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--p-grid", default="6/5:6:1/2",
                   help="start:stop:step, exact rationals")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("generic", help="genericity quantities for weights")
    p.add_argument("--alpha-prime", required=True)
    p.add_argument("--alpha-dprime", required=True)
    p.add_argument("--beta-prime", required=True)
    p.add_argument("--n-range", default=None, help="a:b threshold table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generic)

    p = sub.add_parser("sample-generic",
                       help="Monte-Carlo Hessian rank over random tuples")
    add_spec(p)
    p.add_argument("--tuples", type=int, default=20)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample_generic)

    p = sub.add_parser("verify", help="decay-table CSV for the dyadic pieces")
    add_spec(p)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--half-width", type=float, default=2.0)
    p.add_argument("--jmax", type=int, default=6)
    p.add_argument("--kmax", type=int, default=-1,
                   help="include TjPjk rows up to this k (-1: skip)")
    p.add_argument("--norms", default="11,oooo,1oo")
    p.add_argument("--rank", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("knapp", help="box-pair scaling exponent table")
    add_spec(p)
    p.add_argument("--tmin", type=int, required=True)
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.set_defaults(func=_cmd_knapp)

    p = sub.add_parser("dual-check",
                       help="dual-shear principal part deviations")
    add_spec(p)
    p.add_argument("--jmax", type=int, default=8)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_dual_check)
    return parser


def _error_json(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisNotSatisfied as exc:
        sys.stderr.write(_error_json(exc))
        return 3
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(_error_json(exc))
        return 2
    except (ValueError, AnisoradonError) as exc:
        sys.stderr.write(_error_json(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
