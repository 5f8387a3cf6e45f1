"""Outside-in layer trace: spans around calls into the program's layers.

The program itself has no trace points, so the tracer wraps public functions
of each layer from outside.  A function is replaced at every module that
holds a reference to it (``numerics.experiments`` looks up
``discretize_tj`` under its own name, for example), and methods are replaced
on their class.  Each call records a span (name, start, end, parent) in
memory; the counts ride along.  ``uninstall`` puts every original back, so
traced and untraced jobs can alternate in one process.

Span names are metric names; the part before the first dot is the layer.
A target whose function no longer exists is skipped and its metrics are
reported as absent.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _is_l2(args, kwargs) -> bool:
    pair = args[1] if len(args) > 1 else kwargs.get("pair")
    return pair in ("22", "(2,2)")


def _slab_nnz(counts: Counter, result) -> None:
    counts["operators.slab_nnz"] += result.matrix.nnz


def _samples_tried(counts: Counter, result) -> None:
    counts["hessian.samples_tried"] += result.samples_tried


@dataclass(frozen=True)
class Target:
    module: str
    attr: str                          # "func" or "Class.method"
    span: str                          # span name, unless choose picks one
    count: str | None = None           # counter bumped once per call ...
    within: str | None = None          # ... only while this span is open
    on_result: Callable | None = None  # (counts, result) -> None
    choose: Callable | None = None     # (args, kwargs) -> span name
    also: tuple[str, ...] = ()         # further metrics the target feeds

    def metrics(self) -> set[str]:
        return {self.span, *self.also} | ({self.count} if self.count else set())


TARGETS = (
    Target("anisoradon.specfile", "load_spec", "specfile.load_spec_s"),
    Target("anisoradon.exponents", "check_homogeneity",
           "exponents.check_homogeneity_s"),
    Target("anisoradon.report", "analyze_report", "report.analyze_report_s"),
    Target("anisoradon.numerics.operators", "discretize_tj",
           "operators.discretize_s", on_result=_slab_nnz,
           also=("operators.slab_nnz",)),
    Target("anisoradon.numerics.operators", "discretize_uj",
           "operators.discretize_s", on_result=_slab_nnz,
           also=("operators.slab_nnz",)),
    Target("anisoradon.numerics.operators", "qj_multiplier",
           "operators.multiplier_s"),
    Target("anisoradon.numerics.operators", "pjk_multiplier",
           "operators.multiplier_s"),
    Target("anisoradon.numerics.operators", "FourierMultiplier.apply",
           "operators.fft_apply_s", count="operators.fft_applies"),
    Target("anisoradon.numerics.operators",
           "FourierMultiplier.apply_transpose",
           "operators.fft_apply_s", count="operators.fft_applies"),
    Target("anisoradon.numerics.operators", "ComposedOperator.apply",
           "operators.composed_apply_s", count="norms.l2_matvecs",
           within="norms.l2_s"),
    Target("anisoradon.numerics.operators",
           "ComposedOperator.apply_transpose",
           "operators.composed_apply_s", count="norms.l2_matvecs",
           within="norms.l2_s"),
    Target("anisoradon.numerics.norms", "operator_norm",
           "norms.abs_stats_s", also=("norms.l2_s",),
           choose=lambda a, k: "norms.l2_s" if _is_l2(a, k)
           else "norms.abs_stats_s"),
    Target("anisoradon.numerics.experiments", "decay_table",
           "experiments.decay_table_s"),
    Target("anisoradon.numerics.experiments", "knapp_exponent_table",
           "experiments.knapp_s"),
    Target("anisoradon.numerics.experiments", "dual_principal_check",
           "experiments.dual_check_s"),
    Target("anisoradon.polynomials", "Polynomial.partial_derivative",
           "polynomials.partial_derivative_s",
           count="polynomials.partial_derivatives"),
    Target("anisoradon.polynomials", "lambda_basis",
           "polynomials.lambda_basis_s"),
    Target("anisoradon.polynomials", "Polynomial.evaluate",
           "polynomials.evaluate_s", count="polynomials.evaluations"),
    Target("anisoradon.hessian", "generic_trial_tuple",
           "hessian.trial_tuple_s"),
    Target("anisoradon.hessian", "mixed_hessian", "hessian.mixed_hessian_s"),
    Target("anisoradon.hessian", "min_rank_sample",
           "hessian.min_rank_sample_s", on_result=_samples_tried,
           also=("hessian.rank_evals_per_s",)),
    Target("anisoradon.hessian", "integer_matrix_rank", "hessian.rank_s",
           count="hessian.rank_calls"),
)

ROOT_SPAN = "cli.main_s"
LAYERS = ("cli", "specfile", "exponents", "polynomials", "hessian", "report",
          "operators", "norms", "experiments")


class Tracer:
    """Span recorder for one process.  Not thread-safe: a run has one
    thread."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []          # (name, start, end, parent index)
        self.counts: Counter = Counter()
        self.missing: list[Target] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._open[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- installation --------------------------------------------------------

    def _wrapper(self, target: Target, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = target.span if target.choose is None \
                else target.choose(args, kwargs)
            if target.count and (target.within is None
                                 or self._open[target.within]):
                self.counts[target.count] += 1
            result = self.call(name, orig, args, kwargs)
            if target.on_result is not None:
                target.on_result(self.counts, result)
            return result
        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "anisoradon" or name.startswith("anisoradon.")]
        for target in self.targets:
            owner = sys.modules.get(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, name, None) if owner is not None else None
            if orig is None:
                self.missing.append(target)
                continue
            wrapper = self._wrapper(target, orig)
            for holder in [owner] if path else modules:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._undo.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo = []


# -- metrics ---------------------------------------------------------------------

# name -> (unit, better) of every per-layer metric the traced run reports
METRICS: dict[str, tuple[str, str]] = {
    "operators.discretize_s": ("s", "lower"),
    "operators.slab_nnz": ("count", "lower"),
    "operators.multiplier_s": ("s", "lower"),
    "operators.fft_apply_s": ("s", "lower"),
    "operators.fft_applies": ("count", "lower"),
    "norms.abs_stats_s": ("s", "lower"),
    "norms.l2_s": ("s", "lower"),
    "norms.l2_matvecs": ("count", "lower"),
    "norms.unconverged": ("count", "lower"),
    "experiments.decay_table_s": ("s", "lower"),
    "experiments.knapp_s": ("s", "lower"),
    "experiments.dual_check_s": ("s", "lower"),
    "polynomials.partial_derivative_s": ("s", "lower"),
    "polynomials.partial_derivatives": ("count", "lower"),
    "polynomials.lambda_basis_s": ("s", "lower"),
    "polynomials.evaluate_s": ("s", "lower"),
    "polynomials.evaluations": ("count", "lower"),
    "hessian.trial_tuple_s": ("s", "lower"),
    "hessian.mixed_hessian_s": ("s", "lower"),
    "hessian.min_rank_sample_s": ("s", "lower"),
    "hessian.rank_s": ("s", "lower"),
    "hessian.rank_calls": ("count", "lower"),
    "hessian.rank_evals_per_s": ("1/s", "higher"),
    "specfile.load_spec_s": ("s", "lower"),
    "exponents.check_homogeneity_s": ("s", "lower"),
    "report.analyze_report_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
    "trace.span_coverage": ("share", "higher"),
}


def present_metrics(missing: list[Target], targets=TARGETS) -> list[str]:
    """METRICS minus those that only missing targets would feed."""
    fed = set().union(*(t.metrics() for t in targets if t not in missing))
    gone = set().union(*(t.metrics() for t in missing)) - fed
    return [n for n in METRICS if n not in gone]


def job_metrics(spans: list, counts: Counter, job_wall: float) -> dict:
    """Per-layer figures of one traced job.

    A span's time counts only when no enclosing span has the same name, so
    recursion is not counted twice.  A layer's self time is the time of its
    spans minus the time of their child spans.  The span coverage is the
    share of the job's wall time spent inside spans below the CLI's own.
    """
    out: Counter = Counter()
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        out[f"{name.split('.')[0]}.self_s"] += dur - children[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += dur
    out.update(counts)
    min_rank_s = out["hessian.min_rank_sample_s"]
    out["hessian.rank_evals_per_s"] = (
        out.pop("hessian.samples_tried", 0) / min_rank_s if min_rank_s else 0.0)
    out["trace.span_coverage"] = sum(
        children[i] for i, s in enumerate(spans) if s[3] < 0) / job_wall
    return out
