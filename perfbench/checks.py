"""Output checks made apart from the program.

No check compares against a stored copy of earlier output.  The decay norms
are recomputed from a dense composite matrix built here with numpy, the
Hessian ranks are recomputed in ``sympy``, and the rest are identities the
paper or the report format imply.  Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

# (1,1), (oo,oo) and (1,oo) come from the same absolute kernel in both
# computations, summed in another order
STATS_RTOL = 1e-9
# power iteration stops once the relative change drops below 1e-6
L2_RTOL = 1e-4
# slopes fitted over six slabs on a finite grid
SLOPE_TOL = 0.1
# the dual-shear deviation contracts by 1/2 per dyadic step from j = 3 on
DUAL_RATIO_TOL = 0.05


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _run_cli(argv: list[str]) -> int:
    from anisoradon import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# -- decay-2d, decay-l2 --------------------------------------------------------

def parse_decay_csv(path: Path) -> tuple[dict, list[str]]:
    """{(j, pair): (value, context)} of the TjQj rows, plus problems."""
    rows: dict = {}
    problems = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["j", "k", "normPair", "value", "predictedSlopeContext"]:
            return rows, [f"unexpected CSV header {header}"]
        for rec in reader:
            j, k, pair, value, ctx = rec
            key = (int(j), pair)
            if k != "" or key in rows:
                problems.append(f"unexpected row {rec}")
            rows[key] = (float(value), ctx)
    return rows, problems


def dense_composite_norms(t_matrix, ydd_block: np.ndarray, grid,
                          with_l2: bool) -> dict[str, float]:
    """Norms of T_j Q_j from its dense matrix.

    Q_j multiplies the y''-frequencies only (n'' = 1), so its matrix is
    I (x) Q with Q the N x N circulant built here by FFT of the identity.
    """
    if ydd_block.ndim != 1:
        raise ValueError("the dense reference handles n'' = 1 only")
    n = grid.points_per_axis
    size = grid.size
    q = np.real(np.fft.ifft(ydd_block[:, None] * np.fft.fft(np.eye(n), axis=0),
                            axis=0))
    colsum = np.zeros(size)
    rowsum_max = 0.0
    entry_max = 0.0
    blocks = []
    for r0 in range(0, size, 512):
        chunk = t_matrix[r0:r0 + 512].toarray()
        comp = (chunk.reshape(chunk.shape[0], size // n, n) @ q) \
            .reshape(chunk.shape[0], size)
        a = np.abs(comp)
        colsum += a.sum(axis=0)
        rowsum_max = max(rowsum_max, float(a.sum(axis=1).max()))
        entry_max = max(entry_max, float(a.max()))
        if with_l2:
            blocks.append(comp)
    out = {"11": float(colsum.max()), "oooo": rowsum_max,
           "1oo": entry_max / grid.cell_volume}
    if with_l2:
        out["22"] = float(np.linalg.norm(np.vstack(blocks), 2))
    return out


def decay_reference(info: dict, ref_dir: Path) -> list[str]:
    """Run verify on the reduced grid and recompute every norm densely.

    Returns run-level problems; each of them fails every job of the run.
    """
    from anisoradon.numerics import Grid, discretize_tj, qj_multiplier
    from anisoradon.specfile import load_spec

    n = info["reference_grid"]
    out = ref_dir / "verify_reference.csv"
    rc = _run_cli(["verify", "--spec", str(info["spec"]), "--grid", str(n),
                   "--jmax", str(info["jmax"]),
                   "--norms", ",".join(info["pairs"]), "--out", str(out)])
    if rc != 0:
        return [f"reference-grid verify exited with {rc}"]
    got, problems = parse_decay_csv(out)
    spec = load_spec(info["spec"])
    grid = Grid(dim=info["dim"], points_per_axis=n)
    with_l2 = "22" in info["pairs"]
    for j in range(1, info["jmax"] + 1):
        tj = discretize_tj(spec, grid, j).matrix
        block = qj_multiplier(grid, spec.n_prime, spec.beta_dprime,
                              j).ydd_block
        want = dense_composite_norms(tj, block, grid, with_l2)
        for pair in info["pairs"]:
            if (j, pair) not in got:
                problems.append(f"reference grid: row j={j} {pair} missing")
                continue
            rtol = L2_RTOL if pair == "22" else STATS_RTOL
            value = got[(j, pair)][0]
            if not _close(value, want[pair], rtol):
                problems.append(f"reference grid {n}: j={j} {pair} = {value}"
                                f", dense matrix gives {want[pair]}")
    return problems


def check_decay(job_dir: Path, reference: list[str], info: dict) -> list[str]:
    problems = list(reference)
    rows, bad = parse_decay_csv(job_dir / "verify.csv")
    problems += bad
    pairs = info["pairs"]
    expected = {(j, p) for j in range(1, info["jmax"] + 1) for p in pairs}
    if set(rows) != expected:
        problems.append(f"rows {sorted(set(rows) ^ expected)} missing "
                        "or unexpected")
        return problems
    cell_volume = (4.0 / info["grid"]) ** info["dim"]  # half-width 2
    for j in range(1, info["jmax"] + 1):
        v = {p: rows[(j, p)][0] for p in pairs}
        if not all(math.isfinite(x) and x >= 0 for x in v.values()):
            problems.append(f"j={j}: norm not finite and >= 0: {v}")
            continue
        # no entry exceeds the absolute sum of its column or of its row
        entry = v["1oo"] * cell_volume
        if entry > min(v["11"], v["oooo"]) * (1 + STATS_RTOL):
            problems.append(f"j={j}: largest entry {entry} exceeds a column "
                            f"or row sum")
        if "22" in v:
            # entry lower bound and Schur test
            if entry > v["22"] * (1 + L2_RTOL):
                problems.append(f"j={j}: largest entry {entry} exceeds the "
                                f"(2,2) norm {v['22']}")
            if v["22"] > math.sqrt(v["11"] * v["oooo"]) * (1 + STATS_RTOL):
                problems.append(f"j={j}: (2,2) norm {v['22']} exceeds the "
                                "Schur bound")
    try:
        summary = json.loads((job_dir / "verify.csv.stdout").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return problems + [f"no fit summary on stdout: {exc}"]
    if summary.get("rows") != len(expected):
        problems.append(f"summary rows {summary.get('rows')} != "
                        f"{len(expected)}")
    fitted = summary.get("fitted", {})
    for pair, (rel, bound) in info["slopes"].items():
        slope = fitted.get(f"TjQj_{pair}_j_slope")
        if slope is None:
            if pair in info["required_slopes"]:
                problems.append(f"no fitted {pair} slope")
            continue
        ok = abs(slope - bound) <= SLOPE_TOL if rel == "==" \
            else slope <= bound + SLOPE_TOL
        if not ok:
            problems.append(f"{pair} slope {slope} is not {rel} {bound} "
                            f"within {SLOPE_TOL}")
    return problems


# -- Hessian ranks in sympy ------------------------------------------------------

def _hessian_ring(domain, n_prime: int, n_dprime: int):
    """sympy ring in (x', x'', y'), the variable order of the spec files."""
    from sympy.polys.rings import ring
    names = ",".join([f"x{i}" for i in range(n_prime)]
                     + [f"X{i}" for i in range(n_dprime)]
                     + [f"y{i}" for i in range(n_prime)])
    r, *gens = ring(names, domain)
    return r, gens


def sympy_hessian_rank(components, gens, point, eta, n_prime: int) -> int:
    """Rank of (d^2/dx'_i dy'_j eta . S) at ``point``, by sympy."""
    from sympy import Matrix, Rational
    f = sum((e * c for e, c in zip(eta, components)), components[0] * 0)
    subs = list(zip(gens, point))
    xs, ys = gens[:n_prime], gens[len(gens) - n_prime:]

    def entry(i, j):
        val = f.diff(xs[i]).diff(ys[j]).evaluate(subs)
        return Rational(int(val.numerator), int(val.denominator))

    return Matrix(n_prime, n_prime, entry).rank()


def generic_reference(info: dict) -> list[int]:
    """sympy rank of each trial's mixed Hessian at a random integer point.

    S is homogeneous, so the rank at a rational point equals the rank at its
    numerators; a random point gives the generic rank of the trial.
    """
    from sympy.polys.domains import ZZ
    from anisoradon.hessian import generic_trial_tuple
    from anisoradon.scaling import MultiIndex, isotropic_weights

    w = isotropic_weights(info["n_prime"], info["n_dprime"])
    beta = MultiIndex(info["beta_dprime"])
    ring_, gens = _hessian_ring(ZZ, info["n_prime"], info["n_dprime"])
    rng = random.Random(f"generic-rank/{info['seed']}")
    ranks = []
    for t in range(info["tuples"]):
        polys = generic_trial_tuple(w, beta, info["seed"], t,
                                    info["coefficient_bound"])
        comps = [ring_.from_dict({m.exp_x + m.exp_xx + m.exp_y: int(m.coeff)
                                  for m in p.monomials()}) for p in polys]
        point = [rng.randint(-50, 50) for _ in gens]
        eta = [rng.randint(1, 50) for _ in range(info["n_dprime"])]
        ranks.append(sympy_hessian_rank(comps, gens, point, eta,
                                        info["n_prime"]))
    return ranks


def check_generic(job_dir: Path, sympy_ranks: list[int],
                  info: dict) -> list[str]:
    doc = json.loads((job_dir / "sample_generic.json").read_text())
    problems = []
    for key, want in (("tuples", info["tuples"]),
                      ("points_per_tuple", info["points"]),
                      ("seed", info["seed"]),
                      ("coefficient_bound", info["coefficient_bound"])):
        if doc.get(key) != want:
            problems.append(f"{key} = {doc.get(key)}, expected {want}")
    evals = {int(k): v for k, v in doc["evaluation_rank_histogram"].items()}
    trials = {int(k): v for k, v in doc["trial_min_rank_histogram"].items()}
    if sum(evals.values()) != info["tuples"] * info["points"]:
        problems.append(f"evaluation histogram totals {sum(evals.values())}")
    if sum(trials.values()) != info["tuples"]:
        problems.append(f"trial histogram totals {sum(trials.values())}")
    n = info["n_prime"]
    if not all(0 <= r <= n for r in list(evals) + list(trials)):
        problems.append(f"a rank lies outside [0, {n}]")
    # each trial minimum is one of the evaluated ranks
    if not set(trials) <= set(evals):
        problems.append("a trial minimum was never evaluated")
    total = sum(evals.values())
    if total:
        frac = Fraction(sum(v for r, v in evals.items() if r >= 2), total)
        if doc.get("evaluation_fraction_rank_ge_2") != \
                (str(frac.numerator) if frac.denominator == 1 else str(frac)):
            problems.append("evaluation_fraction_rank_ge_2 disagrees with "
                            "the histogram")
    # a sampled minimum never exceeds the generic rank; the per-trial
    # minima are only reported as a histogram, so compare sorted lists
    mins = sorted(r for r, v in trials.items() for _ in range(v))
    if len(mins) == len(sympy_ranks) and \
            any(m > s for m, s in zip(mins, sorted(sympy_ranks))):
        problems.append(f"sampled minima {mins} exceed the sympy ranks "
                        f"{sorted(sympy_ranks)}")
    return problems


# -- point-eval ------------------------------------------------------------------

class PointReference:
    """sympy ranks of the dense spec's Hessian, cached per witness."""

    def __init__(self, info: dict):
        from sympy.polys.domains import QQ
        self.domain = QQ
        self.ring, self.gens = _hessian_ring(QQ, info["n_prime"],
                                             info["n_dprime"])
        self.components = [self.ring.from_dict(comp)
                           for comp in info["s_exps"]]
        self.n_prime = info["n_prime"]
        self._cache: dict[str, int] = {}

    def rank_at(self, witness: dict) -> int:
        key = json.dumps(witness, sort_keys=True)
        if key not in self._cache:
            def q(text: str):
                f = Fraction(text)
                return self.domain(f.numerator, f.denominator)

            point = [q(v) for v in witness["x_prime"] + witness["x_dprime"]
                     + witness["y_prime"]]
            eta = [q(v) for v in witness["eta_dprime"]]
            self._cache[key] = sympy_hessian_rank(
                self.components, self.gens, point, eta, self.n_prime)
        return self._cache[key]


def check_point(job_dir: Path, ref: PointReference, info: dict) -> list[str]:
    problems = []
    n_p, n_d = info["n_prime"], info["n_dprime"]
    doc = json.loads((job_dir / "analyze.json").read_text())
    if doc.get("homogeneity", {}).get("status") != "ok":
        return [f"homogeneity status {doc.get('homogeneity')}"]
    parts = [{tuple(t["x_prime"] + t["x_dprime"] + t["y_prime"]):
              int(t["coeff"]) for t in terms}
             for terms in doc["homogeneity"]["principal_parts"]]
    if parts != info["s_exps"]:
        problems.append("principal parts differ from the dense S")
    hess = doc["hessian"]
    rank = hess["min_rank_upper_bound"]
    if ref.rank_at(hess["witness"]) != rank:
        problems.append(f"min_rank_upper_bound {rank} but sympy rank at the "
                        f"witness is {ref.rank_at(hess['witness'])}")
    # coordinate-axis probes: every variable times each eta'' unit vector
    # and the all-ones eta''
    probes = (2 * n_p + n_d) * (n_d + (1 if n_d > 1 else 0))
    if hess["samples_tried"] != info["samples"] + probes:
        problems.append(f"samples_tried {hess['samples_tried']} != "
                        f"{info['samples']} + {probes}")
    region = doc["region"]
    # all weights are 1: |alpha'| = |beta'| = n'
    holds = Fraction(rank, n_d) > Fraction(2 * n_p, sum(info["beta_dprime"]))
    if region.get("rank") != rank or region.get("hypothesis_holds") != holds \
            or ("vertices" in region) != holds:
        problems.append(f"region block inconsistent with rank {rank}")

    dual = json.loads((job_dir / "dual_check.json").read_text())
    ratios = dual["successive_ratio_by_j"]
    if len(ratios) != info["dual_jmax"] - 1:
        problems.append(f"{len(ratios)} dual-check ratios")
    for j, r in ratios.items():
        if int(j) >= 3 and not (r is not None
                                and abs(r - 0.5) <= DUAL_RATIO_TOL):
            problems.append(f"dual-check ratio at j={j} is {r}, not 1/2")

    knapp = json.loads((job_dir / "knapp.json").read_text())
    t_min, t_max = info["knapp_t"]
    if knapp.get("expected_exponent") != info["knapp_exponent"] \
            or [r["t"] for r in knapp["rows"]] != list(range(t_min, t_max + 1)):
        problems.append("knapp table has the wrong exponent or rows")
    for r in knapp["rows"]:
        if not abs(r["implied_exponent"] - info["knapp_exponent"]) <= 1e-9:
            problems.append(f"knapp implied exponent {r['implied_exponent']} "
                            f"at t={r['t']}")
    return problems
