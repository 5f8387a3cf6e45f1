"""The four benchmark workloads: their inputs, their CLI jobs and their checks.

A workload is made from the benchmark seed alone.  Generated spec files are
written into the run directory; the fixed ones come from ``specs/``.  A job
is a list of ``anisoradon`` CLI calls; each call gets ``--out <job dir>/<file>``
appended.  ``tiny=True`` shrinks every size so that the benchmark's own tests
run in seconds; the timed runs never use it.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"

NAMES = ("decay-2d", "decay-l2", "generic-rank", "point-eval")


@dataclass
class Workload:
    name: str
    # spec files the set-up probe loads and validates
    specs: list[Path]
    # (output file name, argv without --out) per CLI call of one job
    calls: list[tuple[str, list[str]]]
    # run-level reference, computed once after the timed loop
    reference: Callable[[Path], object]
    # (job dir, reference) -> list of problems; empty when the job is correct
    check: Callable[[Path, object], list[str]]


def _term(coeff: int, exps: tuple[int, ...], n_prime: int,
          n_dprime: int) -> dict:
    return {"coeff": str(coeff),
            "x_prime": list(exps[:n_prime]),
            "x_dprime": list(exps[n_prime:n_prime + n_dprime]),
            "y_prime": list(exps[n_prime + n_dprime:])}


def _isotropic_spec(n_prime: int, n_dprime: int, beta_dprime: list[int],
                    s_terms: list[list[dict]]) -> dict:
    return {"n_prime": n_prime, "n_dprime": n_dprime,
            "alpha_prime": [1] * n_prime, "alpha_dprime": [1] * n_dprime,
            "beta_prime": [1] * n_prime, "beta_dprime": beta_dprime,
            "S": s_terms}


def _write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def degree_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent vector of total degree ``degree`` in ``nvars``
    variables: with all weights 1 this is the full quasidegree basis."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars),
                                                         degree):
        exps = [0] * nvars
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return out


def _nonzero(rng: random.Random, bound: int) -> int:
    c = rng.randint(1, bound)
    return c if rng.random() < 0.5 else -c


# -- decay-2d ------------------------------------------------------------------

def decay_2d(seed: int, run_dir: Path, tiny: bool) -> Workload:
    """n'=2, n''=1, S = s1 x'_1 y'_p(1) + s2 x'_2 y'_p(2), beta''=2.

    The seed picks the signs s and the permutation p.  Every choice is a
    nondegenerate bilinear shear that maps the symmetric grid onto itself,
    so the work per job does not depend on the seed.
    """
    rng = random.Random(seed)
    perm = rng.choice([(0, 1), (1, 0)])
    terms = []
    for i in range(2):
        exps = [0] * 5
        exps[i] = 1
        exps[3 + perm[i]] = 1
        terms.append(_term(rng.choice([1, -1]), tuple(exps), 2, 1))
    doc = _isotropic_spec(2, 1, [2], [terms])
    spec = _write(doc, run_dir / "decay_2d.json")
    grid, ref_grid = (16, 8) if tiny else (64, 16)
    pairs = ("11", "oooo", "1oo")
    info = {"grid": grid, "reference_grid": ref_grid, "jmax": 6,
            "pairs": pairs, "dim": 3, "spec": spec,
            # the paper's slopes for the dyadic pieces T_j Q_j; the small
            # grids of the tests resolve too few slabs to fit them
            "slopes": {} if tiny else {"11": ("<=", -2), "oooo": ("<=", -2),
                                       "1oo": ("==", 2)},
            "required_slopes": () if tiny else ("11", "oooo")}
    return _decay_workload("decay-2d", info)


# -- decay-l2 ------------------------------------------------------------------

def decay_l2(seed: int, run_dir: Path, tiny: bool) -> Workload:
    """verify on specs/rank_one.json with the (2,2) norm.  The spec is fixed,
    so the seed does not change this workload's input."""
    spec = SPECS / "rank_one.json"
    grid, ref_grid = (32, 16) if tiny else (256, 32)
    pairs = ("11", "oooo", "1oo", "22")
    info = {"grid": grid, "reference_grid": ref_grid, "jmax": 6,
            "pairs": pairs, "dim": 2, "spec": spec,
            # |alpha'| = |beta'| = 1, |beta''| = 2
            "slopes": {} if tiny else {"11": ("<=", -1), "oooo": ("<=", -1),
                                       "1oo": ("==", 2), "22": ("<=", -1)},
            "required_slopes": () if tiny else ("11", "oooo", "1oo", "22")}
    return _decay_workload("decay-l2", info)


def _decay_workload(name: str, info: dict) -> Workload:
    argv = ["verify", "--spec", str(info["spec"]), "--grid",
            str(info["grid"]), "--jmax", str(info["jmax"]),
            "--norms", ",".join(info["pairs"])]
    return Workload(
        name=name, specs=[info["spec"]], calls=[("verify.csv", argv)],
        reference=lambda ref_dir: checks.decay_reference(info, ref_dir),
        check=lambda job_dir, ref: checks.check_decay(job_dir, ref, info))


# -- generic-rank --------------------------------------------------------------

def generic_rank(seed: int, run_dir: Path, tiny: bool) -> Workload:
    """sample-generic, n'=4, n''=2, isotropic weights, beta''=(5,5).

    sample-generic only reads the weights and beta'' of its spec; the spec's
    S is a random quasidegree-5 tuple so that the spec is valid.
    """
    rng = random.Random(seed)
    basis = degree_exponents(10, 5)
    s_terms = [[_term(_nonzero(rng, 9), e, 4, 2)
                for e in sorted(rng.sample(basis, 8))] for _ in range(2)]
    spec = _write(_isotropic_spec(4, 2, [5, 5], s_terms),
                  run_dir / "generic_rank.json")
    tuples, points = (3, 20) if tiny else (20, 200)
    info = {"spec": spec, "tuples": tuples, "points": points, "seed": seed,
            "n_prime": 4, "n_dprime": 2, "beta_dprime": (5, 5),
            "coefficient_bound": 10}
    argv = ["sample-generic", "--spec", str(spec), "--tuples", str(tuples),
            "--points", str(points), "--seed", str(seed)]
    return Workload(
        name="generic-rank", specs=[spec],
        calls=[("sample_generic.json", argv)],
        reference=lambda ref_dir: checks.generic_reference(info),
        check=lambda job_dir, ref: checks.check_generic(job_dir, ref, info))


# -- point-eval ----------------------------------------------------------------

def point_eval(seed: int, run_dir: Path, tiny: bool) -> Workload:
    """analyze on a dense n'=4, n''=2 spec, then dual-check and knapp.

    The dense spec puts a random nonzero integer in [-9, 9] on every monomial
    of the quasidegree-4 basis (715 per component, all weights 1), so the
    principal part is S itself.
    """
    rng = random.Random(seed)
    basis = degree_exponents(10, 4)
    s_exps = [{e: _nonzero(rng, 9) for e in basis} for _ in range(2)]
    doc = _isotropic_spec(4, 2, [4, 4],
                          [[_term(c, e, 4, 2) for e, c in comp.items()]
                           for comp in s_exps])
    dense = _write(doc, run_dir / "point_eval_dense.json")
    samples, dual_points = (2000, 50) if tiny else (100000, 2000)
    info = {"dense": dense, "s_exps": s_exps, "samples": samples,
            "n_prime": 4, "n_dprime": 2, "beta_dprime": (4, 4), "seed": seed,
            "dual_jmax": 8, "knapp_t": (-8, -1), "knapp_exponent": 4}
    calls = [
        ("analyze.json", ["analyze", "--spec", str(dense), "--samples",
                          str(samples), "--seed", str(seed)]),
        ("dual_check.json", ["dual-check", "--spec",
                             str(SPECS / "dual_quadratic.json"), "--jmax",
                             str(info["dual_jmax"]), "--points",
                             str(dual_points), "--seed", str(seed)]),
        ("knapp.json", ["knapp", "--spec", str(SPECS / "reference.json"),
                        "--tmin", str(info["knapp_t"][0]),
                        "--tmax", str(info["knapp_t"][1])]),
    ]
    return Workload(
        name="point-eval",
        specs=[dense, SPECS / "dual_quadratic.json", SPECS / "reference.json"],
        calls=calls,
        reference=lambda ref_dir: checks.PointReference(info),
        check=lambda job_dir, ref: checks.check_point(job_dir, ref, info))


_BUILDERS = {"decay-2d": decay_2d, "decay-l2": decay_l2,
             "generic-rank": generic_rank, "point-eval": point_eval}


def make(name: str, seed: int, run_dir: Path, tiny: bool = False) -> Workload:
    return _BUILDERS[name](seed, run_dir, tiny)
