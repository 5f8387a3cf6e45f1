"""Golden behaviour contract for the command-line outputs.

Each case runs one ``anisoradon`` command in-process and compares its exit
code, its output file, its standard output and its standard error with the
record in ``tests/golden/``.  Exact fields (integers, strings, rationals
rendered as strings) must match exactly; floats must match to a relative
tolerance of 1e-12.  File paths are left out of the records.

After an intended output change, rewrite the records with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from anisoradon.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

SPECS = ("reference", "rank_one", "dual_quadratic")
PER_SPEC = {
    "analyze": ["analyze"],
    "sample-generic": ["sample-generic"],
    # n' = 1 for all three specs: rank 2 is refused
    "region": ["region", "--rank", "2"],
    "sobolev": ["sobolev", "--rank", "2"],
    "knapp": ["knapp", "--tmin", "-6", "--tmax", "-1"],
    "dual-check": ["dual-check"],
    "verify": ["verify", "--grid", "32", "--jmax", "4",
               "--norms", "11,oooo,1oo,22"],
}
CASES = {f"{spec}/{name}": [argv[0], "--spec", f"specs/{spec}.json",
                            *argv[1:]]
         for spec in SPECS for name, argv in PER_SPEC.items()}
# degree-3 Hessian entries (int64 evaluation) at n' = 4 and n' = 6, and
# degree-12 entries, whose a-priori bound exceeds int64 (exact big-integer
# evaluation)
CASES["iso_4_2_b55/sample-generic"] = [
    "sample-generic", "--spec", "tests/golden/inputs/iso_4_2_b55.json",
    "--tuples", "3", "--points", "40"]
CASES["iso_6_2_b55/sample-generic"] = [
    "sample-generic", "--spec", "tests/golden/inputs/iso_6_2_b55.json",
    "--tuples", "3", "--points", "40"]
CASES["iso_2_1_b14/sample-generic"] = [
    "sample-generic", "--spec", "tests/golden/inputs/iso_2_1_b14.json",
    "--tuples", "2", "--points", "30"]
# rank sampling at n' = 2, where some samples give nonzero rank-deficient
# matrices that reach the exact elimination; at degree 14 the a-priori
# bound exceeds int64, so the evaluation uses exact big integers
CASES["iso_2_1_b3/analyze"] = [
    "analyze", "--spec", "tests/golden/inputs/iso_2_1_b3.json"]
CASES["iso_2_1_b14/analyze"] = [
    "analyze", "--spec", "tests/golden/inputs/iso_2_1_b14.json"]
# the TjPjk rows, with the rank-dependent k-slope context of the (2,2) norm
CASES["rank_one/verify-kmax"] = [
    "verify", "--spec", "specs/rank_one.json", "--grid", "32", "--jmax", "4",
    "--kmax", "1", "--rank", "1", "--norms", "11,oooo,1oo,22"]
# the (2,2) norm of TjPjk rows at grid 64, where the Lanczos iteration runs
# past its first restart
CASES["rank_one/verify-k22"] = [
    "verify", "--spec", "specs/rank_one.json", "--grid", "64", "--jmax", "3",
    "--kmax", "3", "--rank", "1", "--norms", "22"]
# n' = 2, so rank 2 is admissible and the endpoint vertices are emitted
CASES["iso_2_1_b3/region"] = [
    "region", "--spec", "tests/golden/inputs/iso_2_1_b3.json", "--rank", "2"]
# the same spec at an admissible rank, so the table over the default p-grid
# is emitted
CASES["iso_2_1_b3/sobolev"] = [
    "sobolev", "--spec", "tests/golden/inputs/iso_2_1_b3.json", "--rank", "2"]
# n'' = 2 with an x''-Jacobian that is not diagonal: the Newton inversion
# of the shear solves a 2 x 2 system at every sample
CASES["shear_1_2/dual-check"] = [
    "dual-check", "--spec", "tests/golden/inputs/shear_1_2.json"]
# the slab build at n' = 2 (two y'-axes) and at n'' = 2 (two x''-slots
# and four interpolation corners), with the TjPjk rows
CASES["iso_2_1_b3/verify"] = [
    "verify", "--spec", "tests/golden/inputs/iso_2_1_b3.json", "--grid", "16",
    "--jmax", "3", "--kmax", "1", "--rank", "2", "--norms", "11,oooo,1oo,22"]
CASES["shear_1_2/verify"] = [
    "verify", "--spec", "tests/golden/inputs/shear_1_2.json", "--grid", "16",
    "--jmax", "3", "--kmax", "1", "--rank", "1", "--norms", "11,oooo,1oo,22"]
# |alpha'| != |beta'| with an odd |alpha'| + |beta'|, so a swapped alpha/beta
# label or a lost .5 in the laws shows; no --rank, so the (2,2) context has
# no k-law, and the 1oo fit is skipped for lack of resolved rows
CASES["aniso_1_1/verify"] = [
    "verify", "--spec", "tests/golden/inputs/aniso_1_1.json", "--grid", "128",
    "--jmax", "4", "--kmax", "1", "--norms", "11,oooo,1oo,22"]
# expected exponent |alpha'| + |beta'| + |beta''| = 1 + 2 + 3
CASES["aniso_1_1/knapp"] = [
    "knapp", "--spec", "tests/golden/inputs/aniso_1_1.json", "--tmin", "-4",
    "--tmax", "-1"]
# the rank hypothesis ratio sits at equality, 1 against 1: exit 3
CASES["aniso_1_1/region"] = [
    "region", "--spec", "tests/golden/inputs/aniso_1_1.json", "--rank", "1"]
# weights only, no spec: the genericity block and its threshold table
CASES["generic/n-range"] = [
    "generic", "--alpha-prime", "1", "--alpha-dprime", "1,1",
    "--beta-prime", "1", "--n-range", "5:8"]


def _parse(text: str, is_csv: bool):
    if is_csv:
        rows = list(csv.reader(text.splitlines()))
        # the value column is a float; the rest are exact
        return [rows[0]] + [r[:3] + [float(r[3])] + r[4:] for r in rows[1:]]
    return json.loads(text) if text else None


def run_case(argv: list[str], out: Path) -> dict:
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    is_csv = argv[0] == "verify"
    record = {"exit_code": code,
              "output": _parse(out.read_text(), is_csv)
              if out.exists() else None,
              "stdout": _parse(stdout.getvalue(), False),
              "stderr": _parse(stderr.getvalue(), False)}
    if isinstance(record["stdout"], dict):
        record["stdout"].pop("csv", None)  # the output path
    return record


def differences(got, want, path: str = "") -> list[str]:
    if isinstance(want, float) and isinstance(got, float):
        if got == want or math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k],
                                                      f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _golden_path(case: str) -> Path:
    return GOLDEN / f"{case}.json"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    want = json.loads(_golden_path(case).read_text())
    assert want["argv"] == CASES[case]
    got = run_case(CASES[case], tmp_path / "out")
    assert differences(got, want["record"]) == []


def test_differences_tolerates_only_float_rounding():
    assert differences({"a": [1.0, "x"]}, {"a": [1.0 + 1e-15, "x"]}) == []
    assert differences({"a": 1.0}, {"a": 1.0 + 1e-9})
    assert differences({"a": 1}, {"a": 1.0})
    assert differences({"a": "1/2"}, {"a": "1/3"})


if __name__ == "__main__":
    import tempfile
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(argv, Path(tmp) / "out")
        path = _golden_path(case)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"argv": argv, "record": record},
                                   indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
