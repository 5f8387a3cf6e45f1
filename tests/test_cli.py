import csv
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from anisoradon import cli, errors
from anisoradon.cli import HypothesisNotSatisfied, main
from anisoradon.numerics import operators
from anisoradon.report import analyze_report
from anisoradon.specfile import load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"
REFERENCE_SPEC = str(SPECS / "reference.json")
GOLDEN = Path(__file__).resolve().parent / "golden"
# n' = 2, n'' = 1, beta'' = (3): rank 2 satisfies the rank hypothesis
RANK_TWO_SPEC = str(GOLDEN / "inputs" / "iso_2_1_b3.json")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_analyze_reference_spec():
    code, out, err = run_cli("analyze", "--spec", REFERENCE_SPEC,
                             "--samples", "30", "--seed", "1")
    assert code == 0, err
    report = json.loads(out)
    assert report["homogeneity"]["status"] == "ok"
    assert report["hessian"]["min_rank_upper_bound"] == 0
    assert report["region"]["hypothesis_holds"] is False
    # no smoothing table at an assumed rank the sampling never saw
    assert report["sobolev"]["rank"] == 0
    assert "table" not in report["sobolev"] and report["sobolev"]["note"]
    assert report["genericity"]["k1"] == 1


def test_analyze_weight_order_violation(tmp_path):
    doc = json.loads(Path(REFERENCE_SPEC).read_text())
    doc["beta_dprime"] = [1]
    doc["S"][0][0]["y_prime"] = [1]  # quasidegree 1 matches beta'' = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("analyze", "--spec", str(path))
    assert code == 1
    assert "WeightOrderViolation" in err


def test_analyze_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n_prime": 1}')
    code, out, err = run_cli("analyze", "--spec", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "SchemaError"


def test_analyze_determinism():
    run1 = run_cli("analyze", "--spec", REFERENCE_SPEC, "--samples", "40",
                   "--seed", "3")
    run2 = run_cli("analyze", "--spec", REFERENCE_SPEC, "--samples", "40",
                   "--seed", "3")
    assert run1 == run2
    assert run1[0] == 0


def test_region_hypothesis_fails_exit_3(tmp_path):
    svg = tmp_path / "diagram.svg"
    code, out, err = run_cli("region", "--spec", str(SPECS / "rank_one.json"),
                             "--rank", "1", "--svg", str(svg))
    assert code == 3
    assert json.loads(err)["error"] == "HypothesisNotSatisfied"
    block = json.loads(out)
    assert block["hypothesis_holds"] is False
    assert svg.read_bytes() \
        == (GOLDEN / "rank_one" / "region.svg").read_bytes()


def test_region_with_vertices(tmp_path):
    svg = tmp_path / "region.svg"
    code, out, err = run_cli("region", "--spec", RANK_TWO_SPEC, "--rank", "2",
                             "--svg", str(svg))
    assert code == 0, err
    block = json.loads(out)
    assert block["hypothesis_holds"] is True
    assert block["vertices"]["V1"] == ["4/5", "2/5"]
    assert block["vertices"]["V2"] == ["3/5", "1/5"]
    text = svg.read_text()
    assert "V1" in text and "polygon" in text
    assert svg.read_bytes() \
        == (GOLDEN / "iso_2_1_b3" / "region.svg").read_bytes()


def test_sobolev_table():
    code, out, err = run_cli("sobolev", "--spec", RANK_TWO_SPEC, "--rank",
                             "2", "--p-grid", "3/2:3:1/2")
    assert code == 0, err
    table = json.loads(out)["table"]
    assert [row["p"] for row in table] == ["3/2", "2", "5/2", "3"]


@pytest.mark.parametrize("command", [["region"], ["sobolev"],
                                     ["verify", "--grid", "16"]])
@pytest.mark.parametrize("rank", ["0", "2", "7"])
def test_rank_outside_one_to_n_prime_is_refused(command, rank):
    # the mixed Hessian of an n' = 1 spec is 1 x 1
    code, out, err = run_cli(command[0], "--spec", REFERENCE_SPEC, "--rank",
                             rank, *command[1:])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_generic_subcommand():
    code, out, err = run_cli("generic", "--alpha-prime", "1,2",
                             "--alpha-dprime", "2", "--beta-prime", "1,3",
                             "--n-range", "5:7")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["k1"] == 6 and rep["k2"] == 4
    assert [r["n_prime"] for r in rep["threshold_by_n_prime"]] == [5, 6, 7]


@pytest.mark.parametrize("n_range", ["0:1", "5:2"])
def test_generic_refuses_an_empty_or_nonpositive_n_range(n_range):
    code, out, err = run_cli("generic", "--alpha-prime", "1",
                             "--alpha-dprime", "1", "--beta-prime", "1",
                             "--n-range", n_range)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("hi", [str(cli.MAX_TABLE_ROWS + 1),
                                "1" + "0" * 400])
def test_generic_refuses_an_n_range_past_the_cap(hi):
    # an n' of 401 digits overflows the float threshold
    code, out, err = run_cli("generic", "--alpha-prime", "1",
                             "--alpha-dprime", "1", "--beta-prime", "1",
                             "--n-range", f"5:{hi}")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_sobolev_refuses_a_p_grid_past_the_cap():
    # 2:3:1/10^12 asks for 10^12 + 1 rows; the count is exact, so the cap
    # itself is admitted
    argv = ["sobolev", "--spec", RANK_TWO_SPEC, "--rank", "2", "--p-grid"]
    code, out, err = run_cli(*argv, "2:3:1/1000000000000")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "SchemaError"
    assert "1000000000001 rows" in error["message"]
    cap = cli.MAX_TABLE_ROWS
    code, out, err = run_cli(*argv, f"2:{cap + 1}:1")
    assert code == 0, err
    assert len(json.loads(out)["table"]) == cap
    code, out, err = run_cli(*argv, f"2:{cap + 2}:1")
    assert code == 1 and json.loads(err)["error"] == "SchemaError"


def test_sample_generic():
    code, out, err = run_cli("sample-generic", "--spec",
                             str(SPECS / "rank_one.json"),
                             "--tuples", "3", "--points", "10", "--seed", "2")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["tuples"] == 3
    assert sum(rep["trial_min_rank_histogram"].values()) == 3


def test_verify_writes_csv(tmp_path):
    out_csv = tmp_path / "decay.csv"
    code, out, err = run_cli("verify", "--spec", REFERENCE_SPEC, "--grid",
                             "64", "--jmax", "3", "--norms", "11,oooo",
                             "--out", str(out_csv))
    assert code == 0, err
    rows = list(csv.reader(out_csv.read_text().splitlines()))
    assert rows[0] == ["j", "k", "normPair", "value",
                       "predictedSlopeContext"]
    assert len(rows) == 1 + 3 * 2
    summary = json.loads(out)
    assert "TjQj_11_j_slope" in summary["fitted"]


def test_verify_lists_skipped_fits():
    # at grid 32 only j = 1, 2 resolve the (1,oo) norm: too few to fit
    code, out, err = run_cli("verify", "--spec", str(SPECS / "rank_one.json"),
                             "--grid", "32")
    assert code == 0, err
    assert out.startswith("j,k,normPair,value,predictedSlopeContext")
    summary = json.loads(err)
    assert set(summary["fitted"]) == {"TjQj_11_j_slope", "TjQj_oooo_j_slope"}
    assert summary["skipped"] == {
        "TjQj_1oo_j_slope": "need at least three samples to fit a decay slope"}
    assert summary["rows"] == 18


def test_verify_marks_unconverged_rows_in_the_context(monkeypatch):
    from anisoradon.numerics import norms
    monkeypatch.setattr(norms, "_MAX_PRODUCTS", 3)
    code, out, err = run_cli("verify", "--spec", str(SPECS / "rank_one.json"),
                             "--grid", "16", "--jmax", "3", "--norms",
                             "11,22")
    assert code == 0, err
    contexts = [row[4] for row in csv.reader(out.splitlines()[1:])]
    assert contexts[0] == "family=TjQj;j-slope<=-|alpha'|=-1;resolved=1"
    assert contexts[1].endswith(";unconverged;resolved=1")


def test_verify_leaves_the_sparse_solvers_unimported(tmp_path):
    # importing scipy.sparse.linalg adds about 9 MB to every run's peak
    # resident memory; the (2,2) norm needs none of it
    script = (
        "import sys\n"
        "from anisoradon.cli import main\n"
        f"code = main(['verify', '--spec', {str(SPECS / 'rank_one.json')!r},"
        f" '--grid', '16', '--norms', '11,22',"
        f" '--out', {str(tmp_path / 'decay.csv')!r}])\n"
        "print(code, 'scipy.sparse.linalg' in sys.modules)\n")
    src = str(SPECS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv", [
    ["analyze", "--spec", REFERENCE_SPEC],
    ["verify", "--spec", str(SPECS / "rank_one.json"), "--grid", "16",
     "--kmax", "1"],
    ["sample-generic", "--spec", REFERENCE_SPEC, "--tuples", "2",
     "--points", "5"],
    ["knapp", "--spec", REFERENCE_SPEC, "--tmin", "-3", "--tmax", "-1"],
    ["dual-check", "--spec", str(SPECS / "dual_quadratic.json"), "--jmax",
     "2", "--points", "20"],
])
def test_commands_without_a_csr_leave_scipy_sparse_unimported(argv):
    # only the (2,2) norm and n'' >= 2 build a CSR; importing scipy.sparse
    # takes about half of the set-up of every other command.  Only verify
    # builds chunks on a worker thread: concurrent.futures, which imports
    # logging, is left unimported by every other command
    script = ("import sys\n"
              "from anisoradon.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, 'scipy.sparse' in sys.modules,"
              " 'concurrent.futures' in sys.modules)\n")
    src = str(SPECS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == f"0 False {argv[0] == 'verify'}"


def test_verify_refuses_an_oversized_slab(monkeypatch, tmp_path):
    # with chunks of one y'-block and a limit of 1 MiB, the statistics of
    # slab 1 of rank_one at grid 64 stream (491520 B at most); the (2,2)
    # norm adds the CSR of its transpose, at capacity 2 * 32768 values,
    # and the Lanczos vectors over its support, and is refused before the
    # CSR is allocated
    monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(operators, "MAX_PASS_BYTES", 2 ** 20)
    made = []
    original = operators._TransposeRows.__init__
    monkeypatch.setattr(operators._TransposeRows, "__init__",
                        lambda csr, *args: made.append(args)
                        or original(csr, *args))
    argv = ["verify", "--spec", str(SPECS / "rank_one.json"), "--grid", "64"]
    code, _, err = run_cli(*argv, "--norms", "11",
                           "--out", str(tmp_path / "streamed.csv"))
    assert code == 0, err
    out_csv = tmp_path / "decay.csv"
    code, out, err = run_cli(*argv, "--norms", "11,22", "--out", str(out_csv))
    assert code == 2 and not out_csv.exists()
    error = json.loads(err)
    assert error["error"] == "MemoryError"
    assert error["message"] == (
        "slab j=1 needs 1572868 B at once, more than the limit of 1048576 "
        "B: 843780 B of CSR, 458752 B of Lanczos")
    assert made == []


def test_verify_streams_a_slab_larger_than_the_limit(monkeypatch, tmp_path):
    # built whole, slab 1 of rank_one at grid 64 would hold 1474560 B; in
    # chunks of one y'-block its pass holds at most 491520 B, under the
    # limit of 1 MiB, and gives the same bytes.  Whole, it is refused
    # before any entry array is built
    from anisoradon.numerics import Grid, discretize_tj
    from anisoradon.specfile import load_spec
    argv = ["verify", "--spec", str(SPECS / "rank_one.json"), "--grid", "64"]
    code, _, err = run_cli(*argv, "--out", str(tmp_path / "unlimited.csv"))
    assert code == 0, err
    monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(operators, "MAX_PASS_BYTES", 2 ** 20)
    code, _, err = run_cli(*argv, "--out", str(tmp_path / "limited.csv"))
    assert code == 0, err
    assert (tmp_path / "limited.csv").read_bytes() \
        == (tmp_path / "unlimited.csv").read_bytes()
    built = []
    original = operators.SlabMesh.chunk
    monkeypatch.setattr(operators.SlabMesh, "chunk",
                        lambda mesh, run: built.append(run)
                        or original(mesh, run))
    with pytest.raises(MemoryError, match="^slab j=1 needs 1474560 B"):
        discretize_tj(load_spec(SPECS / "rank_one.json"),
                      Grid(dim=2, points_per_axis=64), 1)
    assert built == []


def test_a_y_slice_over_the_limit_is_refused_before_it_is_built(
        monkeypatch):
    # one y'-slice of slab 1 of rank_one at grid 64 (n' = 1) is one y'-block
    # of 1024 mesh entries: read while the next one is built, with that
    # one's scratch and the interpreter's objects, 197632 B, more than a
    # limit of 192 KiB
    from anisoradon.numerics import Grid
    from anisoradon.specfile import load_spec
    monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 1)
    mesh = operators.SlabMesh(load_spec(SPECS / "rank_one.json"),
                              Grid(dim=2, points_per_axis=64), 1, shell=True)
    assert mesh.step == 1 and mesh.per_block == 1024 and mesh.blocks > 1
    monkeypatch.setattr(operators, "MAX_PASS_BYTES", 2 ** 17 + 2 ** 16)
    built = []
    original = operators.SlabMesh.chunk
    monkeypatch.setattr(operators.SlabMesh, "chunk",
                        lambda mesh, run: built.append(run)
                        or original(mesh, run))
    with pytest.raises(MemoryError, match="^slab j=1 needs 197632 B"):
        next(mesh.chunks())
    assert built == []


def test_a_refusal_on_the_chunk_worker_leaves_no_thread(monkeypatch,
                                                       tmp_path):
    # the chunks of a slab are built on a worker thread, one ahead of the
    # statistics; with the check before the pass skipped, slab 1 of
    # rank_one at grid 64 is refused there, by SlabMesh.chunks(), under a
    # limit of 1 MiB: verify exits 2 with the JSON error it gives when the
    # main thread refuses, and no worker thread outlives decay_table,
    # whether it returns or raises
    import threading
    from anisoradon.numerics import Grid, experiments
    from anisoradon.specfile import load_spec
    spec = load_spec(SPECS / "rank_one.json")
    grid = Grid(dim=2, points_per_axis=64)
    threads = threading.active_count()
    assert experiments.decay_table(spec, grid, jmax=2)
    assert threading.active_count() == threads
    refused = []
    account = operators.pass_account

    def traced(*args, **kwargs):
        try:
            return account(*args, **kwargs)
        except MemoryError:
            refused.append(threading.current_thread())
            raise

    monkeypatch.setattr(operators, "pass_account", traced)
    monkeypatch.setattr(experiments, "pass_account", lambda *args: {})
    monkeypatch.setattr(operators, "MAX_PASS_BYTES", 2 ** 20)
    message = ("slab j=1 needs 1474560 B at once, more than the limit of "
               "1048576 B: 1343488 B of chunk scratch, 131072 B of objects")
    with pytest.raises(MemoryError) as refusal:
        experiments.decay_table(spec, grid, jmax=2)
    assert str(refusal.value) == message
    assert threading.active_count() == threads
    assert refused and threading.main_thread() not in refused
    out_csv = tmp_path / "decay.csv"
    code, out, err = run_cli("verify", "--spec", str(SPECS / "rank_one.json"),
                             "--grid", "64", "--out", str(out_csv))
    assert code == 2 and out == "" and not out_csv.exists()
    assert json.loads(err) == {"error": "MemoryError", "message": message}
    assert threading.active_count() == threads


def test_verify_counts_the_dense_ydd_kernel_in_the_memory_bound(monkeypatch,
                                                                 tmp_path):
    # at n'' = 2 the statistics hold one dense y''-kernel of N^4 values at a
    # time: 134217728 B at grid 64 is admitted, 2147483648 B at grid 128 is
    # refused before any chunk of a slab is built
    from anisoradon.numerics import Grid
    from anisoradon.specfile import load_spec
    spec_path = SPECS.parent / "tests" / "golden" / "inputs" / "shear_1_2.json"
    operators.pass_account(operators.SlabMesh(
        load_spec(spec_path), Grid(dim=3, points_per_axis=64), 1, True), 3)
    built = []
    original = operators.SlabMesh.chunk
    monkeypatch.setattr(operators.SlabMesh, "chunk",
                        lambda mesh, run: built.append(run)
                        or original(mesh, run))
    out_csv = tmp_path / "decay.csv"
    code, out, err = run_cli(
        "verify", "--spec", str(spec_path), "--grid", "128", "--jmax", "4",
        "--kmax", "1", "--out", str(out_csv))
    assert code == 2 and out == "" and not out_csv.exists()
    error = json.loads(err)
    assert error["error"] == "MemoryError"
    assert error["message"] == (
        "slab j=1 needs 2211702744 B at once, more than the limit of "
        "603979776 B: 2160453592 B of statistics scratch, 51118080 B of "
        "accumulators")
    assert built == []


def test_verify_refuses_accumulators_past_the_limit(monkeypatch, tmp_path):
    # kmax 10^5 asks for 100002 multipliers, whose accumulators hold
    # 1024020480 B, more than the limit of 603979776 B: the refusal comes
    # from the multiplier count, before any multiplier is built
    from anisoradon.numerics import experiments
    built = []
    original_pjk = experiments.pjk_multiplier
    monkeypatch.setattr(experiments, "pjk_multiplier",
                        lambda *args: built.append(args)
                        or original_pjk(*args))
    argv = ["verify", "--spec", str(SPECS / "rank_one.json"), "--grid", "16"]
    out_csv = tmp_path / "decay.csv"
    code, out, err = run_cli(*argv, "--jmax", "1", "--kmax", "100000",
                             "--out", str(out_csv))
    assert code == 2 and not out_csv.exists()
    error = json.loads(err)
    assert error["error"] == "MemoryError"
    assert "1024020480 B of accumulators" in error["message"]
    assert built == []
    # three multipliers of slab 1 (Q_1, P_10, P_11) need 243712 B, more
    # than a limit of 236 KiB; the refusal comes before any multiplier or
    # accumulator is built
    monkeypatch.setattr(operators, "MAX_PASS_BYTES", 236 * 2 ** 10)
    made = []
    original = operators._InterpolationSums.__init__
    monkeypatch.setattr(operators._InterpolationSums, "__init__",
                        lambda acc, mult: made.append(mult)
                        or original(acc, mult))
    code, out, err = run_cli(*argv, "--kmax", "1", "--out", str(out_csv))
    assert code == 2 and not out_csv.exists()
    error = json.loads(err)
    assert error["error"] == "MemoryError"
    assert error["message"].startswith("slab j=1 needs 243712 B at once")
    assert made == [] and built == []


def test_knapp_subcommand():
    code, out, err = run_cli("knapp", "--spec", REFERENCE_SPEC, "--tmin",
                             "-5", "--tmax", "-4")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["expected_exponent"] == 4
    assert len(rep["rows"]) == 2


def test_dual_check_subcommand():
    code, out, err = run_cli("dual-check", "--spec",
                             str(SPECS / "dual_quadratic.json"), "--jmax",
                             "5", "--points", "10")
    assert code == 0, err
    rep = json.loads(out)
    assert set(rep["max_deviation_by_j"]) == {"1", "2", "3", "4", "5"}


def test_dual_check_does_its_spec_work_once(monkeypatch):
    # every level draws the same samples, so the homogeneity check, the
    # x''-partials and the principal part are needed only once
    from anisoradon.numerics import experiments
    calls = []
    original = experiments.check_homogeneity
    monkeypatch.setattr(experiments, "check_homogeneity",
                        lambda spec: calls.append(spec) or original(spec))
    code, out, err = run_cli("dual-check", "--spec",
                             str(SPECS / "dual_quadratic.json"), "--jmax",
                             "8", "--points", "10")
    assert code == 0, err
    assert len(json.loads(out)["max_deviation_by_j"]) == 8
    assert len(calls) == 1


def test_dual_check_refuses_levels_past_the_dilation_cap():
    # the rescaled coordinates used to underflow from j = 1074 on, and the
    # deviation read 0.0626 instead of 0
    code, out, err = run_cli("dual-check", "--spec", REFERENCE_SPEC,
                             "--jmax", "1100", "--points", "2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DilationCapError"


def test_verify_refuses_jmax_past_the_cap_before_any_slab(monkeypatch):
    built = []
    original = operators.SlabMesh.chunk
    monkeypatch.setattr(operators.SlabMesh, "chunk",
                        lambda mesh, run: built.append(run)
                        or original(mesh, run))
    code, out, err = run_cli("verify", "--spec", str(SPECS / "rank_one.json"),
                             "--grid", "16", "--jmax", "2000")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DilationCapError"
    assert built == []


def test_verify_at_a_large_jmax_keeps_stderr_for_the_summary():
    # 2^(600 * 2) overflowed a double in the resolution flags, and numpy's
    # RuntimeWarning went to stderr, where the summary JSON goes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("verify", "--spec",
                                 str(SPECS / "rank_one.json"), "--grid", "16",
                                 "--jmax", "600", "--norms", "11")
    assert code == 0
    assert json.loads(err)["rows"] == 600


@pytest.mark.parametrize("norms", ["11,11", "22,11,22"])
def test_verify_refuses_a_repeated_norm_pair(norms):
    # a repeated pair printed every row twice and fitted its slope from
    # repeated samples
    code, out, err = run_cli("verify", "--spec", REFERENCE_SPEC, "--grid",
                             "16", "--jmax", "2", "--norms", norms)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "SchemaError" and "repeats" in error["message"]


def test_analyze_writes_the_report_as_one_json_line(tmp_path):
    # the C encoder writes no indentation: one line, and the same report
    out = tmp_path / "analyze.json"
    code, _, err = run_cli("analyze", "--spec", RANK_TWO_SPEC, "--samples",
                           "200", "--seed", "4", "--out", str(out))
    assert code == 0, err
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == analyze_report(load_spec(RANK_TWO_SPEC), 200,
                                              4)


@pytest.mark.parametrize("half_width", ["inf", "1e-300", "1e200"])
def test_verify_refuses_a_half_width_without_a_finite_cell_volume(half_width):
    # inf printed all-zero norms; the cell volume 1e-300 underflows to 0 and
    # 1e200 overflows
    code, out, err = run_cli("verify", "--spec", REFERENCE_SPEC, "--grid",
                             "16", f"--half-width={half_width}")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ValueError" and "half_width" in error["message"]


@pytest.mark.parametrize("half_width", ["1e150", "1e-150"])
def test_verify_refuses_a_grid_on_which_no_slab_has_an_entry(half_width):
    # 1e150 leaves no node inside the slab windows; at 1e-150 every node
    # sits where the shell cutoff is zero.  Both printed all-zero norms.
    code, out, err = run_cli("verify", "--spec", str(SPECS / "rank_one.json"),
                             "--grid", "16", "--jmax", "3",
                             f"--half-width={half_width}")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ResolutionError"


@pytest.mark.parametrize("argv", [
    ["dual-check", "--points", "0"], ["dual-check", "--points", "-5"],
    ["dual-check", "--jmax", "0"], ["sample-generic", "--tuples", "0"],
    ["verify", "--jmax", "0"], ["verify", "--norms", ","]])
def test_vacuous_counts_are_refused(argv):
    # an empty sample would print all-zero deviations, empty histograms or
    # a header-only CSV
    code, out, err = run_cli(argv[0], "--spec", REFERENCE_SPEC, *argv[1:])
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("argv", [["analyze", "--samples", "0"],
                                  ["sample-generic", "--points", "0"]])
def test_empty_rank_samples_are_refused_before_the_spec_loads(argv,
                                                              monkeypatch):
    # both exited 1 with a ValueError, after loading and compiling the spec
    loads = []
    monkeypatch.setattr(cli, "load_spec", loads.append)
    code, out, err = run_cli(argv[0], "--spec", REFERENCE_SPEC, *argv[1:])
    assert code == 1 and out == "" and loads == []
    error = json.loads(err)
    assert error["error"] == "SchemaError" and argv[1] in error["message"]


EXIT_CODES = {
    errors.AnisoradonError: 1, errors.SchemaError: 1,
    errors.HomogeneityViolation: 1, errors.VanishingPrincipalPart: 1,
    errors.WeightOrderViolation: 1, errors.DegenerateSpace: 1,
    errors.DegenerateDenominator: 1, errors.DilationCapError: 2,
    errors.ResolutionError: 2, errors.NumericalError: 2,
    errors.SingularMapError: 2, MemoryError: 2, ValueError: 1,
    HypothesisNotSatisfied: 3,
}


def test_exit_code_map_covers_every_error_class():
    classes = {c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, errors.AnisoradonError)}
    assert classes <= set(EXIT_CODES)


@pytest.mark.parametrize("exc_type", list(EXIT_CODES),
                         ids=lambda c: c.__name__)
def test_exit_code_map(exc_type, monkeypatch):
    def failing(args):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "_cmd_generic", failing)
    code, out, err = run_cli("generic", "--alpha-prime", "1",
                             "--alpha-dprime", "1", "--beta-prime", "1")
    assert code == EXIT_CODES[exc_type] and out == ""
    assert json.loads(err) == {"error": exc_type.__name__, "message": "boom"}
