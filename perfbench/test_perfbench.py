"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import layertrace
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_report():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} == layertrace.METRICS


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_and_passes_its_checks(name):
    result = run.run(name, seed=3, seconds=0, trace=False, tiny=True,
                     probes=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # warm-up and one timed job
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_emits_every_layer_metric(name):
    result = run.run(name, seed=3, seconds=0, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(layertrace.METRICS)
    assert 0 < result["metrics"]["trace.span_coverage"]["value"] <= 1


def test_missing_trace_target_makes_its_metrics_absent():
    gone = layertrace.Target("anisoradon.hessian", "no_such_function",
                             "hessian.rank_s", count="hessian.rank_calls")
    tracer = layertrace.Tracer(layertrace.TARGETS + (gone,))
    run.load_cli()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == [gone]
    # integer_matrix_rank still feeds both metrics
    assert layertrace.present_metrics(tracer.missing) \
        == list(layertrace.METRICS)
    present = layertrace.present_metrics([layertrace.TARGETS[-1]])
    assert "hessian.rank_s" not in present
    assert "hessian.rank_calls" not in present


def test_tracer_restores_every_wrapped_function():
    run.load_cli()
    from anisoradon import hessian
    from anisoradon.numerics import experiments, operators
    before = (hessian.integer_matrix_rank, experiments.discretize_tj,
              operators.FourierMultiplier.apply)
    tracer = layertrace.Tracer()
    tracer.install()
    assert experiments.discretize_tj is not before[1]
    tracer.uninstall()
    assert (hessian.integer_matrix_rank, experiments.discretize_tj,
            operators.FourierMultiplier.apply) == before


# -- a corrupted output fails the matching check ----------------------------------

def _one_job(name: str, tmp_path: Path):
    cli = run.load_cli()
    wl = workloads.make(name, 3, tmp_path, tiny=True)
    job = run.run_job(cli, wl, tmp_path / "job")
    (tmp_path / "ref").mkdir()
    ref = wl.reference(tmp_path / "ref")
    assert job.exited_ok(len(wl.calls))
    assert wl.check(job.dir, ref) == []
    return wl, job, ref


def _edit_csv(path: Path, pair: str, factor: float) -> None:
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        j, k, p, value, ctx = line.split(",")
        if p == pair:
            lines[i] = ",".join([j, k, p, repr(float(value) * factor), ctx])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("pair,factor", [("22", 100.0), ("22", 1e-9),
                                         ("1oo", 1e9)])
def test_scaled_norm_fails_the_norm_bounds(tmp_path, pair, factor):
    wl, job, ref = _one_job("decay-l2", tmp_path)
    _edit_csv(job.dir / "verify.csv", pair, factor)
    assert wl.check(job.dir, ref)


def test_dropped_decay_row_fails(tmp_path):
    wl, job, ref = _one_job("decay-2d", tmp_path)
    path = job.dir / "verify.csv"
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    assert wl.check(job.dir, ref)


def test_dense_reference_catches_a_wrong_norm(tmp_path, monkeypatch):
    run.load_cli()
    from anisoradon.numerics import experiments
    original = experiments.operator_norm
    monkeypatch.setattr(experiments, "operator_norm",
                        lambda op, pair, **kw: original(op, pair, **kw)
                        * (1.001 if pair == "11" else 1.0))
    wl = workloads.make("decay-2d", 3, tmp_path, tiny=True)
    problems = wl.reference(tmp_path)
    assert problems and all(" 11 = " in p for p in problems)


def test_paper_slopes_are_checked(tmp_path):
    wl = workloads.make("decay-l2", 3, tmp_path, tiny=False)
    job_dir = tmp_path / "job"
    job_dir.mkdir()
    rows = ["j,k,normPair,value,predictedSlopeContext"]
    for j in range(1, 7):
        for pair, value in (("11", 2.0 ** -j), ("oooo", 2.0 ** -j),
                            ("1oo", 2.0 ** (2 * j - 20)), ("22", 2.0 ** -j)):
            rows.append(f"{j},,{pair},{value!r},ctx")
    (job_dir / "verify.csv").write_text("\n".join(rows) + "\n")
    fitted = {"TjQj_11_j_slope": -1.0, "TjQj_oooo_j_slope": -1.0,
              "TjQj_1oo_j_slope": 2.0, "TjQj_22_j_slope": -1.0}
    summary = {"fitted": fitted, "rows": 24}
    out = job_dir / "verify.csv.stdout"
    out.write_text(json.dumps(summary))
    assert wl.check(job_dir, []) == []
    fitted["TjQj_1oo_j_slope"] = 1.5
    out.write_text(json.dumps(summary))
    assert wl.check(job_dir, []) == ["1oo slope 1.5 is not == 2 within 0.1"]
    del fitted["TjQj_1oo_j_slope"]
    out.write_text(json.dumps(summary))
    assert wl.check(job_dir, []) == ["no fitted 1oo slope"]


def test_dropped_histogram_entry_fails(tmp_path):
    wl, job, ref = _one_job("generic-rank", tmp_path)
    path = job.dir / "sample_generic.json"
    doc = json.loads(path.read_text())
    hist = doc["evaluation_rank_histogram"]
    hist.pop(sorted(hist)[0])
    path.write_text(json.dumps(doc))
    assert wl.check(job.dir, ref)


def test_trial_minimum_above_the_sympy_rank_fails(tmp_path):
    wl, job, ref = _one_job("generic-rank", tmp_path)
    low = [r - 1 for r in ref]
    assert wl.check(job.dir, low)


@pytest.mark.parametrize("edit", ["samples", "rank", "knapp", "dual"])
def test_corrupted_point_eval_output_fails(tmp_path, edit):
    wl, job, ref = _one_job("point-eval", tmp_path)
    if edit in ("samples", "rank"):
        path = job.dir / "analyze.json"
        doc = json.loads(path.read_text())
        key = "samples_tried" if edit == "samples" else "min_rank_upper_bound"
        doc["hessian"][key] -= 1
    elif edit == "knapp":
        path = job.dir / "knapp.json"
        doc = json.loads(path.read_text())
        doc["rows"][3]["implied_exponent"] = 3.9
    else:
        path = job.dir / "dual_check.json"
        doc = json.loads(path.read_text())
        doc["successive_ratio_by_j"]["5"] = 0.6
    path.write_text(json.dumps(doc))
    assert wl.check(job.dir, ref)


def test_run_refuses_a_tree_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit):
        run.load_cli()
