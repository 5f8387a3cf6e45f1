"""Benchmark of the ``anisoradon`` CLI, end to end and per layer.

    python3 perfbench/run.py --workload decay-2d --seed 1 --seconds 15 --trace 0

A run is one process with one thread: BLAS and OpenMP are pinned to one
thread before numpy loads.  It builds the workload's inputs from the seed,
times the set-up in fresh interpreters, runs one untimed warm-up job, then
repeats the job until ``--seconds`` of job time have passed.  A job calls
``anisoradon.cli.main`` in-process, once per CLI call of the workload.  The
outputs of every job are checked after the timed loop (see ``checks.py``).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": <jobs>, "failed": <jobs>, "metrics": {...}}

With ``--trace 0`` the metrics are wall_s, setup_s and peak_rss_mb.  With
``--trace 1`` untraced and traced jobs alternate, and the metrics are the
per-layer figures of ``layertrace.METRICS``, medians over the traced jobs;
the spans are written to ``.perfbench_out/trace-<workload>-seed<n>.jsonl.gz``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# fresh interpreters timed per run for setup_s; their median is reported
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Job:
    dir: Path
    wall: float
    cpu: float
    codes: list
    traced: bool = False
    metrics: dict = field(default_factory=dict)

    def exited_ok(self, n_calls: int) -> bool:
        return len(self.codes) == n_calls and all(c == 0 for c in self.codes)


def load_cli():
    """Import the program from the checkout's ``src``, or exit."""
    pkg = ROOT / "src" / "anisoradon"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {pkg}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from anisoradon import cli
    return cli


def setup_times(wl: workloads.Workload, probes: int) -> list[float]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, wl.specs)]
    times = []
    for _ in range(probes):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _call(main, argv: list[str], tracer) -> int | None:
    try:
        if tracer is None:
            return main(argv)
        return tracer.call(layertrace.ROOT_SPAN, main, (argv,), {})
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash fails the job; the run goes on
        traceback.print_exc()
        return None


def run_job(cli, wl: workloads.Workload, job_dir: Path,
            tracer: layertrace.Tracer | None = None) -> Job:
    """One job: every CLI call of the workload, stdout and stderr captured
    and written next to the outputs after the clock stops."""
    job_dir.mkdir(parents=True)
    texts, codes = [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    for out_name, argv in wl.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _call(cli.main, argv + ["--out", str(job_dir / out_name)],
                         tracer)
        codes.append(code)
        texts.append((out_name, out.getvalue(), err.getvalue()))
        if code != 0:
            break
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    for out_name, out, err in texts:
        (job_dir / f"{out_name}.stdout").write_text(out)
        (job_dir / f"{out_name}.stderr").write_text(err)
    return Job(job_dir, wall, cpu, codes, traced=tracer is not None)


def _unconverged(job_dir: Path) -> int:
    return sum(line.count(";unconverged")
               for path in job_dir.glob("*.csv")
               for line in path.read_text().splitlines())


def _verdict(wl: workloads.Workload, jobs: list[Job],
             ref_dir: Path) -> tuple[int, bool]:
    """(failed jobs, correct) after checking every job's outputs."""
    ref_dir.mkdir()
    try:
        reference = wl.reference(ref_dir)
    except Exception as exc:
        reference = exc
    failed, correct = 0, True
    for job in jobs:
        if isinstance(reference, Exception):
            problems = [f"reference raised {reference!r}"]
        else:
            try:
                problems = wl.check(job.dir, reference)
            except Exception as exc:  # malformed output
                problems = [f"check raised {exc!r}"]
        ok = job.exited_ok(len(wl.calls))
        if problems or not ok:
            failed += 1
            print(f"{job.dir.name}: exit codes {job.codes}; "
                  f"{'; '.join(problems[:5])}", file=sys.stderr)
        if ok and problems:
            correct = False
    return failed, correct


def _layer_values(tracer: layertrace.Tracer, jobs: list[Job]) -> dict:
    traced = [j for j in jobs if j.traced]
    plain = [j for j in jobs[1:] if not j.traced]
    values = {n: statistics.median(j.metrics.get(n, 0.0) for j in traced)
              for n in layertrace.present_metrics(tracer.missing)}
    values["process.cpu_s"] = statistics.median(j.cpu for j in plain)
    values["trace.overhead_s"] = (statistics.median(j.wall for j in traced)
                                  - statistics.median(j.wall for j in plain))
    if tracer.missing:
        print(f"trace targets not found: {[t.attr for t in tracer.missing]}",
              file=sys.stderr)
    return values


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object."""
    cli = load_cli()
    run_dir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        wl = workloads.make(name, seed, run_dir, tiny)
        setup = [] if trace else setup_times(wl, probes)
        tracer = layertrace.Tracer() if trace else None
        jobs = [run_job(cli, wl, run_dir / "warmup")]
        spans = []
        timed = 0.0
        while timed < seconds or len(jobs) == 1:
            job = run_job(cli, wl, run_dir / f"job{len(jobs)}")
            jobs.append(job)
            timed += job.wall
            if tracer is not None:
                job = run_job(cli, wl, run_dir / f"job{len(jobs)}", tracer)
                job.metrics = layertrace.job_metrics(
                    tracer.spans, tracer.counts, job.wall)
                job.metrics["norms.unconverged"] = _unconverged(job.dir)
                spans.append(tracer.spans)
                jobs.append(job)
                timed += job.wall
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, correct = _verdict(wl, jobs, run_dir / "reference")

        if tracer is None:
            walls = [j.wall for j in jobs[1:]]
            values = {"wall_s": statistics.median(walls),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
            print(f"{name} seed {seed}: job walls "
                  f"{[round(w, 4) for w in walls]}, set-up "
                  f"{[round(s, 4) for s in setup]}", file=sys.stderr)
        else:
            values = _layer_values(tracer, jobs)
            units = {n: u for n, (u, _) in layertrace.METRICS.items()}
            _write_spans(OUT / f"trace-{name}-seed{seed}.jsonl.gz", spans)
        return {"correct": correct, "attempted": len(jobs), "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]}
                            for n, v in values.items()}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _write_spans(path: Path, per_job: list[list]) -> None:
    """One JSON line per span: [job, index, parent, name, start, end]."""
    with gzip.open(path, "wt") as fh:
        for k, spans in enumerate(per_job):
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps([k, i, parent, name, start, end]) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
