"""End-to-end benchmark of noisemech.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

Run from the root of a source checkout: noisemech is imported from ./src.
One process and one client run the workload's jobs in a closed loop, in
whole blocks, until the jobs' own wall time reaches S seconds: the run ends
with the block during which it did, so every run holds the same mix of jobs.
Inputs are written and outputs are checked between jobs, outside the timed
spans. The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Spans, results and the generated spec files go under benchmark/out/.
"""

from __future__ import annotations

import os

# one BLAS thread: a workload runs on one core, whatever numpy was built with
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 60


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _load():
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    return workloads, tracing


def _run_job(job, tracer=None, index=-1, tamper=None):
    """Run one job: (seconds, errors, wrong). A job fails when errors is not
    empty; it is wrong when it completed and its output failed a check."""
    job.prepare()
    if tracer is not None:
        tracer.job, tracer.enabled = index, True
    start = perf_counter()
    try:
        raw, error = job.run(), None
    except Exception:  # a job that raises is a failed operation; the loop goes on
        raw, error = None, traceback.format_exc()
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    if error is not None:
        job.release()
        return elapsed, [error], False
    try:
        out = job.collect(raw)
        errors = job.check(out if tamper is None else tamper(out))
    except Exception:
        errors = [traceback.format_exc()]
    finally:
        job.release()
    return elapsed, errors, bool(errors)


def _setup(name: str, seed: int, seconds: int, workdir: Path):
    workloads, tracing = _load()
    workdir.mkdir(parents=True, exist_ok=True)
    pool, warm, ws = workloads.WORKLOADS[name].build(seed, seconds, workdir)
    for job in warm:
        _, errors, _ = _run_job(job)
        if errors:
            sys.exit(f"error: warm-up {job.kind} job failed: {errors[0]}")
    return pool, workloads.WORKLOADS[name].block, ws, tracing


def _probe_setup(name: str, seed: int, seconds: int) -> float:
    """Seconds from launching a fresh interpreter to its readiness for the first timed job."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env()) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        if child.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            sys.exit("error: set-up probe failed")
    return elapsed


def _probe_import() -> float:
    code = "import time; t = time.perf_counter(); import noisemech; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout)


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    setup_s = None if trace else statistics.median(_probe_setup(name, seed, seconds) for _ in range(SETUP_PROBES))
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    try:
        pool, block, ws, tracing = _setup(name, seed, seconds, workdir)
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        latencies, failed, wrong = [], 0, 0
        while sum(latencies) < seconds or len(latencies) % block:
            job = pool[len(latencies) % len(pool)]
            elapsed, errors, is_wrong = _run_job(job, tracer, len(latencies))
            latencies.append(elapsed)
            wrong += is_wrong
            if errors:
                failed += 1
                sys.stderr.write(f"FAILED {job.kind} job {len(latencies) - 1}: " + "; ".join(errors[:5]) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(latencies)
    jobs_per_s = (attempted - failed) / sum(latencies)
    summary = f"{name} seed {seed}: {attempted} jobs, {failed} failed, {jobs_per_s:.4g} jobs/s"
    if trace:
        tracer.uninstall()
        tracer.write(OUT / f"trace-{name}-{seed}.jsonl")
        import_s = statistics.median(_probe_import() for _ in range(IMPORT_PROBES))
        metrics = tracer.layer_metrics(attempted - failed, ws.bytes_written, import_s)
        summary += " traced"
    else:
        metrics = {
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_p90_s": (_quantile(latencies, 0.9), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    sys.stderr.write(summary + "\n")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}}


def self_test(seed: int) -> int:
    """Feed each checker a deliberately wrong result; each must count as a failed operation."""
    workloads, _ = _load()
    missed = 0
    workdir = OUT / f"self-test-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, kind, what, make_tamper in workloads.SELF_TESTS:
            pool, _, _ = workloads.WORKLOADS[name].build(seed, 1, workdir)
            job, tamper = next((job, make_tamper(job)) for job in pool
                               if job.kind == kind and make_tamper(job) is not None)
            _, clean, _ = _run_job(job)
            _, tampered, _ = _run_job(job, tamper=tamper)
            caught = not clean and bool(tampered)
            missed += not caught
            print(f"{name} {kind}: {what}: clean run {'passes' if not clean else 'FAILS'}, "
                  f"wrong result {'counted as failed' if tampered else 'NOT caught'}"
                  + (f" ({tampered[0]})" if tampered else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test " + ("passed" if not missed else f"FAILED: {missed} case(s)"))
    return 1 if missed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("finite-calibration", "rule-analysis", "dense-audit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "noisemech" / "__init__.py").is_file():
        sys.exit(f"error: no noisemech sources under {ROOT / 'src'}; run from a source checkout")
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")
    if args.setup_probe:
        workdir = OUT / f"probe-{os.getpid()}"
        try:
            _setup(args.workload, args.seed, args.seconds, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
