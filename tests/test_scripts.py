"""The experiment scripts run end to end with small arguments."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noisemech.optimize import CSV_HEADER

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_reproduce_figures(tmp_path):
    proc = _run("reproduce_figures.py", "--outdir", str(tmp_path / "out"), "--n", "11",
                "--delta-step", "0.25", "--r-points", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == ["fig_frontier_d0.15.csv", "fig_frontier_d0.25.csv", "fig_frontier_d0.35.csv",
                       "fig_majority.csv"]
    for name in written:
        lines = (tmp_path / "out" / name).read_text().splitlines()
        assert lines[0] == CSV_HEADER
    assert len((tmp_path / "out" / "fig_majority.csv").read_text().splitlines()) == 1 + 2 * 3


def test_oracle_gap_table(tmp_path):
    proc = _run("oracle_gap_table.py", "--n", "2", "--deltas", "0.1", "--biases", "0,0.5",
                "--r-grid", "0.1:0.3:0.1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "delta,b,r,feasible_count,min_ns,best_ltf_ns,best_ltf_threshold,ltf_gap"
    assert len(lines) == 1 + 2 * 3 + 1
    assert lines[1].startswith("0.1,0,0.1,")
    assert lines[-1].startswith("# worst gap: ")


def test_oracle_gap_table_rejects_bad_grid(tmp_path):
    proc = _run("oracle_gap_table.py", "--r-grid", "0.1:inf:0.1", cwd=tmp_path)
    assert proc.returncode == 2
    assert "must be finite" in proc.stderr


@pytest.mark.parametrize("script, args, message", [
    ("oracle_gap_table.py", ["--n", "5"], "--n must lie in [1, 4]"),
    ("oracle_gap_table.py", ["--n", "0"], "--n must lie in [1, 4]"),
    ("oracle_gap_table.py", ["--deltas", "0.6"], "delta must lie in the open interval"),
    ("oracle_gap_table.py", ["--r-grid=-0.5,0.1"], "--r-grid values must lie in (0, 1/sqrt(2 pi)]"),
    ("reproduce_figures.py", ["--n", "0"], "--n must lie in [1, 2000]"),
    ("reproduce_figures.py", ["--delta-step", "0"], "--delta-step must lie in (0, 0.5]"),
    ("reproduce_figures.py", ["--delta-step", "-0.1"], "--delta-step must lie in (0, 0.5]"),
    ("reproduce_figures.py", ["--r-points", "0"], "--r-points must be >= 1"),
])
def test_scripts_reject_bad_input(tmp_path, script, args, message):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_benchmark_self_test():
    # every deliberately wrong result must still count as a failed benchmark job
    proc = subprocess.run([sys.executable, str(ROOT / "benchmark" / "run.py"), "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout


@pytest.mark.parametrize("workload", ["finite-calibration", "rule-analysis", "dense-audit"])
def test_benchmark_smoke(workload):
    # one traced second of each workload: every job's check must pass
    proc = subprocess.run([sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0


def test_tracer_counts_constraint_rows(tmp_path):
    # `run.py --trace 1` records len(result.rows) of check_constraints: one row per agent and inequality
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from noisemech import cli

    n = 7
    rule = tmp_path / "rule.fn"
    rule.write_text(f"kind=threshold\nn={n}\ntheta=1\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        assert cli.main(["transfers", "--spec", str(rule), "--delta", "0.2", "--report-out",
                         str(tmp_path / "report.csv"), "--out", str(tmp_path / "transfers.txt")]) == 0
    finally:
        tracer.uninstall()
    assert [details for name, *_, details in tracer.spans if name == "mechanism.check_constraints"] == [
        {"rows": 4 * n}]
    assert len((tmp_path / "report.csv").read_text().splitlines()) == 1 + 4 * n
