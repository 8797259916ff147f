"""Golden CLI outputs: every case must reproduce its captured bytes exactly.

Each case runs `cli.main` in-process from an empty directory and renders the
exit code, stdout, stderr, the Python warnings raised (category and message
only, so source line numbers do not enter) and every file the command wrote
into one text, compared with `tests/golden/<case>.txt`. Spec files live in
`tests/golden/specs/`. The cases cover every README command plus the finite
optimizers, the finite frontier, the anonymous oracle, `analyze` and
`transfers` on threshold, anonymous and dense rules, and the majority curve.
"""

from __future__ import annotations

import contextlib
import io
import os
import warnings
from pathlib import Path

import pytest

from noisemech.cli import main

GOLDEN = Path(__file__).parent / "golden"
SPECS = GOLDEN / "specs"


def _econ(delta, b, setting="noisy-report"):
    return ["--delta", str(delta), "--b", str(b), "--setting", setting]


CASES: dict[str, list[str]] = {
    # the README's command-line section, verbatim apart from the spec path
    "readme_analyze": ["analyze", "--spec", "{specs}/maj.fn", "--delta", "0.1", "--b", "0"],
    "readme_transfers": ["transfers", "--spec", "{specs}/maj.fn", "--delta", "0.25", "--b", "0",
                         "--report-out", "report.csv"],
    "readme_revenue_max": ["optimize", "--task", "revenue-max", "--n", "101", "--delta", "0.1", "--b", "0"],
    "readme_min_bias": ["optimize", "--task", "min-bias", "--n", "400", "--delta", "0.1", "--b", "0",
                        "--r", "0.3"],
    "readme_ns_min": ["optimize", "--task", "ns-min", "--n", "4", "--delta", "0.1", "--b", "0", "--r", "0.2",
                      "--scope", "all-boolean"],
    "readme_frontier": ["frontier", "--delta", "0.25", "--regime", "asymptotic",
                        "--r-grid", "0.01:0.3989:0.01", "--out", "fig2.csv"],
    "readme_majority_curve": ["majority-curve", "--n", "101", "--delta-grid", "0:0.5:0.05", "--out", "fig1.csv"],
    "readme_verify": ["verify", "--suite", "oracle-n4", "--delta", "0.1", "--b", "0"],
    "readme_privacy": ["privacy", "--eps", "1.0986"],
    # finite frontier, both settings
    "frontier_finite_301": ["frontier", *_econ(0.1, 0.3), "--regime", "finite", "--n", "301",
                            "--r-grid", "0.05:0.39:0.02"],
    "frontier_finite_301_imperfect": ["frontier", *_econ(0.2, 0.6, "imperfect-knowledge"), "--regime", "finite",
                                      "--n", "301", "--r-grid", "0.02,0.15,0.3,0.38"],
    # asymptotic optimizers
    "surplus_max_asymptotic": ["optimize", "--task", "surplus-max", "--n", "301", *_econ(0.2, 0.4),
                               "--r", "0.25", "--regime", "asymptotic"],
    "min_bias_asymptotic": ["optimize", "--task", "min-bias", "--n", "301", *_econ(0.2, 0.4),
                            "--r", "0.25", "--regime", "asymptotic"],
    "revenue_max_b1_imperfect": ["optimize", "--task", "revenue-max", "--n", "301",
                                 *_econ(0.3, 1.0, "imperfect-knowledge")],
    # 1-2 delta = 2e-13: ties are judged on normalized revenue, so this is nu = 1
    "revenue_max_rho_to_zero_b1": ["optimize", "--task", "revenue-max", "--n", "101",
                                   *_econ(0.4999999999999, 1.0)],
    # the anonymous oracle
    "ns_min_anonymous": ["optimize", "--task", "ns-min", "--n", "10", *_econ(0.2, 0.0), "--r", "0.2",
                         "--scope", "anonymous"],
    "ns_min_anonymous_imperfect": ["optimize", "--task", "ns-min", "--n", "12",
                                   *_econ(0.1, 0.5, "imperfect-knowledge"), "--r", "0.3", "--scope", "anonymous"],
    # majority curves
    "majority_curve_301": ["majority-curve", "--n", "301", "--delta-grid", "0:0.5:0.05"],
    "majority_curve_limit": ["majority-curve", "--delta-grid", "0:0.5:0.1"],
    # other verify suites
    "verify_oracle_n2": ["verify", "--suite", "oracle-n2", "--delta", "0.2", "--b", "0.5"],
    "verify_identities": ["verify", "--suite", "identities"],
}

# surplus-max and min-bias at n in {101, 301}, in both settings
for _task in ("surplus-max", "min-bias"):
    for _n in (101, 301):
        for _setting in ("noisy-report", "imperfect-knowledge"):
            CASES[f"{_task.replace('-', '_')}_{_n}_{_setting.split('-')[0]}"] = [
                "optimize", "--task", _task, "--n", str(_n), *_econ(0.15, 0.2, _setting), "--r", "0.25",
            ]

# analyze and transfers on a threshold, an anonymous and a dense rule
for _spec in ("threshold301", "anonymous8", "dense3"):
    for _setting in ("noisy-report", "imperfect-knowledge"):
        _tag = f"{_spec}_{_setting.split('-')[0]}"
        _args = ["--spec", f"{{specs}}/{_spec}.fn", *_econ(0.2, 0.3, _setting)]
        CASES[f"analyze_{_tag}"] = ["analyze", *_args]
        CASES[f"transfers_{_tag}"] = ["transfers", *_args, "--report-out", "report.csv"]


def render(argv: list[str], workdir: Path) -> str:
    """Run one case in `workdir` and render everything it produced."""
    argv = [a.format(specs=SPECS) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.chdir(cwd)
    parts = [f"exit = {code}\n", "--- stdout\n", out.getvalue(), "--- stderr\n", err.getvalue()]
    parts += [f"--- warning {w.category.__name__}: {w.message}\n" for w in caught]
    for path in sorted(workdir.iterdir()):
        parts += [f"--- file {path.name}\n", path.read_text()]
    return "".join(parts)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    want = (GOLDEN / f"{case}.txt").read_text()
    assert render(CASES[case], tmp_path) == want
