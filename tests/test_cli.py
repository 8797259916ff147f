import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from noisemech import cli, hypercube, mechanism, noise, optimize
from noisemech.cli import main, parse_args, parse_grid, UsageError
from noisemech.gaussian import INV_SQRT_2PI, MAX_REVENUE_TARGET
from noisemech.noise import MAX_EXACT_COUNT_N

MAJ_SPEC = "kind=threshold\nn=3\ntheta=0\n"


@pytest.fixture
def maj_file(tmp_path):
    path = tmp_path / "maj.fn"
    path.write_text(MAJ_SPEC)
    return str(path)


class TestParseGrid:
    def test_range_inclusive(self):
        assert parse_grid("0:0.5:0.05") == pytest.approx(list(np.arange(0, 0.5001, 0.05)))

    def test_single_value(self):
        assert parse_grid("0.3989") == [0.3989]

    def test_comma_list(self):
        assert parse_grid("0.1,0.2,0.35") == [0.1, 0.2, 0.35]

    def test_bad_grid(self):
        for text in ("1:0:0.1", "0:1:-0.5", "a:b:c", "0:1:0.1:2", "x,y"):
            with pytest.raises(UsageError):
                parse_grid(text)

    def test_endpoint_snaps_against_ulp_drift(self):
        vals = parse_grid("0:0.35:0.05")  # 7*0.05 lands one ulp above 0.35
        assert vals[-1] == 0.35
        assert len(vals) == 8
        assert parse_grid("0:0.5:0.025")[-1] == 0.5


class TestParseArgs:
    def test_analyze(self, maj_file):
        cfg = parse_args(["analyze", "--spec", maj_file, "--delta", "0.1", "--b", "0"])
        assert cfg.command == "analyze"
        assert cfg.delta == 0.1 and cfg.b == 0.0

    def test_frontier_sweep(self):
        cfg = parse_args(["frontier", "--delta", "0.25", "--r-grid", "0.05:0.3989:0.01",
                          "--regime", "asymptotic"])
        assert cfg.command == "frontier"
        assert len(cfg.r_grid) == 35
        assert cfg.r_grid[-1] == pytest.approx(0.39)

    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "oracle-n2", "--r-grid", ","],
        ["frontier", "--delta", "0.2", "--r-grid", ","],
        ["majority-curve", "--n", "11", "--delta-grid", ","],
    ], ids=["verify", "frontier", "majority-curve"])
    def test_empty_grid(self, capsys, command):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "usage error: grid ',' holds no values\n"

    def test_delta_out_of_range(self, maj_file):
        with pytest.raises(UsageError, match=r"delta must be in \(0, 0.5\)"):
            parse_args(["analyze", "--spec", maj_file, "--delta", "0.7"])

    def test_exit_codes_via_main(self, maj_file, capsys):
        assert main(["analyze", "--spec", maj_file, "--delta", "0.7"]) == 2
        assert "delta must be in (0, 0.5)" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--mc-samples", "1"]])
    def test_negative_seed(self, maj_file, capsys, extra):
        argv = ["analyze", "--spec", maj_file, "--delta", "0.1", "--seed", "-1", *extra]
        with pytest.raises(UsageError, match="--seed must be >= 0"):
            parse_args(argv)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "usage error: --seed must be >= 0, got -1\n"

    def test_missing_required_r(self):
        with pytest.raises(UsageError):
            parse_args(["optimize", "--task", "min-bias", "--n", "50", "--delta", "0.1"])

    @pytest.mark.parametrize("argv, flags", [
        (["transfers", "--spec", "rule.fn", "--delta", "0.1"],
         {"spec_path", "delta", "b", "setting", "report_out", "out"}),
        (["frontier", "--delta", "0.1", "--r-grid", "0.1"], {"delta", "b", "setting", "n", "regime", "r_grid", "out"}),
        (["privacy", "--eps", "1"], {"eps", "delta"}),
    ], ids=["transfers", "frontier", "privacy"])
    def test_namespace_holds_only_its_own_flags(self, argv, flags):
        # each flag is declared once, on the command that reads it: no other command's flag leaks in
        cfg = parse_args(argv)
        assert set(vars(cfg)) == flags | {"command", "handler"}
        assert cfg.handler is getattr(cli, "_cmd_" + argv[0])

    def test_threads_env(self, maj_file, monkeypatch):
        # the former parallelism hint is gone: the variable is ignored
        monkeypatch.setenv("NOISEMECH_THREADS", "zero")
        cfg = parse_args(["analyze", "--spec", maj_file, "--delta", "0.1"])
        assert not hasattr(cfg, "threads")


class TestAnalyze:
    def test_majority_output(self, maj_file, capsys):
        assert main(["analyze", "--spec", maj_file, "--delta", "0.1", "--b", "0"]) == 0
        out = capsys.readouterr().out
        assert "mean = 0.5" in out
        assert "ns_exact = 0.136" in out
        assert "marginally_monotone = true" in out

    def test_monte_carlo_line(self, maj_file, capsys):
        assert main(["analyze", "--spec", maj_file, "--delta", "0.1",
                     "--mc-samples", "20000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "ns_monte_carlo = " in out and "ns_stderr = " in out

    def test_large_n_falls_back_to_monte_carlo(self, tmp_path, capsys):
        spec = tmp_path / "big.fn"
        spec.write_text(f"kind=threshold\nn={MAX_EXACT_COUNT_N + 1}\ntheta=0\n")
        assert main(["analyze", "--spec", str(spec), "--delta", "0.1",
                     "--mc-samples", "20000", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert "falling back to Monte Carlo" in captured.err
        assert "ns_monte_carlo = " in captured.out
        assert "ns_exact" not in captured.out

    def test_exact_at_the_cutoff_agrees_with_monte_carlo(self, tmp_path, capsys):
        # n = MAX_EXACT_COUNT_N is still exact: no fallback, and a requested Monte Carlo line agrees within 5 stderr
        spec = tmp_path / "edge.fn"
        spec.write_text(f"kind=threshold\nn={MAX_EXACT_COUNT_N}\ntheta=0\n")
        assert main(["analyze", "--spec", str(spec), "--delta", "0.1", "--mc-samples", "100000", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        got = dict(line.split(" = ", 1) for line in captured.out.splitlines())
        exact, estimate, stderr = (float(got[k]) for k in ("ns_exact", "ns_monte_carlo", "ns_stderr"))
        assert stderr > 0 and abs(estimate - exact) <= 5 * stderr


class TestOneAgent:
    """At n = 1 the threshold, anonymous and dense forms of the dictator give the same output."""

    SPECS = ["kind=threshold\nn=1\ntheta=0\n", "kind=anonymous\nn=1\ng=0,1\n", "kind=dense\nn=1\nvalues=0,1\n"]

    @pytest.mark.parametrize("setting", mechanism.SETTINGS)
    def test_forms_agree(self, tmp_path, capsys, setting):
        outputs = []
        for i, text in enumerate(self.SPECS):
            spec, report = tmp_path / f"rule{i}.fn", tmp_path / f"report{i}.csv"
            spec.write_text(text)
            econ = ["--spec", str(spec), "--delta", "0.2", "--b", "0.3", "--setting", setting]
            assert main(["analyze", *econ]) == 0
            assert main(["transfers", *econ, "--report-out", str(report)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            out = [line for line in captured.out.splitlines() if not line.startswith("kind = ")]
            outputs.append((out, report.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert "ns_exact = 0.2" in outputs[0][0] and "constraints_pass = true" in outputs[0][0]


class TestTransfers:
    def test_report_csv(self, maj_file, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert main(["transfers", "--spec", maj_file, "--delta", "0.25", "--b", "0",
                     "--report-out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "expected_total_transfer = -0.375" in out
        assert "constraints_pass = true" in out
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "agent,constraint,lhs,rhs,slack,pass"
        assert len(lines) == 1 + 12

    def test_agent_lines_match_per_agent_format(self, tmp_path, capsys):
        # a weighted majority: agents of equal weight share a pair, each distinct pair is formatted once
        n, weights = 6, np.array([1, 3, 1, 2, 3, 1])
        cube = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        values = (cube @ weights >= weights.sum() / 2).astype(int)
        spec = tmp_path / "weighted.fn"
        spec.write_text(f"kind=dense\nn={n}\nvalues={','.join(map(str, values))}\n")
        assert main(["transfers", "--spec", str(spec), "--delta", "0.15", "--b", "0.3"]) == 0
        f = hypercube.build_function(spec.read_text())
        interim = mechanism.optimal_interim_transfers(f, mechanism.MechanismParams(n, 0.15, 0.3)).interim
        fmt = optimize._fmt
        want = [f"agent {i}: t_bar(-1) = {fmt(interim.v_minus[i])}, t_bar(+1) = {fmt(interim.v_plus[i])}" for i in range(n)]
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:n + 1] == want
        assert len({line.split(": ", 1)[1] for line in want}) == 3

    def test_unwritable_report_path_writes_nothing(self, maj_file, tmp_path, capsys):
        out = tmp_path / "out.txt"
        for extra in ([], ["--out", str(out)]):
            assert main(["transfers", "--spec", maj_file, "--delta", "0.1",
                         "--report-out", str(tmp_path / "missing" / "report.csv"), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not out.exists()


class TestOptimizeCommand:
    def test_revenue_max(self, capsys):
        assert main(["optimize", "--task", "revenue-max", "--n", "3", "--delta", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "tau_pointwise = 0.625" in out
        assert "finite_opt_nu = 1" in out

    def test_revenue_max_size_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ANONYMOUS_N", 10)
        assert main(["optimize", "--task", "revenue-max", "--n", "10", "--delta", "0.1"]) == 0
        assert main(["optimize", "--task", "revenue-max", "--n", "11", "--delta", "0.1"]) == 2
        assert "cutoff tables limited to n <= 10" in capsys.readouterr().err

    def test_ns_min_infeasible_exit(self, capsys):
        assert main(["optimize", "--task", "ns-min", "--n", "2", "--delta", "0.1",
                     "--r", "0.39"]) == 1

    def test_ns_min_size_limit(self, capsys):
        n = str(optimize.MAX_ORACLE_DENSE_N + 1)
        assert main(["optimize", "--task", "ns-min", "--n", n, "--delta", "0.1", "--r", "0.1"]) == 2
        captured = capsys.readouterr()
        assert "all-boolean oracle limited to n <= 4" in captured.err and captured.out == ""

    def test_ns_min_without_feasible_cutoff(self, capsys):
        assert main(["optimize", "--task", "ns-min", "--n", "1", "--delta", "0.4", "--b", "0",
                     "--r", "1e-13"]) == 0
        out = capsys.readouterr().out
        assert "best_ltf_ns = nan\nbest_ltf_threshold = nan\nltf_gap = nan\n" in out

    def test_min_bias(self, capsys):
        assert main(["optimize", "--task", "min-bias", "--n", "100", "--delta", "0.1",
                     "--b", "0.5", "--r", "0.3"]) == 0
        assert "mean = " in capsys.readouterr().out

    def test_surplus_max_infeasible(self, capsys):
        assert main(["optimize", "--task", "surplus-max", "--n", "10", "--delta", "0.25",
                     "--r", "0.39"]) == 1
        assert "infeasible" in capsys.readouterr().err


class TestFrontierCommand:
    def test_single_row_majority_level(self, capsys):
        assert main(["frontier", "--delta", "0.1", "--regime", "asymptotic",
                     "--r-grid", "0.3989"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "regime,n,delta,b,r,threshold,ns,surplus_per_capita,revenue_normalized"
        assert len(lines) == 2
        ns = float(lines[1].split(",")[6])
        assert ns == pytest.approx(0.204833, abs=1e-3)

    def test_finite_needs_n(self):
        with pytest.raises(UsageError):
            parse_args(["frontier", "--delta", "0.1", "--regime", "finite", "--r-grid", "0.3"])

    def test_finite_regime_rows(self, capsys):
        assert main(["frontier", "--delta", "0.25", "--b", "0", "--n", "100",
                     "--regime", "finite", "--r-grid", "0.05:0.3:0.05"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "finite" and cells[1] == "100"
            assert float(cells[8]) >= float(cells[4]) - 1e-9  # revenue meets target


class TestMajorityCurveCommand:
    def test_eleven_rows_and_zero_noise(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["majority-curve", "--n", "101", "--delta-grid", "0:0.5:0.05",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12  # header + 11 grid rows
        first = lines[1].split(",")
        assert float(first[2]) == 0.0       # delta
        assert float(first[6]) <= 1e-9      # ns at zero noise

    def test_asymptotic_variant(self, capsys):
        assert main(["majority-curve", "--delta-grid", "0,0.25,0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("asymptotic") for line in lines[1:])


class TestVerifyCommand:
    def test_oracle_n2_passes(self, capsys):
        assert main(["verify", "--suite", "oracle-n2", "--delta", "0.1", "--b", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("r,feasible_count,min_ns,best_ltf_ns,ltf_gap,sandwich_ok")
        assert "suite_pass = true" in out

    def test_oracle_without_feasible_cutoff_is_vacuous(self, capsys):
        assert main(["verify", "--suite", "oracle-n2", "--delta", "0.4", "--b", "0", "--r-grid", "1e-13"]) == 0
        out = capsys.readouterr().out
        assert "1e-13,1,0,nan,nan,true\n" in out and "suite_pass = true" in out

    def test_oracle_n4_gap_table(self, capsys):
        assert main(["verify", "--suite", "oracle-n4", "--delta", "0.1", "--b", "0"]) == 0
        out = capsys.readouterr().out
        assert "suite_pass = true" in out

    def test_identities_suite(self, capsys):
        assert main(["verify", "--suite", "identities"]) == 0
        out = capsys.readouterr().out
        assert "parseval" in out and "suite_pass = true" in out


class TestPrivacyCommand:
    def test_eps_to_delta(self, capsys):
        assert main(["privacy", "--eps", str(math.log(3.0))]) == 0
        assert "delta = 0.25" in capsys.readouterr().out

    def test_delta_to_eps(self, capsys):
        assert main(["privacy", "--delta", "0.25"]) == 0
        eps = float(capsys.readouterr().out.split("=")[1])
        assert eps == pytest.approx(math.log(3.0), abs=1e-10)  # printed at 12 significant digits

    def test_huge_eps(self, capsys):
        # delta = 1/(1 + e^1000) rounds to 0: a usage error, as --delta 0 is
        assert main(["privacy", "--eps", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "usage error: eps = 1000 rounds delta to 0, outside (0, 0.5)\n"

    @pytest.mark.parametrize("eps, delta", [("745.2", "0"), ("1e-17", "0.5"), ("1e-320", "0.5")])
    def test_eps_at_the_ends(self, capsys, eps, delta):
        assert main(["privacy", "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f" rounds delta to {delta}, outside (0, 0.5)\n")

    @pytest.mark.parametrize("eps, out", [("745", "delta = 4.94065645841e-324\n"), ("1e-15", "delta = 0.5\n")])
    def test_eps_near_the_ends(self, capsys, eps, out):
        # the float delta is still inside (0, 1/2), even where 12 digits print 0.5
        assert main(["privacy", "--eps", eps]) == 0
        assert capsys.readouterr().out == out


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["frontier", "--delta", "0.25", "--regime", "asymptotic",
                "--r-grid", "0.05:0.35:0.05"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mc_analyze_reproducible(self, maj_file, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["analyze", "--spec", maj_file, "--delta", "0.2",
                "--mc-samples", "50000", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestParserReuse:
    """main builds its parser once; no parsed value outlives the call that parsed it."""

    def test_no_state_carries_over(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
        assert main(["verify", "--suite", "oracle-n2", "--delta", "0.3", "--b", "0.5"]) == 0
        seen[0].r_grid.append(0.39)  # a caller may change the list it was given
        assert main(["frontier", "--delta", "0.2", "--r-grid", "0.1"]) == 0
        assert main(["verify", "--suite", "identities"]) == 0
        first, frontier, second = seen
        assert "suite" not in vars(frontier)
        assert (frontier.b, frontier.regime, frontier.r_grid) == (0.0, "asymptotic", [0.1])
        assert (second.suite, second.delta, second.b) == ("identities", 0.1, 0.0)
        assert second.r_grid == parse_grid("0.05:0.35:0.05") and second.r_grid is not first.r_grid
        assert cli._build_parser() is cli._build_parser()


_FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_SPEC_LINE = st.one_of(
    st.builds("{}{}{}".format,
              st.sampled_from(["kind", "n", "values", "g", "theta", "KIND ", "x", ""]),
              st.sampled_from(["=", "==", ":", " = "]),
              st.sampled_from(["dense", "anonymous", "threshold", "0", "1", "2", "3", "-1", "25", "2.5", "1e999",
                               "nan", "-inf", "0,1", "0,1,1,0", "0,0,1,1", "0,1,2", "0,0.5,1", ",", "1,,x", "a", ""])),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
_GRID_TOKEN = st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str),
                        st.sampled_from(["", " ", "a", "nan", "-inf", "1e999", "1e-300", "0x1"]))
_GRID = st.one_of(st.lists(_GRID_TOKEN, min_size=1, max_size=5).map(":".join),
                  st.lists(_GRID_TOKEN, min_size=1, max_size=4).map(",".join),
                  st.text(max_size=12))


class TestMalformedInputFuzz:
    """Malformed spec files and grids exit 2 with a message, never a traceback."""

    @_FUZZ
    @given(text=st.lists(_SPEC_LINE, max_size=5).map("\n".join))
    def test_spec(self, tmp_path, capsys, text):
        try:
            hypercube.build_function(text)
        except ValueError:
            pass
        else:
            assume(False)  # a well-formed spec
        path = tmp_path / "fuzz.fn"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", "--spec", str(path), "--delta", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("command, admissible", [
        (["frontier", "--delta", "0.1", "--r-grid="], lambda r: 0.0 < r <= MAX_REVENUE_TARGET),
        (["majority-curve", "--n", "5", "--delta-grid="], lambda d: 0.0 <= d <= 0.5),
    ], ids=["r-grid", "delta-grid"])
    @_FUZZ
    @given(text=_GRID)
    def test_grid(self, capsys, command, admissible, text):
        try:
            values = parse_grid(text)
        except UsageError:
            values = None
        assume(values is None or not all(map(admissible, values)))  # else a well-formed grid
        assert main(command[:-1] + [command[-1] + text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ") and "Traceback" not in captured.err


class TestJointLawReuse:
    def test_analyze_builds_the_joint_law_once(self, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "maj101.fn"
        spec.write_text("kind=threshold\nn=101\ntheta=0\n")
        calls = []
        build = noise.joint_count_distribution

        def counting(n, delta):
            calls.append((n, delta))
            return build(n, delta)

        monkeypatch.setattr(noise, "joint_count_distribution", counting)
        assert main(["analyze", "--spec", str(spec), "--delta", "0.1", "--b", "0"]) == 0
        out = capsys.readouterr().out
        assert "stability = " in out and "ns_exact = " in out
        assert calls == [(101, 0.1)]


def _count_calls(monkeypatch, module, name):
    """Count calls to module.name, patched in every noisemech namespace that holds it."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "noisemech" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestAnalyzeEvaluations:
    """analyze reads (mean, E[f nu]) once and transforms a dense table once."""

    def _walsh_calls(self, spec_text, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "rule.fn"
        spec.write_text(spec_text + "\n")
        walsh = _count_calls(monkeypatch, hypercube, "walsh")
        mono = _count_calls(monkeypatch, hypercube, "monotonicity_check")
        assert main(["analyze", "--spec", str(spec), "--delta", "0.1", "--b", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "influences = " in out and "ns_exact = " in out
        assert len(mono) == 2
        return len(walsh)

    def test_dense_rule(self, tmp_path, monkeypatch, capsys):
        values = np.random.default_rng(3).integers(0, 2, 1 << 10)
        spec_text = "kind=dense\nn=10\nvalues=" + ",".join(map(str, values))
        assert self._walsh_calls(spec_text, tmp_path, monkeypatch, capsys) == 1

    def test_anonymous_rule_at_dense_size(self, tmp_path, monkeypatch, capsys):
        spec_text = "kind=anonymous\nn=12\ng=0,0,0,0,0,0,1,0,1,1,1,1,1"
        assert self._walsh_calls(spec_text, tmp_path, monkeypatch, capsys) == 1

    def test_threshold_rule(self, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "threshold201.fn"
        spec.write_text("kind=threshold\nn=201\ntheta=5\n")
        weights = _count_calls(monkeypatch, hypercube, "binomial_weights")
        # noise reads the weights only to build the joint law: count those reads on their own
        law_weights, counting = [], noise.binomial_weights
        monkeypatch.setattr(noise, "binomial_weights", lambda n: law_weights.append(n) or counting(n))
        mono = _count_calls(monkeypatch, hypercube, "monotonicity_check")
        assert main(["analyze", "--spec", str(spec), "--delta", "0.1", "--b", "0.3"]) == 0
        assert "ns_exact = " in capsys.readouterr().out
        assert law_weights == [201]
        assert len(weights) - len(law_weights) <= 3
        assert len(mono) == 2


class TestRevenueTargetRange:
    """Both regimes accept targets up to 1/sqrt(2 pi) + 1e-12 and reject larger ones."""

    @pytest.mark.parametrize("regime", ["finite", "asymptotic"])
    def test_slack_is_shared(self, regime, capsys):
        args = ["optimize", "--task", "surplus-max", "--n", "101", "--delta", "0.1", "--b", "1",
                "--regime", regime, "--r"]
        assert main(args + [repr(INV_SQRT_2PI + 5e-13)]) == 0
        assert main(args + [repr(INV_SQRT_2PI + 2e-12)]) == 2
        assert "r must be in (0, 1/sqrt(2 pi)]" in capsys.readouterr().err


class TestNonFiniteInput:
    """NaN, infinities and oversized grids exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize("spec, message", [
        ("kind=anonymous\nn=3\ng=0,0,nan,1\n", "anonymous values must be finite"),
        ("kind=anonymous\nn=3\ng=0,0,inf,1\n", "anonymous values must be finite"),
        ("kind=dense\nn=2\nvalues=0,1,nan,1\n", "dense values must be finite"),
        ("kind=dense\nn=2\nvalues=0,1,-inf,1\n", "dense values must be finite"),
        ("kind=threshold\nn=3\ntheta=nan\n", "theta must be finite"),
        ("kind=threshold\nn=3\ntheta=-inf\n", "theta must be finite"),
    ])
    def test_spec_values(self, tmp_path, capsys, spec, message):
        path = tmp_path / "bad.fn"
        path.write_text(spec)
        assert main(["analyze", "--spec", str(path), "--delta", "0.1", "--b", "0"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["0.1:nan:0.1", "0.1:inf:0.1", "0.1:0.3:nan", "nan:0.3:0.1",
                                      "-inf:0.3:0.1", "0.1:0.3:inf"])
    def test_range_grid(self, capsys, grid):
        assert main(["frontier", "--delta", "0.1", f"--r-grid={grid}"]) == 2
        assert "grid start, stop and step must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0.1,nan", "inf"])
    def test_list_grid(self, capsys, grid):
        assert main(["majority-curve", "--n", "11", "--delta-grid", grid]) == 2
        assert "grid values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:0.3:1e-9", "0:1:1e-300", "-1e308:1e308:1"])
    def test_oversized_grid(self, capsys, grid):
        # rejected from the point count alone, before any list is built
        assert main(["frontier", "--delta", "0.1", f"--r-grid={grid}"]) == 2
        assert "more than 1000000 points" in capsys.readouterr().err

    def test_grid_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
        assert len(parse_grid("0:0.9:0.1")) == 10
        with pytest.raises(UsageError, match="more than 10 points"):
            parse_grid("0:1:0.1")

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_privacy_eps(self, capsys, eps):
        assert main(["privacy", "--eps", eps]) == 2
        assert "eps must be positive and finite" in capsys.readouterr().err
