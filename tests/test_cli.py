import csv
import io
import json
import subprocess
import sys

import pytest

from citefit.cli import main, parse_axis
from citefit.errors import UsageError
from citefit.kernels import (
    DiscreteDistribution,
    DiscreteLognormalParams,
    HookedPowerLawParams,
    PowerLawParams,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "citefit.cli", *args], capture_output=True, text=True
    )


def write_counts(tmp_path, params, n, seed, name="counts.txt", x_min=1):
    values = DiscreteDistribution(params, x_min).sample(n, seed)
    path = tmp_path / name
    path.write_text("\n".join(str(int(v)) for v in values) + "\n", encoding="utf-8")
    return str(path)


def main_output(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAxis:
    def test_comma_list(self):
        assert parse_axis("2,6,10") == [2.0, 6.0, 10.0]

    def test_range(self):
        assert parse_axis("2:4:0.5") == [2.0, 2.5, 3.0, 3.5, 4.0]

    def test_bad_spec(self):
        with pytest.raises(UsageError):
            parse_axis("a,b")
        with pytest.raises(UsageError):
            parse_axis("1:2:0")


class TestSlopeThreshold:
    def test_prints_495(self):
        r = run_cli("slope-threshold", "-T", "0.1", "--B", "55")
        assert r.returncode == 0
        assert r.stdout.strip() == "495"

    def test_csv_format(self, capsys):
        code, out, _ = main_output(capsys, "slope-threshold", "-T", "0.5", "--B", "7",
                                   "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["threshold"] == "7"


class TestSample:
    def test_five_integers_at_least_x_min(self, capsys):
        code, out, _ = main_output(
            capsys, "sample", "--dist", "pl", "--alpha", "2.5", "--x-min", "3",
            "-n", "5", "--seed", "11",
        )
        assert code == 0
        values = json.loads(out)
        assert len(values) == 5
        assert all(isinstance(v, int) and v >= 3 for v in values)

    def test_byte_identical_across_runs(self):
        args = ("sample", "--dist", "hooked", "--alpha", "3", "--B", "10", "-n", "20",
                "--seed", "5")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("n", [1, 2, 257, 2 * 65_536 + 3])
    def test_golden_bytes(self, tmp_path, capsys, n):
        # the bytes json.dumps(indent=2) and csv.DictWriter give for these draws
        draws = DiscreteDistribution(HookedPowerLawParams(2.2, 4.0), 2).sample(n, 8)
        values = [int(v) for v in draws]
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=["value"])
        writer.writeheader()
        writer.writerows({"value": v} for v in values)
        expected = {"json": json.dumps(values, indent=2) + "\n", "csv": buffer.getvalue()}
        args = ("sample", "--dist", "hooked", "--alpha", "2.2", "--B", "4", "--x-min", "2",
                "-n", str(n), "--seed", "8")
        for fmt, text in expected.items():
            code, out, _ = main_output(capsys, *args, "--format", fmt)
            assert code == 0
            assert out == text
            out_path = tmp_path / f"sample.{fmt}"
            assert main([*args, "--format", fmt, "--output", str(out_path)]) == 0
            assert out_path.read_bytes() == text.encode("utf-8")

    def test_missing_params_usage_error(self, capsys):
        code, _, err = main_output(capsys, "sample", "--dist", "ln", "-n", "3")
        assert code == 1
        assert "required" in err


class TestFitCommand:
    def test_json_round_trip(self, tmp_path, capsys):
        path = write_counts(tmp_path, PowerLawParams(2.5), 500, seed=1)
        code, out, _ = main_output(capsys, "fit", "--input", path, "--dist", "pl")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "pl"
        assert report["n_tail"] == 500
        assert report["converged"] is True
        assert 1 < report["params"]["alpha"] < 20

    def test_csv_is_parseable(self, tmp_path, capsys):
        path = write_counts(tmp_path, PowerLawParams(2.5), 300, seed=2)
        code, out, _ = main_output(capsys, "fit", "--input", path, "--dist", "ln",
                                   "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["param_sigma"]) > 0

    def test_degenerate_exit_code(self, tmp_path, capsys):
        path = tmp_path / "const.txt"
        path.write_text("4\n4\n4\n4\n", encoding="utf-8")
        code, _, err = main_output(capsys, "fit", "--input", str(path), "--dist", "pl")
        assert code == 3
        assert "error" in err

    def test_count_beyond_int64_is_parse_error(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1\n2\n3\n100000000000000000000\n", encoding="utf-8")
        r = run_cli("fit", "--input", str(path), "--dist", "pl")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "line 4" in r.stderr
        assert "Traceback" not in r.stderr

    def test_output_file(self, tmp_path):
        path = write_counts(tmp_path, PowerLawParams(2.5), 200, seed=3)
        out_path = tmp_path / "fit.json"
        r = run_cli("fit", "--input", path, "--dist", "pl", "--output", str(out_path))
        assert r.returncode == 0
        assert r.stdout == ""
        assert json.loads(out_path.read_text())["kind"] == "pl"

    def test_all_dists(self, tmp_path, capsys):
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 5.0), 400, seed=5)
        code, out, _ = main_output(capsys, "fit", "--input", path, "--dist", "all")
        assert code == 0
        reports = json.loads(out)
        assert [r["kind"] for r in reports] == ["pl", "ln", "hooked"]


class TestScanCommand:
    def test_scan_reports_best(self, tmp_path, capsys):
        path = write_counts(tmp_path, PowerLawParams(2.5), 800, seed=4)
        code, out, _ = main_output(capsys, "scan", "--input", path, "--dist", "pl",
                                   "--x-min-range", "1,2,3,4")
        assert code == 0
        payload = json.loads(out)
        assert payload["best_x_min"] in (1, 2, 3, 4)
        assert sum(e["best"] for e in payload["entries"]) == 1

    def test_largest_int64_count_is_scored(self, tmp_path, capsys):
        # 2**63 - 1 is a valid count; the KS score must not wrap it past int64
        counts = [1, 1, 2, 2, 3, 3, 4, 5, 7, 9, 12, 2**63 - 1]
        path = tmp_path / "huge.txt"
        path.write_text("\n".join(map(str, counts)) + "\n", encoding="utf-8")
        code, out, err = main_output(capsys, "scan", "--input", str(path), "--dist", "pl",
                                     "--x-min-range", "1:2:1")
        assert code == 0, err
        assert [e["x_min"] for e in json.loads(out)["entries"]] == [1, 2]

    def test_window_past_largest_int64_is_scored(self, tmp_path, capsys):
        # at x_min = 2**63 - 2 the window's end, x_min + 10,000, is beyond int64
        path = tmp_path / "top.txt"
        path.write_text(f"{2**63 - 2}\n" * 5 + f"{2**63 - 1}\n" * 6, encoding="utf-8")
        code, out, err = main_output(capsys, "scan", "--input", str(path), "--dist", "pl")
        assert code == 0, err
        entries = json.loads(out)["entries"]
        assert [e["x_min"] for e in entries] == [2**63 - 2]
        assert 0.0 <= entries[0]["selection_score"] <= 1.0


class TestCompareCommand:
    def test_power_law_like_data_lrt_near_zero(self, tmp_path, capsys):
        # pure power-law generator: the hooked fit gains essentially nothing
        path = write_counts(tmp_path, PowerLawParams(3.1), 1000, seed=6)
        code, out, _ = main_output(capsys, "compare", "--input", path,
                                   "--first", "pl", "--second", "hooked")
        assert code == 0
        row = json.loads(out)
        assert row["test"] == "lrt"
        assert row["statistic"] < 3.841
        assert row["significant_05"] is False

    def test_vuong_pair(self, tmp_path, capsys):
        path = write_counts(tmp_path, DiscreteLognormalParams(2.0, 1.0), 2000, seed=7)
        code, out, _ = main_output(capsys, "compare", "--input", path,
                                   "--first", "pl", "--second", "ln")
        assert code == 0
        row = json.loads(out)
        assert row["test"] == "vuong"
        assert row["statistic"] < 0  # lognormal data favors the lognormal


class TestAnalyzeCommand:
    def test_row_schema(self, tmp_path, capsys):
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 10.0), 600, seed=8)
        code, out, err = main_output(capsys, "analyze", "--input", path, "--x-min", "all")
        assert code == 0
        row = json.loads(out)
        for key in (
            "x_min", "n_tail", "pl_alpha", "ln_mu", "ln_sigma", "hooked_alpha",
            "hooked_b", "neg_ll_pl", "neg_ll_ln", "neg_ll_hooked",
            "vuong_pl_ln", "vuong_ln_hooked", "lrt_hooked_pl",
        ):
            assert key in row
        assert row["x_min"] == 1
        assert row["policy"] == "all-cited"

    def test_city_like_ordering_majority(self, tmp_path, capsys):
        # heavy hooked generator: hooked should beat lognormal should beat
        # the power law on the full data in most replicates
        wins = 0
        for seed in range(3):
            path = write_counts(
                tmp_path, HookedPowerLawParams(3.9, 42.7), 4250, seed=100 + seed,
                name=f"u{seed}.txt",
            )
            code, out, _ = main_output(capsys, "analyze", "--input", path, "--x-min", "all")
            assert code == 0
            row = json.loads(out)
            wins += row["neg_ll_hooked"] < row["neg_ll_ln"] < row["neg_ll_pl"]
        assert wins >= 2

    def test_scan_policy(self, tmp_path, capsys):
        path = write_counts(tmp_path, PowerLawParams(2.5), 500, seed=9)
        code, out, _ = main_output(capsys, "analyze", "--input", path,
                                   "--x-min", "scan", "--scan-dist", "pl",
                                   "--x-min-range", "1,2,3")
        assert code == 0
        row = json.loads(out)
        assert row["policy"] == "scan-pl"
        assert row["x_min"] in (1, 2, 3)

    def test_fixed_policy(self, tmp_path, capsys):
        path = write_counts(tmp_path, PowerLawParams(2.5), 500, seed=10)
        code, out, _ = main_output(capsys, "analyze", "--input", path, "--x-min", "3")
        assert code == 0
        assert json.loads(out)["x_min"] == 3

    def test_degenerate_cells_flagged_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("1\n2\n", encoding="utf-8")
        code, out, err = main_output(capsys, "analyze", "--input", str(path), "--x-min", "all")
        assert code == 0
        row = json.loads(out)
        assert row["ln_mu"] is None
        assert "ln:degenerate" in row["flags"]
        assert "warning" in err
        # diagnostics never leak into the data stream
        json.loads(out)

    def test_byte_identical_across_runs(self, tmp_path):
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 10.0), 400, seed=11)
        args = ("analyze", "--input", path, "--x-min", "all", "--seed", "1")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_empty_file_io_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        code, out, err = main_output(capsys, "analyze", "--input", str(path), "--x-min", "all")
        assert code == 2
        assert out == ""


class TestCiStudyCommand:
    def test_byte_identical_across_runs(self):
        args = ("ci-study", "--kind", "pl", "--alpha-grid", "2.5", "--n-grid", "200",
                "--replicates", "8", "--seed", "3")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_lognormal_study_csv(self, capsys):
        code, out, _ = main_output(
            capsys, "ci-study", "--kind", "ln", "--mu-grid", "2.0", "--sigma-grid", "1.0",
            "--n", "150", "--replicates", "6", "--seed", "4", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["target"] for r in rows} == {"mu", "sigma"}

    def test_json_round_trip(self, capsys):
        code, out, _ = main_output(
            capsys, "ci-study", "--kind", "pl", "--alpha-grid", "2.5",
            "--n-grid", "150", "--replicates", "5", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["replicates"] == 5
        assert len(payload["widths"]) == 1


class TestContourAndRidge:
    def test_contour_rows(self, tmp_path, capsys):
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 10.0), 300, seed=12)
        code, out, _ = main_output(capsys, "contour", "--input", path, "--kind", "hooked",
                                   "--p1", "2:4:1", "--p2", "0:20:10", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert all(float(r["neg_log_likelihood"]) > 0 for r in rows)

    def test_ridge_report(self, capsys):
        code, out, _ = main_output(capsys, "ridge", "--alpha", "3", "--B", "10",
                                   "-n", "200", "--seed", "6")
        assert code == 0
        report = json.loads(out)
        assert report["neg_ll_fitted"] <= report["neg_ll_true"] + 1e-6


# Runs in a fresh interpreter where importing scipy fails, so any use of scipy
# on these paths exits nonzero. Prints each command's exit code.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from citefit.cli import main
path, out = sys.argv[1], sys.argv[2]
commands = [
    ["fit", "--input", path, "--dist", "all"],
    ["analyze", "--input", path, "--x-min", "scan", "--scan-dist", "hooked",
     "--x-min-range", "1:3:1"],
    ["ci-study", "--kind", "hooked", "--alpha-grid", "3", "--n-grid", "300", "--replicates", "2"],
    ["ci-study", "--kind", "pl", "--alpha-grid", "2.5", "--n-grid", "300", "--replicates", "2"],
    ["ci-study", "--kind", "ln", "--mu-grid", "1", "--sigma-grid", "1", "--n", "300",
     "--replicates", "2"],
    ["contour", "--input", path, "--kind", "ln", "--p1", "0:2:1", "--p2", "0.5:1.5:0.5"],
    ["sample", "--dist", "ln", "--mu", "1", "--sigma", "1", "-n", "5"],
]
print(json.dumps([main(argv + ["--output", out]) for argv in commands]))
"""


class TestWithoutScipy:
    def test_import_loads_no_scipy(self):
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, citefit.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 5.0), 300, seed=8)
        r = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, path, str(tmp_path / "out.json")],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == [0] * 7
