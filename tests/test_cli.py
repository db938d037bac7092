import csv
import gc
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import citefit
from citefit import comparison, fitting
from citefit.cli import KINDS, MAX_AXIS_POINTS, _integer_column, main, parse_axis
from citefit.dataset import load_counts, truncate
from citefit.errors import DegenerateDataError, InternalConsistencyError, UsageError
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


def column_texts(values):
    """The bytes json.dumps(indent=2) and csv.DictWriter give for an integer column."""
    values = [int(v) for v in values]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=["value"])
    writer.writeheader()
    writer.writerows({"value": v} for v in values)
    return {"json": json.dumps(values, indent=2) + "\n", "csv": buffer.getvalue()}


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
        # each error names its spec; a range with an end that is not finite
        # would otherwise never end, and one of 10**9 points would run for minutes
        for spec in ("a,b", "1:2:0", "a:b:c", "1:2", "1,nan", "1,inf", "1:inf:1",
                     "nan:3:1", "1:3:nan", "-inf:1:1", "1:1e9:1"):
            with pytest.raises(UsageError) as raised:
                parse_axis(spec)
            assert repr(spec) in str(raised.value)

    def test_range_of_the_most_points(self):
        assert len(parse_axis(f"1:{MAX_AXIS_POINTS}:1")) == MAX_AXIS_POINTS
        with pytest.raises(UsageError):
            parse_axis(f"1:{MAX_AXIS_POINTS + 1}:1")


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

    @pytest.mark.parametrize("n", [1, 2, 257, 65_535, 65_536, 65_537, 2 * 65_536 + 3])
    def test_golden_bytes(self, tmp_path, capsys, n):
        draws = DiscreteDistribution(HookedPowerLawParams(2.2, 4.0), 2).sample(n, 8)
        args = ("sample", "--dist", "hooked", "--alpha", "2.2", "--B", "4", "--x-min", "2",
                "-n", str(n), "--seed", "8")
        for fmt, text in column_texts(draws).items():
            code, out, _ = main_output(capsys, *args, "--format", fmt)
            assert code == 0
            assert out == text
            out_path = tmp_path / f"sample.{fmt}"
            assert main([*args, "--format", fmt, "--output", str(out_path)]) == 0
            assert out_path.read_bytes() == text.encode("utf-8")

    # sha256 of stdout for -n 100000 --seed 3, as an earlier version wrote them:
    # the draws must not change from one version to the next
    PINNED = {
        ("pl", "json"): "73dc468bf21ddff3334e4b908fb1dd21dd525e99afbc787ab8fa5261c29d5dfe",
        ("pl", "csv"): "661c77e23a9eb497109b7d350138389c103b2aa6d603fc784ac1d08d4bc63ee5",
        ("pl-heavy", "json"): "86de83bec044e89efbfead897b92ddca890fc88ec2ef1707a0ebc78fab25a2cd",
        ("pl-heavy", "csv"): "7b981816d4c9574d5b3069283a2eab49491a3f37843803d3338543549dfe1299",
        ("hooked", "json"): "9078910f3cb1d377bb9162fb329847d0922ad598084096cf04d7b048059a2098",
        ("hooked", "csv"): "c8a62f5debb5ba7a7ceb965e34f4df5642bab2f8a177c9f3a72c4bf93249155e",
        ("ln", "json"): "d223a9ebf81e59aa44bffd4ada1a8cde787267c8010115709a09491bfaeda9f9",
        ("ln", "csv"): "b50bcca2dc04a359f04619677b724b8971b3ccb8c290ed88cb14f7a594929150",
        ("ln-short", "json"): "300a024217aa33ac9815d2eee868a299eb30bcfdbd12565127bd1bc3995f0e98",
        ("ln-short", "csv"): "f773faa712c0c331f52defc4fe0bf3a521a7c4a05a0dc680ae2368b9cda4534d",
    }
    PINNED_ARGS = {
        "pl": ("--dist", "pl", "--alpha", "2.5"),
        "pl-heavy": ("--dist", "pl", "--alpha", "1.2"),
        "hooked": ("--dist", "hooked", "--alpha", "2.2", "--B", "4", "--x-min", "2"),
        "ln": ("--dist", "ln", "--mu", "2.2", "--sigma", "1.02"),
        # this window's cumulative mass ends 1.5e-4 short of one
        "ln-short": ("--dist", "ln", "--mu", "0", "--sigma", "1e-5", "--x-min", str(10**12)),
    }

    @pytest.mark.parametrize("case, fmt", sorted(PINNED))
    def test_bytes_pinned_across_versions(self, capsys, case, fmt):
        code, out, _ = main_output(capsys, "sample", *self.PINNED_ARGS[case], "-n", "100000",
                                   "--seed", "3", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PINNED[case, fmt]

    def test_nineteen_digit_draws(self, capsys):
        x_min = 2**62
        draws = DiscreteDistribution(PowerLawParams(2.5), x_min).sample(300, 4)
        assert len(str(int(draws.max()))) == 19
        for fmt, text in column_texts(draws).items():
            code, out, _ = main_output(capsys, "sample", "--dist", "pl", "--alpha", "2.5",
                                       "--x-min", str(x_min), "-n", "300", "--seed", "4",
                                       "--format", fmt)
            assert code == 0
            assert out == text

    def test_window_up_to_the_largest_int64(self, capsys):
        # the window's last point, x_min + 9999, is drawn as an int64: at most 2**63 - 1
        top = 2**63 - 1 - 9999
        code, out, err = main_output(capsys, "sample", "--dist", "pl", "--alpha", "1.01",
                                     "-n", "100000", "--x-min", str(top), "--seed", "2")
        assert code == 0, err
        values = json.loads(out)
        assert min(values) >= top and max(values) == 2**63 - 1
        for x_min in (top + 1, 2**63 - 8, 10**20):
            code, out, err = main_output(capsys, "sample", "--dist", "pl", "--alpha", "1.01",
                                         "-n", "5", "--x-min", str(x_min))
            assert code == 1 and out == ""
            assert "x_min" in err

    @pytest.mark.parametrize("n", [1, 7, 65_535, 65_536, 65_537])
    def test_integer_column_at_the_digit_edges(self, n):
        edges = [1, 9, 10, 99, 10**18 - 1, 10**18, 2**63 - 1]
        values = np.resize(np.array(edges, dtype=np.int64), n)
        for fmt, text in column_texts(values).items():
            assert _integer_column("value", values, fmt) == text

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

    @pytest.mark.parametrize("input_format, data", [
        ("plain", b"5\n\xff7\n3\n"),
        ("csv", b"citations\n5\n\xff7\n3\n"),
    ])
    def test_non_utf8_input_is_io_error(self, tmp_path, capsys, input_format, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        code, out, err = main_output(capsys, "fit", "--input", str(path), "--dist", "pl",
                                     "--input-format", input_format)
        line = 2 if input_format == "plain" else 3
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: line {line}: not UTF-8")

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

    @pytest.mark.parametrize("spec", ["a:b:c", "1,nan", "1,inf", "1:inf:1", "nan:3:1",
                                      "1:1e9:1"])
    def test_bad_range_is_a_usage_error(self, tmp_path, capsys, spec):
        path = write_counts(tmp_path, PowerLawParams(2.5), 100, seed=4)
        code, out, err = main_output(capsys, "scan", "--input", path, "--dist", "pl",
                                     "--x-min-range", spec)
        assert code == 1 and out == ""
        assert repr(spec) in err

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


    def test_candidates_past_the_data_are_dropped(self, tmp_path, capsys, monkeypatch):
        # the CI smoke file: 400 zipf(2.5) draws, the largest 101
        counts = np.random.default_rng(1).zipf(2.5, 400)
        assert counts.max() == 101
        path = tmp_path / "smoke.txt"
        path.write_text("\n".join(map(str, counts)) + "\n", encoding="utf-8")
        calls = []
        truncate = fitting.truncate
        monkeypatch.setattr(fitting, "truncate",
                            lambda data, x_min: calls.append(x_min) or truncate(data, x_min))
        outputs = []
        for spec in ("1:101:1", "1:100000:1"):
            calls.clear()
            code, out, err = main_output(capsys, "scan", "--input", str(path), "--dist", "pl",
                                         "--x-min-range", spec)
            assert code == 0, err
            assert len(calls) <= 101
            outputs.append(out)
        assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("kind", ["pl", "ln", "hooked"])
    def test_scan_row_is_the_fixed_row_at_its_x_min(self, tmp_path, capsys, monkeypatch, kind):
        # the scan family's fit at the chosen x_min is the scan's own, not a second
        # fit; fit_many calls fit_kind once a view for pl and ln, and not for hooked
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 10.0), 500, seed=11)
        calls = []
        fit_kind = fitting.fit_kind

        def counted(view, fitted):
            calls.append((view.x_min, fitted))
            return fit_kind(view, fitted)

        monkeypatch.setattr(fitting, "fit_kind", counted)
        code, out, _ = main_output(capsys, "analyze", "--input", path, "--x-min", "scan",
                                   "--scan-dist", kind, "--x-min-range", "1:6:1")
        assert code == 0
        scanned = json.loads(out)
        assert calls.count((scanned["x_min"], kind)) == (kind != "hooked")
        code, out, _ = main_output(capsys, "analyze", "--input", path,
                                   "--x-min", str(scanned["x_min"]))
        assert code == 0
        fixed = json.loads(out)
        assert (scanned.pop("policy"), fixed.pop("policy")) == (f"scan-{kind}", "fixed")
        assert scanned == fixed

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

    def test_non_convergent_fits_are_flagged_in_family_order(self, tmp_path, capsys):
        # at x_min = 1000 these counts pin the power law at alpha = 20, its bound
        path = tmp_path / "pinned.txt"
        path.write_text("1000\n" * 99 + "1001\n", encoding="utf-8")
        view = truncate(load_counts(path, "plain"), 1000)
        verdicts = []
        for kind in KINDS:
            try:
                if not fitting.fit_kind(view, kind).converged:
                    verdicts.append(f"{kind}:non-convergent")
            except DegenerateDataError:
                verdicts.append(f"{kind}:degenerate")
        assert "pl:non-convergent" in verdicts
        code, out, err = main_output(capsys, "analyze", "--input", str(path), "--x-min", "1000")
        assert code == 0
        row = json.loads(out)
        assert row["pl_alpha"] == 20.0
        assert row["flags"] == ";".join(verdicts)
        warnings = {"non-convergent": "did not converge", "degenerate": "degenerate"}
        for kind, cause in (verdict.split(":") for verdict in verdicts):
            assert f"warning: {kind} fit {warnings[cause]}" in err
        code, _, err = main_output(capsys, "fit", "--input", str(path), "--x-min", "1000",
                                   "--dist", "pl")
        assert code == 0 and "warning: pl fit did not converge" in err

    def test_inconsistent_lrt_is_flagged_not_fatal(self, tmp_path, capsys, monkeypatch):
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 10.0), 400, seed=11)
        args = ("analyze", "--input", path, "--x-min", "all")
        code, out, _ = main_output(capsys, *args)
        assert code == 0
        consistent = json.loads(out)

        def inconsistent(fit_pl, fit_hooked):
            raise InternalConsistencyError("hooked fit is worse than the nested power law")

        monkeypatch.setattr(comparison, "lrt_test", inconsistent)
        code, out, err = main_output(capsys, *args)
        assert code == 0
        row = json.loads(out)
        assert row["lrt_hooked_pl"] is None
        assert row["flags"].split(";")[-1] == "lrt(pl,hooked):inconsistent"
        assert "worse than the nested power law" in err
        for column in ("vuong_pl_ln", "vuong_ln_hooked"):
            assert row[column] == consistent[column] is not None

    def test_byte_identical_across_runs(self, tmp_path):
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 10.0), 400, seed=11)
        args = ("analyze", "--input", path, "--x-min", "all")
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


    @pytest.mark.parametrize("options, replicates", [
        (("--preset", "desk"), 100),
        (("--replicates", "3", "--preset", "desk"), 3),
    ])
    def test_replicates_of_the_preset_or_the_option(self, capsys, options, replicates):
        code, out, _ = main_output(capsys, "ci-study", "--kind", "pl", "--alpha-grid", "10",
                                   "--n-grid", "25", *options)
        assert code == 0
        assert json.loads(out)["replicates"] == replicates

    def test_lognormal_study_needs_its_grids(self, capsys):
        code, out, err = main_output(capsys, "ci-study", "--kind", "ln", "--sigma-grid", "1")
        assert code == 1 and out == ""
        assert "--mu-grid and --sigma-grid are required" in err

    @pytest.mark.parametrize("kind", ["hooked", "ln"])
    def test_leaves_numpy_ma_unimported(self, kind):
        # the study's percentile widths need no numpy.ma, whose import costs ~20 ms
        args = (["--kind", "hooked", "--alpha-grid", "3", "--n-grid", "200"] if kind == "hooked"
                else ["--kind", "ln", "--mu-grid", "1", "--sigma-grid", "1", "--n", "200"])
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, contextlib, io; from citefit.cli import main; "
             "out = io.StringIO(); "
             "code = contextlib.redirect_stdout(out).__enter__() and main(sys.argv[1:]); "
             "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)",
             "ci-study", *args, "--replicates", "4"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stderr.split() == ["0", "False"]

    @pytest.mark.parametrize("sizes, shown", [("50.5", "50.5"), ("2000,0", "0")])
    def test_bad_sample_size_is_a_usage_error(self, sizes, shown):
        r = run_cli("ci-study", "--kind", "hooked", "--alpha-grid", "3", "--n-grid", sizes,
                    "--replicates", "100")
        assert r.returncode == 1
        assert f"got {shown}" in r.stderr and r.stdout == ""


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


# Runs one command through main in a fresh interpreter; prints its exit code
# and the citefit modules loaded by then.
IMPORT_SET = """
import contextlib, io, sys
from citefit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "citefit"))
"""

BASE_MODULES = ["citefit", "citefit.cli", "citefit.errors", "citefit.kernels"]
FITTING_MODULES = BASE_MODULES + ["citefit.dataset", "citefit.fitting"]
SIMULATION_MODULES = FITTING_MODULES + ["citefit.simulation"]

#: The package's public names: the lazy namespace keeps every one.
PUBLIC_NAMES = {
    "AttachmentParams", "CIWidthGrid", "ComparisonOutcome", "CountDataset",
    "DiscreteDistribution", "DiscreteLognormalParams", "FitResult", "HookedPowerLawParams",
    "LLContourGrid", "PowerLawParams", "RidgeReport", "TruncatedView", "XminScanResult",
    "attachment_to_hooked", "ci_width_study", "compare", "fit_hooked", "fit_lognormal",
    "fit_power_law", "hooked_to_attachment", "ll_contour", "load_counts", "lognormal_ci_study",
    "lrt_test", "neg_log_likelihood", "normalization_constant", "normalization_constants",
    "ridge_demo", "scan_x_min", "slope_tolerance_threshold", "tail_ccdf", "truncate",
    "unnormalized_weight", "vuong_test",
}

#: Each command and the citefit modules loaded once it has run.
COMMAND_MODULES = [
    (["fit", "--input", "{path}", "--dist", "all"], FITTING_MODULES),
    (["scan", "--input", "{path}", "--dist", "hooked", "--x-min-range", "1:3:1"],
     FITTING_MODULES),
    (["analyze", "--input", "{path}"], FITTING_MODULES + ["citefit.comparison"]),
    (["compare", "--input", "{path}", "--first", "pl", "--second", "ln"],
     FITTING_MODULES + ["citefit.comparison"]),
    (["sample", "--dist", "hooked", "--alpha", "3", "-n", "5"], BASE_MODULES),
    (["ci-study", "--kind", "pl", "--alpha-grid", "3", "--n-grid", "50", "--replicates", "2"],
     SIMULATION_MODULES),
    (["contour", "--input", "{path}", "--kind", "ln", "--p1", "0:1:1", "--p2", "1"],
     SIMULATION_MODULES),
    (["ridge", "--alpha", "3", "-n", "100"], SIMULATION_MODULES),
    (["slope-threshold", "-T", "0.1", "--B", "55"], SIMULATION_MODULES),
]


class TestImportSets:
    """Each command loads only the library modules it calls."""

    @pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                             ids=[argv[0] for argv, _ in COMMAND_MODULES])
    def test_command_loads_its_modules(self, tmp_path, argv, modules):
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 5.0), 300, seed=8)
        r = subprocess.run([sys.executable, "-c", IMPORT_SET,
                            *(a.format(path=path) for a in argv)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == ["0", *sorted(modules)]

    def test_import_loads_no_submodule(self):
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, citefit; print(*sorted(m for m in sys.modules if 'citefit' in m))"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == ["citefit"]


class TestLazyNamespace:
    def test_names_resolve_to_their_modules(self):
        assert set(citefit.__all__) == PUBLIC_NAMES
        for name in citefit.__all__:
            value = getattr(citefit, name)
            assert value.__module__.startswith("citefit.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from citefit import *", namespace)
        assert PUBLIC_NAMES <= set(namespace)
        assert PUBLIC_NAMES <= set(dir(citefit))
        assert "__version__" in dir(citefit)

    def test_submodules_read_as_attributes(self):
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, citefit; "
             "print(citefit.kernels.FAMILIES is sys.modules['citefit.kernels'].FAMILIES, "
             "citefit.errors.EXIT_IO)"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == ["True", "2"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            citefit.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from citefit import no_such_name", {})

    def test_version(self):
        assert citefit.__version__ == "0.1.0"


class TestProcessEntry:
    def test_main_leaves_the_collector_as_it_was(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main_output(capsys, "slope-threshold", "-T", "0.1", "--B", "55")[0] == 0
        assert main_output(capsys, "sample", "--dist", "pl", "--alpha", "2.5", "-n", "3")[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_output_file_holds_the_stdout_bytes(self, tmp_path):
        argv = ["sample", "--dist", "ln", "--mu", "1", "--sigma", "1", "-n", "1000",
                "--format", "csv"]
        out_path = tmp_path / "sample.csv"
        to_stdout = subprocess.run([sys.executable, "-m", "citefit.cli", *argv],
                                   capture_output=True)
        to_file = subprocess.run([sys.executable, "-m", "citefit.cli", *argv,
                                  "--output", str(out_path)], capture_output=True)
        assert to_stdout.returncode == to_file.returncode == 0
        assert to_file.stdout == b""
        assert out_path.read_bytes() == to_stdout.stdout

    def test_entry_runs_the_command_line(self, tmp_path):
        # what the citefit console script calls; the loaded modules end up
        # in the collector's permanent generation
        path = write_counts(tmp_path, HookedPowerLawParams(3.0, 5.0), 300, seed=8)
        argv = ["fit", "--input", path, "--dist", "all"]
        script = subprocess.run(
            [sys.executable, "-c",
             "import gc, sys; from citefit.cli import entry; sys.argv[0] = 'citefit'; "
             "code = entry(); print(gc.get_freeze_count() > 0, file=sys.stderr); sys.exit(code)",
             *argv],
            capture_output=True)
        module = subprocess.run([sys.executable, "-m", "citefit.cli", *argv], capture_output=True)
        assert script.returncode == module.returncode == 0
        assert script.stdout == module.stdout
        assert script.stderr.split() == [b"True"]

    @pytest.mark.parametrize("code", [1, 2, 3])
    def test_exit_codes_reach_the_shell(self, tmp_path, code):
        const = tmp_path / "const.txt"
        const.write_text("4\n4\n4\n4\n", encoding="utf-8")
        argv = {1: ["fit", "--dist", "pl"],
                2: ["fit", "--input", str(tmp_path / "missing.txt"), "--dist", "pl"],
                3: ["fit", "--input", str(const), "--dist", "pl"]}[code]
        r = run_cli(*argv)
        assert r.returncode == code
        assert r.stdout == "" and r.stderr.startswith("error: ")
