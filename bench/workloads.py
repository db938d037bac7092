"""Workloads: seeded synthetic inputs, command sequences and output checks.

Inputs are drawn with numpy from the workload seed, never with citefit's own
sampler, so a change to the program cannot change what it is fed. The
program sees only the generated files and its command line.

* ``study``: two ``ci-study`` runs (hooked and lognormal) on reduced grids.
  Bound by ``fitting``: about 200 fits of small samples, each summing a
  10,000-term normalisation window many times.
* ``analyze``: three citation-sized subject files (hooked, lognormal and
  power-law draws with uncited zeros), each analysed with ``--x-min all``,
  a KS truncation scan and one pairwise test, plus one contour per kind.
  The only workload where per-candidate truncation, KS distance, per-cell
  likelihood evaluation and the comparison tests carry a real share.
* ``bulk``: one 10^6-row count file read by four commands and 10^6 rows
  written by ``sample``. Bound by data size: parsing, dropping zeros,
  copying on every truncation, Vuong over every row, emitting rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Tail size below which ``scan`` skips a candidate (citefit.fitting.MIN_SCAN_TAIL).
MIN_SCAN_TAIL = 10
#: Scan candidates per subject file: ranges in which every candidate keeps at
#: least MIN_SCAN_TAIL rows for any seed, so the fit count does not vary.
SCAN_RANGES = {"hooked": "1:30:1", "ln": "1:30:1", "pl": "1:8:1"}

#: A fitted negative log-likelihood may exceed the stored reference by this
#: share of its magnitude before the default-seed check fails.
NLL_REL_TOL = 1e-6
#: A study width may differ from the stored reference by this share, in cells
#: that exclude as many replicates as the reference. Loose, so that a fitter
#: landing elsewhere within its tolerance passes and wrong estimates do not.
WIDTH_REL_TOL = 0.25
#: A study cell is flagged when it excludes more than this share of its
#: replicates (citefit.simulation.EXCLUSION_FLAG_FRACTION).
EXCLUSION_FLAG_FRACTION = 0.10

VUONG_CRITICAL = 1.96
LRT_CRITICAL = 3.841

STUDY_REPLICATES = 20
BULK_ROWS = 1_000_000


class CheckError(Exception):
    """An invocation's output is missing, unparsable or breaks an invariant."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the work it is known to do."""

    argv: tuple[str, ...]
    fits: int = 0  # fits the program runs, listed in its output or not
    reported_fits: int = 0  # fits whose convergence the output reports
    rows_in: int = 0  # rows of the input file, zeros included
    rows_drawn: int = 0  # observations the program's own sampler draws

    @property
    def kind(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------- inputs


def _discrete(rng, log_weight, n: int, support: int = 100_000) -> np.ndarray:
    """n inverse-CDF draws from the weights ``exp(log_weight(x))`` on 1..support."""
    x = np.arange(1, support + 1, dtype=float)
    logw = log_weight(x)
    cdf = np.cumsum(np.exp(logw - logw.max()))
    return 1 + np.searchsorted(cdf / cdf[-1], rng.random(n), side="right")


def _with_zeros(rng, counts: np.ndarray, share: float) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64).copy()
    counts[rng.random(len(counts)) < share] = 0
    return counts


def _write(path: Path, counts: np.ndarray):
    path.write_text("\n".join(map(str, counts.tolist())) + "\n", encoding="utf-8")


def _scan_fits(counts: np.ndarray, lo: int, hi: int) -> int:
    """Scan candidates in lo..hi that leave a usable tail (what ``scan`` fits)."""
    positive = counts[counts > 0]
    return sum(
        1
        for x in range(lo, hi + 1)
        if (positive >= x).sum() >= MIN_SCAN_TAIL and len(np.unique(positive[positive >= x])) >= 2
    )


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's input files under ``workdir`` and list its commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    return {"study": _study, "analyze": _analyze, "bulk": _bulk}[workload](seed, workdir)


def _study(seed: int, workdir: Path) -> list[Command]:
    alphas, sizes = (2.5, 3.0, 4.0), (500, 2000)
    mus, sigmas, n_ln = (0.5, 1.5), (1.0, 1.5), 1000
    reps = STUDY_REPLICATES
    common = ("--replicates", str(reps), "--seed", str(seed))
    return [
        Command(
            ("ci-study", "--kind", "hooked", "--alpha-grid", ",".join(map(str, alphas)),
             "--n-grid", ",".join(map(str, sizes)), "--B", "10") + common,
            fits=len(alphas) * len(sizes) * reps,
            reported_fits=len(alphas) * len(sizes) * reps,
            rows_drawn=len(alphas) * sum(sizes) * reps,
        ),
        Command(
            ("ci-study", "--kind", "ln", "--mu-grid", ",".join(map(str, mus)),
             "--sigma-grid", ",".join(map(str, sigmas)), "--n", str(n_ln)) + common,
            fits=len(mus) * len(sigmas) * reps,
            reported_fits=len(mus) * len(sigmas) * reps,
            rows_drawn=len(mus) * len(sigmas) * n_ln * reps,
        ),
    ]


def _analyze(seed: int, workdir: Path) -> list[Command]:
    # (file, generator, rows, zero share, scan family, compared pair)
    subjects = (
        ("hooked.txt", lambda x: -3.0 * np.log(10.0 + x), 4000, 0.15, "hooked", ("pl", "hooked")),
        ("lognormal.txt", None, 20000, 0.25, "ln", ("ln", "hooked")),
        ("powerlaw.txt", lambda x: -2.3 * np.log(x), 500, 0.10, "pl", ("pl", "ln")),
    )
    commands = []
    for k, (name, log_weight, rows, zeros, scan_dist, (first, second)) in enumerate(subjects):
        rng = np.random.default_rng([seed, k])
        if log_weight is None:
            draws = np.ceil(rng.lognormal(1.5, 1.2, rows)).astype(np.int64)
        else:
            draws = _discrete(rng, log_weight, rows)
        counts = _with_zeros(rng, draws, zeros)
        path = workdir / name
        _write(path, counts)
        scan_range = SCAN_RANGES[scan_dist]
        lo, hi = (int(v) for v in scan_range.split(":")[:2])
        source = ("--input", str(path))
        commands += [
            Command(("analyze",) + source + ("--x-min", "all"), fits=3, reported_fits=3,
                    rows_in=rows),
            # the output reports convergence of the final three fits, not the scan's
            Command(("analyze",) + source + ("--x-min", "scan", "--scan-dist", scan_dist,
                                             "--x-min-range", scan_range),
                    fits=3 + _scan_fits(counts, lo, hi), reported_fits=3, rows_in=rows),
            Command(("compare",) + source + ("--first", first, "--second", second),
                    fits=2, rows_in=rows),
        ]
    commands += [
        Command(("contour", "--input", str(workdir / "hooked.txt"), "--kind", "hooked",
                 "--p1", "2:6:0.25", "--p2", "0:60:2.5"), rows_in=subjects[0][2]),
        Command(("contour", "--input", str(workdir / "lognormal.txt"), "--kind", "ln",
                 "--p1", "0:3:0.2", "--p2", "0.5:2.5:0.125"), rows_in=subjects[1][2]),
    ]
    return commands


def _bulk(seed: int, workdir: Path) -> list[Command]:
    rng = np.random.default_rng([seed, 0])
    counts = _with_zeros(rng, np.ceil(rng.lognormal(2.2, 1.02, BULK_ROWS)), 0.10)
    path = workdir / "bulk.txt"
    _write(path, counts)
    source = ("--input", str(path))
    scan_fits = _scan_fits(counts, 1, 5)
    return [
        Command(("fit",) + source + ("--dist", "pl"), fits=1, reported_fits=1, rows_in=BULK_ROWS),
        Command(("analyze",) + source + ("--x-min", "all"), fits=3, reported_fits=3,
                rows_in=BULK_ROWS),
        Command(("analyze",) + source + ("--x-min", "20"), fits=3, reported_fits=3,
                rows_in=BULK_ROWS),
        Command(("scan",) + source + ("--dist", "pl", "--x-min-range", "1:5:1"),
                fits=scan_fits, reported_fits=scan_fits, rows_in=BULK_ROWS),
        Command(("sample", "--dist", "ln", "--mu", "2.2", "--sigma", "1.02",
                 "-n", str(BULK_ROWS), "--format", "csv", "--seed", str(seed)),
                rows_drawn=BULK_ROWS),
    ]


# ---------------------------------------------------------------- checks


@dataclass(frozen=True)
class Outcome:
    """What one invocation's output says, after its invariants passed."""

    nonconverged: int  # fits reported non-convergent, degenerate or excluded
    verdict: dict  # discrete results compared with the default-seed reference
    nlls: dict  # fitted negative log-likelihoods, compared "no worse than reference"
    results: dict  # values the traced replay must reproduce
    study: dict | None = None  # a study's widths per grid and exclusions per cell


def _test_verdict(statistic, critical: float):
    if statistic is None:
        return None
    if statistic >= critical:
        return "first"
    return "second" if statistic <= -critical else "neither"


def _require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def inspect(cmd: Command, text: str) -> Outcome:
    """Parse one invocation's stdout and check the invariants that hold for any seed."""
    if cmd.kind == "sample":
        return _inspect_sample(cmd, text)
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{cmd.kind}: stdout is not JSON ({exc})") from None
    return {
        "fit": _inspect_fit,
        "scan": _inspect_scan,
        "analyze": _inspect_analyze,
        "compare": _inspect_compare,
        "ci-study": _inspect_study,
        "contour": _inspect_contour,
    }[cmd.kind](cmd, out)


def _inspect_fit(cmd, out):
    _require(math.isfinite(out["neg_log_likelihood"]), "fit: NLL is not finite")
    return Outcome(
        nonconverged=int(not out["converged"]),
        verdict={"x_min": out["x_min"], "n_tail": out["n_tail"]},
        nlls={"fit": out["neg_log_likelihood"]},
        results={},
    )


def _inspect_scan(cmd, out):
    entries = out["entries"]
    _require(len(entries) == cmd.fits, f"scan: {len(entries)} entries, expected {cmd.fits}")
    best = [e for e in entries if e["best"]]
    _require(len(best) == 1, "scan: not exactly one best entry")
    _require(best[0]["x_min"] == out["best_x_min"], "scan: best flag and best_x_min disagree")
    _require(
        best[0]["selection_score"] == min(e["selection_score"] for e in entries),
        "scan: best entry does not have the minimum KS distance",
    )
    return Outcome(
        nonconverged=sum(not e["converged"] for e in entries),
        verdict={"best_x_min": out["best_x_min"], "x_mins": [e["x_min"] for e in entries]},
        nlls={f"x_min={e['x_min']}": e["neg_log_likelihood"] for e in entries},
        results={"best_x_min": out["best_x_min"]},
    )


def _inspect_analyze(cmd, out):
    lrt = out["lrt_hooked_pl"]
    _require(lrt is None or lrt >= 0.0, f"analyze: LRT statistic {lrt} is negative")
    pl, hooked = out["neg_ll_pl"], out["neg_ll_hooked"]
    if pl is not None and hooked is not None:
        _require(
            hooked <= pl + NLL_REL_TOL * max(1.0, abs(pl)),
            f"analyze: hooked NLL {hooked} exceeds the nested power-law NLL {pl}",
        )
    flags = [f for f in out["flags"].split(";") if f]
    scan_fits = cmd.fits - 3
    return Outcome(
        nonconverged=sum(f.endswith((":non-convergent", ":degenerate")) for f in flags),
        verdict={
            "x_min": out["x_min"],
            "n_tail": out["n_tail"],
            "zeros_dropped": out["zeros_dropped"],
            "vuong_pl_ln": _test_verdict(out["vuong_pl_ln"], VUONG_CRITICAL),
            "vuong_ln_hooked": _test_verdict(out["vuong_ln_hooked"], VUONG_CRITICAL),
            "lrt_hooked_pl": _test_verdict(lrt, LRT_CRITICAL),
        },
        nlls={k: out[k] for k in ("neg_ll_pl", "neg_ll_ln", "neg_ll_hooked") if out[k] is not None},
        results={"x_min": out["x_min"]} if scan_fits else {},
    )


def _inspect_compare(cmd, out):
    if out["test"] == "lrt":
        _require(out["statistic"] >= 0.0, f"compare: LRT statistic {out['statistic']} is negative")
    return Outcome(
        nonconverged=0,  # compare does not report convergence
        verdict={"test": out["test"], "n": out["n"], "better": out["better"]},
        nlls={},
        results={},
    )


def _inspect_study(cmd, out):
    grids = [out["mu"], out["sigma"]] if "mu" in out else [out]
    replicates = int(cmd.argv[cmd.argv.index("--replicates") + 1])
    for grid in grids:
        shape = (len(grid["row_values"]), len(grid["col_values"]))
        _require(
            all(np.shape(grid[key]) == shape for key in ("widths", "exclusions", "flagged")),
            "ci-study: grid shape does not match its axes",
        )
        excluded = np.array(grid["exclusions"], dtype=int)
        _require(bool(((excluded >= 0) & (excluded <= replicates)).all()),
                 "ci-study: exclusions outside 0..replicates")
        expected_flags = (excluded > EXCLUSION_FLAG_FRACTION * replicates) | (replicates - excluded < 2)
        _require(bool((np.array(grid["flagged"], dtype=bool) == expected_flags).all()),
                 "ci-study: flagged cells disagree with their exclusions")
        widths = np.array(grid["widths"], dtype=float)
        usable = ~expected_flags
        _require(bool((np.isfinite(widths[usable]) & (widths[usable] > 0)).all()),
                 f"ci-study: {grid['target_parameter']} width is not positive and finite "
                 "in an unflagged cell")
    # both lognormal grids come from the same fits, so count exclusions once
    excluded = int(np.sum(grids[0]["exclusions"]))
    return Outcome(
        nonconverged=excluded,
        verdict={"axes": [[g["row_values"], g["col_values"]] for g in grids]},
        nlls={},
        results={"widths": [g["widths"] for g in grids]},
        study={"widths": [g["widths"] for g in grids], "exclusions": grids[0]["exclusions"]},
    )


def _inspect_contour(cmd, out):
    cells = out["cells"]
    _require(
        np.shape(cells) == (len(out["p1_values"]), len(out["p2_values"])),
        "contour: cell grid does not match its axes",
    )
    flat = np.array(cells, dtype=float)
    _require(np.isfinite(flat).sum() + out["invalid_cells"] == flat.size,
             "contour: NaN cells disagree with invalid_cells")
    return Outcome(
        nonconverged=0,
        verdict={"argmin": [int(i) for i in np.unravel_index(np.nanargmin(flat), flat.shape)],
                 "invalid_cells": out["invalid_cells"]},
        nlls={},
        results={},
    )


def _inspect_sample(cmd, text):
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == "value", "sample: CSV header is not 'value'")
    try:
        values = np.fromiter(map(int, lines[1:]), dtype=np.int64, count=len(lines) - 1)
    except ValueError:
        raise CheckError("sample: a row is not an integer") from None
    n = int(cmd.argv[cmd.argv.index("-n") + 1])
    _require(len(values) == n, f"sample: {len(values)} values, expected {n}")
    _require(values.min() >= 1, "sample: a value lies below x_min = 1")
    return Outcome(
        nonconverged=0,
        verdict={"n": len(values), "sum": int(values.sum()), "max": int(values.max())},
        nlls={},
        results={},
    )


def against_reference(outcome: Outcome, reference: dict) -> str | None:
    """Problem with an outcome relative to its stored default-seed entry, or None.

    Verdicts must be equal. Fitted NLLs and a study's excluded replicates
    per cell may not exceed the reference; a study's widths must stay within
    WIDTH_REL_TOL of it in cells that exclude as many replicates.
    """
    if outcome.verdict != reference["verdict"]:
        return f"verdict {outcome.verdict} differs from reference {reference['verdict']}"
    for key, ref in reference["nlls"].items():
        got = outcome.nlls.get(key)
        if got is None or got > ref + NLL_REL_TOL * max(1.0, abs(ref)):
            return f"NLL {key} = {got} is worse than reference {ref}"
    if "study" in reference:
        ref_excluded = np.array(reference["study"]["exclusions"], dtype=int)
        excluded = np.array(outcome.study["exclusions"], dtype=int)
        if (excluded > ref_excluded).any():
            return f"study excludes {excluded.tolist()} replicates, reference {ref_excluded.tolist()}"
        same = excluded == ref_excluded
        for got, ref in zip(outcome.study["widths"], reference["study"]["widths"]):
            got, ref = np.array(got, dtype=float)[same], np.array(ref, dtype=float)[same]
            finite = np.isfinite(ref)
            if not np.array_equal(finite, np.isfinite(got)) or (
                    np.abs(got[finite] - ref[finite]) > WIDTH_REL_TOL * ref[finite]).any():
                return f"study widths {got.tolist()} are not within {WIDTH_REL_TOL} of {ref.tolist()}"
    return None
