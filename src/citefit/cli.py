"""Command-line front end.

Commands mirror the library surface: ``fit``, ``scan``, ``analyze``,
``compare``, ``sample``, ``ci-study``, ``contour``, ``ridge``, and
``slope-threshold``. Data output (JSON by default, RFC-4180 CSV with
``--format csv``) goes to stdout or ``--output``; diagnostics go to
stderr only. Every command is deterministic given its flags: anything
random is driven by ``--seed`` (default 42).

Exit codes: 0 success, 1 usage, 2 I/O, 3 degenerate data, 4 internal
consistency failure.

A process loads only what its command calls: each handler imports the
library modules it uses, and the module level holds the standard library,
numpy, ``errors`` and ``kernels``. ``entry`` is the process's own start,
for ``python -m citefit.cli`` and the ``citefit`` script alike.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import io
import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    EXIT_IO,
    EXIT_OK,
    CitefitError,
    DegenerateDataError,
    InternalConsistencyError,
    UsageError,
)
from .kernels import DEFAULT_HOOKED_B, FAMILIES, DiscreteDistribution, ParamSpec

if TYPE_CHECKING:
    from .fitting import FitResult

DEFAULT_SEED = 42
KINDS = tuple(FAMILIES)  # ("pl", "ln", "hooked")

#: Full-protocol defaults for the precision studies, plus a desk-scale preset.
FULL_REPLICATES = 500
DESK_REPLICATES = 100
DEFAULT_ALPHA_GRID = "2,3,4,5,6,7,8,9,10"
DEFAULT_N_GRID = "500,1000,2000,4000"
#: Most points an axis range may hold; a range is counted before it is built.
MAX_AXIS_POINTS = 100_000
#: ``analyze``'s test columns, each named for its test, and the two families it compares.
ANALYZE_TESTS = (
    ("vuong_pl_ln", "pl", "ln"),
    ("vuong_ln_hooked", "ln", "hooked"),
    ("lrt_hooked_pl", "pl", "hooked"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _diag(message: str):
    print(message, file=sys.stderr)


def parse_axis(text: str) -> list[float]:
    """Axis spec: comma list ("2,6,10") or inclusive range ("2:10:0.5") of finite numbers."""
    ranged = ":" in text
    parts = text.split(":") if ranged else [p for p in text.split(",") if p.strip() != ""]
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"could not parse axis {text!r}") from None
    if not all(math.isfinite(v) for v in numbers):
        raise UsageError(f"axis {text!r} holds a value that is not finite")
    if not ranged:
        return numbers
    if len(numbers) != 3:
        raise UsageError(f"range spec must be start:stop:step, got {text!r}")
    start, stop, step = numbers
    if step <= 0:
        raise UsageError(f"range step must be positive, got {text!r}")
    # the point past the limit, k = MAX_AXIS_POINTS, by the loop's own test
    if start + MAX_AXIS_POINTS * step <= stop + 1e-9:
        raise UsageError(f"range {text!r} holds more than {MAX_AXIS_POINTS:,} points")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9:
            break
        values.append(round(v, 12))
        k += 1
    return values


def _build_params(args) -> ParamSpec:
    """The ``--dist`` family's parameters, one option per field."""
    family = FAMILIES[args.dist]
    names = [f.name for f in dataclasses.fields(family)]
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"{' and '.join(missing)} required for --dist {args.dist}")
    return family(*(getattr(args, name) for name in names))


def _fit_report(kind: str, fit: FitResult) -> dict:
    return {
        "kind": kind,
        "x_min": fit.x_min,
        "n_tail": fit.n_tail,
        "params": dataclasses.asdict(fit.params),
        "neg_log_likelihood": fit.neg_log_likelihood,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "gradient_norm_at_exit": fit.gradient_norm_at_exit,
    }


def _flatten_fit(report: dict) -> dict:
    flat = dict(report)
    params = flat.pop("params")
    for key, value in params.items():
        flat[f"param_{key}"] = value
    return flat


def _scan_candidates(args, data) -> list[int]:
    """The ``--x-min-range`` candidates; by default every distinct observed count."""
    if args.x_min_range:
        return [int(v) for v in parse_axis(args.x_min_range)]
    return data.values.tolist()


# ---------------------------------------------------------------- commands


def cmd_fit(args):
    from .dataset import load_counts, truncate
    from .fitting import fit_kind

    data = load_counts(args.input, args.input_format)
    view = truncate(data, args.x_min)
    kinds = KINDS if args.dist == "all" else (args.dist,)
    reports = []
    for kind in kinds:
        fit = fit_kind(view, kind)
        if not fit.converged:
            _diag(f"warning: {kind} fit did not converge "
                  f"(gradient norm {fit.gradient_norm_at_exit:.3g})")
        report = _fit_report(kind, fit)
        report["source"] = data.source_label
        report["zeros_dropped"] = data.zeros_dropped
        reports.append(report)
    payload = reports[0] if len(reports) == 1 else reports
    return payload, [_flatten_fit(r) for r in reports]


def cmd_scan(args):
    from .dataset import load_counts
    from .fitting import scan_x_min

    data = load_counts(args.input, args.input_format)
    result = scan_x_min(data, args.dist, _scan_candidates(args, data))
    entries = []
    for entry in result.per_xmin:
        row = _flatten_fit(_fit_report(args.dist, entry.fit))
        row["selection_score"] = entry.selection_score
        row["best"] = entry.x_min == result.best_x_min
        entries.append(row)
    payload = {
        "source": data.source_label,
        "dist": args.dist,
        "best_x_min": result.best_x_min,
        "entries": entries,
    }
    return payload, entries


def cmd_compare(args):
    from .comparison import FIRST, SECOND, compare
    from .dataset import load_counts, truncate
    from .fitting import fit_kind

    data = load_counts(args.input, args.input_format)
    view = truncate(data, args.x_min)
    fits = {name: fit_kind(view, name) for name in {args.first, args.second}}
    outcome = compare(fits[args.first], fits[args.second], view)
    row = {
        "source": data.source_label,
        "first": args.first,
        "second": args.second,
        "test": outcome.kind,
        "x_min": view.x_min,
        "n": outcome.n,
        "statistic": outcome.statistic,
        "threshold_05": outcome.threshold_05,
        "threshold_01": outcome.threshold_01,
        "better": {FIRST: args.first, SECOND: args.second}.get(outcome.better, "neither"),
        "significant_05": outcome.significant_05,
        "degenerate": outcome.degenerate,
    }
    return row, [row]


def cmd_analyze(args):
    from .comparison import compare
    from .dataset import load_counts, truncate
    from .fitting import fit_kind, scan_x_min

    data = load_counts(args.input, args.input_format)
    flags, fits = [], {}
    if args.x_min == "all":
        policy, x_min = "all-cited", 1
    elif args.x_min == "scan":
        policy = f"scan-{args.scan_dist}"
        best = scan_x_min(data, args.scan_dist, _scan_candidates(args, data)).best
        x_min, fits[args.scan_dist] = best.x_min, best.fit  # the scan fitted this view already
    else:
        try:
            x_min = int(args.x_min)
        except ValueError:
            raise UsageError(f"--x-min must be an integer, 'scan', or 'all', got {args.x_min!r}") from None
        policy = "fixed"
    view = truncate(data, x_min)

    for kind in KINDS:
        try:
            fits[kind] = fits.get(kind) or fit_kind(view, kind)
            if not fits[kind].converged:
                flags.append(f"{kind}:non-convergent")
                _diag(f"warning: {kind} fit did not converge")
        except DegenerateDataError as exc:
            fits[kind] = None
            flags.append(f"{kind}:degenerate")
            _diag(f"warning: {kind} fit degenerate: {exc}")

    row = {
        "source": data.source_label,
        "policy": policy,
        "x_min": x_min,
        "n_tail": view.n_tail,
        "zeros_dropped": data.zeros_dropped,
    }
    for kind in KINDS:
        fit = fits[kind]
        for name in (field.name for field in dataclasses.fields(FAMILIES[kind])):
            row[f"{kind}_{name.lower()}"] = None if fit is None else getattr(fit.params, name)
    for kind in KINDS:
        row[f"neg_ll_{kind}"] = None if fits[kind] is None else fits[kind].neg_log_likelihood
    for column, first, second in ANALYZE_TESTS:
        row[column] = None
        if fits[first] is not None and fits[second] is not None:
            try:
                row[column] = compare(fits[first], fits[second], view).statistic
            except InternalConsistencyError as exc:
                flags.append(f"{column.partition('_')[0]}({first},{second}):inconsistent")
                _diag(f"warning: {exc}")
    row["flags"] = ";".join(flags)
    return row, [row]


def cmd_sample(args):
    dist = DiscreteDistribution(_build_params(args), args.x_min)
    return _integer_column("value", dist.sample(args.n, args.seed), args.format)


def cmd_ci_study(args):
    from .simulation import ci_width_study, lognormal_ci_study

    replicates = args.replicates
    if replicates is None:
        replicates = DESK_REPLICATES if args.preset == "desk" else FULL_REPLICATES
    if args.kind in ("hooked", "pl"):
        grid = ci_width_study(args.kind, parse_axis(args.alpha_grid), parse_axis(args.n_grid),
                              replicates=replicates, seed=args.seed, B=args.B)
        _warn_flagged(grid)
        return grid.to_json_dict(), grid.to_rows()
    if args.mu_grid is None or args.sigma_grid is None:
        raise UsageError("--mu-grid and --sigma-grid are required for the lognormal study")
    mu_grid, sigma_grid = lognormal_ci_study(parse_axis(args.mu_grid), parse_axis(args.sigma_grid),
                                             n=args.n, replicates=replicates, seed=args.seed)
    _warn_flagged(mu_grid)
    payload = {"mu": mu_grid.to_json_dict(), "sigma": sigma_grid.to_json_dict()}
    return payload, mu_grid.to_rows() + sigma_grid.to_rows()


def _warn_flagged(grid):
    from .simulation import EXCLUSION_FLAG_FRACTION

    flagged = sum(f for row in grid.flagged for f in row)
    if flagged:
        _diag(f"warning: {flagged} cell(s) excluded more than "
              f"{EXCLUSION_FLAG_FRACTION:.0%} of replicates")


def cmd_contour(args):
    from .dataset import load_counts, truncate
    from .simulation import ll_contour

    data = load_counts(args.input, args.input_format)
    view = truncate(data, args.x_min)
    grid = ll_contour(view, args.kind, parse_axis(args.p1), parse_axis(args.p2))
    if grid.invalid_cells:
        _diag(f"warning: {grid.invalid_cells} grid cell(s) fell outside the parameter domain")
    return grid.to_json_dict(), grid.to_rows()


def cmd_ridge(args):
    from .simulation import ridge_demo

    report = ridge_demo(args.alpha, args.B, n=args.n, seed=args.seed)
    if not report.fit_converged:
        _diag("warning: hooked fit did not converge")
    return report.to_json_dict(), [dataclasses.asdict(report)]


def cmd_slope_threshold(args):
    from .simulation import slope_tolerance_threshold

    value = slope_tolerance_threshold(args.tolerance, args.B)
    if value == int(value):
        value = int(value)
    return value, [{"threshold": value}]


# ---------------------------------------------------------------- plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="citefit", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--output", default=None, help="write output here instead of stdout")
        return p

    def add_input(p):
        p.add_argument("--input", required=True, help="count file to read")
        p.add_argument("--input-format", choices=("plain", "csv"), default="plain",
                       help="input file format (default plain: one integer per line)")

    p = add("fit", cmd_fit, "fit one distribution (or all three) to a count file")
    add_input(p)
    p.add_argument("--dist", choices=KINDS + ("all",), required=True)
    p.add_argument("--x-min", type=int, default=1)

    p = add("scan", cmd_scan, "scan truncation points and keep the best fit")
    add_input(p)
    p.add_argument("--dist", choices=KINDS, required=True)
    p.add_argument("--x-min-range", default=None,
                   help="candidate x_min values (list or start:stop:step); "
                        "default: every distinct observed count")

    p = add("analyze", cmd_analyze, "fit all three distributions and compare them")
    add_input(p)
    p.add_argument("--x-min", default="all",
                   help="truncation policy: an integer, 'scan', or 'all' (default)")
    p.add_argument("--scan-dist", choices=KINDS, default="pl",
                   help="distribution driving the scan policy (default pl)")
    p.add_argument("--x-min-range", default=None, help="candidates for the scan policy")

    p = add("compare", cmd_compare, "pairwise test between two fitted distributions")
    add_input(p)
    p.add_argument("--first", choices=KINDS, required=True)
    p.add_argument("--second", choices=KINDS, required=True)
    p.add_argument("--x-min", type=int, default=1)

    p = add("sample", cmd_sample, "draw from a distribution")
    p.add_argument("--dist", choices=KINDS, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--B", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--x-min", type=int, default=1)
    p.add_argument("-n", "--n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("ci-study", cmd_ci_study, "Monte-Carlo precision study of fitted parameters")
    p.add_argument("--kind", choices=("hooked", "pl", "ln"), required=True)
    p.add_argument("--alpha-grid", default=DEFAULT_ALPHA_GRID)
    p.add_argument("--n-grid", default=DEFAULT_N_GRID)
    p.add_argument("--B", type=float, default=DEFAULT_HOOKED_B,
                   help="generator offset for the hooked study (default 10)")
    p.add_argument("--mu-grid", default=None)
    p.add_argument("--sigma-grid", default=None)
    p.add_argument("--n", type=int, default=500, help="sample size for the lognormal study")
    p.add_argument("--replicates", type=int, default=None,
                   help=f"replicates per cell (default {FULL_REPLICATES}, "
                        f"or {DESK_REPLICATES} with --preset desk)")
    p.add_argument("--preset", choices=("full", "desk"), default="full")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("contour", cmd_contour, "negative log-likelihood grid over two parameters")
    add_input(p)
    p.add_argument("--kind", choices=("hooked", "ln"), required=True)
    p.add_argument("--x-min", type=int, default=1)
    p.add_argument("--p1", required=True, help="first-parameter axis (alpha or mu)")
    p.add_argument("--p2", required=True, help="second-parameter axis (B or sigma)")

    p = add("ridge", cmd_ridge, "sample, fit, and evaluate the alpha/B trade-off once")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--B", type=float, default=DEFAULT_HOOKED_B)
    p.add_argument("-n", "--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("slope-threshold", cmd_slope_threshold,
            "citation count where the log-log slope reaches the exponent")
    p.add_argument("--tolerance", "-T", type=float, required=True,
                   help="relative slope tolerance in (0, 1)")
    p.add_argument("--B", type=float, required=True)

    return parser


def _sanitize(obj):
    """NaN is not valid JSON; report it as null."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _render(payload, rows, fmt: str) -> str:
    if fmt == "json":
        text = json.dumps(_sanitize(payload), indent=2, allow_nan=False) + "\n"
    else:
        rows = [_sanitize(r) for r in rows]
        fieldnames = []
        for row in rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    return text


#: Values rendered per block by ``_integer_column``.
_COLUMN_BLOCK = 65_536
#: 10**1 .. 10**18: a value has one digit more than the powers it reaches.
_POWERS_OF_TEN = tuple(10**k for k in range(1, 19))


def _integer_column(name: str, values, fmt: str) -> str:
    """A nonempty array of nonnegative ``int64`` rendered as ``_render`` would render it.

    JSON: the bare list, ``indent=2``; CSV: a one-column table headed
    ``name``. Each block of values is written as ASCII digits, each
    value followed by the separator, and the blocks are joined once.
    """
    sep = b",\n  " if fmt == "json" else b"\r\n"
    blocks = [_digit_rows(values[i:i + _COLUMN_BLOCK], sep)
              for i in range(0, len(values), _COLUMN_BLOCK)]
    if fmt == "json":
        head, tail = b"[\n  ", b"\n]\n"
        blocks[-1] = blocks[-1][:-len(sep)]
    else:
        head, tail = name.encode() + b"\r\n", b""
    return b"".join([head, *blocks, tail]).decode()


def _digit_rows(values: np.ndarray, sep: bytes) -> np.ndarray:
    """``values`` as ASCII digits, each followed by ``sep``, as one byte array."""
    widths = np.full(values.size, 1 + len(sep))
    top = values.max()
    for power in _POWERS_OF_TEN:
        if power > top:
            break
        widths += values >= power
    ends = np.cumsum(widths)
    out = np.empty(ends[-1], np.uint8)
    for j, byte in enumerate(sep):
        out[ends - len(sep) + j] = byte
    # one digit column at a time, from the last digit of every value, for
    # the values that have digits left
    position, rest = ends - len(sep) - 1, values
    while position.size:
        quotient = rest // 10
        out[position] = rest - 10 * quotient + ord("0")
        more = np.flatnonzero(quotient)
        position, rest = position[more] - 1, quotient[more]
    return out


def _emit(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.handler(args)  # (payload, rows), or text rendered by the handler
        _emit(result if isinstance(result, str) else _render(*result, args.format), args.output)
        return EXIT_OK
    except CitefitError as exc:
        _diag(f"error: {exc}")
        return exc.exit_code
    except OSError as exc:
        _diag(f"error: {exc}")
        return EXIT_IO


def entry() -> int:
    """The ``citefit`` process: ``main`` on ``sys.argv``, exit code returned.

    ``gc.freeze()`` moves every object alive at each call, the loaded
    modules among them, to the collector's permanent generation: first
    after the module-level imports, then after the command, whose own
    imports it covers. So neither the command's collections nor the
    interpreter's final passes at exit walk them again. ``main`` itself
    changes no process-wide state: in-process callers run it many times.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
