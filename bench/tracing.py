"""Traced in-process replay of a workload, reporting per-layer metrics.

Each command runs through ``citefit.cli.main`` inside a ``cli.main`` span
(the command's index is the span's request id). While a pass is traced, the
public entry points of each module are replaced, in every citefit module
that holds them, by wrappers that record a span and count work:

* ``dataset``: ``load_counts`` (rows read), ``truncate`` (rows copied)
* ``kernels``: ``DiscreteDistribution`` construction, ``sample`` (draws),
  ``ccdf``, ``log_pmf``
* ``fitting``: the three fitters (iterations, convergence),
  ``neg_log_likelihood``, ``ks_distance``, ``scan_x_min``
* ``comparison``: ``vuong_test``, ``lrt_test``
* ``simulation``: ``replicate_seed``, ``ll_contour``, ``ci_width_study``,
  ``lognormal_ci_study``

The composites run unchanged: they reach their parts through their modules'
globals, which hold the wrappers, so ``scan_x_min`` shows as ``truncate`` +
fitter + ``ks_distance`` per candidate and a study replicate as
``replicate_seed`` + ``DiscreteDistribution`` + ``.sample`` + ``truncate`` +
fitter. A fitter called inside a study span counts the replicates the study
excludes, by cause. The replay must reproduce the CLI: each traced pass's
stdout is compared with an untraced in-process pass, byte for byte and on the
best x_min and the study widths, and the exclusions counted by cause must add
up to those the study reports. The difference of the two passes' wall times
is the tracing overhead. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import citefit
import workloads
from citefit import cli, comparison, dataset, fitting, kernels, simulation
from citefit.errors import DegenerateDataError

FIT_NAMES = {"pl": "fit_power_law", "ln": "fit_lognormal", "hooked": "fit_hooked"}


STUDY_SPANS = ("simulation.ci_width_study", "simulation.lognormal_ci_study")


class Tracer:
    """Spans ``(name, start, end, parent, request)`` and counters, held in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._open = []  # (index, name) of each span not yet closed

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1][0] if self._open else None
        self._open.append((index, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.request)
            self._open.pop()

    def within(self, names) -> bool:
        """Whether a span with one of ``names`` is open."""
        return any(name in names for _, name in self._open)

    def wrap(self, name: str, fn, tally=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if tally is not None:
                tally(self.counts, args, result)
            return result

        return traced

    def wrap_fitter(self, kind: str, fn):
        """A fitter's span, iteration and convergence counts, and study exclusions by cause.

        A study drops a replicate whose fit raises DegenerateDataError or does
        not converge; the fitter is the only place where either shows.
        """
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            in_study = self.within(STUDY_SPANS)
            try:
                with self.span(f"fitting.fit_{kind}"):
                    fit = fn(*args, **kwargs)
            except DegenerateDataError:
                counts["excluded_degenerate"] += int(in_study)
                raise
            counts[f"fit_{kind}.iterations"] += fit.iterations
            counts[f"fit_{kind}.converged"] += int(fit.converged)
            counts["excluded_nonconverged"] += int(in_study and not fit.converged)
            return fit

        return traced

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


class Instrumented:
    """Context manager that installs the wrappers, then restores the originals."""

    MODULES = (citefit, cli, comparison, dataset, fitting, kernels, simulation)

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def _replace(self, original, replacement):
        for module in self.MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((setattr, module, attr, value))
                    setattr(module, attr, replacement)
        for kind, fn in list(fitting.FITTERS.items()):
            if fn is original:
                self._undo.append((dict.__setitem__, fitting.FITTERS, kind, fn))
                fitting.FITTERS[kind] = replacement

    def __enter__(self):
        t = self.tracer
        self._replace(dataset.load_counts, t.wrap(
            "dataset.load_counts", dataset.load_counts,
            lambda c, a, r: c.update({"rows_read": r.n + r.zeros_dropped})))
        self._replace(dataset.truncate, t.wrap(
            "dataset.truncate", dataset.truncate,
            lambda c, a, r: c.update({"rows_copied": r.n_tail})))
        for kind, name in FIT_NAMES.items():
            fn = getattr(fitting, name)
            self._replace(fn, t.wrap_fitter(kind, fn))
        for module, name in ((fitting, "neg_log_likelihood"), (fitting, "ks_distance"),
                             (fitting, "scan_x_min"),
                             (comparison, "vuong_test"), (comparison, "lrt_test"),
                             (simulation, "replicate_seed"), (simulation, "ll_contour"),
                             (simulation, "ci_width_study"), (simulation, "lognormal_ci_study")):
            fn = getattr(module, name)
            self._replace(fn, t.wrap(f"{module.__name__.split('.')[-1]}.{name}", fn))
        cls = kernels.DiscreteDistribution
        for method, name in (("__post_init__", "construct"), ("sample", "sample"),
                             ("ccdf", "ccdf"), ("log_pmf", "log_pmf")):
            fn = vars(cls)[method]
            tally = (lambda c, a, r: c.update({"draws": a[1]})) if method == "sample" else None
            self._undo.append((setattr, cls, method, fn))
            setattr(cls, method, t.wrap(f"kernels.{name}", fn, tally))
        return self

    def __exit__(self, *exc):
        for setter, target, key, value in reversed(self._undo):
            setter(target, key, value)
        self._undo.clear()


# ---------------------------------------------------------------- passes


def run_pass(commands, tracer: Tracer | None = None):
    """Run every command through ``cli.main`` in-process; returns (wall_s, outputs)."""
    outputs = []
    start = time.perf_counter()
    for index, cmd in enumerate(commands):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(list(cmd.argv))
            else:
                tracer.request = index
                cpu = time.process_time()
                with tracer.span("cli.main"):
                    code = cli.main(list(cmd.argv))
                tracer.counts["cli.cpu_s"] += time.process_time() - cpu
        text = stdout.getvalue()
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(text.encode("utf-8"))
        outputs.append((code, text))
    return time.perf_counter() - start, outputs


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals from one traced pass. Self time is a span minus its children."""
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    children = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            children[parent] += end - start
    for index, (name, start, end, parent, _) in enumerate(tracer.spans):
        total[name] += end - start
        self_time[name] += end - start - children[index]
        calls[name] += 1
    c = tracer.counts
    m = {
        "cli.main_s": (total["cli.main"], "s"),
        "cli.self_s": (self_time["cli.main"], "s"),
        "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
        "cli.cpu_s": (c["cli.cpu_s"], "s"),
        "dataset.load_counts_s": (total["dataset.load_counts"], "s"),
        "dataset.truncate_s": (total["dataset.truncate"], "s"),
        "dataset.truncate_calls": (calls["dataset.truncate"], "count"),
        "dataset.rows_read": (c["rows_read"], "count"),
        "dataset.rows_copied": (c["rows_copied"], "count"),
        "kernels.construct_s": (total["kernels.construct"], "s"),
        "kernels.construct_calls": (calls["kernels.construct"], "count"),
        "kernels.sample_s": (total["kernels.sample"], "s"),
        "kernels.draws": (c["draws"], "count"),
        "kernels.ccdf_s": (total["kernels.ccdf"], "s"),
        "kernels.log_pmf_s": (total["kernels.log_pmf"], "s"),
    }
    for kind in FIT_NAMES:
        n = calls[f"fitting.fit_{kind}"]
        m[f"fitting.fit_{kind}_s"] = (total[f"fitting.fit_{kind}"], "s")
        m[f"fitting.fit_{kind}_calls"] = (n, "count")
        m[f"fitting.fit_{kind}_iterations"] = (c[f"fit_{kind}.iterations"], "count")
        # 0 when the fitter was not called; read it together with _calls
        m[f"fitting.fit_{kind}_converged_ratio"] = (c[f"fit_{kind}.converged"] / n if n else 0.0, "ratio")
    m.update({
        "fitting.ks_distance_s": (total["fitting.ks_distance"], "s"),
        "fitting.neg_log_likelihood_s": (total["fitting.neg_log_likelihood"], "s"),
        "fitting.neg_log_likelihood_calls": (calls["fitting.neg_log_likelihood"], "count"),
        "comparison.vuong_test_s": (total["comparison.vuong_test"], "s"),
        "comparison.lrt_test_s": (total["comparison.lrt_test"], "s"),
        # every replicate of every study, from sampling to fit
        "simulation.replicate_s": (sum(total[name] for name in STUDY_SPANS), "s"),
        "simulation.self_s": (sum(v for k, v in self_time.items() if k.startswith("simulation.")), "s"),
        "simulation.excluded_degenerate": (c["excluded_degenerate"], "count"),
        "simulation.excluded_nonconverged": (c["excluded_nonconverged"], "count"),
    })
    return m


def measure(workload: str, seed: int, seconds: float, out: Path):
    """Pairs of untraced and traced passes for ``seconds``, after one warm-up pass.

    Returns (failures, attempted, metrics, report, samples); time metrics are
    medians over the traced passes.
    """
    commands = workloads.build(workload, seed, out / f"{workload}-{seed}")
    failures, attempted = [], 0
    untraced, traced, layers = [], [], []

    def traced_pass():
        tracer = Tracer()
        with Instrumented(tracer):
            return (tracer,) + run_pass(commands, tracer)

    start = time.perf_counter()
    run_pass(commands)  # warm-up: first calls into numpy and scipy cost extra once
    while True:
        # alternate which pass runs first, so neither always follows the other
        if len(layers) % 2 == 0:
            wall_plain, expected = run_pass(commands)
            tracer, wall_traced, replayed = traced_pass()
        else:
            tracer, wall_traced, replayed = traced_pass()
            wall_plain, expected = run_pass(commands)
        excluded = 0
        for cmd, (code0, text0), (code1, text1) in zip(commands, expected, replayed):
            attempted += 1
            label = " ".join(cmd.argv)
            try:
                if code0 != 0 or code1 != 0:
                    raise workloads.CheckError(f"exit codes {code0} untraced, {code1} replayed")
                want, got = workloads.inspect(cmd, text0), workloads.inspect(cmd, text1)
                if got.results != want.results:
                    raise workloads.CheckError(f"replay gave {got.results}, CLI gave {want.results}")
                if text1 != text0:
                    raise workloads.CheckError("replayed stdout differs from the CLI's")
                if cmd.kind == "ci-study":
                    excluded += want.nonconverged
            except (workloads.CheckError, KeyError, TypeError, ValueError) as exc:
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
        counted = tracer.counts["excluded_degenerate"] + tracer.counts["excluded_nonconverged"]
        if counted != excluded:
            failures.append(f"spans counted {counted} excluded replicates, the studies report {excluded}")
        untraced.append(wall_plain)
        traced.append(wall_traced)
        layers.append(layer_metrics(tracer))
        if time.perf_counter() - start + wall_plain + wall_traced > seconds:
            break
    tracer.write(out / f"spans-{workload}-{seed}.jsonl")
    metrics = {
        name: (statistics.median(run[name][0] for run in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    report = {
        "failed_frac": (len(failures) / attempted, "ratio"),
        "trace.untraced_wall_s": (statistics.median(untraced), "s"),
        "trace.traced_wall_s": (statistics.median(traced), "s"),
        "trace.passes": (len(layers), "count"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return failures, attempted, metrics, report, {"untraced_s": untraced, "traced_s": traced}
