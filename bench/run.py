"""Benchmark for the citefit CLI: ``study``, ``analyze`` and ``bulk`` workloads.

Run one workload, or ``all`` of them (the last stdout line is the JSON result)::

    python3 bench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the CLI as fresh subprocesses in a closed loop (one client,
one command at a time) and reports the end-to-end metrics. ``--trace 1``
replays the same commands in-process with spans around each layer's public
calls and reports per-layer metrics (see ``tracing.py``). Every run appends its
result, with the git SHA, library versions, ``nproc``, seed and thread caps,
to ``bench/out/results.jsonl``. Compare two such files with::

    python3 bench/run.py --compare old.jsonl new.jsonl

``--write-reference`` stores the default seed's verdicts and fitted
likelihoods in ``bench/reference.json``; later runs at that seed must match
the verdicts and be no worse in likelihood.

The program is imported from ``src/`` of the checkout holding this file.
Inputs are written under ``bench/out/`` outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
WORKLOADS = ("study", "analyze", "bulk")

NPROC = len(os.sched_getaffinity(0))
#: Native thread pools are capped at the core count, here and in every child.
THREAD_CAPS = {
    var: str(NPROC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_CAPS)

#: Fresh process, ``import citefit`` and a trivial command: the set-up cost
#: every CLI invocation pays.
SETUP_ARGV = ("slope-threshold", "-T", "0.1", "--B", "55")
SETUP_STDOUT = b"495\n"
#: Probes before each pass over the commands. The machine's speed drifts over
#: seconds, so probes spread over the whole run give a steadier median.
SETUP_PROBES = 3

#: A run repeats the whole command sequence at least this often, so its
#: stdout can be compared between two executions with the same seed.
MIN_ITERATIONS = 2


@dataclass(frozen=True)
class Invocation:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes


class Runner:
    """Runs ``python -m citefit.cli`` children one at a time and reaps each with wait4."""

    def __init__(self, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stdout_path = workdir / "stdout"
        self.stderr_path = workdir / "stderr"

    def run(self, argv) -> Invocation:
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "citefit.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=self.env,
            )
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would keep
            # the largest of all earlier children.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024.0, self.stdout_path.read_bytes())


def measure(workload: str, seed: int, seconds: float, write_reference: bool):
    """Closed-loop subprocess run; returns (failures, attempted, metrics, report, samples)."""
    import workloads

    workdir = OUT / f"{workload}-{seed}"
    commands = workloads.build(workload, seed, workdir)
    runner = Runner(workdir)
    failures = []
    attempted = 0
    peak_rss = 0.0

    def invoke(argv) -> Invocation:
        nonlocal attempted, peak_rss
        attempted += 1
        result = runner.run(argv)
        peak_rss = max(peak_rss, result.rss_mb)
        if result.code != 0:
            stderr = runner.stderr_path.read_text(errors="replace").strip()
            failures.append(f"{' '.join(argv)}: exit code {result.code}: {stderr[-300:]}")
        return result

    setup = []

    def probe_setup():
        result = invoke(SETUP_ARGV)
        setup.append(result.wall_s)
        if result.code == 0 and result.stdout != SETUP_STDOUT:
            failures.append(f"setup: stdout {result.stdout[:40]!r}")

    invoke(SETUP_ARGV)  # warm the file cache; users rarely run cold

    reference = _load_reference().get(workload) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and not write_reference and len(reference or ()) != len(commands):
        failures.append(f"the stored reference for {workload} does not list its {len(commands)} commands")
        reference = None
    digests = [None] * len(commands)
    outcomes = [None] * len(commands)
    walls = []
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_PROBES):
            probe_setup()
        wall = 0.0
        for idx, cmd in enumerate(commands):
            result = invoke(cmd.argv)
            wall += result.wall_s
            if result.code != 0:
                continue
            digest = hashlib.sha256(result.stdout).hexdigest()
            if digests[idx] is None:
                digests[idx] = digest
                try:
                    outcomes[idx] = workloads.inspect(cmd, result.stdout.decode("utf-8"))
                except (workloads.CheckError, KeyError, TypeError, ValueError) as exc:
                    failures.append(f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}")
                    continue
                if reference is not None:
                    problem = workloads.against_reference(outcomes[idx], reference[idx])
                    if problem:
                        failures.append(f"{' '.join(cmd.argv)}: {problem}")
            elif digest != digests[idx]:
                failures.append(f"{' '.join(cmd.argv)}: stdout differs between two runs")
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > seconds:
            break

    if write_reference:
        _store_reference(workload, seed, outcomes)
    wall_s = statistics.median(walls)
    fits = sum(c.fits for c in commands)
    reported = sum(c.reported_fits for c in commands)
    rows = sum(c.rows_in + c.rows_drawn for c in commands)
    nonconverged = sum(o.nonconverged for o in outcomes if o is not None)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "fits_per_s": (fits / wall_s, "1/s"),
        "rows_per_s": (rows / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "converged_frac": (1.0 - nonconverged / reported, "ratio"),
    }
    report = {
        "failed_frac": (len(failures) / attempted, "ratio"),
        "nonconverged_frac": (nonconverged / reported, "ratio"),
        "iterations": (len(walls), "count"),
        "fits_per_iteration": (fits, "count"),
        "reported_fits_per_iteration": (reported, "count"),
        "rows_per_iteration": (rows, "count"),
    }
    return failures, attempted, metrics, report, {"wall_s": walls, "setup_s": setup}


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def _store_reference(workload: str, seed: int, outcomes):
    if seed != DEFAULT_SEED or any(o is None for o in outcomes):
        raise SystemExit(f"a reference needs --seed {DEFAULT_SEED} and every output checked")
    stored = _load_reference()
    stored[workload] = [
        {"verdict": o.verdict, "nlls": o.nlls, **({"study": o.study} if o.study else {})}
        for o in outcomes
    ]
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def environment(seed: int) -> dict:
    from importlib.metadata import version

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": NPROC,
        "seed": seed,
        "thread_caps": THREAD_CAPS,
    }


# ---------------------------------------------------------------- compare


def _summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(old_path: Path, new_path: Path):
    """Print per workload and metric: quartiles of each side, the ratio and a verdict.

    A metric whose quartile spread on either side exceeds its bound reads
    "unresolved"; otherwise the ratio of medians is judged against the bound.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = []
    for path in (old_path, new_path):
        groups, envs = {}, set()
        for line in path.read_text().splitlines():
            run = json.loads(line)
            for name, metric in run["metrics"].items():
                groups.setdefault((run["workload"], name), []).append(metric["value"])
            env = run["env"]
            envs.add(f"sha {env['git_sha'][:12]} python {env['python']} numpy {env['numpy']} "
                     f"scipy {env['scipy']} nproc {env['nproc']} thread caps {env['thread_caps']}")
        for env in sorted(envs):
            print(f"{path}: {env}")
        sides.append(groups)
    old, new = sides
    print(f"{'workload':9} {'metric':34} {'old q1/med/q3':>32} {'new q1/med/q3':>32} {'ratio':>7}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        a, b = _summary(old[key]), _summary(new[key])
        ratio = b[1] / a[1] if a[1] else float("nan")
        spec_m = metrics.get(name, {})
        bound = spec_m.get("bound")
        verdict = "-"
        if bound is not None:
            spread = max((s[2] - s[0]) / abs(s[1]) if s[1] else 0.0 for s in (a, b))
            worse = ratio - 1.0 if spec_m["better"] == "lower" else 1.0 - ratio
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within bound"
        fmt = lambda s: f"{s[0]:.4g}/{s[1]:.4g}/{s[2]:.4g}"
        print(f"{workload:9} {name:34} {fmt(a):>32} {fmt(b):>32} {ratio:7.3f}  {verdict}")


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                        help="append each run's result here")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "citefit" / "__init__.py").is_file():
        print(f"error: no citefit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    OUT.mkdir(exist_ok=True)

    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.trace:
            import tracing

            failures, attempted, metrics, report, samples = tracing.measure(
                workload, args.seed, args.seconds, OUT)
        else:
            failures, attempted, metrics, report, samples = measure(
                workload, args.seed, args.seconds, args.write_reference)
        for problem in failures:
            print(f"FAILED {workload}: {problem}")
        for name, (value, unit) in {**metrics, **report}.items():
            print(f"{workload:8} {name:34} {value:>16.6g} {unit}")
        results[workload] = result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload, "trace": args.trace,
                                 "env": environment(args.seed), **result, "samples": samples}) + "\n")
    if len(results) == 1:
        print(json.dumps(result))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
