"""Benchmark of the heavenly classify pipeline and of ``heavenly verify``.

Usage (from the repository root):

    python3 bench/run.py [--workload corpus|hard|verify|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Closed loop, one client, one process at a time: every pass runs in a fresh
interpreter (``bench/worker.py``), as a CLI user pays the import on every
call, and the next pass starts when the previous one has ended.  Passes
repeat until ``--seconds`` have gone by; at least one pass always runs.
Every output is checked against the frozen expectations in
``bench/golden``.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced passes over the same inputs and reports the per-layer
metrics instead.  The lines before it give each metric by name and unit,
and each timing's median, highest well-sampled percentile and sample count.

The end-to-end timings are in seconds at a fixed reference speed: every
untraced worker gauges the host's speed as it works (``reference.py``), so
that the shared host's drift cancels.  The host's own wall times are
printed beside them.  Per-layer timings, from traced runs, are plain wall
time.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("pass_s", "s"),
    ("slowest_item_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("decided_ratio", "ratio"),
)
MIN_SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 170
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


class BenchError(Exception):
    """The benchmark cannot run here at all."""


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return None


def _item_count(workload: str) -> int:
    if workload == "corpus":
        return len(list((ROOT / "corpus").glob("*.json")))
    if workload == "hard":
        return 3 * workloads.HARD_ROUNDS
    return len(workloads.CHECK_IDS)


class Run:
    """The passes of one workload at one seed, and their outcomes."""

    def __init__(self, workload: str, seed: int, work: Path,
                 traced_run: bool):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.traced_run = traced_run
        self.spawned = 0
        self.passes: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []
        self.setup_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, trace: bool = False, setup_only: bool = False):
        """One worker process; its result, or None when it failed.

        Untraced runs gauge the host's speed in every worker; traced runs
        report plain wall times.
        """
        pass_dir = self.work / f"{self.spawned:04d}"
        self.spawned += 1
        spec = {"root": str(ROOT), "workload": self.workload,
                "seed": self.seed, "pass_dir": str(pass_dir),
                "trace": trace, "gauge": not self.traced_run,
                "setup_only": setup_only}
        spec["spawned_at"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.errors.append(f"worker exceeded {WORKER_TIMEOUT_S}s")
            return None
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"worker exited {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(result["setup_s"])
        self.setup_walls.append(result["setup_wall_s"])
        return result

    def record(self, result, into: list) -> None:
        """Count a pass's items and failures; keep its result."""
        if result is None:
            self.attempted += _item_count(self.workload)
            self.failed += _item_count(self.workload)
            return
        for item in result["items"]:
            self.attempted += 1
            if item["error"]:
                self.failed += 1
                self.errors.append(f"{item['id']}: {item['error']}")
        into.append(result)

    def compare_traced(self, plain, traced) -> None:
        """Traced certificates and reports must equal the untraced ones."""
        if plain is None or traced is None:
            return
        ours = {i["id"]: i["digest"] for i in plain["items"]}
        for item in traced["items"]:
            if item["digest"] != ours.get(item["id"]):
                self.failed += 1
                self.errors.append(
                    f"{item['id']}: traced output differs from untraced")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool, work: Path) -> Run:
    run = Run(workload, seed, work, trace)
    # warm-up: byte-compiles the package and fills the file cache
    if run.spawn(setup_only=True) is None:
        raise BenchError("; ".join(run.errors))
    run.setups.clear()
    run.setup_walls.clear()
    start = time.monotonic()
    while not run.passes or time.monotonic() - start < seconds:
        plain = run.spawn()
        run.record(plain, run.passes)
        if trace:
            traced = run.spawn(trace=True)
            run.record(traced, run.traced)
            run.compare_traced(plain, traced)
        if plain is None:
            break
        if not trace:
            # spreads the set-up samples over the whole run
            run.spawn(setup_only=True)
    # set-up time is an end-to-end metric, so a traced run needs no extra
    while not trace and len(run.setups) < MIN_SETUP_SAMPLES:
        if run.spawn(setup_only=True) is None:
            break
    return run


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end(run: Run) -> dict[str, list[float]]:
    """Samples per end-to-end metric; each metric is their median."""
    items = [i for p in run.passes for i in p["items"]]
    undecided = sum(1 for i in items if i["undecided"])
    return {
        "pass_s": [p["pass_s"] for p in run.passes],
        "slowest_item_s": [max(i["s"] for i in p["items"])
                           for p in run.passes],
        "setup_s": run.setups,
        "peak_rss_mib": [p["rss_mib"] for p in run.passes],
        "decided_ratio": [1 - undecided / len(items)] if items else [],
    }


def wall_seconds(run: Run) -> dict[str, list[float]]:
    """The wall times behind the timing metrics, without the gauge's time."""
    return {
        "pass_wall_s": [p["pass_wall_s"] for p in run.passes],
        "slowest_item_wall_s": [max(i.get("wall_s", i["s"])
                                    for i in p["items"])
                                for p in run.passes],
        "setup_wall_s": run.setup_walls,
    }


def per_layer(run: Run) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in run.traced[0]["layers"] if run.traced else ():
        values[name] = statistics.median(p["layers"][name]
                                         for p in run.traced)
    for check in workloads.CHECK_IDS:
        samples = [i["check_s"] for p in run.passes for i in p["items"]
                   if i["id"] == check]
        values[f"verifier.{check}.s"] = (statistics.median(samples)
                                         if samples else 0.0)
    if run.traced and run.passes:
        values["trace.overhead_s"] = (
            statistics.median(p["pass_s"] for p in run.traced)
            - statistics.median(p["pass_s"] for p in run.passes))
    misses = sorted({miss for p in run.traced
                     for miss in tracing.prediction_misses(
                         run.workload, p["calls"], set(p["present"]))})
    values["trace.prediction_misses"] = len(misses)
    for miss in misses:
        print(f"  prediction miss: {miss}")
    return values


def report(run: Run, trace: bool) -> dict:
    """Print the run's metrics by name and unit; return its result object."""
    print(f"workload {run.workload} seed {run.seed}: "
          f"{len(run.passes)} passes, {run.attempted} items, "
          f"{run.failed} failed")
    for error in run.errors[:20]:
        print(f"  FAIL {error}")
    metrics = {}
    if trace:
        values = per_layer(run)
        for decl in tracing.per_layer_metrics():
            value = values.get(decl["name"], 0.0)
            metrics[decl["name"]] = {"value": value, "unit": decl["unit"]}
            print(f"  {decl['name']:<52} {value:14.6f} {decl['unit']}")
    else:
        samples = end_to_end(run)
        for name, unit in END_TO_END:
            values = samples[name]
            value = statistics.median(values) if values else 0.0
            metrics[name] = {"value": value, "unit": unit}
            line = f"  {name:<16} {value:12.6f} {unit:<6} n={len(values)}"
            tail = tail_percentile(values) if unit == "s" else None
            if tail is not None:
                line += f" p{tail[0]}={tail[1]:.6f}"
            print(line)
        for name, values in wall_seconds(run).items():
            value = statistics.median(values) if values else 0.0
            print(f"  {name:<20} {value:8.6f} s  (host wall time, not a "
                  f"metric)")
        items = sum(len(p["items"]) for p in run.passes)
        undecided = sum(i["undecided"] for p in run.passes
                        for i in p["items"])
        print(f"  undecided_ratio  {undecided}/{items}")
    return {"correct": run.failed == 0 and bool(run.passes),
            "attempted": max(run.attempted, 1),
            "failed": run.failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "heavenly" / "__init__.py").is_file() \
            or not (ROOT / "corpus").is_dir():
        print(f"error: no heavenly source tree under {ROOT}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), work)
            results[name] = report(run, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
