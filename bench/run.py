"""Benchmark for the twinwidth toolkit.

    python3 bench/run.py --workload tww-solve --seed 1 --seconds 20 --trace 0

Runs one workload in this single-threaded process, from the source tree
in ``src/`` of the checkout this file sits in.  ``--workload all`` runs
the four workloads one after another, each in its own process, and
prints their metrics side by side.  See bench/README.md for the
workloads, the metrics and the digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import gzip
import hashlib
import importlib
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import HARNESS, LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "twinwidth"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7177  # reserved for confirming a claimed gain; not used while tuning
SETUP_REPEATS = 5
SLACK = 1.1  # a run may end up to 10% past --seconds so that it ends on a whole pass
MIN_PASSES = 3
MIN_OPS = 100  # one latency per op, so p90 has at least ten beyond it
# On a shared VM the CPU speed one process sees swings by up to 2x for a
# minute at a time, so the gated latencies are in "cal": an execution's
# time over the median time of the calibration loop measured just before
# it and before its CAL_WINDOW neighbours on each side.
CAL_ITERS = 2000
CAL_WINDOW = 2
FUNCTION_METRICS = (
    ("solver", "twinwidth_exact"),
    ("solver", "decide_twinwidth_at_most"),
    ("solver", "greedy_sequence"),
    ("treewidth", "min_fill_order"),
    ("treewidth", "treewidth_exact"),
    ("treewidth", "verify_tree_decomposition"),
    ("pipeline", "pipeline_certify"),
    ("pipeline", "decomposition_sequence"),
    ("io", "read_dimacs"),
    ("io", "write_dimacs"),
    ("io", "sequence_from_json"),
    ("sequences", "width_trace"),
    ("sequences", "partitions_at"),
    ("partitions", "quotient"),
    ("partitions", "split_part"),
    ("witness", "check_witness"),
    ("witness", "audit_sequence"),
    ("connectivity", "max_disjoint_paths"),
)
COUNTS = ("solver.expansions", "sequences.steps_replayed", "io.bytes_read",
          "witness.candidates", "witness.hits", "pipeline.unknown")


def load_package():
    """Import twinwidth and its layer modules afresh from src/."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return argparse.Namespace(**{layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS})


def set_up(workload: str, seed: int):
    """Import the package and build the workload's ops; returns (tw, ops, seconds)."""
    t0 = time.perf_counter()
    tw = load_package()
    ops = WORKLOADS[workload][0](tw, random.Random(f"{workload}/{seed}"))
    return tw, ops, time.perf_counter() - t0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def calibration() -> float:
    """Seconds taken by a fixed loop of dict, set and integer work, the
    kind of work the library's inner loops do."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(CAL_ITERS):
        counts[i & 255] = counts.get(i & 255, 0) + (i >> 3)
        seen.add(i & 511)
        seen.discard((i * 7) & 511)
    return time.perf_counter() - t0


def run_plain(i: int, op):
    cal = calibration()
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a failed op is reported, not raised
        result, error = None, exc
    return result, error, time.perf_counter() - t0, cal


class Ledger:
    """Outcomes of every execution, checked against the first pass."""

    def __init__(self, ops, verify: bool = True):
        self.ops = ops
        self.verify = verify
        self.first: list = [None] * len(ops)  # (summary, counts) or ("error", text)
        self.failed_ops: dict[int, str] = {}
        self.wrong: list[str] = []
        self.best: list[float] = [math.inf] * len(ops)
        self.executions: list[tuple[int, float, float | None]] = []  # (op, seconds, calibration)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0

    def record(self, i: int, raw, error, seconds: float, cal: float | None, first: bool) -> None:
        op = self.ops[i]
        self.attempted += 1
        self.busy += seconds
        self.executions.append((i, seconds, cal))
        if first:
            self.first[i] = self._first_outcome(i, raw, error)
        elif self.first[i][0] == "error":
            if error is None or f"{type(error).__name__}: {error}" != self.first[i][1]:
                self.wrong.append(f"{op.kind} {op.label}: outcome changed between passes")
        elif error is not None or (op.summary(raw), op.counts(raw)) != self.first[i]:
            self.wrong.append(f"{op.kind} {op.label}: output changed between passes")
        self.best[i] = min(self.best[i], seconds)
        if i in self.failed_ops:
            self.failed += 1

    def _first_outcome(self, i: int, raw, error):
        op = self.ops[i]
        if error is not None:
            text = f"{type(error).__name__}: {error}"
            self.failed_ops[i] = text
            return ("error", text)
        try:
            if self.verify:
                op.verify(raw)
        except Exception as exc:  # a wrong output fails the op and the run
            text = f"{type(exc).__name__}: {exc}"
            self.failed_ops[i] = f"check failed: {text}"
            self.wrong.append(f"{op.kind} {op.label}: {text}")
        return (op.summary(raw), op.counts(raw))

    def digest(self) -> str:
        items = [[op.kind, op.label, outcome] for op, outcome in zip(self.ops, self.first)]
        return hashlib.sha256(json.dumps(items, sort_keys=True, default=str).encode()).hexdigest()[:16]

    def counts(self) -> dict[str, int]:
        total = dict.fromkeys(COUNTS, 0)
        for outcome in self.first:
            if outcome[0] != "error":
                for key, value in outcome[1].items():
                    total[key] += value
        return total

    def summaries(self) -> list:
        return [None if outcome[0] == "error" else outcome[0] for outcome in self.first]


def measure(ops, seconds: float, runners, min_passes: int) -> tuple[int, float]:
    """Run whole passes over the ops until the next pass would end past
    SLACK * seconds, and at least `min_passes` passes.  `runners` lists (ledger, run)
    pairs; each op is executed by every run(i, op), which returns (raw,
    error, seconds, calibration seconds or None), and recorded in that
    run's ledger."""
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            for ledger, run in runners:
                raw, error, dt, cal = run(i, op)
                ledger.record(i, raw, error, dt, cal, first=passes == 0)
                del raw
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now - start + (now - pass_start) > SLACK * seconds:
            return passes, now - start


def latency_metrics(ledger: Ledger, per_op: list[float]) -> tuple[float, float, float]:
    """Ops with a checked-correct result per unit of op time, and p50 and
    p90 over one latency per op; a failed op counts as infinitely slow in
    the percentiles and with its time in the total."""
    lat = sorted(math.inf if i in ledger.failed_ops else t for i, t in enumerate(per_op))
    ok = len(ledger.ops) - len(ledger.failed_ops)
    return ok / sum(per_op), percentile(lat, 0.50), percentile(lat, 0.90)


def calibrated(ledger: Ledger) -> list[float]:
    """Each op's median over the passes of its time in cal."""
    cals = [c for _, _, c in ledger.executions]
    cost: list[list[float]] = [[] for _ in ledger.ops]
    for j, (i, seconds, _) in enumerate(ledger.executions):
        cost[i].append(seconds / statistics.median(cals[max(0, j - CAL_WINDOW): j + CAL_WINDOW + 1]))
    return [statistics.median(c) for c in cost]


def end_to_end(ledger: Ledger, setup_times: list[float]) -> tuple[dict, dict]:
    """The gated metrics, and the same latencies in wall-clock time (each
    op's best over the passes) for the report."""
    if len(ledger.ops) < MIN_OPS:
        raise ValueError(f"a workload needs at least {MIN_OPS} ops for its p90, has {len(ledger.ops)}")
    per_cal, p50, p90 = latency_metrics(ledger, calibrated(ledger))
    per_s, p50_s, p90_s = latency_metrics(ledger, ledger.best)
    wall = {"ops_per_s": (per_s, "1/s"), "op_p50_ms": (p50_s * 1e3, "ms"), "op_p90_ms": (p90_s * 1e3, "ms"),
            "cal_ms": (statistics.median(c for _, _, c in ledger.executions) * 1e3, "ms")}
    return {
        "ops_per_kcal": (per_cal * 1e3, "1/kcal"),
        "op_p50_cal": (p50, "cal"),
        "op_p90_cal": (p90, "cal"),
        "ok_rate": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, wall


def per_layer(tracer, passes: int, ledger: Ledger, plain: Ledger) -> tuple[dict, list[str]]:
    """Per-pass self times and calls by layer and function, the counts of
    one pass, rates over the matching spans, and the tracing overhead."""
    self_s = tracer.self_times()
    problems = tracer.check_spans(self_s, time.get_clock_info("perf_counter").resolution)
    by_fn: dict = {}
    calls: dict = {}
    inclusive: dict = {}
    for i, (key, t0, t1, _, _) in enumerate(tracer.spans):
        by_fn[key] = by_fn.get(key, 0.0) + self_s[i]
        calls[key] = calls.get(key, 0) + 1
        inclusive[key] = inclusive.get(key, 0.0) + (t1 - t0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in by_fn.items() if k[0] == layer) / passes, "s")
        out[f"{layer}.calls"] = (sum(v for k, v in calls.items() if k[0] == layer) // passes, "count")
    out[f"{HARNESS}.self_s"] = (sum(v for k, v in by_fn.items() if k[0] == HARNESS) / passes, "s")
    for layer, name in FUNCTION_METRICS:
        out[f"{layer}.{name}.self_s"] = (by_fn.get((layer, name), 0.0) / passes, "s")

    def rate(count: float, *keys) -> float:
        seconds = sum(inclusive.get(k, 0.0) for k in keys) / passes
        return count / seconds if seconds else 0.0

    counts = ledger.counts()
    for key in COUNTS:
        out[key] = (counts[key], "B" if key == "io.bytes_read" else "count")
    out["solver.expansions_per_s"] = (rate(counts["solver.expansions"], ("solver", "twinwidth_exact")), "1/s")
    out["sequences.steps_per_s"] = (rate(counts["sequences.steps_replayed"], ("sequences", "width_trace")), "1/s")
    out["io.read_mb_per_s"] = (rate(counts["io.bytes_read"] / 1e6, ("io", "read_dimacs"), ("io", "sequence_from_json")),
                               "MB/s")
    hits, cands = counts["witness.hits"], counts["witness.candidates"]
    out["witness.hit_ratio"] = (hits / cands if cands else 0.0, "ratio")
    out["trace.overhead_frac"] = (ledger.busy / plain.busy - 1.0, "frac")
    return out, problems


def report(workload: str, seed: int, passes: int, wall: float, ledger: Ledger, metrics: dict, wall_clock: dict,
           extra: list[str]):
    """Human-readable lines; the JSON result line follows them."""
    counts = ledger.counts()
    print(f"workload {workload}  seed {seed}  ops {len(ledger.ops)}  passes {passes}  "
          f"executions {ledger.attempted}  measured {wall:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, (value, unit) in wall_clock.items():
        print(f"  wall clock: {name:<32} {value:>14.6g} {unit}")
    print("  counts per pass: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    kinds: dict = {}
    for op, (summary, _) in zip(ledger.ops, ledger.first):
        status = "error" if summary == "error" else summary["status"]
        kinds.setdefault(op.kind, {}).setdefault(status, 0)
        kinds[op.kind][status] += 1
    for kind, statuses in kinds.items():
        print(f"  {kind}: " + ", ".join(f"{k} {v}" for k, v in sorted(statuses.items())))
    for i, why in sorted(ledger.failed_ops.items()):
        op = ledger.ops[i]
        print(f"  FAILED {workload} {op.kind} {op.label}: {why}")
    for line in ledger.wrong + extra:
        print(f"  WRONG {line}")
    print(f"  digest {ledger.digest()}")


def run_workload(args) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        tw, ops, dt = set_up(args.workload, args.seed)
        setup_times.append(dt)
    consistency = WORKLOADS[args.workload][1]
    plain = Ledger(ops)
    if args.trace:
        tracer = Tracer()
        tracer.prepare(PACKAGE)
        traced = Ledger(ops, verify=False)
        execution = itertools.count()
        passes, wall = measure(ops, args.seconds, [
            (plain, run_plain),
            (traced, lambda i, op: (*tracer.run_op(next(execution), op.kind, op.run), None)),
        ], min_passes=1)
        metrics, problems = per_layer(tracer, passes, traced, plain)
        wall_clock = {}
        if traced.first != plain.first:
            problems.append("traced outputs or counts differ from the untraced ones")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with gzip.open(out / f"spans-{args.workload}-{args.seed}.jsonl.gz", "wt", encoding="utf-8") as fh:
            tracer.dump(fh)
        ledger = traced
    else:
        passes, wall = measure(ops, args.seconds, [(plain, run_plain)], min_passes=MIN_PASSES)
        metrics, wall_clock = end_to_end(plain, setup_times)
        problems = []
        ledger = plain
    if consistency is not None:
        problems += consistency(ops, plain.summaries())
    report(args.workload, args.seed, passes, wall, ledger, metrics, wall_clock, problems)
    result = {
        "correct": not (ledger.wrong or plain.wrong or problems),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out to confirm claimed gains)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} source tree at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
