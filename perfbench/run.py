"""The repository benchmark: the real ``simulate`` path, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

For one workload the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics and ``--trace 1`` the per-layer ledger.  The exit
code is non-zero when any correctness check fails.  The workloads in
``workloads.json`` are fixed, so ``--seed`` only labels the run.
``README.md`` in this directory documents the workloads and every metric.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from statistics import median

from measure import (
    MIN_SAMPLES_BEYOND,
    ledger_difference,
    ledger_within_slack,
    median_composed,
    samples_beyond,
    summarize,
    window_durations,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

#: Hard stop for one invocation; repetitions end early to stay under it.
TIME_LIMIT_S = 165.0

#: Percentile of the notification and read tails: the highest with at
#: least ``MIN_SAMPLES_BEYOND`` samples beyond it on every workload
#: (``cold-shm`` delivers about 2.3k notifications per repetition).
TAIL = 99.0

#: Share of the reference ledger's rows by which a repetition's delivered
#: multiset may differ.  Measured wall time leaks into virtual time, so
#: identical repetitions may differ slightly; see README.md for the
#: differences measured.
LEDGER_SLACK = 0.02

#: Slices of equal event counts a run is cut into (see ``aggregate``).
WINDOWS = 64

#: A traced run fails when more of its wall time than this is unattributed.
MAX_UNATTRIBUTED_SHARE = 0.10

END_TO_END = (
    ("events_per_s", "events/s"),
    ("notify_p50_s", "s"),
    ("notify_p99_s", "s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("cluster.submit_s", "s"),
    ("cluster.gather_s", "s"),
    ("cluster.calls", "count"),
    ("cluster.events_per_call", "events"),
    ("cluster.candidates", "count"),
    ("streaming.coalescer_self_s", "s"),
    ("streaming.consumer_self_s", "s"),
    ("streaming.publish_s", "s"),
    ("streaming.publishes", "count"),
    ("sim.des_self_s", "s"),
    ("delivery.rank_offer_s", "s"),
    ("delivery.rank_flush_s", "s"),
    ("delivery.funnel_s", "s"),
    ("delivery.offered", "count"),
    ("delivery.released", "count"),
    ("delivery.delivered", "count"),
    ("delivery.delivered_ratio", "fraction"),
    ("serving.ingest_s", "s"),
    ("serving.rows_ingested", "count"),
    ("serving.read_s", "s"),
    ("serving.reads", "count"),
    ("serving.hit_ratio", "fraction"),
    ("trace.unattributed_share", "fraction"),
    ("trace.overhead_ratio", "ratio"),
)

#: Printed for the workloads that run the layer; not in the JSON line,
#: because they are undefined on some workload.
PER_LAYER_PARTIAL = (
    ("durability.log_batch_s", "s"),
    ("durability.snapshot_s", "s"),
    ("durability.snapshots", "count"),
    ("durability.wal_bytes_per_event", "B/event"),
    ("cluster.wire_overhead_ratio", "ratio"),
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def generate_inputs(config: dict, workload: dict, work: Path):
    """Write the graph ``.npz`` and stream ``.csv``; return the stream rows.

    Both come from the fixed generator seeds in ``workloads.json``.
    """
    from repro.gen.graph_gen import TwitterGraphConfig, generate_follow_graph
    from repro.gen.stream_gen import BurstSpec, StreamConfig, generate_event_stream

    graph = config["graph"]
    snapshot = generate_follow_graph(
        TwitterGraphConfig(
            num_users=graph["num_users"],
            mean_followings=graph["mean_followings"],
            seed=graph["seed"],
        )
    )
    graph_path = work / "graph.npz"
    snapshot.save(graph_path)

    stream = workload["stream"]
    users = graph["num_users"]
    duration = stream["duration"]
    count = stream["bursts"]
    events = generate_event_stream(
        StreamConfig(
            num_users=users,
            duration=duration,
            background_rate=stream["background_rate"],
            target_popularity_exponent=stream["target_popularity_exponent"],
            bursts=tuple(
                # The generate-stream CLI's burst layout.
                BurstSpec(
                    target=users - 1 - i,
                    start=duration * (i + 0.5) / (count + 1),
                    duration=duration / (count + 2),
                    num_actors=stream["burst_actors"],
                )
                for i in range(count)
            ),
            seed=stream["seed"],
        )
    )
    rows = [
        (f"{e.created_at:.6f}", e.actor, e.target, e.action.value) for e in events
    ]
    stream_path = work / "stream.csv"
    with open(stream_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["created_at", "actor", "target", "action"])
        writer.writerows(rows)
    return graph_path, stream_path, rows


def oracle_candidates(graph_path: Path, arrays, detection: dict) -> int:
    """Candidates one single-process engine detects on the same input.

    The topology's queue hops reorder events, and detection depends on
    the order events reach D and on the processing time, so the oracle
    replays exactly the calls the cluster received (same events, same
    grouping, same processing time) through one :class:`MotifEngine`:
    no partitions, no wire, no gather.
    """
    from repro.core.batch import EventBatch
    from repro.core.engine import MotifEngine
    from repro.core.events import ActionType, EdgeEvent
    from repro.core.params import DetectionParams
    from repro.graph.snapshot import GraphSnapshot

    engine = MotifEngine.from_snapshot(
        GraphSnapshot.load(graph_path),
        DetectionParams(k=detection["k"], tau=detection["tau"]),
        track_latency=False,
    )
    events = [
        EdgeEvent(float(t), int(a), int(c), ActionType(x))
        for t, a, c, x in zip(
            arrays["created_at"].tolist(), arrays["actor"].tolist(),
            arrays["target"].tolist(), arrays["action"].tolist(),
        )
    ]
    calls = arrays["call"].tolist()
    nows = arrays["now"].tolist()
    total = 0
    start = 0
    while start < len(events):
        stop = start + 1
        while stop < len(events) and calls[stop] == calls[start]:
            stop += 1
        batch = EventBatch.from_events(events[start:stop])
        total += sum(map(len, engine.process_batch_grouped(batch, now=nows[start])))
        start = stop
    return total


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------

def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro_shm_")}
    except FileNotFoundError:
        return set()


def tree_rss_kb(pid: int) -> int:
    """Resident memory of *pid* and all its descendants, in KiB."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def read_ledger(path: Path) -> tuple[Counter, list[float]]:
    """The delivered multiset and the per-row notification latency."""
    ledger: Counter = Counter()
    latencies: list[float] = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            ledger[(row["recipient"], row["candidate"], row["created_at"])] += 1
            latencies.append(float(row["delivered_at"]) - float(row["created_at"]))
    return ledger, latencies


def run_rep(argv_template: list[str], work: Path, index: int, paths: dict,
            trace: bool, timeout: float) -> dict:
    """Run one fresh CLI process; return its raw measurements."""
    import numpy as np

    rep_dir = work / f"rep{index}"
    rep_dir.mkdir()
    fill = {
        "graph": str(paths["graph"]),
        "stream": str(paths["stream"]),
        "delivered": str(rep_dir / "delivered.csv"),
        "wal": str(rep_dir / "wal"),
    }
    spec = {
        "src": str(SRC),
        "argv": [arg.format(**fill) for arg in argv_template],
        "trace": trace,
        "arrays": str(rep_dir / "arrays.npz"),
        "result": str(rep_dir / "result.json"),
    }
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    segments_before = shm_segments()
    peak = [0]
    spawned = time.monotonic()
    with open(rep_dir / "stderr.txt", "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path)],
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            env=env,
        )

        def sample() -> None:
            while proc.poll() is None:
                peak[0] = max(peak[0], tree_rss_kb(proc.pid))
                time.sleep(0.05)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            code = proc.wait(timeout=timeout)
        except BaseException:
            # Timed out or interrupted: SIGINT lets the CLI close its
            # workers and shared memory on the way out.
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise
        finally:
            sampler.join()
    rep = {
        "code": code,
        "leaked_segments": sorted(shm_segments() - segments_before),
        "peak_rss_mb": peak[0] / 1024.0,
        "stderr": (rep_dir / "stderr.txt").read_text()[-2000:],
    }
    if code != 0 or not Path(spec["result"]).exists():
        return rep
    result = json.loads(Path(spec["result"]).read_text())
    rep.update(result)
    rep["setup_s"] = result["first_event_monotonic"] - spawned
    rep["events_per_s"] = result["events_ingested"] / result["run_wall_s"]
    with np.load(spec["arrays"]) as arrays:
        rep["arrays"] = {name: arrays[name] for name in arrays.files}
    rep["ledger"], rep["latencies"] = read_ledger(Path(fill["delivered"]))
    return rep


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------

class Checks:
    """Failed correctness checks, each one counted as a failed operation."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def check_rep(rep: dict, label: str, rows: list, oracle, reference: dict | None,
              checks: Checks) -> None:
    if "arrays" not in rep:
        checks.expect(False, f"{label}: exit code {rep['code']}: {rep['stderr']}")
        return
    arrays = rep["arrays"]
    checks.expect(
        rep["events_ingested"] == len(rows),
        f"{label}: ingested {rep['events_ingested']} of {len(rows)} events",
    )
    seen = sorted(
        zip(
            (f"{t:.6f}" for t in arrays["created_at"].tolist()),
            arrays["actor"].tolist(),
            arrays["target"].tolist(),
            arrays["action"].tolist(),
        )
    )
    checks.expect(seen == sorted(rows), f"{label}: detection saw other events than the stream")
    expected = oracle(arrays)
    checks.expect(
        rep["candidates_detected"] == expected,
        f"{label}: {rep['candidates_detected']} candidates detected, oracle {expected}",
    )
    checks.expect(
        rep["shard_lost_candidates"] == 0,
        f"{label}: {rep['shard_lost_candidates']} candidates lost with a delivery shard",
    )
    checks.expect(
        rep["queries_issued"] > 0 and len(arrays["reads_ns"]) == rep["queries_issued"],
        f"{label}: {len(arrays['reads_ns'])} reads answered of {rep['queries_issued']} issued",
    )
    for what, count in (
        ("notifications", len(rep["latencies"])),
        ("reads", len(arrays["reads_ns"])),
    ):
        checks.expect(
            count and samples_beyond(TAIL, count) >= MIN_SAMPLES_BEYOND,
            f"{label}: {count} {what} leave fewer than {MIN_SAMPLES_BEYOND} "
            f"samples beyond p{TAIL}",
        )
    checks.expect(
        min(rep["latencies"], default=0.0) >= 0.0,
        f"{label}: a notification was delivered before its edge was created",
    )
    checks.expect(
        not rep["leaked_segments"],
        f"{label}: shared-memory segments left behind: {rep['leaked_segments']}",
    )
    if reference is not None:
        missing, unexpected = ledger_difference(reference["ledger"], rep["ledger"])
        rep["ledger_diff"] = (missing, unexpected)
        checks.expect(
            ledger_within_slack(reference["ledger"], rep["ledger"], LEDGER_SLACK),
            f"{label}: delivered ledger differs from the reference by {missing} "
            f"missing + {unexpected} unexpected rows (slack {LEDGER_SLACK:.1%} of "
            f"{sum(reference['ledger'].values())})",
        )


def aggregate(reps: list[dict]) -> dict[str, float]:
    """End-to-end metrics of repetitions that all did the same work.

    Wall-clock figures are composed unit by unit: the run is cut into
    ``WINDOWS`` slices of equal event counts and each read is one unit;
    each unit's time is the median across repetitions.  Noise bursts on
    a shared host then drop out instead of landing in whole repetitions.
    """
    import numpy as np

    windows = [
        window_durations(
            rep["arrays"]["call_wall"].tolist(),
            np.bincount(rep["arrays"]["call"]).tolist(),
            rep["run_wall_s"],
            WINDOWS,
        )
        for rep in reps
    ]
    wall = sum(median_composed(windows))
    reads_us = median_composed([(rep["arrays"]["reads_ns"] / 1e3).tolist() for rep in reps])
    reads = summarize(reads_us, TAIL)
    notify = [summarize(rep["latencies"], TAIL) for rep in reps]
    return {
        "events_per_s": reps[0]["events_ingested"] / wall,
        "notify_p50_s": median([n["p50"] for n in notify]),
        "notify_p99_s": median([n["tail"] for n in notify]),
        "notify_samples": median([n["n"] for n in notify]),
        "read_p50_us": reads["p50"],
        "read_p99_us": reads["tail"],
        "read_samples": reads["n"],
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }


def layer_metrics(rep: dict, untraced_eps: float) -> dict[str, float]:
    trace = rep["trace"]
    inclusive, self_time = trace["inclusive"], trace["self"]
    calls, counts = trace["calls"], trace["counts"]
    wall = inclusive["topology.run"]
    events = counts.get("cluster.events", 0)
    submits = calls.get("cluster.submit", 0)
    offered = counts.get("delivery.offered", 0)
    reads = counts.get("serving.reads", 0)
    metrics = {
        "cluster.submit_s": inclusive.get("cluster.submit", 0.0),
        "cluster.gather_s": inclusive.get("cluster.gather", 0.0),
        "cluster.calls": submits,
        "cluster.events_per_call": events / submits if submits else 0.0,
        "cluster.candidates": rep["candidates_detected"],
        "streaming.coalescer_self_s": self_time.get("streaming.coalescer", 0.0),
        "streaming.consumer_self_s": self_time.get("streaming.consumer", 0.0),
        "streaming.publish_s": inclusive.get("streaming.publish", 0.0),
        "streaming.publishes": counts.get("streaming.publishes", 0),
        "sim.des_self_s": self_time.get("sim.des", 0.0),
        "delivery.rank_offer_s": inclusive.get("delivery.rank_offer", 0.0),
        "delivery.rank_flush_s": inclusive.get("delivery.rank_flush", 0.0),
        "delivery.funnel_s": inclusive.get("delivery.funnel", 0.0),
        "delivery.offered": offered,
        "delivery.released": counts.get("delivery.released", 0),
        "delivery.delivered": counts.get("delivery.delivered", 0),
        "delivery.delivered_ratio": (
            counts.get("delivery.delivered", 0) / offered if offered else 0.0
        ),
        "serving.ingest_s": inclusive.get("serving.ingest", 0.0),
        "serving.rows_ingested": counts.get("serving.rows_ingested", 0),
        "serving.read_s": inclusive.get("serving.read", 0.0),
        "serving.reads": reads,
        "serving.hit_ratio": counts.get("serving.hits", 0) / reads if reads else 0.0,
        "trace.unattributed_share": self_time["topology.run"] / wall,
        "trace.overhead_ratio": rep["events_per_s"] / untraced_eps,
    }
    if "wal_bytes" in rep:
        metrics["durability.log_batch_s"] = inclusive.get("durability.log_batch", 0.0)
        metrics["durability.snapshot_s"] = inclusive.get("durability.snapshot", 0.0)
        metrics["durability.snapshots"] = rep["snapshots"]
        metrics["durability.wal_bytes_per_event"] = rep["wal_bytes"] / rep["events_ingested"]
    return metrics


def print_ledger(rep: dict) -> None:
    trace = rep["trace"]
    wall = trace["inclusive"]["topology.run"]
    print(f"  per-layer ledger of one traced run ({wall:.3f} s wall):")
    for name, seconds in sorted(trace["self"].items(), key=lambda item: -item[1]):
        label = "unattributed" if name == "topology.run" else f"{name} (self)"
        print(f"    {label:<32} {seconds:9.3f} s  {seconds / wall:6.1%}  "
              f"calls={trace['calls'][name]}")


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def run_workload(config: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = config["workloads"][name]
    started = time.monotonic()
    work = WORK / f"{name}-{os.getpid()}-{seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        graph_path, stream_path, rows = generate_inputs(config, workload, work)
        paths = {"graph": graph_path, "stream": stream_path}
        oracle_cache: dict[bytes, int] = {}

        def oracle(arrays) -> int:
            key = b"".join(
                arrays[k].tobytes() for k in ("call", "now", "created_at", "actor", "target")
            )
            if key not in oracle_cache:
                oracle_cache[key] = oracle_candidates(graph_path, arrays, config["detection"])
            return oracle_cache[key]

        baseline_argv = None
        if trace and "baseline_argv" in workload:
            swap = workload["baseline_argv"]
            argv = workload["argv"]
            baseline_argv = [
                swap[argv[i - 1]] if i and argv[i - 1] in swap else arg
                for i, arg in enumerate(argv)
            ]
        # Untraced repetitions measure.  A traced run alternates traced
        # and untraced ones (the overhead ratio needs both) and runs the
        # baseline, if the workload has one, once.
        if trace:
            first = ["main", "traced"] + (["baseline"] if baseline_argv else [])
            cycle = ["main", "traced"]
        else:
            first = cycle = ["main", "main"]
        reps: list[tuple[str, dict]] = []
        checks = Checks()
        reference = None
        index = 0
        while True:
            # Start another repetition only if it should end in time.
            elapsed = time.monotonic() - started
            longest = max((rep["wall"] for _, rep in reps), default=0.0)
            if index >= len(first) and (
                elapsed + longest > seconds or elapsed + longest > TIME_LIMIT_S
            ):
                break
            if index < len(first):
                kind = first[index]
            else:
                kind = cycle[(index - len(first)) % len(cycle)]
            argv = baseline_argv if kind == "baseline" else workload["argv"]
            rep_started = time.monotonic()
            rep = run_rep(argv, work, index, paths, kind == "traced", timeout=TIME_LIMIT_S)
            rep["wall"] = time.monotonic() - rep_started
            label = f"{name} repetition {index} ({kind})"
            failures_before = len(checks.failures)
            check_rep(rep, label, rows, oracle, reference, checks)
            rep["passed"] = len(checks.failures) == failures_before
            if reference is None and kind == "main" and rep["passed"]:
                reference = rep
            reps.append((kind, rep))
            index += 1
            if "arrays" not in rep:
                break

        main = [rep for kind, rep in reps if kind == "main" and rep["passed"]]
        traced = [rep for kind, rep in reps if kind == "traced" and rep["passed"]]
        baseline = [rep for kind, rep in reps if kind == "baseline" and rep["passed"]]
        attempted = sum(len(rows) + rep.get("queries_issued", 0) for _, rep in reps)
        operation_failures = sum(
            rep.get("events_shed", 0)
            + rep.get("partitions_lost_events", 0)
            + max(0, rep.get("queries_issued", 0) - len(rep.get("arrays", {}).get("reads_ns", ())))
            for _, rep in reps
        )
        metrics = aggregate(main) if main else {}
        layers: dict[str, float] = {}
        if traced and main:
            untraced_eps = median([rep["events_per_s"] for rep in main])
            per_traced = [layer_metrics(rep, untraced_eps) for rep in traced]
            layers = {key: median([m[key] for m in per_traced]) for key in per_traced[0]}
            checks.expect(
                layers["trace.unattributed_share"] < MAX_UNATTRIBUTED_SHARE,
                f"{name}: {layers['trace.unattributed_share']:.1%} of the traced wall "
                f"time is unattributed (limit {MAX_UNATTRIBUTED_SHARE:.0%})",
            )
            if baseline:
                # shm wall over inprocess wall on the same inputs.
                layers["cluster.wire_overhead_ratio"] = (
                    median([rep["events_per_s"] for rep in baseline]) / untraced_eps
                )
        failed = operation_failures + len(checks.failures)
        return {
            "workload": name,
            "seed": seed,
            "elapsed_s": time.monotonic() - started,
            "reps": reps,
            "metrics": metrics,
            "layers": layers,
            "attempted": max(1, attempted),
            "failed": failed,
            "failures": checks.failures,
            "correct": failed == 0 and bool(main) and (bool(traced) or not trace),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(outcome: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the contract's JSON object."""
    name = outcome["workload"]
    reps = outcome["reps"]
    main = [rep for kind, rep in reps if kind == "main" and rep["passed"]]
    metrics = outcome["metrics"]
    print(f"== {name} (seed {outcome['seed']}): {len(reps)} repetitions in "
          f"{outcome['elapsed_s']:.1f} s, {len(main)} untraced")
    for kind, rep in reps:
        if "arrays" in rep:
            print(f"  {kind:<8} run wall {rep['run_wall_s']:7.2f} s  "
                  f"{rep['events_ingested']} events  {rep['candidates_detected']} candidates  "
                  f"{rep['notifications']} delivered  setup {rep['setup_s']:.2f} s"
                  + ("  ledger vs reference: -{} +{}".format(*rep["ledger_diff"])
                     if "ledger_diff" in rep else "  (ledger reference)"))
    failed_ratio = outcome["failed"] / outcome["attempted"]
    if metrics:
        n = len(main)
        details = {
            "events_per_s": f"{WINDOWS} slices, per-slice median of {n} repetitions",
            "notify_p50_s": f"median of {n} repetitions, {metrics['notify_samples']:.0f} rows each",
            "read_p50_us": f"per-read median of {n} repetitions, {metrics['read_samples']} reads",
        }
        details["notify_p99_s"] = details["notify_p50_s"]
        details["read_p99_us"] = details["read_p50_us"]
        for key, unit in END_TO_END:
            detail = details.get(key, f"median of {n} repetitions")
            print(f"  {key:<32} {metrics[key]:14.6g} {unit:<9} ({detail})")
    print(f"  {'failed_ratio':<32} {failed_ratio:14.6g} {'fraction':<9} "
          f"({outcome['failed']} of {outcome['attempted']} operations)")
    traced = [rep for kind, rep in reps if kind == "traced" and rep["passed"]]
    if trace and outcome["layers"]:
        for key, unit in PER_LAYER + PER_LAYER_PARTIAL:
            if key in outcome["layers"]:
                print(f"  {key:<32} {outcome['layers'][key]:14.6g} {unit}")
        if traced:
            print_ledger(traced[0])
    for failure in outcome["failures"]:
        print(f"  CHECK FAILED: {failure}")
    print(f"  correct: {outcome['correct']}")
    chosen = PER_LAYER if trace else END_TO_END
    values = outcome["layers"] if trace else metrics
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            key: {"value": values[key], "unit": unit} for key, unit in chosen if key in values
        },
    }


def main(argv: list[str] | None = None) -> int:
    config = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *config["workloads"]])
    parser.add_argument("--seed", type=int, default=1,
                        help="run label; the workloads do not depend on it")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(config["workloads"]) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        outcome = run_workload(config, name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(outcome, bool(args.trace))
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
