#!/usr/bin/env python3
"""Serving benchmark for dpquery: a closed-loop client against ``dpquery serve``.

    python3 servebench/run.py --workload unknown_topk --seed 1 --seconds 15 --trace 0
    python3 servebench/run.py --workload ledger_churn --seed 1 --rebuild-inputs

With ``--trace 0`` it starts the server several times (set-up time), drives
it for ``--seconds`` and reports the end-to-end metrics; then it SIGKILLs
the server, restarts it on the same state dir and reads every budget back.
With ``--trace 1`` it drives the server the same way once, then replays the
same requests in-process with spans around each layer and reports the
per-layer metrics.  Every reply is checked in both modes.  The last line of
standard output is the result as JSON; the lines before it give the raw
(unscaled) figures, the median reference time and the per-op counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import client  # noqa: E402
import workloads  # noqa: E402
from reference import SpeedTrack  # noqa: E402

SETUP_STARTS = 3  # set-up time is the median of this many starts
WARMUP_S = 1.0  # untimed closed-loop traffic before the timed phase
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "query_p50_ms": "ms", "query_p90_ms": "ms",
    "throughput_qps": "1/s", "reject_p50_ms": "ms", "budget_read_p50_ms": "ms",
}
LAYER_UNITS = {
    "store.load_snapshot_s": "s", "store.top_counts_unfiltered_ms": "ms", "store.top_counts_filtered_ms": "ms",
    "store.group_counts_ms": "ms", "store.ranks_fetched": "count/query", "noise.seed_ms": "ms",
    "noise.draws": "count/query", "noise.keyed_ms": "ms/query", "noise.draw_us": "us/draw",
    "mechanisms.rank_histogram_ms": "ms", "mechanisms.gumbel_unknown_self_ms": "ms",
    "mechanisms.lap_unknown_self_ms": "ms", "mechanisms.lap_known_self_ms": "ms",
    "mechanisms.exp_known_self_ms": "ms", "mechanisms.released_per_fetched": "ratio",
    "budget.recover_s": "s", "budget.journal_records_recovered": "count", "budget.try_reserve_ms": "ms",
    "budget.settle_ms": "ms", "budget.get_budget_ms": "ms", "budget.journal_bytes_per_query": "bytes",
    "service.execute_ms": "ms", "service.execute_self_ms": "ms", "service.ping_ms": "ms",
    "service.execute_untraced_ms": "ms", "service.tracing_overhead_ms": "ms",
}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


class Run:
    """The socket phase of one run and what it measured."""

    def __init__(self, inputs: workloads.Inputs, speed: SpeedTrack):
        self.inputs = inputs
        self.speed = speed
        self.setups: list[float] = []
        self.ops: list[client.Op] = []
        self.rounds: list[client.Round] = []
        self.error: str | None = None
        self.rss_mb = 0.0

    def serve(self, seconds: float, starts: int) -> None:
        """Start the server ``starts`` times and drive the last one, which is
        SIGKILLed right after the timed phase."""
        for n in range(starts):
            self.inputs.restore_state()
            server, took = client.start(ROOT, self.inputs, self.inputs.dir / f"server{n}.log")
            self.setups.append(took)
            if n < starts - 1:
                server.kill()
        streams = [client.OpStream(self.inputs, c) for c in range(self.inputs.workload.connections)]
        try:
            self.ops, self.rounds, self.error = client.drive(server.address, streams, WARMUP_S, seconds, self.speed)
        finally:
            self.rss_mb = server.kill()

    def replies(self) -> list[dict | None]:
        return [json.loads(op.reply) if op.reply is not None else None for op in self.ops]

    def latencies(self, replies, kind: str, status: str | None = None, scaled: bool = True) -> list[float]:
        return [(op.received - op.sent) * 1e3 * (self.speed.factor(op.sent) if scaled else 1.0)
                for op, r in zip(self.ops, replies)
                if op.timed and op.kind == kind and (status is None or r.get("status") == status)]

    def metrics(self, replies, scaled: bool) -> dict[str, float]:
        f = (lambda t: self.speed.factor(t)) if scaled else (lambda t: 1.0)
        answered = self.latencies(replies, "query", "ok", scaled)
        phase = sum((r.end - r.start) * f(r.start) for r in self.rounds)
        queries = sum(op.kind == "query" for r in self.rounds for op in r.ops)
        return {
            "setup_s": statistics.median(self.setups) * (self.speed.run_factor() if scaled else 1.0),
            "peak_rss_mb": self.rss_mb,
            "query_p50_ms": _pct(answered, 50),
            "query_p90_ms": _pct(answered, 90),
            "throughput_qps": queries / phase if phase else 0.0,
            "reject_p50_ms": _pct(self.latencies(replies, "query", "rejected", scaled), 50),
            "budget_read_p50_ms": _pct(self.latencies(replies, "get_budget", None, scaled), 50),
        }


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def check(run: Run, replies) -> tuple[checks.Findings, dict[str, list[int]]]:
    found = checks.Findings()
    for i, (op, r) in enumerate(zip(run.ops, replies)):
        if r is None:
            found.fail(i, "no reply")
        elif r.get("status") == "error":
            found.fail(i, f"error reply: {r.get('error')}")
    used = checks.check_run(run.inputs, run.ops, replies, found)
    if run.error:
        found.general.append(run.error)
    return found, used


def summary(run: Run, found: checks.Findings) -> tuple[int, int]:
    """Print attempted/failed per op type; return the totals."""
    per: dict[str, list[int]] = {}
    for i, op in enumerate(run.ops):
        slot = per.setdefault(op.kind, [0, 0])
        slot[0] += 1
        slot[1] += i in found.bad
    print("ops " + " ".join(f"{k}={a}/{f}" for k, (a, f) in sorted(per.items())) + " (attempted/failed)")
    for i, why in list(found.bad.items())[:10]:
        log(f"op {i} ({run.ops[i].kind}, {run.ops[i].analyst}): {why}")
    for why in found.general:
        log(why)
    return len(run.ops), len(found.bad)


def serve_run(inputs: workloads.Inputs, seconds: float) -> dict:
    speed = SpeedTrack()
    run = Run(inputs, speed)
    run.serve(seconds, SETUP_STARTS)
    replies = run.replies()
    found, used = check(run, replies)
    # Durability: the killed server's state dir, as it was left, restarted.
    server = client.Server(ROOT, inputs, inputs.dir / "restart.log")
    try:
        after = client.read_budgets(server.address, sorted(used))
    finally:
        server.kill()
    checks.check_durability(used, after, found)
    attempted, failed = summary(run, found)
    metrics = run.metrics(replies, scaled=True)
    print("raw " + json.dumps({k: round(v, 4) for k, v in run.metrics(replies, scaled=False).items()}))
    print(f"reference median {speed.median() * 1e3:.4f} ms over {len(speed.took)} timings;"
          f" answered queries {len(run.latencies(replies, 'query', 'ok'))}")
    return {"correct": found.ok, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


def trace_run(inputs: workloads.Inputs, seconds: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import layers

    speed = SpeedTrack()
    run = Run(inputs, speed)
    run.serve(seconds, 1)
    replies = run.replies()
    found, _ = check(run, replies)
    plain = layers.run_pass(inputs, run.ops, speed, full=False)
    traced = layers.run_pass(inputs, run.ops, speed, full=True)
    for name, p in (("untraced", plain), ("traced", traced)):
        for i, (op, got) in enumerate(zip(run.ops, p["replies"])):
            if op.reply is not None and got != op.reply:
                found.fail(i, f"the in-process {name} reply differs from the socket reply")
    layers.spans_file(inputs.dir / "spans.ndjson", traced["tracer"])
    attempted, failed = summary(run, found)
    ping_ms = run.latencies(replies, "ping")
    metrics = layers.layer_metrics(inputs, run.ops, replies, traced, plain, ping_ms, speed)
    print(f"reference median {speed.median() * 1e3:.4f} ms over {len(speed.took)} timings;"
          f" spans {len(traced['tracer'].spans)} in {inputs.dir / 'spans.ndjson'}")
    return {"correct": found.ok, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rebuild-inputs", action="store_true",
                        help="regenerate the workload's inputs for this seed and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dpquery" / "cli.py").is_file():
        log(f"no dpquery source under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    inputs = workloads.inputs(args.workload, args.seed, CACHE, rebuild=args.rebuild_inputs)
    if args.rebuild_inputs:
        print(inputs.dir)
        return 0
    # The client, the reference and the server (which inherits this)
    # share one CPU, so the loop measures the speed of the CPU serving.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = trace_run(inputs, args.seconds) if args.trace else serve_run(inputs, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
