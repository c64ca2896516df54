"""The traced run: the socket run's requests, replayed through QueryService
in-process with spans around each layer's public entry points.

The spans are recorded from the benchmark's own code, by wrapping the
entry points for the length of a pass and putting them back afterwards.
They stay in memory until the pass ends.  A second pass with only
``QueryService.execute`` wrapped gives the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from reference import SpeedTrack
from workloads import Inputs, read_journal

MECHANISMS = ("lap_known", "exp_known", "lap_unknown", "gumbel_unknown")
NOISE_METHODS = ("labeled_laplace", "labeled_gumbel", "indexed_gumbel", "single_laplace", "single_gumbel")


def _n_labels(args, result) -> int:
    return len(args[2])  # (self, role, labels or indices, scale)


class Tracer:
    """Spans as [name, start, end, parent span, op index, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str | None = None, count=None) -> None:
        inner = getattr(owner, attr)
        spans, stack, tracer = self.spans, self._stack, self
        label = name or attr

        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, inner))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)


def install(tracer: Tracer, full: bool) -> None:
    from dpquery import budget, noise, service, store

    tracer.wrap(service.QueryService, "execute")
    if not full:
        return
    tracer.wrap(service.QueryService, "classify")
    tracer.wrap(store.Table, "top_counts", count=lambda args, result: len(result.entries))
    tracer.wrap(store.Table, "group_counts")
    for name in (*MECHANISMS, "rank_histogram", "canonical_query", "derive_seed", "load_snapshot"):
        tracer.wrap(service, name)
    for name in NOISE_METHODS:
        tracer.wrap(noise.KeyedNoise, name, f"noise.{name}",
                    count=_n_labels if name.startswith(("labeled", "indexed")) else (lambda a, r: 1))
    for name in ("try_reserve", "settle", "release", "get_budget"):
        tracer.wrap(budget.BudgetLedger, name)
    tracer.wrap(budget.BudgetLedger, "__init__", "ledger_init")


def dispatch(svc, request: dict) -> dict:
    """What the socket front end does with one request line, in-process."""
    from dpquery.service import QuerySpec

    op = request.get("op", "query")
    if op == "ping":
        return {"status": "ok", "pong": True}
    if op == "get_budget":
        rec = svc.ledger.get_budget(request["analyst_id"])
        return {"status": "ok", "analyst_id": rec.analyst_id,
                "max": {"info": rec.max_info, "calls": rec.max_calls},
                "used": {"info": rec.used_info, "calls": rec.used_calls}}
    spec = QuerySpec(analyst_id=request["analyst_id"], table=request["table"], group_by=request["group_by"],
                     k=request["k"], filter=request.get("filter"))
    return svc.execute(spec).to_dict()


def encode(reply: dict) -> bytes:
    return json.dumps(reply, sort_keys=True, separators=(",", ":")).encode()


@contextmanager
def traced(full: bool):
    tracer = Tracer()
    install(tracer, full)
    try:
        yield tracer
    finally:
        tracer.unwrap()


def run_pass(inputs: Inputs, ops, speed: SpeedTrack, full: bool) -> dict:
    """Replay ``ops`` in-process on the restored state dir.

    Returns the tracer, the replies (encoded as the server encodes them), the
    journal records found at start and the journal bytes the pass appended."""
    from dpquery.config import load_config
    from dpquery.service import service_from_config

    inputs.restore_state()
    journal = inputs.state_dir / "budget.journal"
    records = len(read_journal(journal))
    replies: list[bytes] = []
    with traced(full) as tracer:
        speed.sample()
        svc = service_from_config(load_config(inputs.config))
        speed.sample()
        size = journal.stat().st_size
        try:
            for i, op in enumerate(ops):
                speed.maybe_sample()
                tracer.op = i
                replies.append(encode(dispatch(svc, json.loads(op.payload))))
            tracer.op = -1
            appended = journal.stat().st_size - size
        finally:
            svc.close()
    return {"tracer": tracer, "replies": replies, "records": records, "appended": appended}


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(inputs: Inputs, ops, replies: list[dict], traced_pass: dict, plain_pass: dict,
                  ping_ms: list[float], speed: SpeedTrack) -> dict[str, float]:
    """Per-layer figures from the spans of the two passes, scaled."""
    spans = traced_pass["tracer"].spans
    dur = [(s[2] - s[1]) * speed.factor(s[1]) for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ms(name: str, keep=lambda i: True) -> list[float]:
        return [dur[i] * 1e3 for i, s in enumerate(spans) if s[0] == name and keep(i)]

    def self_ms(name: str) -> list[float]:
        return [(dur[i] - child[i]) * 1e3 for i, s in enumerate(spans) if s[0] == name]

    ran = {i for i, (op, r) in enumerate(zip(ops, replies)) if op.kind == "query" and r.get("status") == "ok"}
    keyed = defaultdict(float)
    seed = defaultdict(float)
    draws = 0
    for i, s in enumerate(spans):
        if s[0].startswith("noise."):
            keyed[s[4]] += dur[i]
            draws += s[5]
        elif s[0] in ("canonical_query", "derive_seed"):
            seed[s[4]] += dur[i]
    keyed_total = sum(keyed.values())

    fetched = [i for i, s in enumerate(spans) if s[0] == "top_counts"]

    def unfiltered(i: int) -> bool:
        return not ops[spans[i][4]].query.filter

    ranks = sum(spans[i][5] for i in fetched)
    released = sum(len(replies[i]["entries"]) for i in ran if not inputs.workload.column(ops[i].query.group_by).known)
    n_queries = sum(op.kind == "query" for op in ops)
    untraced = [(s[2] - s[1]) * speed.factor(s[1]) * 1e3 for s in plain_pass["tracer"].spans if s[0] == "execute"]
    execute = _p50(ms("execute"))

    return {
        "store.load_snapshot_s": _p50(ms("load_snapshot")) / 1e3,
        "store.top_counts_unfiltered_ms": _p50(ms("top_counts", unfiltered)),
        "store.top_counts_filtered_ms": _p50(ms("top_counts", lambda i: not unfiltered(i))),
        "store.group_counts_ms": _p50(ms("group_counts", lambda i: spans[i][3] < 0 or spans[spans[i][3]][0] != "top_counts")),
        "store.ranks_fetched": ranks / len(fetched) if fetched else 0.0,
        "noise.seed_ms": _p50([seed[i] * 1e3 for i in ran]),
        "noise.draws": draws / len(ran) if ran else 0.0,
        "noise.keyed_ms": _p50([keyed[i] * 1e3 for i in ran]),
        "noise.draw_us": keyed_total / draws * 1e6 if draws else 0.0,
        "mechanisms.rank_histogram_ms": _p50(ms("rank_histogram")),
        **{f"mechanisms.{m}_self_ms": _p50(self_ms(m)) for m in MECHANISMS},
        "mechanisms.released_per_fetched": released / ranks if ranks else 0.0,
        "budget.recover_s": _p50(ms("ledger_init")) / 1e3,
        "budget.journal_records_recovered": float(traced_pass["records"]),
        "budget.try_reserve_ms": _p50(ms("try_reserve")),
        "budget.settle_ms": _p50(ms("settle")),
        "budget.get_budget_ms": _p50(ms("get_budget")),
        "budget.journal_bytes_per_query": traced_pass["appended"] / n_queries if n_queries else 0.0,
        "service.execute_ms": execute,
        "service.execute_self_ms": _p50(self_ms("execute")),
        "service.ping_ms": _p50(ping_ms),
        "service.execute_untraced_ms": _p50(untraced),
        "service.tracing_overhead_ms": execute - _p50(untraced),
    }


def spans_file(path: Path, tracer: Tracer) -> None:
    """Write the spans of a pass, one JSON array per line."""
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")

