"""The benchmark's checks pass on real replies and catch a one-unit fault.

Run from the repository root:  python -m pytest servebench -q

A tiny workload is generated, its requests are answered by dpquery
in-process, and each check is shown to fail once a reply is altered by one
unit or one element.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import client  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from reference import SpeedTrack  # noqa: E402
from workloads import Column, QueryKind, Workload  # noqa: E402

TINY = Workload(
    name="tiny",
    index=9,
    rows=20_000,
    members=3_000,
    columns=(
        Column("item", 300, 1.0),
        Column("title", 60, 0.9, delta=2),
        Column("country", 20, 0.8, known=True),
        Column("seniority", 5, 0.5, known=True, delta=1),
    ),
    queries=(
        QueryKind("item", 0.3, (10, 20), "country", 0.5, 4),
        QueryKind("title", 0.2, (10, 20), "country", 0.5, 4),
        QueryKind("country", 0.15, (10, 16), "seniority", 0.5, 3),
        QueryKind("seniority", 0.15, (2, 4), "country", 0.5, 3),
    ),
    get_budget=0.2,
    ping=0.02,
    analysts=12,
    heavy=4,
    heavy_share=0.3,
    history_queries=3,
    heavy_history_queries=20,
)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Inputs, 400 ops, and the replies dpquery gives them."""
    mp = pytest.MonkeyPatch()
    mp.setitem(workloads.WORKLOADS, "tiny", TINY)
    try:
        inputs = workloads.inputs("tiny", 5, tmp_path_factory.mktemp("cache"))
        stream = client.OpStream(inputs, 0)
        ops = [stream.next() for _ in range(400)]
        done = layers.run_pass(inputs, ops, SpeedTrack(), full=False)
        replies = [json.loads(r) for r in done["replies"]]
        yield inputs, ops, replies
    finally:
        mp.undo()


def flagged(run, replies) -> checks.Findings:
    inputs, ops, _ = run
    found = checks.Findings()
    checks.check_run(inputs, ops, replies, found)
    return found


def first(run, pred) -> int:
    _, ops, replies = run
    return next(i for i, (op, r) in enumerate(zip(ops, replies)) if pred(op, r))


def admitted(mechanism: str):
    return lambda op, r: op.kind == "query" and r.get("mechanism") == mechanism and r["entries"]


def altered(run, index: int, change) -> list[dict]:
    replies = copy.deepcopy(run[2])
    change(replies[index])
    return replies


def test_real_replies_pass(run):
    inputs, ops, replies = run
    found = flagged(run, replies)
    assert found.ok, (list(found.bad.items())[:3], found.general)
    kinds = {(op.kind, r.get("status"), r.get("reason"), r.get("mechanism")) for op, r in zip(ops, replies)}
    for need in [("query", "rejected", "budget_exhausted", None), ("query", "rejected", "insufficient_for_query", None),
                 ("get_budget", "ok", None, None)] + [("query", "ok", None, m) for m in
                 ("known_laplace", "known_topk", "unknown_laplace", "unknown_topk")]:
        assert need in kinds, need


@pytest.mark.parametrize("field", ["cost_charged", "budget_remaining"])
def test_replay_catches_a_charge_off_by_one(run, field):
    i = first(run, lambda op, r: op.kind == "query" and r["status"] == "ok")
    replies = altered(run, i, lambda r: r[field].update(info=r[field]["info"] + 1))
    assert i in flagged(run, replies).bad


def test_replay_catches_a_wrong_refusal_reason(run):
    i = first(run, lambda op, r: r.get("reason") == "insufficient_for_query")
    replies = altered(run, i, lambda r: r.update(reason="budget_exhausted"))
    assert i in flagged(run, replies).bad


def test_replay_catches_an_admission_that_should_be_refused(run):
    i = first(run, lambda op, r: r.get("status") == "rejected")
    j = first(run, lambda op, r: op.kind == "query" and r["status"] == "ok")
    replies = altered(run, i, lambda r: (r.clear(), r.update(copy.deepcopy(run[2][j]))))
    assert i in flagged(run, replies).bad


def test_replay_catches_a_budget_read_off_by_one(run):
    i = first(run, lambda op, r: op.kind == "get_budget")
    replies = altered(run, i, lambda r: r["used"].update(calls=r["used"]["calls"] + 1))
    assert i in flagged(run, replies).bad


def test_brute_force_catches_a_shown_count_off_by_one(run):
    i = first(run, admitted("unknown_topk"))
    replies = altered(run, i, lambda r: r["entries"][0].__setitem__(1, r["entries"][0][1] + 1))
    assert i in flagged(run, replies).bad


def test_brute_force_catches_a_value_past_the_tail_bound(run):
    inputs, ops, _ = run
    i = first(run, admitted("known_topk"))
    col = inputs.workload.column(ops[i].query.group_by)
    exact = checks.Exact(inputs).counts(ops[i].query)

    def push(r):
        name = r["entries"][0][0]
        far = exact[checks.code_of(col, name)] + checks.laplace_scale(col) * math.log(1 / checks.P_TAIL) + 1
        r["noisy_values"][0] = far
        r["entries"][0][1] = max(0, round(far))

    assert i in flagged(run, altered(run, i, push)).bad


def test_brute_force_catches_a_missing_domain_value(run):
    i = first(run, admitted("known_laplace"))
    replies = altered(run, i, lambda r: (r["entries"].pop(), r["noisy_values"].pop()))
    assert i in flagged(run, replies).bad


def test_brute_force_catches_a_repeated_top_k_value(run):
    i = first(run, lambda op, r: admitted("known_topk")(op, r) and len(r["entries"]) > 1)
    replies = altered(run, i, lambda r: r["entries"][1].__setitem__(0, r["entries"][0][0]))
    assert i in flagged(run, replies).bad


def test_brute_force_catches_an_element_absent_under_the_filter(run):
    inputs, ops, _ = run
    i = first(run, lambda op, r: admitted("unknown_topk")(op, r) and op.query.filter)
    counts = checks.Exact(inputs).counts(ops[i].query)
    col = inputs.workload.column(ops[i].query.group_by)
    absent = col.value(int(next(c for c in range(col.n_values) if counts[c] == 0)))
    replies = altered(run, i, lambda r: r["entries"][0].__setitem__(0, absent))
    assert i in flagged(run, replies).bad


def test_brute_force_catches_a_value_at_the_threshold(run):
    i = first(run, admitted("unknown_laplace"))

    def lower(r):
        r["noisy_values"][-1] = r["threshold_value"]
        r["entries"][-1][1] = max(0, round(r["threshold_value"]))

    assert i in flagged(run, altered(run, i, lower)).bad


def test_determinism_catches_a_repeat_that_differs(run):
    _, ops, replies = run
    seen = {}
    for i, (op, r) in enumerate(zip(ops, replies)):
        if op.kind == "query" and r["status"] == "ok" and r["noisy_values"]:
            if op.query.qid in seen:
                break
            seen[op.query.qid] = i
    else:
        pytest.fail("no repeated query")
    replies = altered(run, i, lambda r: r["noisy_values"].__setitem__(0, math.nextafter(r["noisy_values"][0], math.inf)))
    assert i in flagged(run, replies).bad


def test_durability_catches_a_lost_unit(run):
    inputs, ops, replies = run
    used = checks.check_run(inputs, ops, replies, checks.Findings())
    after = {a: checks.budget_reply(a, u) for a, u in used.items()}
    found = checks.Findings()
    checks.check_durability(used, after, found)
    assert found.ok
    analyst = next(a for a, u in used.items() if u[0] > 0)
    after[analyst]["used"]["info"] -= 1
    checks.check_durability(used, after, found)
    assert not found.ok
