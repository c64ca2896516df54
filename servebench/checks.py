"""Correctness checks on every reply, computed apart from the program.

- Budget replay: the README cost table, replayed from the sum of the
  restored journal, predicts every admission, refusal reason, charge,
  remaining budget and ``get_budget`` reply.
- Brute force: exact group-by counts from the generated rows bound every
  released value, and each mechanism's output has its documented shape.
- Determinism: one query gets one answer, whoever asks and however often.
- Durability: budgets read after a SIGKILL and restart equal the replay.

The checks record each rejected op's index with a reason in ``Findings``,
so that a failure names the operation.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from workloads import (
    EPS_PER,
    K_MULTIPLIER,
    MAX_CALLS,
    MAX_INFO,
    MIN_FETCH,
    Column,
    Inputs,
    Query,
    actual_cost,
    expected_cost,
    read_journal,
)

# A released value further than b*ln(1/P_TAIL) from the exact count, with b
# the Laplace scale of its mechanism, has probability below P_TAIL.
P_TAIL = 1e-12
TAU = 1


@dataclass
class Findings:
    bad: dict[int, str] = field(default_factory=dict)  # op index -> first reason
    general: list[str] = field(default_factory=list)  # failures not tied to one op

    def fail(self, index: int, reason: str) -> None:
        self.bad.setdefault(index, reason)

    @property
    def ok(self) -> bool:
        return not self.bad and not self.general


# -- exact answers --------------------------------------------------------------


class Exact:
    """Exact distinct-member counts per pool query, counted with numpy."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self._cache: dict[int, np.ndarray] = {}

    def counts(self, q: Query) -> np.ndarray:
        if q.qid not in self._cache:
            w = self.inputs.workload
            codes = self.inputs.codes
            mask = np.ones(w.rows, dtype=bool)
            for column, values in q.filter:
                mask &= np.isin(codes[column], [code_of(w.column(column), v) for v in values])
            n = w.column(q.group_by).n_values
            pairs = np.unique(codes[q.group_by][mask].astype(np.int64) * w.members + codes["member_id"][mask])
            self._cache[q.qid] = np.bincount(pairs // w.members, minlength=n)
        return self._cache[q.qid]

    def ranks(self, q: Query) -> np.ndarray:
        """1-based rank of each code: count descending, then id ascending."""
        counts = self.counts(q)
        order = np.lexsort((np.arange(len(counts)), -counts))
        rank = np.empty(len(counts), dtype=np.int64)
        rank[order] = np.arange(1, len(counts) + 1)
        return rank


def code_of(col: Column, element: str) -> int:
    """The code of a value name, or -1 when it is no value of the column."""
    suffix = element[len(col.name) :]
    if not element.startswith(col.name) or len(suffix) != 5 or not suffix.isdigit():
        return -1
    code = int(suffix)
    return code if code < col.n_values else -1


def fetch_size(k: int) -> int:
    return max(K_MULTIPLIER * k, MIN_FETCH)


def laplace_scale(col: Column) -> float:
    delta = col.delta if (col.delta is not None and not col.known) else 1
    return 2 * TAU * delta / EPS_PER


def check_release(col: Column, q: Query, reply: dict, exact: Exact) -> str | None:
    """Why an admitted reply cannot be a correct release, or None."""
    if reply.get("mechanism") != col.mechanism or reply.get("k") != q.k:
        return f"mechanism/k {reply.get('mechanism')}/{reply.get('k')}"
    entries, values = reply["entries"], reply["noisy_values"]
    if len(entries) != len(values):
        return "entries and noisy_values differ in length"
    names = [e for e, _ in entries]
    if len(set(names)) != len(names):
        return "an element is released twice"
    for (name, shown), value in zip(entries, values):
        if shown != max(0, round(value)):
            return f"{name}: shown count {shown} is not the rounded value {value}"
    codes = [code_of(col, n) for n in names]
    if any(c < 0 for c in codes):
        return "an element is not a value of the column"
    counts = exact.counts(q)
    tol = laplace_scale(col) * math.log(1 / P_TAIL)
    for name, code, value in zip(names, codes, values):
        if abs(value - counts[code]) > tol:
            return f"{name}: released {value} is {abs(value - counts[code]):.1f} from the exact {counts[code]}"
    truncated, threshold = reply["truncated"], reply["threshold_value"]
    if col.known:
        if truncated or threshold is not None:
            return "known-domain release with a threshold"
        if col.delta is not None:
            if codes != list(range(col.n_values)):
                return "lap_known does not cover exactly the declared domain"
        elif len(names) != q.k:
            return f"exp_known released {len(names)} values for k={q.k}"
        return None
    ranks = exact.ranks(q)
    for name, code in zip(names, codes):
        if counts[code] == 0:
            return f"{name} does not occur under the filter"
        if ranks[code] > fetch_size(q.k):
            return f"{name} ranks {ranks[code]}, past the fetch of {fetch_size(q.k)}"
    if col.delta is not None:  # lap_unknown
        if not truncated or threshold is None:
            return "lap_unknown without its threshold"
        if any(b > a for a, b in zip(values, values[1:])):
            return "lap_unknown values are not in descending order"
        if any(v <= threshold for v in values):
            return "a lap_unknown value does not exceed the threshold"
    else:  # gumbel_unknown
        if threshold is not None or len(names) > q.k or truncated != (len(names) < q.k):
            return "gumbel_unknown length, truncation or threshold is wrong"
    return None


# -- budget replay ----------------------------------------------------------------


def journal_usage(inputs: Inputs) -> dict[str, list[int]]:
    """[used_info, used_calls] per analyst: the sum of the restored journal."""
    used: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for analyst, info, calls, _ in read_journal(inputs.journal):
        used[analyst][0] += info
        used[analyst][1] += calls
    return used


def _cost(pair: tuple[int, int]) -> dict:
    return {"info": pair[0], "calls": pair[1]}


def _remaining(used: list[int]) -> dict:
    return {"info": MAX_INFO - used[0], "calls": MAX_CALLS - used[1]}


def budget_reply(analyst: str, used: list[int]) -> dict:
    return {"status": "ok", "analyst_id": analyst, "max": {"info": MAX_INFO, "calls": MAX_CALLS},
            "used": {"info": used[0], "calls": used[1]}}


def replay(inputs: Inputs, ops, replies: list[dict | None], found: Findings) -> dict[str, list[int]]:
    """Replay every op in order; return the final usage per analyst.

    Connections own disjoint analysts, so the order of ops on each
    connection fixes every analyst's history."""
    w = inputs.workload
    used = journal_usage(inputs)
    for i, (op, reply) in enumerate(zip(ops, replies)):
        if reply is None:
            continue
        if op.kind == "ping":
            if reply != {"status": "ok", "pong": True}:
                found.fail(i, "bad ping reply")
            continue
        u = used[op.analyst]
        if op.kind == "get_budget":
            if reply != budget_reply(op.analyst, u):
                found.fail(i, f"get_budget {reply} but the replay holds used={u}")
            continue
        col = w.column(op.query.group_by)
        exp = expected_cost(col, op.query.k)
        if u[0] + exp[0] <= MAX_INFO and u[1] + exp[1] <= MAX_CALLS:
            if reply.get("status") != "ok":
                found.fail(i, f"refused ({reply.get('reason')}) although the replay admits it")
                continue
            released = len(reply["entries"])
            act = actual_cost(col, op.query.k, released, bool(reply["truncated"]))
            u[0] += act[0]
            u[1] += act[1]
            if reply["cost_charged"] != _cost(act) or reply["budget_remaining"] != _remaining(u):
                found.fail(i, f"charged {reply['cost_charged']} leaving {reply['budget_remaining']};"
                              f" the replay charges {_cost(act)} leaving {_remaining(u)}")
        else:
            left = _remaining(u)
            exhausted = left["info"] <= 0 or (exp[1] > 0 and left["calls"] <= 0)
            want = {"status": "rejected", "reason": "budget_exhausted" if exhausted else "insufficient_for_query",
                    "expected_cost": _cost(exp), "budget_remaining": left}
            if reply != want:
                found.fail(i, f"reply {reply.get('status')}/{reply.get('reason')}; the replay refuses with {want}")
    return used


# -- the whole run ------------------------------------------------------------------


def check_run(inputs: Inputs, ops, replies: list[dict | None], found: Findings) -> dict[str, list[int]]:
    """Replay, brute force and determinism over one run's replies."""
    exact = Exact(inputs)
    used = replay(inputs, ops, replies, found)
    answers: dict[int, tuple] = {}
    for i, (op, reply) in enumerate(zip(ops, replies)):
        if reply is None or op.kind != "query" or reply.get("status") != "ok":
            continue
        col = inputs.workload.column(op.query.group_by)
        why = check_release(col, op.query, reply, exact)
        if why:
            found.fail(i, why)
        answer = (reply["entries"], reply["noisy_values"], reply["truncated"], reply["threshold_value"])
        first = answers.setdefault(op.query.qid, answer)
        if answer != first:
            found.fail(i, f"query {op.query.qid} answered differently than before")
    return used


def check_durability(used: dict[str, list[int]], after_restart: dict[str, dict], found: Findings) -> None:
    for analyst, u in used.items():
        got = after_restart.get(analyst)
        if got != budget_reply(analyst, u):
            found.general.append(f"after restart {analyst} reads {got}, the replay holds used={u}")
            return
