"""Budget ledger micro-benchmarks: journal recovery and admissions per second.

Run from the repository root (outside the Tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_ledger.py \
        --benchmark-json=BENCH_6.json

Shapes:
- ``test_recover_112k``: a fresh ``BudgetLedger`` on a state dir holding
  only a seeded journal of 112 000 records (56 000 reserve-and-settle pairs,
  all in June 2020, monthly period), spread over 3 000 analysts with weights
  1/sqrt(rank), so the heaviest analysts reach their cap and the replay
  clamps.  This is the shape of servebench's ``ledger_churn`` journal.
- ``test_admissions``: admissions per second on a journaled ledger, one
  admission being a ``try_reserve`` of (101, 1) and a ``settle`` to
  (15, 1), as ``QueryService.execute`` makes them.  4 000 admissions per
  round, split evenly over 1 or 8 threads, each thread on its own 50
  analysts; the rate is in each case's ``extra_info``.

The committed ``BENCH_6.json`` was taken on a 2-core Intel Xeon virtual
machine (Python 3.11.7); its ``machine_info`` block records the rest.
"""

from __future__ import annotations

import random
import struct
import threading
from datetime import datetime, timezone

import pytest

from dpquery.budget import BudgetLedger, Cost

ANALYSTS = 3000
PAIRS = 56_000
ADMISSIONS = 4000
START_MS = int(datetime(2020, 6, 1, tzinfo=timezone.utc).timestamp() * 1000)
RECORD = struct.Struct(">iiq")


def _record(analyst: bytes, info: int, calls: int, ts_ms: int) -> bytes:
    return len(analyst).to_bytes(2, "big") + analyst + RECORD.pack(info, calls, ts_ms)


def _journal() -> bytes:
    rng = random.Random(6)
    ids = [f"analyst{i:05d}".encode() for i in range(ANALYSTS)]
    weights = [1 / (i + 1) ** 0.5 for i in range(ANALYSTS)]
    order = list(range(ANALYSTS)) + rng.choices(range(ANALYSTS), weights, k=PAIRS - ANALYSTS)
    out = bytearray()
    ts_ms = START_MS
    for analyst in order:
        reserved = rng.choice((21, 41, 101))
        ts_ms += rng.randint(1, 20_000)
        out += _record(ids[analyst], reserved, 1, ts_ms)
        out += _record(ids[analyst], rng.randint(1, reserved) - reserved, 0, ts_ms)
    return bytes(out)


@pytest.fixture(scope="module")
def journal() -> bytes:
    return _journal()


def test_recover_112k(benchmark, journal, tmp_path):
    (tmp_path / "budget.journal").write_bytes(journal)
    ledger = benchmark(BudgetLedger, state_dir=tmp_path)
    assert len(ledger.analysts()) == ANALYSTS
    assert (tmp_path / "budget.journal").stat().st_size == len(journal)


@pytest.mark.parametrize("threads", [1, 8])
def test_admissions(benchmark, tmp_path, threads):
    ledgers: list[BudgetLedger] = []

    def fresh_ledger():
        state_dir = tmp_path / str(len(ledgers))
        ledgers.append(BudgetLedger(default_info=10**9, default_calls=10**9, state_dir=state_dir))
        return (ledgers[-1],), {}

    def admit(ledger: BudgetLedger, analysts: list[str]) -> None:
        for i in range(ADMISSIONS // threads):
            analyst = analysts[i % len(analysts)]
            ledger.try_reserve(analyst, Cost(101, 1))
            ledger.settle(analyst, Cost(101, 1), Cost(15, 1))

    def run(ledger: BudgetLedger) -> None:
        workers = [
            threading.Thread(target=admit, args=(ledger, [f"t{t}-a{a}" for a in range(50)]))
            for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)

    benchmark.pedantic(run, setup=fresh_ledger, rounds=5, iterations=1)
    benchmark.extra_info["admissions_per_s"] = ADMISSIONS / benchmark.stats.stats.median
    ledger = ledgers[-1]
    assert sum(ledger.get_budget(a).used_info for a in ledger.analysts()) == 15 * ADMISSIONS
