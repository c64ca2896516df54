from __future__ import annotations

import json
import random
import signal
import struct
import subprocess
import sys
import tempfile
import threading
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpquery.budget import (
    BudgetError,
    BudgetLedger,
    Cost,
    actual_cost,
    expected_cost,
)
from dpquery.mechanisms import DPResult
from dpquery.store import ColumnMeta
from conftest import cli_env
from oracles import BudgetReplay, replay_budget_journal


def cell(domain: str, sensitivity: str, delta_sensitivity: int = 1) -> ColumnMeta:
    """The metadata of a group-by column in the given (domain, sensitivity) cell."""
    return ColumnMeta(
        "c",
        domain=("x",) if domain == "known" else None,
        delta_sensitivity=delta_sensitivity if sensitivity == "restricted" else None,
    )


UNKNOWN_UNRESTRICTED = cell("unknown", "unrestricted")
UNKNOWN_RESTRICTED_1 = cell("unknown", "restricted", delta_sensitivity=1)
KNOWN_RESTRICTED_1 = cell("known", "restricted", delta_sensitivity=1)
KNOWN_UNRESTRICTED = cell("known", "unrestricted")


class FakeClock:
    def __init__(self, start: datetime):
        self.now = start

    def __call__(self) -> datetime:
        return self.now


def result_with(n: int, bot: bool) -> DPResult:
    return DPResult(
        entries=tuple((f"e{i}", float(i)) for i in range(n)), terminated_by_bot=bot
    )


class TestCostRules:
    def test_expected_costs(self):
        assert expected_cost(UNKNOWN_UNRESTRICTED, 50) == Cost(101, 1)
        assert expected_cost(KNOWN_RESTRICTED_1, 50) == Cost(1, 0)
        assert expected_cost(UNKNOWN_RESTRICTED_1, 50) == Cost(1, 1)
        assert expected_cost(cell("unknown", "restricted", delta_sensitivity=7), 3) == Cost(7, 1)
        assert expected_cost(KNOWN_UNRESTRICTED, 10) == Cost(20, 0)

    def test_actual_costs(self):
        assert actual_cost(result_with(7, bot=True), UNKNOWN_UNRESTRICTED, 50) == Cost(14, 1)
        assert actual_cost(result_with(10, bot=False), UNKNOWN_UNRESTRICTED, 10) == Cost(21, 1)
        assert actual_cost(result_with(0, bot=True), UNKNOWN_UNRESTRICTED, 50) == Cost(0, 1)
        assert actual_cost(result_with(3, bot=True), UNKNOWN_RESTRICTED_1, 50) == Cost(1, 1)
        assert actual_cost(
            result_with(3, bot=True), cell("unknown", "restricted", delta_sensitivity=9), 50
        ) == Cost(1, 1)
        assert actual_cost(result_with(5, bot=False), KNOWN_RESTRICTED_1, 50) == Cost(1, 0)
        assert actual_cost(result_with(10, bot=False), KNOWN_UNRESTRICTED, 10) == Cost(20, 0)

    def test_cost_validation(self):
        with pytest.raises(ValueError):
            Cost(-1, 0)
        with pytest.raises(ValueError):
            expected_cost(UNKNOWN_UNRESTRICTED, 0)


class TestLedgerBasics:
    def test_fresh_analyst_gets_defaults(self):
        ledger = BudgetLedger()
        assert ledger.check_budget("alice", Cost(100, 1))
        rec = ledger.get_budget("alice")
        assert (rec.max_info, rec.max_calls) == (3000, 30)
        assert (rec.used_info, rec.used_calls) == (0, 0)

    def test_exhausted_info_rejects(self):
        ledger = BudgetLedger()
        ledger.update_budget("a", Cost(3000, 0))
        assert not ledger.check_budget("a", Cost(1, 0))
        assert ledger.check_budget("a", Cost(0, 0))  # zero cost always passes

    def test_check_does_not_mutate(self):
        ledger = BudgetLedger()
        ledger.check_budget("a", Cost(100, 1))
        rec = ledger.get_budget("a")
        assert (rec.used_info, rec.used_calls) == (0, 0)

    def test_update_accumulates(self):
        ledger = BudgetLedger()
        rec = ledger.update_budget("a", Cost(2 * 738, 1))
        assert (rec.used_info, rec.used_calls) == (1476, 1)

    def test_update_never_exceeds_max(self):
        ledger = BudgetLedger()
        ledger.update_budget("a", Cost(2999, 0))
        with pytest.raises(BudgetError):
            ledger.update_budget("a", Cost(2, 0))
        rec = ledger.get_budget("a")
        assert rec.used_info == 2999

    def test_overrides(self):
        ledger = BudgetLedger(overrides={"vip": (5000, 50)})
        assert ledger.get_budget("vip").max_info == 5000
        assert ledger.get_budget("pleb").max_info == 3000

    def test_reserve_settle_refunds(self):
        ledger = BudgetLedger()
        ledger.try_reserve("a", Cost(101, 1))
        rec = ledger.settle("a", Cost(101, 1), Cost(14, 1))
        assert (rec.used_info, rec.used_calls) == (14, 1)

    def test_release_returns_everything(self):
        ledger = BudgetLedger()
        ledger.try_reserve("a", Cost(101, 1))
        rec = ledger.release("a", Cost(101, 1))
        assert (rec.used_info, rec.used_calls) == (0, 0)

    def test_try_reserve_rejects_when_insufficient(self):
        ledger = BudgetLedger(default_info=100, default_calls=1)
        assert ledger.try_reserve("a", Cost(101, 1)) is None
        assert ledger.get_budget("a").used_info == 0


class TestConcurrency:
    def test_two_concurrent_deducts_one_wins(self):
        ledger = BudgetLedger()
        results = []
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            results.append(ledger.try_reserve("a", Cost(1600, 1)) is not None)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == [False, True]
        assert ledger.get_budget("a").used_info == 1600

    def test_no_lost_updates_under_hammering(self):
        ledger = BudgetLedger(default_info=10_000, default_calls=10_000)
        n_threads, per_thread = 16, 50

        def worker():
            for _ in range(per_thread):
                ledger.update_budget("a", Cost(1, 1))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rec = ledger.get_budget("a")
        assert rec.used_info == n_threads * per_thread
        assert rec.used_calls == n_threads * per_thread

    def test_distinct_analysts_do_not_contend(self):
        ledger = BudgetLedger()
        ledger.update_budget("a", Cost(10, 0))
        ledger.update_budget("b", Cost(20, 0))
        assert ledger.get_budget("a").used_info == 10
        assert ledger.get_budget("b").used_info == 20


class TestRefresh:
    def test_monthly_lazy_refresh(self):
        clock = FakeClock(datetime(2020, 1, 3, tzinfo=timezone.utc))
        ledger = BudgetLedger(clock=clock)
        ledger.update_budget("a", Cost(500, 3))
        clock.now = datetime(2020, 2, 10, tzinfo=timezone.utc)
        rec = ledger.get_budget("a")
        assert (rec.used_info, rec.used_calls) == (0, 0)
        assert rec.last_reset == datetime(2020, 2, 1, tzinfo=timezone.utc)

    def test_within_period_unchanged(self):
        clock = FakeClock(datetime(2020, 1, 3, tzinfo=timezone.utc))
        ledger = BudgetLedger(clock=clock)
        ledger.update_budget("a", Cost(500, 3))
        clock.now = datetime(2020, 1, 28, tzinfo=timezone.utc)
        rec = ledger.get_budget("a")
        assert (rec.used_info, rec.used_calls) == (500, 3)

    def test_refresh_idempotent(self):
        clock = FakeClock(datetime(2020, 1, 3, tzinfo=timezone.utc))
        ledger = BudgetLedger(clock=clock)
        ledger.update_budget("a", Cost(500, 3))
        clock.now = datetime(2020, 2, 10, tzinfo=timezone.utc)
        first = ledger.get_budget("a")
        second = ledger.get_budget("a")
        assert first == second

    def test_refresh_restores_admission(self):
        clock = FakeClock(datetime(2020, 1, 3, tzinfo=timezone.utc))
        ledger = BudgetLedger(clock=clock)
        ledger.update_budget("a", Cost(3000, 0))
        assert not ledger.check_budget("a", Cost(1, 0))
        clock.now = datetime(2020, 2, 1, tzinfo=timezone.utc)
        assert ledger.check_budget("a", Cost(1, 0))

    def test_fixed_day_period(self):
        clock = FakeClock(datetime(2020, 1, 1, tzinfo=timezone.utc))
        ledger = BudgetLedger(period="days:7", clock=clock)
        ledger.update_budget("a", Cost(10, 0))
        clock.now = datetime(2020, 1, 6, tzinfo=timezone.utc)
        assert ledger.get_budget("a").used_info == 10
        clock.now = datetime(2020, 1, 17, tzinfo=timezone.utc)
        rec = ledger.get_budget("a")
        assert rec.used_info == 0
        assert rec.last_reset == datetime(2020, 1, 15, tzinfo=timezone.utc)

    @pytest.mark.parametrize("period", [
        "weekly", "Monthly", "days:0", "days:-1", "days:x", "days:", "days:1.5", "days: 7",
        "days:7 ", "days:36501", "days:1000000000", None,
    ])
    def test_bad_period_refused_at_construction(self, period):
        with pytest.raises(ValueError, match="refresh period"):
            BudgetLedger(period=period)

    @pytest.mark.parametrize("period", ["monthly", "days:1", "days:36500"])
    def test_good_period_accepted(self, period):
        clock = FakeClock(datetime(2020, 1, 1, tzinfo=timezone.utc))
        assert BudgetLedger(period=period, clock=clock).update_budget("a", Cost(1, 0)).period == period


class TestPersistence:
    def test_journal_replay_reproduces_state(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.update_budget("a", Cost(101, 1))
        ledger.settle("a", Cost(101, 1), Cost(15, 1))
        ledger.update_budget("b", Cost(20, 0))
        before_a, before_b = ledger.get_budget("a"), ledger.get_budget("b")
        # no close(): simulate a crash with only the journal on disk
        reopened = BudgetLedger(state_dir=tmp_path)
        after_a, after_b = reopened.get_budget("a"), reopened.get_budget("b")
        assert (after_a.used_info, after_a.used_calls) == (
            before_a.used_info,
            before_a.used_calls,
        )
        assert (after_b.used_info, after_b.used_calls) == (
            before_b.used_info,
            before_b.used_calls,
        )

    def test_snapshot_truncates_journal(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.update_budget("a", Cost(42, 1))
        ledger.close()
        assert (tmp_path / "budget.journal").stat().st_size == 0
        reopened = BudgetLedger(state_dir=tmp_path)
        assert reopened.get_budget("a").used_info == 42

    def test_truncated_journal_tail_ignored(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.update_budget("a", Cost(42, 1))
        del ledger
        journal = tmp_path / "budget.journal"
        blob = journal.read_bytes()
        journal.write_bytes(blob + b"\x00\x07part")  # half-written record
        reopened = BudgetLedger(state_dir=tmp_path)
        assert reopened.get_budget("a").used_info == 42

    def test_torn_tail_is_cut_before_new_records(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.update_budget("a", Cost(10, 0))
        del ledger
        journal = tmp_path / "budget.journal"
        journal.write_bytes(journal.read_bytes() + b"\x00\x05abcde")  # crash mid-append
        recovered = BudgetLedger(state_dir=tmp_path)
        recovered.update_budget("a", Cost(100, 0))
        del recovered
        assert BudgetLedger(state_dir=tmp_path).get_budget("a").used_info == 110

    def test_closed_ledger_refuses_changes(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.update_budget("a", Cost(5, 0))
        ledger.close()
        with pytest.raises(BudgetError):
            ledger.try_reserve("a", Cost(1, 0))
        with pytest.raises(BudgetError):
            ledger.settle("a", Cost(5, 0), Cost(1, 0))
        assert BudgetLedger(state_dir=tmp_path).get_budget("a").used_info == 5

    def test_reset_usage_survives_restart(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.update_budget("a", Cost(100, 5))
        ledger.reset_usage("a")
        reopened = BudgetLedger(state_dir=tmp_path)
        rec = reopened.get_budget("a")
        assert (rec.used_info, rec.used_calls) == (0, 0)

    def test_snapshot_between_change_and_append_applies_it_once(self, tmp_path, monkeypatch):
        # A snapshot taken by another thread while a settle is being
        # journaled must not capture the refund and then see it appended
        # again: recovery would apply it twice.
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.try_reserve("a", Cost(3000, 1))
        append = BudgetLedger._append_journal
        hooked: list[threading.Thread] = []

        def append_after_snapshot(self, *args):
            snapper = threading.Thread(target=self.snapshot)
            snapper.start()
            snapper.join(timeout=1.0)  # blocks only while the change holds the lock
            append(self, *args)
            hooked.append(snapper)

        monkeypatch.setattr(BudgetLedger, "_append_journal", append_after_snapshot)
        live = ledger.settle("a", Cost(3000, 1), Cost(1000, 1))
        for snapper in hooked:
            snapper.join(timeout=10)
            assert not snapper.is_alive()
        monkeypatch.undo()
        recovered = BudgetLedger(state_dir=tmp_path).get_budget("a")
        assert live.used_info == 1000
        assert (recovered.used_info, recovered.used_calls) == (live.used_info, live.used_calls)

    @pytest.mark.parametrize(
        "bad",
        ["a" * 70_000, "\u00e9" * 32_768, "\ud800", 7, None, b"a"],
        ids=["70000-ascii", "65536-bytes", "lone-surrogate", "int", "none", "bytes"],
    )
    def test_refused_analyst_id_changes_nothing(self, tmp_path, bad):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.try_reserve("a", Cost(5, 0))
        journal = (tmp_path / "budget.journal").read_bytes()
        for call in (
            lambda: ledger.try_reserve(bad, Cost(5, 0)),
            lambda: ledger.update_budget(bad, Cost(5, 0)),
            lambda: ledger.settle(bad, Cost(5, 0), Cost(1, 0)),
            lambda: ledger.get_budget(bad),
            lambda: ledger.reset_usage(bad),
        ):
            with pytest.raises(BudgetError):
                call()
        assert ledger.analysts() == ["a"]
        assert (tmp_path / "budget.journal").read_bytes() == journal

    def test_longest_analyst_id_round_trips(self, tmp_path):
        longest = "\u00e9" * 32_767 + "a"  # 65,535 UTF-8 bytes
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.try_reserve(longest, Cost(5, 1))
        assert BudgetLedger(state_dir=tmp_path).get_budget(longest).used_info == 5

    def test_journal_format_is_length_prefixed(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.update_budget("ana", Cost(7, 2))
        blob = (tmp_path / "budget.journal").read_bytes()
        assert blob[:2] == (3).to_bytes(2, "big")
        assert blob[2:5] == b"ana"
        assert int.from_bytes(blob[5:9], "big") == 7
        assert int.from_bytes(blob[9:13], "big") == 2
        assert len(blob) == 2 + 3 + 4 + 4 + 8


# Loops reserve-and-settle on a journaled ledger, printing each settled
# charge once its settle has returned.
HAMMER = """
import json
import sys
from dpquery.budget import BudgetLedger, Cost

ledger = BudgetLedger(**json.loads(sys.argv[1]))
reserved = Cost(101, 1)
i = 0
while True:
    analyst = f"a{i % 7}"
    assert ledger.try_reserve(analyst, reserved) is not None
    charge = 1 + i % 101
    ledger.settle(analyst, reserved, Cost(charge, 1))
    print(charge, flush=True)
    i += 1
"""


class TestCrashRecovery:
    def test_sigkill_mid_loop_keeps_every_acked_charge(self, tmp_path):
        # No clamp, and a period no run can cross.
        config = {"default_info": 10**9, "default_calls": 10**9, "period": "days:36500"}
        child = subprocess.Popen(
            [sys.executable, "-c", HAMMER, json.dumps({**config, "state_dir": str(tmp_path)})],
            stdout=subprocess.PIPE, env=cli_env(),
        )
        try:
            acks = [child.stdout.readline() for _ in range(2000)]
        finally:
            child.kill()
        acks += child.stdout.read().splitlines(keepends=True)  # printed before the kill
        child.stdout.close()
        assert child.wait(timeout=10) == -signal.SIGKILL
        acks = [int(line) for line in acks if line.endswith(b"\n")]
        assert len(acks) >= 2000
        recovered = BudgetLedger(**config, state_dir=tmp_path)
        records = [recovered.get_budget(a) for a in recovered.analysts()]
        used_info = sum(r.used_info for r in records)
        used_calls = sum(r.used_calls for r in records)
        # At most one admission was in flight: reserved whole, settled, or
        # not journaled at all.
        assert sum(acks) <= used_info <= sum(acks) + 101
        assert len(acks) <= used_calls <= len(acks) + 1


class TestReplayOracle:
    CELLS = [
        ("known", "restricted"),
        ("unknown", "restricted"),
        ("known", "unrestricted"),
        ("unknown", "unrestricted"),
    ]

    def test_random_traces_match_straight_line_replay(self):
        # Admission decisions and running usage must agree with the
        # straight-line replay at every step of every trace.
        rnd = random.Random(97)
        for _ in range(300):
            max_info, max_calls = rnd.randint(20, 400), rnd.randint(1, 10)
            ledger = BudgetLedger(default_info=max_info, default_calls=max_calls)
            oracle = BudgetReplay(max_info, max_calls)
            for _ in range(rnd.randint(1, 40)):
                domain, sens = rnd.choice(self.CELLS)
                delta_sens = rnd.randint(1, 5)
                k = rnd.randint(1, 12)
                qclass = cell(domain, sens, delta_sensitivity=delta_sens)
                released = rnd.randint(0, k)
                bot = released < k if domain == "unknown" else False
                expected = expected_cost(qclass, k)

                admitted = ledger.try_reserve("a", expected) is not None
                assert admitted == oracle.admit(domain, sens, delta_sens, k)
                if admitted:
                    charge = actual_cost(result_with(released, bot), qclass, k)
                    ledger.settle("a", expected, charge)
                    oracle.charge(domain, sens, delta_sens, k, released, bot)

                rec = ledger.get_budget("a")
                assert (rec.used_info, rec.used_calls) == (
                    oracle.used_info,
                    oracle.used_calls,
                )


DAY_MS = 86_400_000
T0_MS = int(datetime(2020, 1, 1, tzinfo=timezone.utc).timestamp() * 1000)  # a month start
IDS = ["a", "b", "vip", "", "\u00e9l\u00e8ve", "\u65e5\u672c", "\U0001f600x", "\U00010348"]
RECORD = struct.Struct(">iiq")

# Whole days from T0 (so month starts and days:N boundaries of analysts
# registered on a whole day), one millisecond either side, or anywhere.
times_ms = st.builds(
    lambda day, offset: T0_MS + day * DAY_MS + offset,
    st.integers(-2, 70),
    st.sampled_from([-1, 0, 1]) | st.integers(0, DAY_MS - 1),
)
journal_records = st.lists(
    st.tuples(st.sampled_from(IDS), st.integers(-60, 60), st.integers(-6, 6), times_ms),
    max_size=60,
)
snapshot_records = st.dictionaries(
    st.sampled_from(IDS),
    st.builds(
        lambda max_info, max_calls, used, calls, reset: {
            "max_info": max_info, "max_calls": max_calls,
            "used_info": min(used, max_info), "used_calls": min(calls, max_calls),
            "last_reset_ms": reset,
        },
        st.integers(0, 80), st.integers(0, 8), st.integers(0, 80), st.integers(0, 8), times_ms,
    ),
    max_size=4,
)


def encode_record(analyst: str, info: int, calls: int, ts_ms: int) -> bytes:
    encoded = analyst.encode("utf-8")
    return len(encoded).to_bytes(2, "big") + encoded + RECORD.pack(info, calls, ts_ms)


def recovered_state(state_dir: Path, journal: bytes, snapshot, default, overrides, period):
    """Recover a ledger from the given files; its records as the oracle
    returns them, and the journal's length after recovery."""
    (state_dir / "budget.journal").write_bytes(journal)
    if snapshot:
        (state_dir / "budget.snapshot.json").write_text(
            json.dumps({"version": 1, "taken_at_ms": T0_MS, "records": snapshot})
        )
    ledger = BudgetLedger(
        default_info=default[0], default_calls=default[1], period=period,
        overrides=overrides, state_dir=state_dir,
    )
    records = {
        a: (r.max_info, r.max_calls, r.used_info, r.used_calls, r.last_reset)
        for a, r in ledger._accounts.items()
    }
    assert all(ledger.get_budget(a).period == period for a in records)
    return records, (state_dir / "budget.journal").stat().st_size


class TestReplayProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        records=journal_records,
        snapshot=snapshot_records,
        default=st.tuples(st.integers(0, 80), st.integers(0, 8)),
        overrides=st.dictionaries(
            st.sampled_from(IDS), st.tuples(st.integers(0, 80), st.integers(0, 8)), max_size=3
        ),
        period=st.sampled_from(["monthly", "days:1", "days:7", "days:30"]),
        torn=st.integers(0, 40),
    )
    def test_recovery_matches_record_by_record_replay(
        self, records, snapshot, default, overrides, period, torn
    ):
        journal = b"".join(encode_record(*r) for r in records)
        extra = encode_record("\U0001f600x", 1, 1, T0_MS)
        journal += extra[: min(torn, len(extra) - 1)]
        expected = replay_budget_journal(journal, snapshot, default, overrides, period)
        with tempfile.TemporaryDirectory() as state_dir:
            got = recovered_state(Path(state_dir), journal, snapshot, default, overrides, period)
        assert got == expected

    def test_every_torn_tail_length(self, tmp_path):
        whole = encode_record("\u65e5\u672c", 9, 1, T0_MS) + encode_record("a", 4, 0, T0_MS + 5)
        extra = encode_record("\U0001f600x", 1, 1, T0_MS + 9)
        for cut in range(len(extra)):
            state_dir = tmp_path / str(cut)
            state_dir.mkdir()
            journal = whole + extra[:cut]
            expected = replay_budget_journal(journal, {}, (100, 5), {}, "monthly")
            got = recovered_state(state_dir, journal, {}, (100, 5), {}, "monthly")
            assert got == expected
            assert got[1] == len(whole)

    @pytest.mark.parametrize("period, boundary", [
        ("monthly", datetime(2020, 2, 1, tzinfo=timezone.utc)),
        ("days:7", datetime(2020, 1, 17, 12, tzinfo=timezone.utc)),
    ])
    def test_refresh_exactly_at_the_period_start(self, tmp_path, period, boundary):
        start = datetime(2020, 1, 10, 12, tzinfo=timezone.utc)
        at = int(boundary.timestamp() * 1000)
        journal = b"".join([
            encode_record("a", 50, 2, int(start.timestamp() * 1000)),
            encode_record("a", 5, 0, at - 1),
            encode_record("a", 7, 1, at),
        ])
        records, _ = recovered_state(tmp_path, journal, {}, (100, 5), {}, period)
        assert records["a"][2:] == (7, 1, boundary)
