from __future__ import annotations

import random
import threading
from datetime import datetime, timezone

import pytest

from dpquery.budget import (
    BudgetError,
    BudgetLedger,
    Cost,
    QueryClass,
    actual_cost,
    expected_cost,
)
from dpquery.mechanisms import DPResult
from oracles import BudgetReplay

UNKNOWN_UNRESTRICTED = QueryClass("unknown", "unrestricted")
UNKNOWN_RESTRICTED_1 = QueryClass("unknown", "restricted", delta_sensitivity=1)
KNOWN_RESTRICTED_1 = QueryClass("known", "restricted", delta_sensitivity=1)
KNOWN_UNRESTRICTED = QueryClass("known", "unrestricted")


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
        assert expected_cost(QueryClass("unknown", "restricted", delta_sensitivity=7), 3) == Cost(7, 1)
        assert expected_cost(KNOWN_UNRESTRICTED, 10) == Cost(20, 0)

    def test_actual_costs(self):
        assert actual_cost(result_with(7, bot=True), UNKNOWN_UNRESTRICTED, 50) == Cost(14, 1)
        assert actual_cost(result_with(10, bot=False), UNKNOWN_UNRESTRICTED, 10) == Cost(21, 1)
        assert actual_cost(result_with(0, bot=True), UNKNOWN_UNRESTRICTED, 50) == Cost(0, 1)
        assert actual_cost(result_with(3, bot=True), UNKNOWN_RESTRICTED_1, 50) == Cost(1, 1)
        assert actual_cost(
            result_with(3, bot=True), QueryClass("unknown", "restricted", delta_sensitivity=9), 50
        ) == Cost(1, 1)
        assert actual_cost(result_with(5, bot=False), KNOWN_RESTRICTED_1, 50) == Cost(1, 0)
        assert actual_cost(result_with(10, bot=False), KNOWN_UNRESTRICTED, 10) == Cost(20, 0)

    def test_cost_validation(self):
        with pytest.raises(ValueError):
            Cost(-1, 0)
        with pytest.raises(ValueError):
            expected_cost(UNKNOWN_UNRESTRICTED, 0)
        with pytest.raises(ValueError):
            QueryClass("sideways", "restricted")


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

    def test_journal_format_is_length_prefixed(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        ledger.update_budget("ana", Cost(7, 2))
        blob = (tmp_path / "budget.journal").read_bytes()
        assert blob[:2] == (3).to_bytes(2, "big")
        assert blob[2:5] == b"ana"
        assert int.from_bytes(blob[5:9], "big") == 7
        assert int.from_bytes(blob[9:13], "big") == 2
        assert len(blob) == 2 + 3 + 4 + 4 + 8


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
                qclass = QueryClass(domain, sens, delta_sensitivity=delta_sens)
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
