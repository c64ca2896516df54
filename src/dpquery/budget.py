"""Per-analyst budget ledger and query cost rules.

Each analyst holds a two-dimensional budget: an information budget (units
of released noisy values) and a call budget (number of unknown-domain
queries).  Admission charges the worst-case expected cost of a query;
after the mechanism runs, the charge is settled down to the realized cost,
so an analyst pays for what they actually received.

Cost rules per (domain, sensitivity) cell, for a top-k query with
restricted sensitivity bound Delta and a release o:

    known/restricted      expected (Delta, 0)        actual (Delta, 0)
    unknown/restricted    expected (Delta, 1)        actual (1, 1)
    known/unrestricted    expected (2k, 0)           actual (2k, 0)
    unknown/unrestricted  expected (2k + 1, 1)       actual (2|o| + 1 - [ended at sentinel], 1)

The ledger is linearizable per analyst: check-and-deduct for one admission
is a single atomic transaction, and concurrent deducts never lose updates
or push usage past the maximum.  State is durable through an append-only
binary journal plus a JSON snapshot (see docs/formats.md).
"""

from __future__ import annotations

import json
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .mechanisms import DPResult

__all__ = [
    "Cost",
    "QueryClass",
    "BudgetRecord",
    "BudgetError",
    "BudgetLedger",
    "expected_cost",
    "actual_cost",
    "DEFAULT_INFO_BUDGET",
    "DEFAULT_CALL_BUDGET",
]

DEFAULT_INFO_BUDGET = 3000
DEFAULT_CALL_BUDGET = 30

_JOURNAL_RECORD = struct.Struct(">iiq")  # info, calls, unix-millis (id prefixed)
_SNAPSHOT_VERSION = 1


class BudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class Cost:
    """(information, call) units charged for one query."""

    info: int
    calls: int

    def __post_init__(self) -> None:
        if self.info < 0 or self.calls < 0:
            raise ValueError(f"costs must be non-negative, got {self}")


@dataclass(frozen=True)
class QueryClass:
    """Classification of a query per the column it groups by."""

    domain: str  # "known" | "unknown"
    sensitivity: str  # "restricted" | "unrestricted"
    delta_sensitivity: int = 1
    tau: int = 1
    domain_size: int | None = None

    def __post_init__(self) -> None:
        if self.domain not in ("known", "unknown"):
            raise ValueError(f"bad domain class {self.domain!r}")
        if self.sensitivity not in ("restricted", "unrestricted"):
            raise ValueError(f"bad sensitivity class {self.sensitivity!r}")
        if self.sensitivity == "restricted" and self.delta_sensitivity < 1:
            raise ValueError("restricted sensitivity requires delta_sensitivity >= 1")


def expected_cost(qclass: QueryClass, k: int) -> Cost:
    """Worst-case cost charged at admission time."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if qclass.sensitivity == "restricted":
        info = max(qclass.delta_sensitivity, 1)
        return Cost(info, 0) if qclass.domain == "known" else Cost(info, 1)
    if qclass.domain == "known":
        return Cost(2 * k, 0)
    return Cost(2 * k + 1, 1)


def actual_cost(result: DPResult, qclass: QueryClass, k: int) -> Cost:
    """Realized cost settled after the mechanism ran.

    Unknown-domain unrestricted releases pay for what they got:
    2 * |entries| + 1, minus 1 when the output ended at the sentinel.
    """
    if qclass.sensitivity == "restricted":
        if qclass.domain == "known":
            return Cost(max(qclass.delta_sensitivity, 1), 0)
        return Cost(1, 1)
    if qclass.domain == "known":
        return Cost(2 * k, 0)
    return Cost(2 * len(result.entries) + 1 - int(result.terminated_by_bot), 1)


@dataclass(frozen=True)
class BudgetRecord:
    """One analyst's budget state at a point in time."""

    analyst_id: str
    max_info: int
    max_calls: int
    used_info: int = 0
    used_calls: int = 0
    period: str = "monthly"
    last_reset: datetime | None = None

    @property
    def remaining_info(self) -> int:
        return self.max_info - self.used_info

    @property
    def remaining_calls(self) -> int:
        return self.max_calls - self.used_calls

    def remaining(self) -> Cost:
        return Cost(self.remaining_info, self.remaining_calls)


def _month_start(now: datetime) -> datetime:
    return datetime(now.year, now.month, 1, tzinfo=timezone.utc)


def _period_start(period: str, last_reset: datetime, now: datetime) -> datetime:
    """Start of the period containing ``now`` (refresh boundary)."""
    if period == "monthly":
        return _month_start(now)
    if period.startswith("days:"):
        length = timedelta(days=int(period.split(":", 1)[1]))
        if now - last_reset < length:
            return last_reset
        elapsed = (now - last_reset) // length
        return last_reset + elapsed * length
    raise ValueError(f"unknown refresh period {period!r}")


class BudgetLedger:
    """Durable, linearizable per-analyst budget store.

    Unknown analysts auto-register with the configured defaults on first
    contact.  Refresh is lazy: usage is zeroed the first time an analyst is
    touched inside a new period, matching a store that resets on the first
    query of the period.
    """

    def __init__(
        self,
        default_info: int = DEFAULT_INFO_BUDGET,
        default_calls: int = DEFAULT_CALL_BUDGET,
        period: str = "monthly",
        overrides: Mapping[str, tuple[int, int]] | None = None,
        state_dir: str | Path | None = None,
        clock: Callable[[], datetime] | None = None,
    ):
        self._default_info = default_info
        self._default_calls = default_calls
        self._period = period
        self._overrides = dict(overrides or {})
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._records: dict[str, BudgetRecord] = {}
        self._locks: dict[str, threading.RLock] = {}
        self._locks_guard = threading.Lock()
        self._io_lock = threading.Lock()
        self._journal_fh = None
        self._state_dir = Path(state_dir) if state_dir is not None else None
        if self._state_dir is not None:
            self._state_dir.mkdir(parents=True, exist_ok=True)
            self._recover()
            self._journal_fh = open(self._journal_path, "ab")

    # -- persistence -------------------------------------------------------

    @property
    def _journal_path(self) -> Path:
        assert self._state_dir is not None
        return self._state_dir / "budget.journal"

    @property
    def _snapshot_path(self) -> Path:
        assert self._state_dir is not None
        return self._state_dir / "budget.snapshot.json"

    def _recover(self) -> None:
        if self._snapshot_path.exists():
            snap = json.loads(self._snapshot_path.read_text())
            if snap.get("version") != _SNAPSHOT_VERSION:
                raise BudgetError(f"unsupported snapshot version {snap.get('version')}")
            for analyst_id, raw in snap["records"].items():
                self._records[analyst_id] = BudgetRecord(
                    analyst_id=analyst_id,
                    max_info=raw["max_info"],
                    max_calls=raw["max_calls"],
                    used_info=raw["used_info"],
                    used_calls=raw["used_calls"],
                    period=self._period,
                    last_reset=datetime.fromtimestamp(
                        raw["last_reset_ms"] / 1000, tz=timezone.utc
                    ),
                )
        if self._journal_path.exists():
            data = self._journal_path.read_bytes()
            whole = 0
            for analyst_id, info, calls, ts_ms, whole in _read_journal(data):
                when = datetime.fromtimestamp(ts_ms / 1000, tz=timezone.utc)
                rec = self._registered(analyst_id, when)
                rec = self._refreshed(rec, when)
                self._records[analyst_id] = replace(
                    rec,
                    used_info=_clamp(rec.used_info + info, rec.max_info),
                    used_calls=_clamp(rec.used_calls + calls, rec.max_calls),
                )
            # Drop a torn tail, so that records appended from now on are read
            # back from a record boundary rather than from inside garbage.
            if whole < len(data):
                os.truncate(self._journal_path, whole)

    def _append_journal(self, analyst_id: str, info: int, calls: int) -> None:
        if self._state_dir is None:
            return
        encoded = analyst_id.encode("utf-8")
        ts_ms = int(self._clock().timestamp() * 1000)
        payload = (
            len(encoded).to_bytes(2, "big")
            + encoded
            + _JOURNAL_RECORD.pack(info, calls, ts_ms)
        )
        with self._io_lock:
            if self._journal_fh is None:
                raise BudgetError("ledger is closed; the change cannot be journaled")
            self._journal_fh.write(payload)
            self._journal_fh.flush()

    def snapshot(self) -> None:
        """Write a snapshot and truncate the journal."""
        if self._state_dir is None:
            return
        with self._io_lock:
            records = {
                a: {
                    "max_info": r.max_info,
                    "max_calls": r.max_calls,
                    "used_info": r.used_info,
                    "used_calls": r.used_calls,
                    "last_reset_ms": int(
                        (r.last_reset or self._clock()).timestamp() * 1000
                    ),
                }
                for a, r in self._records.items()
            }
            blob = json.dumps(
                {
                    "version": _SNAPSHOT_VERSION,
                    "taken_at_ms": int(self._clock().timestamp() * 1000),
                    "records": records,
                },
                sort_keys=True,
                indent=2,
            )
            tmp = self._snapshot_path.with_suffix(".tmp")
            tmp.write_text(blob)
            os.replace(tmp, self._snapshot_path)
            if self._journal_fh is not None:
                self._journal_fh.truncate(0)
                self._journal_fh.seek(0)

    def close(self) -> None:
        """Flush and snapshot; the ledger must not be used afterwards."""
        if self._state_dir is None:
            return
        self.snapshot()
        with self._io_lock:
            if self._journal_fh is not None:
                self._journal_fh.close()
                self._journal_fh = None

    # -- registration and refresh -------------------------------------------

    def _lock_for(self, analyst_id: str) -> threading.RLock:
        with self._locks_guard:
            lock = self._locks.get(analyst_id)
            if lock is None:
                lock = self._locks[analyst_id] = threading.RLock()
            return lock

    def _registered(self, analyst_id: str, now: datetime) -> BudgetRecord:
        rec = self._records.get(analyst_id)
        if rec is None:
            max_info, max_calls = self._overrides.get(
                analyst_id, (self._default_info, self._default_calls)
            )
            rec = BudgetRecord(
                analyst_id=analyst_id,
                max_info=max_info,
                max_calls=max_calls,
                period=self._period,
                last_reset=_period_start(self._period, now, now),
            )
            self._records[analyst_id] = rec
        return rec

    def _refreshed(self, rec: BudgetRecord, now: datetime) -> BudgetRecord:
        assert rec.last_reset is not None
        start = _period_start(self._period, rec.last_reset, now)
        if start > rec.last_reset:
            rec = replace(rec, used_info=0, used_calls=0, last_reset=start)
            self._records[rec.analyst_id] = rec
        return rec

    def _current(self, analyst_id: str) -> BudgetRecord:
        now = self._clock()
        return self._refreshed(self._registered(analyst_id, now), now)

    @contextmanager
    def transaction(self, analyst_id: str) -> Iterator[None]:
        """Serialize a multi-step operation on one analyst's budget."""
        with self._lock_for(analyst_id):
            yield

    # -- the three store methods ---------------------------------------------

    def check_budget(self, analyst_id: str, cost: Cost) -> bool:
        """True iff the analyst can afford ``cost`` right now; no mutation."""
        with self._lock_for(analyst_id):
            rec = self._current(analyst_id)
            return (
                rec.used_info + cost.info <= rec.max_info
                and rec.used_calls + cost.calls <= rec.max_calls
            )

    def update_budget(self, analyst_id: str, cost: Cost) -> BudgetRecord:
        """Deduct ``cost``; caller must have checked inside the same transaction."""
        with self._lock_for(analyst_id):
            rec = self._current(analyst_id)
            new_info = rec.used_info + cost.info
            new_calls = rec.used_calls + cost.calls
            if new_info > rec.max_info or new_calls > rec.max_calls:
                raise BudgetError(
                    f"deduction of {cost} would exceed budget for {analyst_id!r}"
                )
            rec = replace(rec, used_info=new_info, used_calls=new_calls)
            self._records[analyst_id] = rec
            self._append_journal(analyst_id, cost.info, cost.calls)
            return rec

    def get_budget(self, analyst_id: str) -> BudgetRecord:
        """Current record, after applying any due lazy refresh."""
        with self._lock_for(analyst_id):
            return self._current(analyst_id)

    # -- admission protocol ---------------------------------------------------

    def try_reserve(self, analyst_id: str, cost: Cost) -> BudgetRecord | None:
        """Atomically check and deduct; None when the budget does not cover it."""
        with self._lock_for(analyst_id):
            if not self.check_budget(analyst_id, cost):
                return None
            return self.update_budget(analyst_id, cost)

    def settle(self, analyst_id: str, reserved: Cost, actual: Cost) -> BudgetRecord:
        """Adjust a reservation down to the realized cost."""
        with self._lock_for(analyst_id):
            rec = self._current(analyst_id)
            d_info = actual.info - reserved.info
            d_calls = actual.calls - reserved.calls
            rec = replace(
                rec,
                used_info=_clamp(rec.used_info + d_info, rec.max_info),
                used_calls=_clamp(rec.used_calls + d_calls, rec.max_calls),
            )
            self._records[analyst_id] = rec
            if d_info or d_calls:
                self._append_journal(analyst_id, d_info, d_calls)
            return rec

    def release(self, analyst_id: str, reserved: Cost) -> BudgetRecord:
        """Return a reservation in full (mechanism failed, nothing released)."""
        return self.settle(analyst_id, reserved, Cost(0, 0))

    def reset_usage(self, analyst_id: str) -> BudgetRecord:
        """Admin operation: zero an analyst's usage, journaled as a refund."""
        with self._lock_for(analyst_id):
            rec = self._current(analyst_id)
            if rec.used_info or rec.used_calls:
                self._append_journal(analyst_id, -rec.used_info, -rec.used_calls)
            rec = replace(rec, used_info=0, used_calls=0)
            self._records[analyst_id] = rec
            return rec

    def analysts(self) -> list[str]:
        return sorted(self._records)


def _clamp(value: int, upper: int) -> int:
    return max(0, min(value, upper))


def _read_journal(data: bytes) -> Iterator[tuple[str, int, int, int, int]]:
    """Yield (analyst_id, info, calls, unix_millis, end offset) per whole
    journal record; a truncated tail from a crash is left out."""
    pos = 0
    while pos < len(data):
        if pos + 2 > len(data):
            break  # truncated tail from a crash; ignore
        id_len = int.from_bytes(data[pos : pos + 2], "big")
        end = pos + 2 + id_len + _JOURNAL_RECORD.size
        if end > len(data):
            break
        analyst_id = data[pos + 2 : pos + 2 + id_len].decode("utf-8")
        info, calls, ts_ms = _JOURNAL_RECORD.unpack(
            data[pos + 2 + id_len : end]
        )
        yield analyst_id, info, calls, ts_ms, end
        pos = end
