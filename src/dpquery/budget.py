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

The ledger is linearizable: check-and-deduct for one admission is a single
atomic step under one lock, and concurrent deducts never lose updates or
push usage past the maximum.  State is durable through an append-only
binary journal plus a JSON snapshot (see docs/formats.md).
"""

from __future__ import annotations

import json
import os
import struct
import threading
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Mapping

from .mechanisms import DPResult

__all__ = [
    "Cost",
    "QueryClass",
    "BudgetRecord",
    "BudgetError",
    "BudgetLedger",
    "encode_analyst_id",
    "expected_cost",
    "actual_cost",
    "DEFAULT_INFO_BUDGET",
    "DEFAULT_CALL_BUDGET",
]

DEFAULT_INFO_BUDGET = 3000
DEFAULT_CALL_BUDGET = 30

_JOURNAL_RECORD = struct.Struct(">iiq")  # info, calls, unix-millis (id prefixed)
_MAX_ID_BYTES = 0xFFFF  # the id's u16 length prefix
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MILLISECOND = timedelta(milliseconds=1)
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


def _next_period_start(period: str, last_reset: datetime) -> datetime:
    """The earliest ``now`` for which ``_period_start`` lies after ``last_reset``."""
    if period == "monthly":
        year, month = divmod(last_reset.year * 12 + last_reset.month, 12)
        return datetime(year, month + 1, 1, tzinfo=timezone.utc)
    return last_reset + timedelta(days=int(period.split(":", 1)[1]))


def encode_analyst_id(analyst_id: object) -> bytes:
    """The journal bytes of an analyst id.

    Raises BudgetError unless the id is a str whose strict UTF-8 encoding
    fits the record's u16 length prefix (at most 65,535 bytes).
    """
    if not isinstance(analyst_id, str):
        raise BudgetError(f"analyst_id must be a string, not {type(analyst_id).__name__}")
    try:
        encoded = analyst_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BudgetError(f"analyst_id is not encodable as UTF-8: {exc.reason}") from None
    if len(encoded) > _MAX_ID_BYTES:
        raise BudgetError(
            f"analyst_id is {len(encoded)} UTF-8 bytes; at most {_MAX_ID_BYTES} are allowed"
        )
    return encoded


class BudgetLedger:
    """Durable, linearizable per-analyst budget store.

    Unknown analysts auto-register with the configured defaults on first
    contact.  Refresh is lazy: usage is zeroed the first time an analyst is
    touched inside a new period, matching a store that resets on the first
    query of the period.

    One lock covers the records, the journal and the snapshot.  A change is
    journaled before it is applied in memory, so a snapshot holds either
    both or neither, and a change that cannot be journaled is not applied.
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
        self._lock = threading.RLock()
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
            whole = self._replay(data)
            # Drop a torn tail, so that records appended from now on are read
            # back from a record boundary rather than from inside garbage.
            if whole < len(data):
                os.truncate(self._journal_path, whole)

    def _replay(self, data: bytes) -> int:
        """Apply the whole journal records in ``data`` in file order; return
        the offset just past the last whole record.

        Per record, this is what a change does live: register the analyst,
        refresh at the record's timestamp, add the delta clamped to
        [0, max].  Usage is kept as plain ints per raw id; dates are built
        only when an analyst is first seen or a record reaches the analyst's
        next period start, and one record per analyst is written at the end.
        """
        # raw id -> [used_info, used_calls, boundary_ms, max_info, max_calls, analyst_id]
        seen: dict[bytes, list] = {}
        unpack, size = _JOURNAL_RECORD.unpack_from, _JOURNAL_RECORD.size
        pos, end = 0, len(data)
        while pos + 2 <= end:
            id_end = pos + 2 + (data[pos] << 8 | data[pos + 1])
            if id_end + size > end:
                break  # torn tail from a crash mid-append
            raw = data[pos + 2 : id_end]
            info, calls, ts_ms = unpack(data, id_end)
            pos = id_end + size
            state = seen.get(raw)
            if state is None or ts_ms >= state[2]:
                when = datetime.fromtimestamp(ts_ms / 1000, tz=timezone.utc)
                if state is None:
                    rec = self._registered(raw.decode("utf-8"), when)
                    state = seen[raw] = [
                        rec.used_info, rec.used_calls, 0, rec.max_info, rec.max_calls, rec.analyst_id
                    ]
                else:
                    rec = self._records[state[5]]
                fresh = self._refreshed(rec, when)
                if fresh is not rec:
                    state[0] = state[1] = 0
                # Floored to the millisecond: a record before it cannot
                # refresh, one at or after it takes this exact path again.
                state[2] = (
                    _next_period_start(self._period, fresh.last_reset) - _EPOCH
                ) // _MILLISECOND
            used = state[0] + info  # _clamp, inline
            if used > state[3]:
                used = state[3]
            state[0] = used if used > 0 else 0
            used = state[1] + calls
            if used > state[4]:
                used = state[4]
            state[1] = used if used > 0 else 0
        for used_info, used_calls, _, _, _, analyst_id in seen.values():
            self._records[analyst_id] = replace(
                self._records[analyst_id], used_info=used_info, used_calls=used_calls
            )
        return pos

    def _append_journal(self, encoded_id: bytes, info: int, calls: int, now: datetime) -> None:
        if self._state_dir is None:
            return
        if self._journal_fh is None:
            raise BudgetError("ledger is closed; the change cannot be journaled")
        self._journal_fh.write(
            len(encoded_id).to_bytes(2, "big")
            + encoded_id
            + _JOURNAL_RECORD.pack(info, calls, int(now.timestamp() * 1000))
        )
        self._journal_fh.flush()

    def snapshot(self) -> None:
        """Write a snapshot and truncate the journal."""
        if self._state_dir is None:
            return
        with self._lock:
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
        with self._lock:
            self.snapshot()
            if self._journal_fh is not None:
                self._journal_fh.close()
                self._journal_fh = None

    # -- registration and refresh -------------------------------------------

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

    def _current(self, analyst_id: str, now: datetime) -> BudgetRecord:
        return self._refreshed(self._registered(analyst_id, now), now)

    def _apply(self, analyst_id: str, info: int, calls: int, must_fit: bool = False) -> BudgetRecord | None:
        """The one mutation: journal a usage change, then apply it.

        With ``must_fit`` a change that does not fit the budget is refused
        (None) and nothing happens; otherwise usage is clamped to [0, max],
        as replay clamps each record.  A change of zero is not journaled.
        """
        encoded = encode_analyst_id(analyst_id)
        with self._lock:
            now = self._clock()  # one reading: the refresh and the record agree
            rec = self._current(analyst_id, now)
            used_info, used_calls = rec.used_info + info, rec.used_calls + calls
            if must_fit and (used_info > rec.max_info or used_calls > rec.max_calls):
                return None
            if info or calls:
                self._append_journal(encoded, info, calls, now)
            rec = replace(
                rec,
                used_info=_clamp(used_info, rec.max_info),
                used_calls=_clamp(used_calls, rec.max_calls),
            )
            self._records[analyst_id] = rec
            return rec

    # -- the three store methods ---------------------------------------------

    def check_budget(self, analyst_id: str, cost: Cost) -> bool:
        """True iff the analyst can afford ``cost`` right now; no mutation."""
        rec = self.get_budget(analyst_id)
        return (
            rec.used_info + cost.info <= rec.max_info
            and rec.used_calls + cost.calls <= rec.max_calls
        )

    def update_budget(self, analyst_id: str, cost: Cost) -> BudgetRecord:
        """Deduct ``cost``; BudgetError when it does not fit."""
        rec = self._apply(analyst_id, cost.info, cost.calls, must_fit=True)
        if rec is None:
            raise BudgetError(f"deduction of {cost} would exceed budget for {analyst_id!r}")
        return rec

    def get_budget(self, analyst_id: str) -> BudgetRecord:
        """Current record, after applying any due lazy refresh."""
        encode_analyst_id(analyst_id)
        with self._lock:
            return self._current(analyst_id, self._clock())

    # -- admission protocol ---------------------------------------------------

    def try_reserve(self, analyst_id: str, cost: Cost) -> BudgetRecord | None:
        """Atomically check and deduct; None when the budget does not cover it."""
        return self._apply(analyst_id, cost.info, cost.calls, must_fit=True)

    def settle(self, analyst_id: str, reserved: Cost, actual: Cost) -> BudgetRecord:
        """Adjust a reservation down to the realized cost."""
        return self._apply(analyst_id, actual.info - reserved.info, actual.calls - reserved.calls)

    def release(self, analyst_id: str, reserved: Cost) -> BudgetRecord:
        """Return a reservation in full (mechanism failed, nothing released)."""
        return self.settle(analyst_id, reserved, Cost(0, 0))

    def reset_usage(self, analyst_id: str) -> BudgetRecord:
        """Admin operation: zero an analyst's usage, journaled as a refund."""
        with self._lock:
            rec = self.get_budget(analyst_id)
            return self._apply(analyst_id, -rec.used_info, -rec.used_calls)

    def analysts(self) -> list[str]:
        with self._lock:
            return sorted(self._records)


def _clamp(value: int, upper: int) -> int:
    return max(0, min(value, upper))
