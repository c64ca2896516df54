"""Per-analyst budget ledger and query cost rules.

Each analyst holds a two-dimensional budget: an information budget (units
of released noisy values) and a call budget (number of unknown-domain
queries).  Admission charges the worst-case expected cost of a query;
after the mechanism runs, the charge is settled down to the realized cost,
so an analyst pays for what they actually received.

Cost rules per (domain, sensitivity) cell of the group-by column's
:class:`~dpquery.store.ColumnMeta`, for a top-k query with restricted
sensitivity bound Delta and a release o:

    known/restricted      expected (Delta, 0)        actual (Delta, 0)
    unknown/restricted    expected (Delta, 1)        actual (1, 1)
    known/unrestricted    expected (2k, 0)           actual (2k, 0)
    unknown/unrestricted  expected (2k + 1, 1)       actual (2|o| + 1 - [ended at sentinel], 1)

The ledger is linearizable: check-and-deduct for one admission is a single
atomic step under one lock, and concurrent deducts never lose updates or
push usage past the maximum.  State is durable through an append-only
binary journal plus a JSON snapshot (see docs/formats.md).  A live change
and the replay of its journal record take the same two steps, at the same
millisecond, on the analyst's one mutable account: register or refresh,
then add the change clamped to [0, max].
"""

from __future__ import annotations

import json
import os
import struct
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .mechanisms import DPResult
from .store import ColumnMeta

__all__ = [
    "Cost",
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
_MAX_PERIOD_DAYS = 36_500


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


def expected_cost(cell: ColumnMeta, k: int) -> Cost:
    """Worst-case cost charged at admission time.

    ``cell`` is the group-by column's metadata: an unknown domain
    (``domain is None``) also costs one call, and a restricted column
    (``delta_sensitivity`` set) costs Delta whatever k is.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    calls = int(cell.domain is None)
    if cell.delta_sensitivity is not None:
        return Cost(cell.delta_sensitivity, calls)
    return Cost(2 * k + calls, calls)


def actual_cost(result: DPResult, cell: ColumnMeta, k: int) -> Cost:
    """Realized cost settled after the mechanism ran.

    Known domains pay their expected cost.  Unknown-domain restricted
    releases pay (1, 1); unrestricted ones pay for what they got:
    2 * |entries| + 1, minus 1 when the output ended at the sentinel.
    """
    if cell.domain is not None:
        return expected_cost(cell, k)
    if cell.delta_sensitivity is not None:
        return Cost(1, 1)
    return Cost(2 * len(result.entries) + 1 - int(result.terminated_by_bot), 1)


class BudgetRecord(NamedTuple):
    """One analyst's budget state at a point in time (an immutable view)."""

    analyst_id: str
    max_info: int
    max_calls: int
    used_info: int
    used_calls: int
    period: str
    last_reset: datetime

    @property
    def remaining_info(self) -> int:
        return self.max_info - self.used_info

    @property
    def remaining_calls(self) -> int:
        return self.max_calls - self.used_calls

    def remaining(self) -> Cost:
        return Cost(self.remaining_info, self.remaining_calls)

    def to_dict(self) -> dict:
        """The budget reply of the socket protocol and ``dpquery budget show``."""
        return {
            "analyst_id": self.analyst_id,
            "max": {"info": self.max_info, "calls": self.max_calls},
            "used": {"info": self.used_info, "calls": self.used_calls},
        }


def _period_length(period: object) -> timedelta | None:
    """None for ``monthly``, the length of ``days:N``; ValueError otherwise.
    N is bounded so that every next period start is a valid date."""
    if period == "monthly":
        return None
    days = period[5:] if isinstance(period, str) and period.startswith("days:") else ""
    if not (days.isascii() and days.isdigit() and 1 <= int(days) <= _MAX_PERIOD_DAYS):
        raise ValueError(
            f"refresh period must be 'monthly' or 'days:N' with N from 1 to "
            f"{_MAX_PERIOD_DAYS}, not {period!r}"
        )
    return timedelta(days=int(days))


def _period_start(length: timedelta | None, last_reset: datetime, now: datetime) -> datetime:
    """Start of the period containing ``now`` (refresh boundary)."""
    if length is None:
        return datetime(now.year, now.month, 1, tzinfo=timezone.utc)
    if now - last_reset < length:
        return last_reset
    elapsed = (now - last_reset) // length
    return last_reset + elapsed * length


def _boundary_ms(length: timedelta | None, last_reset: datetime) -> int:
    """The earliest ``now`` for which ``_period_start`` lies after
    ``last_reset``, in epoch milliseconds, floored."""
    if length is None:
        year, month = divmod(last_reset.year * 12 + last_reset.month, 12)
        return (datetime(year, month + 1, 1, tzinfo=timezone.utc) - _EPOCH) // _MILLISECOND
    return (last_reset + length - _EPOCH) // _MILLISECOND


@dataclass(slots=True)
class _Account:
    """One analyst's mutable budget state, guarded by the ledger's lock.

    No time before ``boundary_ms`` can refresh the account, so none needs
    the date arithmetic.
    """

    max_info: int
    max_calls: int
    used_info: int
    used_calls: int
    last_reset: datetime
    boundary_ms: int

    def add(self, info: int, calls: int) -> None:
        """Add a usage change, each total clamped to [0, max]."""
        used = self.used_info + info
        if used > self.max_info:
            used = self.max_info
        self.used_info = used if used > 0 else 0
        used = self.used_calls + calls
        if used > self.max_calls:
            used = self.max_calls
        self.used_calls = used if used > 0 else 0


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

    One lock covers the accounts, the journal and the snapshot.  A change is
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
        self._defaults = (default_info, default_calls)
        self._period = period
        self._length = _period_length(period)
        self._overrides = dict(overrides or {})
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._accounts: dict[str, _Account] = {}
        self._lock = threading.RLock()
        self._journal_fh = None
        self._state_dir = Path(state_dir) if state_dir is not None else None
        if self._state_dir is not None:
            self._journal_path = self._state_dir / "budget.journal"
            self._snapshot_path = self._state_dir / "budget.snapshot.json"
            self._state_dir.mkdir(parents=True, exist_ok=True)
            self._recover()
            self._journal_fh = open(self._journal_path, "ab")

    # -- persistence -------------------------------------------------------

    def _recover(self) -> None:
        if self._snapshot_path.exists():
            snap = json.loads(self._snapshot_path.read_text())
            if snap.get("version") != _SNAPSHOT_VERSION:
                raise BudgetError(f"unsupported snapshot version {snap.get('version')}")
            for analyst_id, raw in snap["records"].items():
                last_reset = datetime.fromtimestamp(raw["last_reset_ms"] / 1000, tz=timezone.utc)
                self._accounts[analyst_id] = _Account(
                    raw["max_info"], raw["max_calls"], raw["used_info"], raw["used_calls"],
                    last_reset, _boundary_ms(self._length, last_reset),
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

        Per record, this is what the live change did: :meth:`_account` at
        the record's timestamp, then ``add``.  Accounts are cached by raw id,
        so an id is decoded and looked up again only when a record reaches
        the account's next period start.
        """
        accounts: dict[bytes, _Account] = {}
        get, add = accounts.get, _Account.add
        unpack, size = _JOURNAL_RECORD.unpack_from, _JOURNAL_RECORD.size
        pos, last = 0, len(data) - size  # the last offset a record's tail fits at
        while pos + 2 <= last:
            id_end = pos + 2 + (data[pos] << 8 | data[pos + 1])
            if id_end > last:
                break  # torn tail from a crash mid-append
            raw = data[pos + 2 : id_end]
            info, calls, ts_ms = unpack(data, id_end)
            pos = id_end + size
            account = get(raw)
            if account is None or ts_ms >= account.boundary_ms:
                account = accounts[raw] = self._account(raw.decode("utf-8"), ts_ms)
            add(account, info, calls)
        return pos

    def _append_journal(self, encoded_id: bytes, info: int, calls: int, now_ms: int) -> None:
        if self._state_dir is None:
            return
        if self._journal_fh is None:
            raise BudgetError("ledger is closed; the change cannot be journaled")
        self._journal_fh.write(
            len(encoded_id).to_bytes(2, "big") + encoded_id + _JOURNAL_RECORD.pack(info, calls, now_ms)
        )
        self._journal_fh.flush()

    def snapshot(self) -> None:
        """Write a snapshot and truncate the journal."""
        if self._state_dir is None:
            return
        with self._lock:
            records = {
                a: {
                    "max_info": acc.max_info,
                    "max_calls": acc.max_calls,
                    "used_info": acc.used_info,
                    "used_calls": acc.used_calls,
                    "last_reset_ms": int(acc.last_reset.timestamp() * 1000),
                }
                for a, acc in self._accounts.items()
            }
            blob = json.dumps(
                {
                    "version": _SNAPSHOT_VERSION,
                    "taken_at_ms": self._now_ms(),
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

    # -- the account path ------------------------------------------------------

    def _now_ms(self) -> int:
        return int(self._clock().timestamp() * 1000)

    def _account(self, analyst_id: str, now_ms: int) -> _Account:
        """The analyst's account at ``now_ms``, registered on first contact
        (overrides, else the defaults; reset at the start of the period
        holding ``now_ms``) and refreshed when a new period has begun."""
        account = self._accounts.get(analyst_id)
        if account is not None and now_ms < account.boundary_ms:
            return account
        now = datetime.fromtimestamp(now_ms / 1000, tz=timezone.utc)
        if account is None:
            start = _period_start(self._length, now, now)
            account = self._accounts[analyst_id] = _Account(
                *self._overrides.get(analyst_id, self._defaults), 0, 0,
                start, _boundary_ms(self._length, start),
            )
            return account
        start = _period_start(self._length, account.last_reset, now)
        if start > account.last_reset:
            account.used_info = account.used_calls = 0
            account.last_reset = start
            account.boundary_ms = _boundary_ms(self._length, start)
        return account

    def _record(self, analyst_id: str, account: _Account) -> BudgetRecord:
        return BudgetRecord(
            analyst_id, account.max_info, account.max_calls, account.used_info,
            account.used_calls, self._period, account.last_reset,
        )

    def _apply(self, analyst_id: str, info: int, calls: int, must_fit: bool = False) -> BudgetRecord | None:
        """The one mutation: journal a usage change, then apply it.

        With ``must_fit`` a change that does not fit the budget is refused
        (None) and nothing happens; otherwise usage is clamped to [0, max],
        as replay clamps each record.  A change of zero is not journaled.
        """
        encoded = encode_analyst_id(analyst_id)
        with self._lock:
            now_ms = self._now_ms()  # one reading: the refresh and the record agree
            account = self._account(analyst_id, now_ms)
            used_info, used_calls = account.used_info + info, account.used_calls + calls
            if must_fit and (used_info > account.max_info or used_calls > account.max_calls):
                return None
            if info or calls:
                self._append_journal(encoded, info, calls, now_ms)
            account.add(info, calls)
            return self._record(analyst_id, account)

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
            return self._record(analyst_id, self._account(analyst_id, self._now_ms()))

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
            return sorted(self._accounts)
