"""Query service: classify, admit, fetch, privatize, settle, respond.

The execution flow for one query:

  1. classify the group-by column into its (domain, sensitivity) cell
  2. compute the worst-case expected cost
  3. atomically reserve that cost against the analyst's budget (reject with
     a reason if it does not fit)
  4. translate the requested k into a store fetch size
  5. fetch the exact top slice (or full zero-filled domain)
  6. run the matching mechanism with noise keyed by
     (secret, canonical query, snapshot date)
  7. settle the reservation down to the realized cost
  8. respond with rounded counts, raw noisy values and the charge

A failure after admission releases the reservation, so budget moves iff a
private result was produced.  The service is also exposed over a local
socket speaking newline-delimited JSON.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from datetime import date
from typing import Mapping

from .budget import (
    BudgetLedger,
    Cost,
    QueryClass,
    actual_cost,
    encode_analyst_id,
    expected_cost,
)
from .config import FetchRule, ServiceConfig
from .mechanisms import (
    DPResult,
    PrivacyParams,
    exp_known,
    gumbel_unknown,
    lap_known,
    lap_unknown,
    rank_histogram,
    translate_query,
)
from .noise import KeyedNoise, NoiseKey, canonical_query, derive_seed
from .store import QueryError, Table, load_snapshot, normalize_filter

__all__ = [
    "QuerySpec",
    "QueryResponse",
    "Rejection",
    "QueryService",
    "ServiceServer",
    "service_from_config",
]


@dataclass(frozen=True)
class QuerySpec:
    """An analyst's top-k request against one table snapshot."""

    analyst_id: str
    table: str
    group_by: str
    k: int
    filter: Mapping[str, object] | None = None
    as_of_date: date | None = None


@dataclass(frozen=True)
class QueryResponse:
    """Private answer plus the charge it incurred.

    ``entries`` hold display counts (rounded to nearest integer, clamped at
    zero); ``noisy_values`` carry the raw released reals in the same order.
    ``truncated`` is set when the output stopped at the noisy threshold,
    whose value is disclosed in ``threshold_value`` only for the restricted
    unknown-domain mechanism.
    """

    entries: tuple[tuple[str, int], ...]
    noisy_values: tuple[float, ...]
    truncated: bool
    threshold_value: float | None
    mechanism: str
    k: int
    cost_charged: Cost
    budget_remaining: Cost

    def to_dict(self) -> dict:
        return {
            "status": "ok",
            "entries": [[e, c] for e, c in self.entries],
            "noisy_values": list(self.noisy_values),
            "truncated": self.truncated,
            "threshold_value": self.threshold_value,
            "mechanism": self.mechanism,
            "k": self.k,
            "cost_charged": {"info": self.cost_charged.info, "calls": self.cost_charged.calls},
            "budget_remaining": {
                "info": self.budget_remaining.info,
                "calls": self.budget_remaining.calls,
            },
        }


@dataclass(frozen=True)
class Rejection:
    """Admission refused; nothing was executed and nothing was charged."""

    reason: str
    expected_cost: Cost
    budget_remaining: Cost

    def to_dict(self) -> dict:
        return {
            "status": "rejected",
            "reason": self.reason,
            "expected_cost": {"info": self.expected_cost.info, "calls": self.expected_cost.calls},
            "budget_remaining": {
                "info": self.budget_remaining.info,
                "calls": self.budget_remaining.calls,
            },
        }


_MECHANISM_NAMES = {
    ("known", "restricted"): "known_laplace",
    ("known", "unrestricted"): "known_topk",
    ("unknown", "restricted"): "unknown_laplace",
    ("unknown", "unrestricted"): "unknown_topk",
}


class QueryService:
    """Orchestrates the store, mechanisms, noise keying and budget ledger."""

    def __init__(
        self,
        tables: Mapping[str, Table],
        secret: bytes,
        params: PrivacyParams,
        ledger: BudgetLedger,
        fetch: FetchRule = FetchRule(),
    ):
        self._tables = dict(tables)
        self._secret = secret
        self._params = params
        self._ledger = ledger
        self._fetch = fetch

    @property
    def ledger(self) -> BudgetLedger:
        return self._ledger

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise QueryError(f"unknown table {name!r}")
        return table

    def classify(self, query: QuerySpec) -> QueryClass:
        """Table-cell lookup for the group-by column.

        Columns without declared metadata default to the unknown domain
        with unrestricted sensitivity and tau = 1.
        """
        table = self.table(query.table)
        meta = table.schema.meta(query.group_by)
        if meta is None:
            return QueryClass(domain="unknown", sensitivity="unrestricted")
        domain = "known" if meta.domain is not None else "unknown"
        if meta.delta_sensitivity is not None:
            return QueryClass(
                domain=domain,
                sensitivity="restricted",
                delta_sensitivity=meta.delta_sensitivity,
                tau=meta.tau,
                domain_size=len(meta.domain) if meta.domain is not None else None,
            )
        return QueryClass(
            domain=domain,
            sensitivity="unrestricted",
            tau=meta.tau,
            domain_size=len(meta.domain) if meta.domain is not None else None,
        )

    def _noise_for(self, query: QuerySpec, qclass: QueryClass, as_of: date) -> KeyedNoise:
        canon = canonical_query(
            table=query.table,
            group_by=query.group_by,
            filter_spec=query.filter,
            k=query.k,
            sensitivity=qclass.sensitivity,
            tau=qclass.tau,
            delta_sensitivity=(
                qclass.delta_sensitivity if qclass.sensitivity == "restricted" else 0
            ),
        )
        seed = derive_seed(NoiseKey(secret=self._secret, query_canon=canon, data_date=as_of))
        return KeyedNoise(seed)

    def _run_mechanism(
        self, query: QuerySpec, qclass: QueryClass, table: Table, as_of: date
    ) -> DPResult:
        noise = self._noise_for(query, qclass, as_of)
        aggregation = "distinct" if qclass.tau == 1 else "raw"
        fetch_n = translate_query(
            query.k,
            qclass.domain,
            d=qclass.domain_size,
            k_multiplier=self._fetch.k_multiplier,
            min_fetch=self._fetch.min_fetch,
        )
        if qclass.domain == "known":
            observed = table.group_counts(query.group_by, query.filter, aggregation)
            domain_values = table.domain_values(query.group_by) or ()
            full = [(value, observed.get(value, 0)) for value in domain_values]
            if qclass.sensitivity == "restricted":
                pairs = lap_known(
                    full, qclass.delta_sensitivity, qclass.tau, self._params, noise
                )
            else:
                pairs = exp_known(full, query.k, qclass.tau, self._params, noise)
            return DPResult(entries=tuple(pairs))
        slice_ = table.top_counts(
            query.group_by, query.filter, limit=fetch_n + 1, aggregation=aggregation
        )
        ranked = rank_histogram(slice_.entries, fetch_n + 1)
        if qclass.sensitivity == "restricted":
            return lap_unknown(
                ranked, qclass.delta_sensitivity, fetch_n, qclass.tau, self._params, noise
            )
        return gumbel_unknown(ranked, query.k, fetch_n, qclass.tau, self._params, noise)

    def execute(self, query: QuerySpec) -> QueryResponse | Rejection:
        if query.k < 1:
            raise QueryError(f"k must be >= 1, got {query.k}")
        table = self.table(query.table)
        as_of = query.as_of_date or table.as_of
        if as_of != table.as_of:
            raise QueryError(
                f"snapshot for {as_of.isoformat()} unavailable "
                f"(table holds {table.as_of.isoformat()})"
            )
        # A malformed filter or an unknown column is refused before admission.
        for column in (query.group_by, *(column for column, _ in normalize_filter(query.filter))):
            table.require_column(column)
        qclass = self.classify(query)
        expected = expected_cost(qclass, query.k)
        reserved = self._ledger.try_reserve(query.analyst_id, expected)
        if reserved is None:
            record = self._ledger.get_budget(query.analyst_id)
            exhausted = record.remaining_info <= 0 or (
                expected.calls > 0 and record.remaining_calls <= 0
            )
            return Rejection(
                reason="budget_exhausted" if exhausted else "insufficient_for_query",
                expected_cost=expected,
                budget_remaining=record.remaining(),
            )
        try:
            result = self._run_mechanism(query, qclass, table, as_of)
        except Exception:
            self._ledger.release(query.analyst_id, expected)
            raise
        charge = actual_cost(result, qclass, query.k)
        record = self._ledger.settle(query.analyst_id, expected, charge)
        rounded = tuple((e, max(0, round(v))) for e, v in result.entries)
        return QueryResponse(
            entries=rounded,
            noisy_values=tuple(v for _, v in result.entries),
            truncated=result.terminated_by_bot,
            threshold_value=result.bot_value,
            mechanism=_MECHANISM_NAMES[(qclass.domain, qclass.sensitivity)],
            k=query.k,
            cost_charged=charge,
            budget_remaining=record.remaining(),
        )

    def close(self) -> None:
        self._ledger.close()


def service_from_config(config: ServiceConfig, tables: Mapping[str, Table] | None = None) -> QueryService:
    """Build a service, loading table snapshots from the config when not given."""
    if tables is None:
        tables = {name: load_snapshot(path) for name, path in config.tables.items()}
    ledger = BudgetLedger(
        default_info=config.budget.default_info,
        default_calls=config.budget.default_calls,
        period=config.budget.period,
        overrides=config.budget.overrides,
        state_dir=config.state_dir,
    )
    return QueryService(
        tables=tables,
        secret=config.secret,
        params=config.params,
        ledger=ledger,
        fetch=config.fetch,
    )


def _parse_query(payload: Mapping[str, object]) -> QuerySpec:
    """A query request, refused unless its names are strings, the analyst id
    fits the budget journal and ``k`` is a JSON integer."""
    for name in ("analyst_id", "table", "group_by"):
        if not isinstance(payload[name], str):
            raise QueryError(f"{name} must be a string")
    encode_analyst_id(payload["analyst_id"])
    k = payload["k"]
    if type(k) is not int:  # JSON true is a bool, 5.0 a float
        raise QueryError(f"k must be a JSON integer, not {type(k).__name__}")
    as_of = payload.get("as_of_date")
    return QuerySpec(
        analyst_id=payload["analyst_id"],
        table=payload["table"],
        group_by=payload["group_by"],
        k=k,
        filter=payload.get("filter"),
        as_of_date=date.fromisoformat(str(as_of)) if as_of else None,
    )


def _encode(payload: Mapping[str, object]) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


class ServiceServer:
    """Local socket front end: one JSON request per line, one reply per line."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0):
        self._service = service
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)  # lets the accept loop notice shutdown
        self._host, self._port = self._listener.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        self._closing = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    def start(self) -> "ServiceServer":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            with self._connections_lock:
                self._connections.add(conn)
            worker = threading.Thread(target=self._handle, args=(conn,), daemon=True)
            worker.start()
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(worker)

    def _handle(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rwb") as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    stream.write(_encode(self._dispatch(line)))
                    stream.flush()
        finally:
            with self._connections_lock:
                self._connections.discard(conn)

    def _dispatch(self, line: bytes) -> dict:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"status": "error", "error": f"invalid JSON: {exc}"}
        if not isinstance(payload, dict):
            return {"status": "error", "error": "request must be a JSON object"}
        op = payload.get("op", "query")
        try:
            if op == "ping":
                return {"status": "ok", "pong": True}
            if op == "get_budget":
                rec = self._service.ledger.get_budget(payload["analyst_id"])
                return {
                    "status": "ok",
                    "analyst_id": rec.analyst_id,
                    "max": {"info": rec.max_info, "calls": rec.max_calls},
                    "used": {"info": rec.used_info, "calls": rec.used_calls},
                }
            if op == "query":
                outcome = self._service.execute(_parse_query(payload))
                return outcome.to_dict()
            return {"status": "error", "error": f"unknown op {op!r}"}
        except Exception as exc:  # protocol boundary: report, never deduct
            return {"status": "error", "error": str(exc)}

    def stop(self) -> None:
        """Stop accepting, wait for in-flight requests, flush the ledger.

        Open connections are shut for reading: an idle worker sees end of
        input and exits at once, a busy one still sends its reply.  A worker
        that outlives the wait finds the ledger closed, and its query fails
        instead of being answered with a charge that is never journaled.
        """
        self._closing.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        self._listener.close()
        with self._connections_lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already closed it
        for worker in self._threads:
            worker.join(timeout=5)
        self._service.close()
