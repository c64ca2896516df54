"""Query service: classify, admit, fetch, privatize, settle, respond.

The execution flow for one query:

  1. classify the query into its (domain, sensitivity) cell: the group-by
     column's ColumnMeta
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

import contextlib
import json
import socket
import socketserver
import threading
from dataclasses import dataclass
from datetime import date
from typing import Mapping

from .budget import BudgetLedger, Cost, actual_cost, encode_analyst_id, expected_cost
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
from .store import ColumnMeta, FilterTerms, QueryError, Table, load_snapshot, normalize_filter

__all__ = [
    "QuerySpec",
    "QueryResponse",
    "Rejection",
    "QueryService",
    "ServiceServer",
    "ledger_from_config",
    "service_from_config",
]

# A longer request line is refused and its connection closed.
MAX_REQUEST_BYTES = 1 << 20
# A read or a send that waits this long ends its connection, so a client that
# never reads its replies cannot hold up ``ServiceServer.stop()``.
CONNECTION_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class QuerySpec:
    """An analyst's top-k request against one table snapshot.

    Construction refuses a malformed field, so nothing malformed reaches
    admission, and turns the wire filter mapping into the terms of
    :func:`~dpquery.store.normalize_filter`, which ``filter`` then holds;
    ``execute`` checks their columns against the table.
    """

    analyst_id: str
    table: str
    group_by: str
    k: int
    filter: Mapping[str, object] | FilterTerms | None = None
    as_of_date: date | None = None

    def __post_init__(self) -> None:
        for name in ("analyst_id", "table", "group_by"):
            if not isinstance(getattr(self, name), str):
                raise QueryError(f"{name} must be a string")
        encode_analyst_id(self.analyst_id)
        if type(self.k) is not int:  # bool is an int subclass; 5.0 is a float
            raise QueryError(f"k must be an integer, not {type(self.k).__name__}")
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if self.as_of_date is not None and not isinstance(self.as_of_date, date):
            raise QueryError(f"as_of_date must be a date, not {type(self.as_of_date).__name__}")
        object.__setattr__(self, "filter", normalize_filter(self.filter))


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


# Keyed by (known domain, restricted sensitivity) of the query's cell.
_MECHANISM_NAMES = {
    (True, True): "known_laplace",
    (True, False): "known_topk",
    (False, True): "unknown_laplace",
    (False, False): "unknown_topk",
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

    def classify(self, query: QuerySpec) -> ColumnMeta:
        """The query's cell: its group-by column's declared metadata.

        A column without declared metadata is in the unknown domain with
        unrestricted sensitivity and tau = 1.
        """
        return self.table(query.table).schema.meta(query.group_by) or ColumnMeta(query.group_by)

    def _noise_for(self, query: QuerySpec, cell: ColumnMeta, as_of: date) -> KeyedNoise:
        canon = canonical_query(
            table=query.table,
            group_by=query.group_by,
            terms=query.filter,
            k=query.k,
            sensitivity="unrestricted" if cell.delta_sensitivity is None else "restricted",
            tau=cell.tau,
            delta_sensitivity=cell.delta_sensitivity or 0,
        )
        seed = derive_seed(NoiseKey(secret=self._secret, query_canon=canon, data_date=as_of))
        return KeyedNoise(seed)

    def _run_mechanism(
        self, query: QuerySpec, cell: ColumnMeta, table: Table, as_of: date
    ) -> DPResult:
        noise = self._noise_for(query, cell, as_of)
        aggregation = "distinct" if cell.tau == 1 else "raw"
        if cell.domain is not None:
            observed = table.group_counts(query.group_by, query.filter, aggregation)
            full = [(value, observed.get(value, 0)) for value in cell.domain]
            if cell.delta_sensitivity is not None:
                pairs = lap_known(full, cell.delta_sensitivity, cell.tau, self._params, noise)
            else:
                pairs = exp_known(full, query.k, cell.tau, self._params, noise)
            return DPResult(entries=tuple(pairs))
        fetch_n = translate_query(
            query.k, k_multiplier=self._fetch.k_multiplier, min_fetch=self._fetch.min_fetch
        )
        slice_ = table.top_counts(
            query.group_by, query.filter, limit=fetch_n + 1, aggregation=aggregation
        )
        ranked = rank_histogram(slice_.entries, fetch_n + 1)
        if cell.delta_sensitivity is not None:
            return lap_unknown(
                ranked, cell.delta_sensitivity, fetch_n, cell.tau, self._params, noise
            )
        return gumbel_unknown(ranked, query.k, fetch_n, cell.tau, self._params, noise)

    def execute(self, query: QuerySpec) -> QueryResponse | Rejection:
        table = self.table(query.table)
        as_of = query.as_of_date or table.as_of
        if as_of != table.as_of:
            raise QueryError(
                f"snapshot for {as_of.isoformat()} unavailable "
                f"(table holds {table.as_of.isoformat()})"
            )
        # A malformed filter or an unknown column is refused before admission.
        for column in (query.group_by, *(column for column, _, _ in query.filter)):
            table.require_column(column)
        cell = self.classify(query)
        expected = expected_cost(cell, query.k)
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
            result = self._run_mechanism(query, cell, table, as_of)
        except Exception:
            self._ledger.release(query.analyst_id, expected)
            raise
        charge = actual_cost(result, cell, query.k)
        record = self._ledger.settle(query.analyst_id, expected, charge)
        rounded = tuple((e, max(0, round(v))) for e, v in result.entries)
        return QueryResponse(
            entries=rounded,
            noisy_values=tuple(v for _, v in result.entries),
            truncated=result.terminated_by_bot,
            threshold_value=result.bot_value,
            mechanism=_MECHANISM_NAMES[cell.domain is not None, cell.delta_sensitivity is not None],
            k=query.k,
            cost_charged=charge,
            budget_remaining=record.remaining(),
        )

    def close(self) -> None:
        self._ledger.close()


def ledger_from_config(config: ServiceConfig) -> BudgetLedger:
    """The deployment's budget ledger: its defaults, period, overrides and state."""
    return BudgetLedger(
        default_info=config.budget.default_info,
        default_calls=config.budget.default_calls,
        period=config.budget.period,
        overrides=config.budget.overrides,
        state_dir=config.state_dir,
    )


def service_from_config(config: ServiceConfig, tables: Mapping[str, Table] | None = None) -> QueryService:
    """Build a service, loading table snapshots from the config when not given."""
    if tables is None:
        tables = {name: load_snapshot(path) for name, path in config.tables.items()}
    return QueryService(
        tables=tables,
        secret=config.secret,
        params=config.params,
        ledger=ledger_from_config(config),
        fetch=config.fetch,
    )


def _parse_query(payload: Mapping[str, object]) -> QuerySpec:
    """A query request; :class:`QuerySpec` checks its fields."""
    as_of = payload.get("as_of_date")
    if as_of is not None and not isinstance(as_of, str):
        raise QueryError("as_of_date must be an ISO date string")
    return QuerySpec(
        analyst_id=payload["analyst_id"],
        table=payload["table"],
        group_by=payload["group_by"],
        k=payload["k"],
        filter=payload.get("filter"),
        as_of_date=date.fromisoformat(as_of) if as_of else None,
    )


def _encode(payload: Mapping[str, object]) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


class _RequestHandler(socketserver.StreamRequestHandler):
    server: "ServiceServer"

    @property
    def timeout(self) -> float:  # the socket timeout ``setup()`` sets
        return CONNECTION_TIMEOUT_S

    def handle(self) -> None:
        # A client idle, not reading or gone: close its connection quietly.
        with contextlib.suppress(TimeoutError, ConnectionError):
            while line := self.rfile.readline(MAX_REQUEST_BYTES + 1):
                if len(line) > MAX_REQUEST_BYTES and not line.endswith(b"\n"):
                    error = f"request line longer than {MAX_REQUEST_BYTES} bytes"
                    self.wfile.write(_encode({"status": "error", "error": error}))
                    return
                line = line.strip()
                if line:
                    self.wfile.write(_encode(self.server._dispatch(line)))


class ServiceServer(socketserver.ThreadingTCPServer):
    """Local socket front end: one JSON request per line, one reply per line."""

    allow_reuse_address = True
    request_queue_size = 128  # the backlog socket.create_server would give

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _RequestHandler)
        self._service = service
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self) -> "ServiceServer":
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self

    def process_request(self, request: socket.socket, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

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
                return {"status": "ok", **rec.to_dict()}
            if op == "query":
                outcome = self._service.execute(_parse_query(payload))
                return outcome.to_dict()
            return {"status": "error", "error": f"unknown op {op!r}"}
        except Exception as exc:  # protocol boundary: report, never deduct
            return {"status": "error", "error": str(exc)}

    def stop(self) -> None:
        """Stop accepting, answer in-flight requests, flush the ledger.

        Open connections are shut for reading: an idle worker sees end of
        input and exits at once, a busy one finishes its request and sends
        the reply.  Every worker is joined before the ledger closes, so a
        query in flight at ``stop()`` is answered and its charge journaled.
        """
        self.shutdown()
        with self._connections_lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already closed it
        self.server_close()
        self._service.close()
