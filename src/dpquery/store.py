"""In-process columnar store for group-by count queries.

Stands in for the distributed OLAP backend: tables are immutable snapshots
of event records, and the single query primitive returns the top slice of
an exact (non-private) group-by count, sorted by count descending with ties
broken by element id ascending.  The privacy layer only ever sees this
slice.

Every column, ``member_id`` and ``event_date`` are dictionary-encoded: a
sorted tuple of the distinct values plus one int32 code per row.  Because
the vocabulary is sorted, ascending code order is ascending value order,
so the tie break needs no string comparison.  The ranked unfiltered counts
of each (column, aggregation) are computed once at construction, which
makes an unfiltered top slice a tuple slice and unfiltered group counts a
dict copy.  A filter is a boolean row mask over codes; distinct counts
under it go through a per-column (group, member) pair id fixed at
construction, so no query sorts rows.
"""

from __future__ import annotations

import csv
import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "EventRecord",
    "ColumnMeta",
    "Schema",
    "HistogramSlice",
    "Table",
    "FilterTerms",
    "IngestError",
    "QueryError",
    "ingest",
    "load_ndjson",
    "load_csv",
    "normalize_filter",
    "save_snapshot",
    "load_snapshot",
]

RESERVED_FIELDS = ("member_id", "item", "event_date")
DEFAULT_RETENTION_DAYS = 30


class IngestError(ValueError):
    """Schema-invalid rows; carries (row_index, reason) pairs."""

    def __init__(self, offending: list[tuple[int, str]]):
        self.offending = offending
        shown = "; ".join(f"row {i}: {why}" for i, why in offending[:5])
        more = "" if len(offending) <= 5 else f" (+{len(offending) - 5} more)"
        super().__init__(f"schema mismatch: {shown}{more}")


class QueryError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One engagement event: a member interacted with an item on a date."""

    member_id: str
    item: str
    event_date: date
    dimensions: Mapping[str, str]


@dataclass(frozen=True)
class ColumnMeta:
    """Declared metadata for one groupable column.

    ``domain`` is the full value list for known-domain columns, or None when
    the universe is unknown or too large to enumerate.  ``delta_sensitivity``
    bounds how many counts one member can change (None = unrestricted) and
    ``tau`` bounds how much each count can change.  tau > 1 is declared
    metadata only; the store does not clamp data to it.
    """

    name: str
    domain: tuple[str, ...] | None = None
    delta_sensitivity: int | None = None
    tau: int = 1

    def __post_init__(self) -> None:
        if self.domain is not None:
            if len(set(self.domain)) != len(self.domain):
                raise QueryError(f"column {self.name!r}: declared domain has duplicates")
        if self.delta_sensitivity is not None and self.delta_sensitivity < 1:
            raise QueryError(f"column {self.name!r}: delta sensitivity must be >= 1")
        if self.tau < 1:
            raise QueryError(f"column {self.name!r}: tau must be >= 1")


@dataclass(frozen=True)
class Schema:
    """Column declarations for a table.  ``item`` is always groupable."""

    columns: Mapping[str, ColumnMeta]
    retention_days: int = DEFAULT_RETENTION_DAYS

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "Schema":
        cols: dict[str, ColumnMeta] = {}
        for name, meta in dict(raw.get("columns", {})).items():
            meta = meta or {}
            domain = meta.get("domain")
            cols[name] = ColumnMeta(
                name=name,
                domain=tuple(domain) if domain is not None else None,
                delta_sensitivity=meta.get("delta"),
                tau=int(meta.get("tau", 1)),
            )
        return cls(columns=cols, retention_days=int(raw.get("retention_days", DEFAULT_RETENTION_DAYS)))

    def to_dict(self) -> dict:
        cols: dict[str, dict] = {}
        for name, meta in self.columns.items():
            entry: dict = {}
            if meta.domain is not None:
                entry["domain"] = list(meta.domain)
            if meta.delta_sensitivity is not None:
                entry["delta"] = meta.delta_sensitivity
            if meta.tau != 1:
                entry["tau"] = meta.tau
            cols[name] = entry
        return {"columns": cols, "retention_days": self.retention_days}

    def dimension_columns(self) -> list[str]:
        return [c for c in self.columns if c != "item"]

    def meta(self, column: str) -> ColumnMeta | None:
        return self.columns.get(column)


@dataclass(frozen=True)
class HistogramSlice:
    """Top slice of an exact group-by count.

    Entries are (element_id, count), count descending, ties by element id
    ascending, at most ``truncated_at`` of them.  Ranks past the real
    entries are conceptually zero; mechanisms pad with 0 as needed.
    """

    entries: tuple[tuple[str, int], ...]
    truncated_at: int
    aggregation: str


# One filter term: (column, op, values).  ``op`` is "=" for equality (one
# value) and "@" for membership (sorted, deduplicated values).
FilterTerms = tuple[tuple[str, str, tuple[str, ...]], ...]


def normalize_filter(filter_spec: Mapping[str, object] | None) -> FilterTerms:
    """Normalize a filter to sorted (column, op, values) conjunctions.

    A term maps a column to a string (equality, op "=") or to a list, tuple
    or set of values (membership, op "@", compared as strings), so a
    one-element list stays membership.  Anything else, and an empty
    membership set, raises :class:`QueryError` naming the column.
    """
    if not filter_spec:
        return ()
    if not isinstance(filter_spec, Mapping):
        raise QueryError(f"filter must map columns to values, got {type(filter_spec).__name__}")
    terms = []
    for column in sorted(filter_spec):
        value = filter_spec[column]
        if isinstance(value, str):
            terms.append((column, "=", (value,)))
        elif isinstance(value, (list, tuple, set, frozenset)):
            if not value:
                raise QueryError(f"empty membership set for filter column {column!r}")
            terms.append((column, "@", tuple(sorted({str(v) for v in value}))))
        else:
            raise QueryError(
                f"filter column {column!r} needs a string or a list of strings, "
                f"got {type(value).__name__}"
            )
    return tuple(terms)


def _sorted_codes(values: Sequence[object], codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Re-code ``codes`` (indices into ``values``) against the sorted distinct values."""
    vocab = tuple(sorted(set(values)))
    position = {v: i for i, v in enumerate(vocab)}
    remap = np.fromiter(map(position.__getitem__, values), np.int32, len(values))
    return vocab, remap[codes]


def _decode(vocab: tuple, codes: np.ndarray) -> list:
    return [vocab[i] for i in codes.tolist()]


class _Column:
    """One groupable column: sorted vocabulary, per-row codes, and per
    aggregation the unfiltered counts, both ranked (for top slices) and as a
    dict (copied whole for known domains, which need every count).

    ``pair_of_row`` numbers each row's distinct (value, member) pair and
    ``pair_value`` gives each pair's value code, so a distinct count under
    a row mask is a bincount over the pairs the mask hits.
    """

    __slots__ = ("vocab", "codes", "pair_of_row", "pair_value", "ranked", "totals")

    def __init__(self, vocab: tuple[str, ...], codes: np.ndarray,
                 member_codes: np.ndarray, n_members: int):
        self.vocab = vocab
        self.codes = codes
        pairs, pair_of_row = np.unique(
            codes.astype(np.int64) * n_members + member_codes, return_inverse=True
        )
        self.pair_of_row = pair_of_row.astype(np.int32)
        self.pair_value = (pairs // max(n_members, 1)).astype(np.int32)
        self.ranked = {
            "distinct": self.rank(np.bincount(self.pair_value, minlength=len(vocab))),
            "raw": self.rank(np.bincount(codes, minlength=len(vocab))),
        }
        self.totals = {aggregation: dict(ranked) for aggregation, ranked in self.ranked.items()}

    def code(self, value: str) -> int | None:
        i = bisect_left(self.vocab, value)
        return i if i < len(self.vocab) and self.vocab[i] == value else None

    def counts(self, mask: np.ndarray, aggregation: str) -> np.ndarray:
        """Count per value code over the rows in ``mask``."""
        if aggregation == "raw":
            return np.bincount(self.codes[mask], minlength=len(self.vocab))
        pairs = self.pair_of_row[mask]
        # Keep one row per pair: each pair slot ends up holding the position
        # of one of its rows, whichever write lands, and only that row
        # reads its own position back.  Only slots written here are read.
        position = np.arange(len(pairs), dtype=np.int32)
        owner = np.empty(len(self.pair_value), dtype=np.int32)
        owner[pairs] = position
        return np.bincount(
            self.pair_value[pairs[owner[pairs] == position]], minlength=len(self.vocab)
        )

    def rank(self, counts: np.ndarray, limit: int | None = None) -> tuple[tuple[str, int], ...]:
        """(value, count) for nonzero counts, count descending then value
        ascending, at most ``limit`` of them."""
        present = np.flatnonzero(counts)
        counts = counts[present]
        if limit is not None and len(counts) > limit:
            # Keep every count reaching the limit-th largest; ties at it are
            # then cut in code (= value) order by the stable sort.
            cut = np.partition(counts, len(counts) - limit)[len(counts) - limit]
            keep = counts >= cut
            present, counts = present[keep], counts[keep]
        order = np.argsort(-counts, kind="stable")[:limit]
        return tuple(zip(_decode(self.vocab, present[order]), counts[order].tolist()))


class Table:
    """Immutable snapshot of ingested events.

    Re-ingesting produces a new table; concurrent reads of one table are
    safe.  ``fields`` maps ``member_id``, ``event_date``, ``item`` and every
    dimension column to (values, codes): values in any order (repeats are
    merged) and one code per row indexing into them.  Build tables with
    :func:`ingest` or :func:`load_snapshot`.
    """

    def __init__(self, schema: Schema, as_of: date,
                 fields: Mapping[str, tuple[Sequence[object], np.ndarray]],
                 rejected_out_of_window: int = 0):
        self.schema = schema
        self.as_of = as_of
        self.rejected_out_of_window = rejected_out_of_window
        encoded = {name: _sorted_codes(*pair) for name, pair in fields.items()}
        self._members = encoded.pop("member_id")
        self._dates = encoded.pop("event_date")
        member_vocab, member_codes = self._members
        self._columns = {
            name: _Column(vocab, codes, member_codes, len(member_vocab))
            for name, (vocab, codes) in encoded.items()
        }

    def __len__(self) -> int:
        return len(self._members[1])

    @property
    def records(self) -> tuple[EventRecord, ...]:
        """The rows, rebuilt from the codes in ingest order."""
        dims = [c for c in self._columns if c != "item"]
        members, dates = _decode(*self._members), _decode(*self._dates)
        items, *columns = (_decode(self._columns[c].vocab, self._columns[c].codes) for c in ("item", *dims))
        return tuple(
            EventRecord(member_id=m, item=i, event_date=d, dimensions=dict(zip(dims, values)))
            for m, i, d, *values in zip(members, items, dates, *columns)
        )

    def require_column(self, column: str) -> None:
        """Raise :class:`QueryError` unless ``column`` belongs to the table."""
        if column not in self._columns and column not in self.schema.columns:
            raise QueryError(f"unknown column {column!r}")

    def _prepare(
        self, group_by: str, terms: FilterTerms, aggregation: str
    ) -> tuple[_Column, np.ndarray | None]:
        """The group-by column and the terms' row mask (None = no filter)."""
        self.require_column(group_by)
        if aggregation not in ("distinct", "raw"):
            raise QueryError(f"unknown aggregation {aggregation!r}")
        mask = None
        for column, _, values in terms:
            self.require_column(column)
            col = self._columns[column]
            wanted = [c for c in map(col.code, values) if c is not None]
            term = np.isin(col.codes, wanted, kind="sort")
            mask = term if mask is None else mask & term
        return self._columns[group_by], mask

    def group_counts(
        self,
        group_by: str,
        terms: FilterTerms = (),
        aggregation: str = "distinct",
    ) -> dict[str, int]:
        """Exact counts per group value (only values present in the data)
        over the rows that match the :func:`normalize_filter` terms."""
        col, mask = self._prepare(group_by, terms, aggregation)
        if mask is None:
            return dict(col.totals[aggregation])
        counts = col.counts(mask, aggregation)
        present = np.flatnonzero(counts)
        return dict(zip(_decode(col.vocab, present), counts[present].tolist()))

    def top_counts(
        self,
        group_by: str,
        terms: FilterTerms = (),
        limit: int = 100,
        aggregation: str = "distinct",
    ) -> HistogramSlice:
        """Top ``limit`` exact counts, deterministically ordered, over the
        rows that match the :func:`normalize_filter` terms."""
        if limit < 1:
            raise QueryError(f"limit must be >= 1, got {limit}")
        col, mask = self._prepare(group_by, terms, aggregation)
        if mask is None:
            entries = col.ranked[aggregation][:limit]
        else:
            entries = col.rank(col.counts(mask, aggregation), limit)
        return HistogramSlice(entries=entries, truncated_at=limit, aggregation=aggregation)


def _validate_records(
    records: Sequence[EventRecord], schema: Schema, as_of: date
) -> tuple[list[EventRecord], int, list[tuple[int, str]]]:
    dims = set(schema.dimension_columns())
    window_start = as_of - timedelta(days=schema.retention_days)
    kept: list[EventRecord] = []
    rejected = 0
    bad: list[tuple[int, str]] = []
    for i, r in enumerate(records):
        if not r.member_id:
            bad.append((i, "empty member_id"))
            continue
        if not isinstance(r.event_date, date):
            bad.append((i, "event_date is not a date"))
            continue
        if r.dimensions.keys() != dims:
            bad.append((i, _dimension_mismatch(dims, set(r.dimensions))))
            continue
        if not (window_start <= r.event_date <= as_of):
            rejected += 1
            continue
        kept.append(r)
    return kept, rejected, bad


def _dimension_mismatch(declared: set[str], have: set[str]) -> str:
    return f"dimension mismatch (missing={sorted(declared - have)}, extra={sorted(have - declared)})"


def ingest(records: Sequence[EventRecord], schema: Schema, as_of: date) -> Table:
    """Build an immutable table snapshot from raw events.

    Schema-invalid rows raise :class:`IngestError` listing the offenders;
    rows outside the retention window are silently dropped and counted on
    the returned table.
    """
    kept, rejected, bad = _validate_records(records, schema, as_of)
    if bad:
        raise IngestError(bad)
    fields = {
        "member_id": [r.member_id for r in kept],
        "event_date": [r.event_date for r in kept],
        "item": [r.item for r in kept],
    }
    for column in schema.dimension_columns():
        fields[column] = [r.dimensions[column] for r in kept]
    return Table(
        schema,
        as_of,
        {name: (values, np.arange(len(values))) for name, values in fields.items()},
        rejected_out_of_window=rejected,
    )


def _record_from_flat(row: Mapping[str, str], index: int) -> EventRecord:
    missing = [f for f in RESERVED_FIELDS if f not in row]
    if missing:
        raise IngestError([(index, f"missing fields {missing}")])
    try:
        when = date.fromisoformat(str(row["event_date"]))
    except ValueError:
        raise IngestError([(index, f"bad event_date {row['event_date']!r}")]) from None
    dims = {k: str(v) for k, v in row.items() if k not in RESERVED_FIELDS}
    return EventRecord(
        member_id=str(row["member_id"]),
        item=str(row["item"]),
        event_date=when,
        dimensions=dims,
    )


def load_ndjson(path: str | Path) -> list[EventRecord]:
    """Newline-delimited JSON, one flat object per event (see docs/formats.md)."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError([(i, f"invalid JSON: {exc}")]) from None
            out.append(_record_from_flat(row, i))
    return out


def load_csv(path: str | Path) -> list[EventRecord]:
    """CSV with a header row naming member_id, item, event_date and dimensions."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            out.append(_record_from_flat(row, i))
    return out


SNAPSHOT_MANIFEST = "manifest.json"
SNAPSHOT_ROWS = "rows.ndjson"


def save_snapshot(table: Table, directory: str | Path) -> Path:
    """Persist an ingested table as a snapshot directory.

    The snapshot holds a manifest (schema, snapshot date, counts) and the
    validated rows re-serialized as canonical NDJSON; loading it back
    reproduces the table exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": 1,
        "as_of": table.as_of.isoformat(),
        "schema": table.schema.to_dict(),
        "row_count": len(table),
        "rejected_out_of_window": table.rejected_out_of_window,
    }
    (directory / SNAPSHOT_MANIFEST).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    with open(directory / SNAPSHOT_ROWS, "w", encoding="utf-8") as fh:
        for r in table.records:
            row = {
                "member_id": r.member_id,
                "item": r.item,
                "event_date": r.event_date.isoformat(),
                **{k: r.dimensions[k] for k in sorted(r.dimensions)},
            }
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return directory


def _row_problem(row: object, dims: set[str]) -> str:
    """Why a snapshot row could not be encoded."""
    if not isinstance(row, dict):
        return "row is not a JSON object"
    missing = [f for f in RESERVED_FIELDS if f not in row]
    if missing:
        return f"missing fields {missing}"
    have = set(row) - set(RESERVED_FIELDS)
    if have != dims:
        return _dimension_mismatch(dims, have)
    return "field values must be JSON scalars"


def _encode_rows(path: Path, schema: Schema) -> dict[str, tuple[list, np.ndarray]]:
    """Parse snapshot rows straight into first-seen codes per field.

    Each row must hold exactly the reserved fields and the schema's
    dimension columns; the first row that does not, or whose event_date is
    not an ISO date, raises :class:`IngestError` with its line index.
    """
    dims = schema.dimension_columns()
    slots = [(name, {}, array("i")) for name in (*RESERVED_FIELDS, *dims)]
    width = len(slots)
    date_ids = slots[RESERVED_FIELDS.index("event_date")][1]
    dates: list[date] = []
    loads = json.loads
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if line.isspace():
                continue
            try:
                row = loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError([(i, f"invalid JSON: {exc}")]) from None
            try:
                for name, ids, codes in slots:
                    codes.append(ids.setdefault(row[name], len(ids)))
                if len(row) != width:
                    raise KeyError("extra fields")
            except (KeyError, TypeError):
                raise IngestError([(i, _row_problem(row, set(dims)))]) from None
            if len(date_ids) > len(dates):  # this row brought a new date
                raw = row["event_date"]
                try:
                    dates.append(date.fromisoformat(str(raw)))
                except ValueError:
                    raise IngestError([(i, f"bad event_date {raw!r}")]) from None
    return {
        name: (
            dates if ids is date_ids else [v if isinstance(v, str) else str(v) for v in ids],
            np.frombuffer(codes, dtype=np.intc).astype(np.int32),
        )
        for name, ids, codes in slots
    }


def load_snapshot(directory: str | Path) -> Table:
    directory = Path(directory)
    manifest = json.loads((directory / SNAPSHOT_MANIFEST).read_text())
    if manifest.get("version") != 1:
        raise IngestError([(0, f"unsupported snapshot version {manifest.get('version')}")])
    schema = Schema.from_dict(manifest["schema"])
    as_of = date.fromisoformat(manifest["as_of"])
    return Table(
        schema,
        as_of,
        _encode_rows(directory / SNAPSHOT_ROWS, schema),
        rejected_out_of_window=int(manifest.get("rejected_out_of_window", 0)),
    )
