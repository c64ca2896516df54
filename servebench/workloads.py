"""The three traffic mixes and the seeded generation of their inputs.

Everything a run feeds to dpquery is made here from (workload, seed): the
table snapshot, the service config, the pre-written budget journal and the
stream of socket requests.  The generated rows are also kept as integer
codes, so that the checks can count the exact answers with numpy, apart
from the program.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

AS_OF = date(2020, 6, 30)
TABLE = "events"
RETENTION_DAYS = 30
EPS_PER = 0.15
DELTA = 1e-10
MAX_INFO = 3000
MAX_CALLS = 30
K_MULTIPLIER = 10
MIN_FETCH = 1000

CACHE_KEEP = 2  # input sets kept per workload; older ones are deleted

_JOURNAL_TAIL = struct.Struct(">iiq")


@dataclass(frozen=True)
class Column:
    """A groupable column.  Values are ``<name><5-digit code>``, so that the
    lexicographic order of names is the order of codes."""

    name: str
    n_values: int
    zipf: float
    known: bool = False
    delta: int | None = None  # restricted sensitivity bound; None = unrestricted

    def value(self, code: int) -> str:
        return f"{self.name}{code:05d}"

    @property
    def mechanism(self) -> str:
        return {
            (True, True): "known_laplace",
            (True, False): "known_topk",
            (False, True): "unknown_laplace",
            (False, False): "unknown_topk",
        }[(self.known, self.delta is not None)]


@dataclass(frozen=True)
class QueryKind:
    """One kind of query in a mix: its group-by column, k range, and the share
    of its pool filtered on ``filter_on``."""

    group_by: str
    weight: float
    k: tuple[int, int]
    filter_on: str
    filtered: float
    pool: int  # distinct queries of this kind


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    rows: int
    members: int
    columns: tuple[Column, ...]
    queries: tuple[QueryKind, ...]
    get_budget: float
    ping: float
    analysts: int
    heavy: int  # analysts that start at their cap
    heavy_share: float  # their share of the queries
    history_queries: int  # past queries per ordinary analyst in the journal
    heavy_history_queries: int
    connections: int = 1

    def column(self, name: str) -> Column:
        return next(c for c in self.columns if c.name == name)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="unknown_topk",
            index=0,
            rows=300_000,
            members=60_000,
            columns=(
                Column("item", 30_000, 1.0),
                Column("title", 3_000, 0.9, delta=2),
                Column("country", 20, 0.8, known=True),
                Column("seniority", 8, 0.5, known=True, delta=1),
            ),
            queries=(
                QueryKind("item", 0.52, (10, 100), "country", 0.5, 24),
                QueryKind("title", 0.22, (10, 100), "country", 0.5, 12),
                QueryKind("country", 0.03, (3, 10), "seniority", 0.5, 4),
                QueryKind("seniority", 0.03, (5, 10), "country", 0.5, 4),
            ),
            get_budget=0.25,
            ping=0.03,
            analysts=100,
            heavy=5,
            heavy_share=0.3,
            history_queries=8,
            heavy_history_queries=60,
        ),
        Workload(
            name="known_wide",
            index=1,
            rows=50_000,
            members=12_000,
            columns=(
                Column("item", 3_000, 1.0),
                Column("title", 2_000, 0.8, known=True, delta=1),
                Column("skill", 4_000, 0.8, known=True),
                Column("country", 20, 0.8, known=True),
                Column("company", 800, 0.9, delta=2),
            ),
            queries=(
                QueryKind("title", 0.45, (10, 100), "country", 0.15, 10),
                QueryKind("skill", 0.25, (10, 50), "country", 0.15, 10),
                QueryKind("item", 0.04, (10, 50), "country", 0.3, 4),
                QueryKind("company", 0.04, (10, 50), "country", 0.3, 4),
                QueryKind("country", 0.02, (3, 10), "title", 0.0, 2),
            ),
            get_budget=0.17,
            ping=0.03,
            analysts=100,
            heavy=5,
            heavy_share=0.15,
            history_queries=12,
            heavy_history_queries=400,
        ),
        Workload(
            name="ledger_churn",
            index=2,
            rows=20_000,
            members=5_000,
            columns=(
                Column("item", 400, 1.0),
                Column("region", 40, 0.8, delta=2),
                Column("seniority", 10, 0.5, known=True, delta=1),
                Column("function", 50, 0.7, known=True),
                Column("country", 20, 0.8, known=True),
            ),
            queries=(
                QueryKind("seniority", 0.25, (3, 10), "country", 0.1, 8),
                QueryKind("function", 0.18, (3, 10), "country", 0.1, 8),
                QueryKind("country", 0.05, (3, 10), "seniority", 0.1, 4),
                QueryKind("region", 0.12, (5, 20), "country", 0.1, 8),
                QueryKind("item", 0.01, (10, 20), "country", 0.0, 2),
            ),
            get_budget=0.33,
            ping=0.05,
            analysts=3000,
            heavy=150,
            heavy_share=0.10,
            history_queries=24,
            heavy_history_queries=120,
            connections=2,
        ),
    )
}


# -- cost table (README "Cost table"), shared by the journal writer and replay


def expected_cost(col: Column, k: int) -> tuple[int, int]:
    if col.delta is not None:
        return (col.delta, 0) if col.known else (col.delta, 1)
    return (2 * k, 0) if col.known else (2 * k + 1, 1)


def actual_cost(col: Column, k: int, released: int, truncated: bool) -> tuple[int, int]:
    if col.delta is not None:
        return (col.delta, 0) if col.known else (1, 1)
    return (2 * k, 0) if col.known else (2 * released + 1 - int(truncated), 1)


# -- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    qid: int
    group_by: str
    k: int
    filter: tuple[tuple[str, tuple[str, ...]], ...]  # (column, values); 1 value = equality
    membership: bool


@dataclass
class Inputs:
    """Paths of the generated files plus what the checks need in memory."""

    workload: Workload
    seed: int
    dir: Path
    codes: dict[str, np.ndarray] = field(default_factory=dict)  # column -> int32 per row
    pool: list[Query] = field(default_factory=list)
    analysts: list[str] = field(default_factory=list)
    weights: np.ndarray | None = None

    @property
    def config(self) -> Path:
        return self.dir / "config.json"

    @property
    def journal(self) -> Path:
        return self.dir / "journal.bin"

    @property
    def state_dir(self) -> Path:
        return self.dir / "state"

    def restore_state(self) -> None:
        """Put the pristine journal back in an otherwise empty state dir."""
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir()
        shutil.copyfile(self.journal, self.state_dir / "budget.journal")


def _rng(seed: int, workload: Workload, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload.index, stream])


def _zipf_codes(rng: np.random.Generator, n: int, s: float, size: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return rng.choice(n, size=size, p=p / p.sum()).astype(np.int32)


def _schema(w: Workload) -> dict:
    cols = {}
    for c in w.columns:
        meta: dict = {}
        if c.known:
            meta["domain"] = [c.value(i) for i in range(c.n_values)]
        if c.delta is not None:
            meta["delta"] = c.delta
        cols[c.name] = meta
    return {"columns": cols, "retention_days": RETENTION_DAYS}


def _write_snapshot(w: Workload, directory: Path, codes: dict[str, np.ndarray],
                    ages: np.ndarray) -> None:
    directory.mkdir(parents=True)
    manifest = {"version": 1, "as_of": AS_OF.isoformat(), "schema": _schema(w),
                "row_count": w.rows, "rejected_out_of_window": 0}
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    dates = [(AS_OF - timedelta(days=d)).isoformat() for d in range(RETENTION_DAYS)]
    keys = sorted([c.name for c in w.columns] + ["member_id", "event_date"])
    values = {c.name: [c.value(i) for i in range(c.n_values)] for c in w.columns}
    values["member_id"] = [f"m{i:06d}" for i in range(w.members)]
    values["event_date"] = dates
    cols = {**codes, "event_date": ages}
    lists = [(k, values[k], cols[k].tolist()) for k in keys]
    with open(directory / "rows.ndjson", "w", encoding="ascii") as fh:
        for r in range(w.rows):
            fh.write("{" + ",".join(f'"{k}":"{vals[col[r]]}"' for k, vals, col in lists) + "}\n")


def _pool(w: Workload) -> list[Query]:
    """The distinct queries of a mix.  Their shapes are spread evenly over the
    k range and the filter values rather than drawn, so that the cost of the
    mix does not change with the seed; the seed changes the data they run on
    and the traffic that picks them."""
    pool: list[Query] = []
    for kind in w.queries:
        col = w.column(kind.group_by)
        fcol = w.column(kind.filter_on)
        span = kind.k[1] - kind.k[0]
        n_filtered = max(1, round(kind.filtered * kind.pool)) if kind.filtered else 0
        # Unfiltered queries differ only in k, so there are at most span + 1.
        n_filtered = max(n_filtered, kind.pool - span - 1)
        n_plain = kind.pool - n_filtered
        for j in range(kind.pool):
            filt: tuple = ()
            membership = False
            if j < n_filtered:
                k = kind.k[0] + (j * 37) % (span + 1)
                first = (j * 7) % fcol.n_values
                codes = {first}
                if j % 2:
                    membership = True
                    codes |= {(first + 1) % fcol.n_values}
                    if j % 4 == 3:
                        codes.add((first + fcol.n_values // 2) % fcol.n_values)
                filt = ((fcol.name, tuple(fcol.value(c) for c in sorted(codes))),)
            else:
                k = kind.k[0] + (j - n_filtered) * span // max(1, n_plain - 1)
            if col.known and col.delta is None:
                k = min(k, col.n_values)
            pool.append(Query(len(pool), kind.group_by, k, filt, membership))
    if len({(q.group_by, q.k, q.filter) for q in pool}) != len(pool):
        raise ValueError(f"{w.name}: the query pool repeats a query")
    return pool


def _analysts(w: Workload) -> tuple[list[str], np.ndarray]:
    """Analyst ids and their Zipf(0.5) activity weights.  The first ``heavy``
    start at their cap; the client gives them ``heavy_share`` of the queries
    and weighs the others by activity."""
    ids = [f"analyst{i:05d}" for i in range(w.analysts)]
    return ids, 1.0 / np.arange(1, w.analysts + 1) ** 0.5


def _month_start_ms() -> int:
    now = datetime.now(timezone.utc)
    return int(datetime(now.year, now.month, 1, tzinfo=timezone.utc).timestamp() * 1000)


def _history(w: Workload, pool: list[Query], analyst: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Journal deltas of one analyst's earlier queries this month: a reserve
    record per admitted query and a settle record when the realised cost
    differs.  Heavy analysts keep asking until they are at their cap."""
    heavy = analyst < w.heavy
    n = w.heavy_history_queries if heavy else int(rng.integers(0, 2 * w.history_queries + 1))
    used_info = used_calls = 0
    out: list[tuple[int, int]] = []
    picks = rng.integers(len(pool), size=n)
    fracs = rng.random(n)
    for qi, frac in zip(picks, fracs):
        q = pool[qi]
        col = w.column(q.group_by)
        exp = expected_cost(col, q.k)
        if used_info + exp[0] > MAX_INFO or used_calls + exp[1] > MAX_CALLS:
            continue
        released = int(frac * q.k)
        act = actual_cost(col, q.k, released, released < q.k)
        out.append(exp)
        if act != exp:
            out.append((act[0] - exp[0], act[1] - exp[1]))
        used_info += act[0]
        used_calls += act[1]
    if heavy:
        # Spend the last calls, then information down to a remainder: none for
        # even analysts (budget_exhausted), a little for odd ones, which is too
        # little for a known-domain top-k (insufficient_for_query).
        calls = MAX_CALLS - used_calls
        paid = min(calls, MAX_INFO - used_info)
        out.extend([(1, 1)] * paid + [(0, 1)] * (calls - paid))
        used_info += paid
        left = 0 if analyst % 2 == 0 else int(rng.integers(10, 41))
        if used_info < MAX_INFO - left:
            out.append((MAX_INFO - left - used_info, 0))
    return out


def _write_journal(w: Workload, path: Path, pool: list[Query], analysts: list[str],
                   rng: np.random.Generator) -> None:
    """The docs/formats.md journal layout; per-analyst order is kept while the
    analysts' records interleave, and timestamps fall in the current month."""
    histories = [_history(w, pool, a, rng) for a in range(len(analysts))]
    slots = np.repeat(np.arange(len(analysts)), [len(h) for h in histories])
    rng.shuffle(slots)
    cursor = [0] * len(analysts)
    ids = [a.encode() for a in analysts]
    base = _month_start_ms()
    parts = []
    for i, a in enumerate(slots.tolist()):
        info, calls = histories[a][cursor[a]]
        cursor[a] += 1
        parts.append(len(ids[a]).to_bytes(2, "big") + ids[a] + _JOURNAL_TAIL.pack(info, calls, base + i))
    path.write_bytes(b"".join(parts))


def read_journal(path: Path) -> list[tuple[str, int, int, int]]:
    """(analyst, info, calls, millis) records of a journal file."""
    data = path.read_bytes()
    out = []
    pos = 0
    while pos + 2 <= len(data):
        n = int.from_bytes(data[pos : pos + 2], "big")
        end = pos + 2 + n + _JOURNAL_TAIL.size
        if end > len(data):
            break
        out.append((data[pos + 2 : pos + 2 + n].decode(), *_JOURNAL_TAIL.unpack(data[pos + 2 + n : end])))
        pos = end
    return out


def _config(seed: int) -> dict:
    return {
        "secret_hex": hashlib.sha256(f"servebench secret {seed}".encode()).hexdigest(),
        "privacy": {"eps_per": EPS_PER, "delta": DELTA},
        "budget": {"info": MAX_INFO, "calls": MAX_CALLS, "period": "monthly"},
        "fetch": {"k_multiplier": K_MULTIPLIER, "min_fetch": MIN_FETCH},
        "state_dir": "state",
        "tables": {TABLE: "snapshot"},
    }


def _codes(w: Workload, seed: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    rng = _rng(seed, w, 0)
    codes = {"member_id": rng.integers(w.members, size=w.rows).astype(np.int32)}
    for c in w.columns:
        codes[c.name] = _zipf_codes(rng, c.n_values, c.zipf, w.rows)
    ages = rng.integers(RETENTION_DAYS, size=w.rows).astype(np.int32)
    return codes, ages


def inputs(workload: str, seed: int, cache: Path, rebuild: bool = False) -> Inputs:
    """Generate (or reuse) the inputs of one workload and seed under ``cache``.

    The journal is rewritten on every call, because its timestamps must fall
    in the current refresh period."""
    w = WORKLOADS[workload]
    out = Inputs(workload=w, seed=seed, dir=cache / f"{workload}-s{seed}")
    codes, ages = _codes(w, seed)
    out.codes = codes
    out.pool = _pool(w)
    out.analysts, out.weights = _analysts(w)
    if rebuild:
        shutil.rmtree(out.dir, ignore_errors=True)
    done = out.dir / "complete"
    if not done.exists():
        shutil.rmtree(out.dir, ignore_errors=True)
        out.dir.mkdir(parents=True)
        _write_snapshot(w, out.dir / "snapshot", codes, ages)
        out.config.write_text(json.dumps(_config(seed), sort_keys=True, indent=2) + "\n")
        done.touch()
        _prune(cache, workload, keep=out.dir)
    _write_journal(w, out.journal, out.pool, out.analysts, _rng(seed, w, 2))
    return out


def _prune(cache: Path, workload: str, keep: Path) -> None:
    entries = sorted(cache.glob(f"{workload}-s*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in [e for e in entries if e != keep][CACHE_KEEP - 1 :]:
        shutil.rmtree(old, ignore_errors=True)
