"""Snapshot load and ``gumbel_unknown`` micro-benchmarks.

Run from the repository root (outside the Tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_store.py \
        --benchmark-json=BENCH_17.json

Shapes:
- ``test_load_snapshot[canonical]``: ``load_snapshot`` of a seeded
  300 000-row snapshot shaped like servebench's ``unknown_topk``: six fields
  (``member_id`` over 60 000 members, a Zipf(1.0) ``item`` over 30 000
  values, Zipf ``title`` over 3 000, ``country`` over 20, ``seniority`` over
  8, ``event_date`` over 30 days), every line canonical, as
  ``save_snapshot`` writes ASCII text.
- ``test_load_snapshot[escaped]``: the same rows, where every 50th row's
  ``title`` ends in "é", written as ``save_snapshot`` writes it (a
  ``\\u00e9`` escape), so every block of lines holds a non-canonical line.
- ``test_gumbel_unknown[k=1000]`` and ``[k=50]``: 20 000 calls of
  ``gumbel_unknown`` under ``SimNoise`` on criterion 4's all-ones slice
  (d_bar = 1000, eps 0.15, delta 1e-10); the time per call is in each
  case's ``extra_info``.

The committed ``BENCH_17.json`` was taken on a 2-core Intel Xeon virtual
machine (Python 3.11.7, numpy 2.4.6); its ``machine_info`` block records
the rest.  Its ``parent`` block holds the same cases run just before on
the parent commit, whose loader decodes every line with ``json``.
"""

from __future__ import annotations

import json
from datetime import date, timedelta

import numpy as np
import pytest

from dpquery.mechanisms import PrivacyParams, gumbel_unknown, rank_histogram
from dpquery.noise import SimNoise
from dpquery.store import load_snapshot

ROWS = 300_000
MEMBERS = 60_000
AS_OF = date(2020, 6, 30)
DAYS = 30
# (name, distinct values, Zipf exponent), as in servebench's unknown_topk.
COLUMNS = (("item", 30_000, 1.0), ("title", 3_000, 0.9), ("country", 20, 0.8), ("seniority", 8, 0.5))
D_BAR = 1000
CALLS = 20_000


def _zipf(rng: np.random.Generator, n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return rng.choice(n, size=ROWS, p=p / p.sum())


def _write_snapshot(directory, escape_every: int | None) -> None:
    rng = np.random.default_rng(17)
    columns = {"member_id": [f"m{i:06d}" for i in rng.integers(MEMBERS, size=ROWS).tolist()]}
    for name, n, s in COLUMNS:
        columns[name] = [f"{name}{i:05d}" for i in _zipf(rng, n, s).tolist()]
    days = rng.integers(DAYS, size=ROWS).tolist()
    columns["event_date"] = [(AS_OF - timedelta(days=d)).isoformat() for d in days]
    if escape_every:
        columns["title"][::escape_every] = [v + "é" for v in columns["title"][::escape_every]]
    directory.mkdir()
    schema = {"columns": {name: {} for name, _, _ in COLUMNS}, "retention_days": DAYS}
    manifest = {"version": 1, "as_of": AS_OF.isoformat(), "schema": schema,
                "row_count": ROWS, "rejected_out_of_window": 0}
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    keys = sorted(columns)
    with open(directory / "rows.ndjson", "w", encoding="utf-8") as fh:
        for row in zip(*(columns[k] for k in keys)):
            fh.write(json.dumps(dict(zip(keys, row)), sort_keys=True, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("escape_every", [None, 50], ids=["canonical", "escaped"])
def test_load_snapshot(benchmark, tmp_path, escape_every):
    _write_snapshot(tmp_path / "snap", escape_every)
    table = benchmark.pedantic(load_snapshot, args=(tmp_path / "snap",), rounds=5, iterations=1)
    assert len(table) == ROWS
    assert len(table.group_counts("country")) == 20


@pytest.mark.parametrize("k", [D_BAR, 50], ids=lambda k: f"k={k}")
def test_gumbel_unknown(benchmark, k):
    ranked = rank_histogram([(f"e{i:04d}", 1) for i in range(D_BAR + 1)], D_BAR + 1)
    params = PrivacyParams(0.15, 1e-10)
    sim = SimNoise(404, block=1 << 20)

    def calls() -> int:
        return sum(bool(gumbel_unknown(ranked, k, D_BAR, 1, params, sim).entries) for _ in range(CALLS))

    assert benchmark.pedantic(calls, rounds=5, iterations=1) == 0
    benchmark.extra_info["us_per_call"] = benchmark.stats.stats.median / CALLS * 1e6
