"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s``).  Stated runtime
ceilings are asserted where the criterion carries one.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
import numpy as np

from dpquery.budget import BudgetLedger
from dpquery.calibration import (
    averaging_attack_prob,
    max_stable_k,
    small_noise_prob,
    suggested_info_budget,
    threshold_breach_bound,
)
from dpquery.composition import PerQueryParams, overall_guarantee
from dpquery.config import FetchRule
from dpquery.mechanisms import (
    PrivacyParams,
    exp_known,
    gumbel_unknown,
    rank_histogram,
    solve_delta_hat,
)
from dpquery.noise import SimNoise
from dpquery.service import QueryService, QuerySpec, Rejection
from dpquery.store import ColumnMeta, EventRecord, Schema, Table, ingest, normalize_filter
from oracles import CHI2_CRIT_01, BudgetReplay, br_compose_decimal, chi_square_stat

from conftest import AS_OF, SECRET, cli_env, make_records, make_schema


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number:2d} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\ncriterion {number:2d} PASS  {title}  [{elapsed:.1f}s]")


def test_criterion_01_composition_reproduction():
    with criterion(1, "composed monthly guarantee matches the deployed figures"):
        started = time.perf_counter()
        params = PerQueryParams(eps_per=0.15, delta=1e-10, delta_prime=1e-9)
        eps_max, delta_star = overall_guarantee(params, k_star=3000, ell_star=30)
        oracle = float(br_compose_decimal("0.15", 3000, "1e-9", prec=60))
        elapsed = time.perf_counter() - started
        assert abs(eps_max - 34.9) <= 0.05
        assert delta_star == 7e-9
        assert abs(eps_max - oracle) / oracle <= 1e-6
        assert elapsed < 1.0


def test_criterion_02_attack_constants():
    with criterion(2, "attack calculus constants"):
        p = small_noise_prob(0.15)
        assert abs(p - 0.0368) <= 1e-4
        k = max_stable_k(p)
        assert k == 738
        assert suggested_info_budget(k) == 2954
        assert 0.110 <= averaging_attack_prob(0.15, 30) <= 0.120
        bound = threshold_breach_bound(0.15, 1e-10, 30)
        assert 2.5e-9 <= bound.per_period <= 2.7e-9


def test_criterion_03_gumbel_equals_exponential_mechanism():
    with criterion(3, "gumbel top-1 frequencies match the softmax law"):
        started = time.perf_counter()
        hist = [("a", 5), ("b", 3), ("c", 1)]
        probs = np.exp([5.0, 3.0, 1.0])
        probs /= probs.sum()
        sim = SimNoise(303)
        wins = {"a": 0, "b": 0, "c": 0}
        trials = 100_000
        for _ in range(trials):
            wins[exp_known(hist, 1, 1, PrivacyParams(1.0), sim)[0][0]] += 1
        stat = chi_square_stat([wins["a"], wins["b"], wins["c"]], probs)
        elapsed = time.perf_counter() - started
        assert stat < CHI2_CRIT_01[2]
        assert elapsed < 10.0


def test_criterion_04_unknown_domain_safety():
    with criterion(4, "all-ones worst case never clears the noisy threshold"):
        started = time.perf_counter()
        params = PrivacyParams(0.15, 1e-10)
        d_bar = 1000
        ranked = rank_histogram([(f"e{i:04d}", 1) for i in range(d_bar + 1)], d_bar + 1)
        bound = threshold_breach_bound(0.15, 1e-10, 1, d_bar=d_bar).per_query

        # k = d_bar forces the cut index to d_bar, where the clamped
        # min(cut, d_bar - cut) term makes the threshold the lowest the
        # mechanism can produce: the most breach-prone configuration.
        sim = SimNoise(404, block=1 << 20)
        trials = 10_000_000
        releases = 0
        for _ in range(trials):
            if gumbel_unknown(ranked, d_bar, d_bar, 1, params, sim).entries:
                releases += 1
        assert releases / trials <= bound

        # The product-shaped query (top-50 of the same slice) at one tenth
        # the trials.
        sim = SimNoise(405, block=1 << 20)
        for _ in range(1_000_000):
            assert not gumbel_unknown(ranked, 50, d_bar, 1, params, sim).entries
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0


def _four_cell_table() -> Table:
    schema = make_schema(
        item={},
        title={"delta": 1},
        seniority={"domain": tuple(f"level{i}" for i in range(10))},
        region={"domain": ("amer", "apac", "emea", "other"), "delta": 2},
    )
    rows = []
    for m in range(120):
        member = f"m{m:03d}"
        dims = {
            "title": f"title{m % 9}",
            "seniority": f"level{m % 10}",
            "region": ("amer", "apac", "emea", "other")[m % 4],
        }
        for i in range(30):
            if m <= 120 - 4 * i:
                rows.append((member, f"item{i:03d}", dims))
    return ingest(make_records(rows), schema, AS_OF)


def test_criterion_05_budget_replay_oracle():
    with criterion(5, "service deductions replay the budget update rules exactly"):
        import random

        table = _four_cell_table()
        cells = [("region", "known", "restricted", 2),
                 ("seniority", "known", "unrestricted", 1),
                 ("title", "unknown", "restricted", 1),
                 ("item", "unknown", "unrestricted", 1)]
        rnd = random.Random(505)
        for _ in range(1000):
            max_info, max_calls = rnd.randint(15, 120), rnd.randint(1, 4)
            ledger = BudgetLedger(default_info=max_info, default_calls=max_calls)
            service = QueryService(
                tables={"events": table},
                secret=SECRET,
                params=PrivacyParams(0.8, 1e-8),
                ledger=ledger,
                fetch=FetchRule(k_multiplier=2, min_fetch=12),
            )
            oracle = BudgetReplay(max_info, max_calls)
            for step in range(40):
                column, domain, sensitivity, delta_sens = rnd.choice(cells)
                k = rnd.randint(1, 8)
                outcome = service.execute(
                    QuerySpec(analyst_id="a", table="events", group_by=column, k=k)
                )
                admitted = oracle.admit(domain, sensitivity, delta_sens, k)
                if isinstance(outcome, Rejection):
                    # first rejection point must coincide with the oracle's
                    assert not admitted, f"oracle admits at step {step}, service rejected"
                    break
                assert admitted, f"oracle rejects at step {step}, service admitted"
                oracle.charge(
                    domain, sensitivity, delta_sens, k,
                    released=len(outcome.entries),
                    ended_at_bot=outcome.truncated,
                )
                record = ledger.get_budget("a")
                assert (record.used_info, record.used_calls) == (
                    oracle.used_info, oracle.used_calls,
                )
                assert 0 <= record.used_info <= max_info
                assert 0 <= record.used_calls <= max_calls
            final = ledger.get_budget("a")
            assert (final.used_info, final.used_calls) == (
                oracle.used_info, oracle.used_calls,
            )


def _steep_ramp_table(n_items: int = 100, gap: int = 50) -> Table:
    # item i engaged by gap*(n_items - i) distinct members: counts clear the
    # release threshold by a margin huge against the noise scale, so a
    # top-50 query always returns its full 50 entries.
    schema = Schema(columns={"item": ColumnMeta("item")})
    top = gap * n_items
    records = []
    for m in range(top):
        member = f"m{m:05d}"
        for i in range(n_items):
            if m < top - gap * i:
                records.append(
                    EventRecord(member, f"item{i:03d}", AS_OF, dimensions={})
                )
    return ingest(records, schema, AS_OF)


def test_criterion_06_concurrent_admission():
    with criterion(6, "100 parallel clients settle to a serializable admission count"):
        table = _steep_ramp_table()
        spec = QuerySpec(analyst_id="racer", table="events", group_by="item", k=50)
        for rep in range(50):
            ledger = BudgetLedger(default_info=3000, default_calls=30)
            service = QueryService(
                tables={"events": table},
                secret=SECRET,
                params=PrivacyParams(0.8, 1e-8),
                ledger=ledger,
                fetch=FetchRule(k_multiplier=2, min_fetch=20),
            )
            outcomes = []
            barrier = threading.Barrier(100)

            def client():
                barrier.wait()
                outcomes.append(service.execute(spec))

            threads = [threading.Thread(target=client) for _ in range(100)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len(outcomes) == 100
            succeeded = [o for o in outcomes if not isinstance(o, Rejection)]
            assert len(succeeded) in (29, 30)

            # serialized replay of the successful set reproduces the exact
            # count: every success fits in order and one more does not
            replay = BudgetReplay(3000, 30)
            for response in succeeded:
                assert replay.admit("unknown", "unrestricted", 1, 50)
                replay.charge(
                    "unknown", "unrestricted", 1, 50,
                    released=len(response.entries),
                    ended_at_bot=response.truncated,
                )
            assert not replay.admit("unknown", "unrestricted", 1, 50)

            record = ledger.get_budget("racer")
            assert record.used_info == sum(r.cost_charged.info for r in succeeded)
            assert record.used_calls == sum(r.cost_charged.calls for r in succeeded)
            assert (record.used_info, record.used_calls) == (
                replay.used_info, replay.used_calls,
            ), f"lost update in repetition {rep}"


CLI_SCHEMA = {
    "columns": {"item": {}, "title": {"delta": 1}},
    "retention_days": 30,
}


def _write_cli_workspace(root, as_of: str):
    events = root / "events.ndjson"
    lines = []
    for m in range(200):
        for i in range(9):
            if m < 200 - 20 * i:
                lines.append(json.dumps({
                    "member_id": f"m{m:03d}",
                    "item": f"item{i:02d}",
                    "event_date": as_of,
                    "title": f"title{m % 4}",
                }))
    events.write_text("\n".join(lines) + "\n")
    (root / "schema.json").write_text(json.dumps(CLI_SCHEMA))
    (root / "config.json").write_text(json.dumps({
        "secret_hex": SECRET.hex(),
        "privacy": {"eps_per": 0.8, "delta": 1e-8},
        "budget": {"info": 3000, "calls": 30},
        "fetch": {"k_multiplier": 2, "min_fetch": 15},
        "tables": {"events": "snap"},
    }))


def _cli(*argv, cwd) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "dpquery.cli", *argv],
        capture_output=True, cwd=cwd, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_criterion_07_determinism_across_processes(tmp_path):
    with criterion(7, "responses are byte-identical across process restarts"):
        day_one = tmp_path / "day1"
        day_one.mkdir()
        _write_cli_workspace(day_one, "2020-06-28")
        _cli("ingest", "events.ndjson", "--schema", "schema.json",
             "--as-of", "2020-06-30", "--out", "snap", cwd=day_one)
        query_argv = ("query", "--config", "config.json", "--analyst", "alice",
                      "--table", "events", "--group-by", "item", "--k", "5")
        first = _cli(*query_argv, cwd=day_one).stdout
        second = _cli(*query_argv, cwd=day_one).stdout
        assert first == second
        assert json.loads(first)["entries"]

        # same rows snapshotted a day later: the seed, hence the noise, moves
        day_two = tmp_path / "day2"
        day_two.mkdir()
        _write_cli_workspace(day_two, "2020-06-28")
        _cli("ingest", "events.ndjson", "--schema", "schema.json",
             "--as-of", "2020-07-01", "--out", "snap", cwd=day_two)
        moved = _cli(*query_argv, cwd=day_two).stdout
        assert json.loads(moved)["noisy_values"] != json.loads(first)["noisy_values"]


def test_criterion_08_discovery_trend():
    with criterion(8, "discovered count grows with fetch size and with eps"):
        started = time.perf_counter()
        counts = [(f"e{i:04d}", round(1e5 / (i + 1) ** 1.1)) for i in range(5000)]
        d_bars = [75, 100, 200, 1000]
        eps_grid = [0.02, 0.05, 0.08, 0.14, 0.2]
        ranked = {d: rank_histogram(counts, d + 1) for d in d_bars}
        trials = 1000
        means: dict[tuple[float, int], float] = {}
        for eps in eps_grid:
            params = PrivacyParams(eps, 1e-10)
            for d_bar in d_bars:
                sim = SimNoise(int(eps * 1000) * 10_000 + d_bar, block=1 << 18)
                total = sum(
                    len(gumbel_unknown(ranked[d_bar], 50, d_bar, 1, params, sim).entries)
                    for _ in range(trials)
                )
                means[(eps, d_bar)] = total / trials
        for eps in eps_grid:
            for lo, hi in zip(d_bars, d_bars[1:]):
                assert means[(eps, lo)] <= means[(eps, hi)], (
                    f"more fetch lost elements at eps={eps}: "
                    f"{means[(eps, lo)]} > {means[(eps, hi)]}"
                )
        for d_bar in d_bars:
            for lo, hi in zip(eps_grid, eps_grid[1:]):
                assert means[(lo, d_bar)] <= means[(hi, d_bar)], (
                    f"more eps lost elements at d_bar={d_bar}: "
                    f"{means[(lo, d_bar)]} > {means[(hi, d_bar)]}"
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0


def test_criterion_09_threshold_root_grid():
    with criterion(9, "threshold root substitution residual below 1e-12 on the grid"):
        deltas = np.logspace(-15, -3, 5)
        eps_grid = np.linspace(0.01, 2.0, 5)
        delta_sens_grid = [1, 5, 10, 15, 20]
        points = 0
        for delta in deltas:
            for eps in eps_grid:
                for ds in delta_sens_grid:
                    dh = solve_delta_hat(float(delta), float(eps), ds)
                    reproduced = (
                        dh / 4 * (math.exp(eps / 2) + 1) * (3 + math.log(ds / dh))
                    )
                    assert abs(reproduced - delta) <= 1e-12 * delta
                    assert 0.0 < dh < delta
                    points += 1
        assert points >= 100


def test_criterion_10_store_matches_brute_force():
    with criterion(10, "store top slice equals brute-force group-by on 100 tables"):
        schema = Schema(
            columns={"item": ColumnMeta("item"), "title": ColumnMeta("title")}
        )
        rng = np.random.default_rng(1010)
        for round_ in range(100):
            n = 100_000
            members = [f"m{v}" for v in rng.integers(0, 600, n).tolist()]
            items = [f"item{v % 400:03d}" for v in rng.zipf(1.3, n).tolist()]
            titles = [f"t{v}" for v in rng.integers(0, 40, n).tolist()]
            records = [
                EventRecord(m, i, AS_OF, {"title": t})
                for m, i, t in zip(members, items, titles)
            ]
            table = ingest(records, schema, AS_OF)

            for column, values, distinct in (
                ("item", items, True),
                ("item", items, False),
                ("title", titles, True),
            ):
                if distinct:
                    groups: dict[str, set] = {}
                    for m, v in zip(members, values):
                        groups.setdefault(v, set()).add(m)
                    expected = {v: len(s) for v, s in groups.items()}
                else:
                    expected = {}
                    for v in values:
                        expected[v] = expected.get(v, 0) + 1
                ordered = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
                got = table.top_counts(
                    column,
                    limit=len(ordered),
                    aggregation="distinct" if distinct else "raw",
                )
                assert list(got.entries) == ordered

            if round_ % 10 == 0:
                keep = {"t0", "t1", "t2"}
                filtered: dict[str, set] = {}
                for m, i, t in zip(members, items, titles):
                    if t in keep:
                        filtered.setdefault(i, set()).add(m)
                expected_f = sorted(
                    ((v, len(s)) for v, s in filtered.items()),
                    key=lambda kv: (-kv[1], kv[0]),
                )
                got = table.top_counts(
                    "item", terms=normalize_filter({"title": sorted(keep)}), limit=len(expected_f)
                )
                assert list(got.entries) == expected_f
