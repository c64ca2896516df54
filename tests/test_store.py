from __future__ import annotations

import random
import re
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpquery.store import (
    ColumnMeta,
    IngestError,
    QueryError,
    ingest,
    load_csv,
    load_ndjson,
    load_snapshot,
    normalize_filter,
    save_snapshot,
)
from oracles import brute_force_group_by, sort_counts

from conftest import AS_OF, make_records, make_schema


def table_of(rows, schema=None, when=AS_OF):
    schema = schema or make_schema(item={}, title={})
    return ingest(make_records(rows, when), schema, AS_OF)


class TestIngest:
    def test_distinct_counts_one_per_member(self):
        table = table_of(
            [
                ("m1", "a", {"title": "x"}),
                ("m1", "a", {"title": "x"}),
                ("m1", "a", {"title": "x"}),
            ]
        )
        assert table.top_counts("item").entries == (("a", 1),)

    def test_empty_table(self):
        table = table_of([])
        assert len(table) == 0
        assert table.top_counts("item", limit=5).entries == ()

    def test_schema_mismatch_lists_rows(self):
        schema = make_schema(item={}, title={})
        records = make_records(
            [
                ("m1", "a", {"title": "x"}),
                ("m2", "a", {}),
                ("", "a", {"title": "x"}),
            ]
        )
        with pytest.raises(IngestError) as err:
            ingest(records, schema, AS_OF)
        assert [i for i, _ in err.value.offending] == [1, 2]

    def test_retention_window_rejects_with_count(self):
        schema = make_schema(item={}, title={})
        old = make_records([("m1", "a", {"title": "x"})], when=AS_OF - timedelta(days=31))
        fresh = make_records([("m2", "b", {"title": "y"})], when=AS_OF - timedelta(days=2))
        future = make_records([("m3", "c", {"title": "z"})], when=AS_OF + timedelta(days=1))
        table = ingest(old + fresh + future, schema, AS_OF)
        assert len(table) == 1
        assert table.rejected_out_of_window == 2

    def test_reingest_returns_new_snapshot(self):
        rows = [("m1", "a", {"title": "x"})]
        t1 = table_of(rows)
        t2 = table_of(rows + [("m2", "b", {"title": "x"})])
        assert len(t1) == 1 and len(t2) == 2


class TestTopCounts:
    def test_basic_order(self):
        table = table_of(
            [("m1", "a", {"title": "t"}), ("m2", "a", {"title": "t"}),
             ("m3", "a", {"title": "t"}), ("m4", "a", {"title": "t"}),
             ("m5", "a", {"title": "t"}),
             ("m1", "b", {"title": "t"}), ("m2", "b", {"title": "t"}),
             ("m3", "b", {"title": "t"}),
             ("m1", "c", {"title": "t"})]
        )
        assert table.top_counts("item", limit=3).entries == (("a", 5), ("b", 3), ("c", 1))

    def test_tie_break_by_element_id(self):
        table = table_of(
            [("m1", "b", {"title": "t"}), ("m2", "b", {"title": "t"}),
             ("m3", "a", {"title": "t"}), ("m4", "a", {"title": "t"})]
        )
        assert table.top_counts("item", limit=2).entries == (("a", 2), ("b", 2))

    def test_fewer_entries_than_limit(self):
        table = table_of([("m1", "a", {"title": "t"})])
        slice_ = table.top_counts("item", limit=10)
        assert slice_.entries == (("a", 1),)
        assert slice_.truncated_at == 10

    def test_unknown_column(self):
        table = table_of([("m1", "a", {"title": "t"})])
        with pytest.raises(QueryError):
            table.top_counts("nope")

    def test_bad_limit_and_aggregation(self):
        table = table_of([("m1", "a", {"title": "t"})])
        with pytest.raises(QueryError):
            table.top_counts("item", limit=0)
        with pytest.raises(QueryError):
            table.top_counts("item", aggregation="median")

    def test_raw_versus_distinct(self):
        table = table_of(
            [("m1", "a", {"title": "t"}), ("m1", "a", {"title": "t"}),
             ("m2", "a", {"title": "t"})]
        )
        assert table.top_counts("item", aggregation="raw").entries == (("a", 3),)
        assert table.top_counts("item", aggregation="distinct").entries == (("a", 2),)

    def test_filters(self):
        table = table_of(
            [("m1", "a", {"title": "x"}), ("m2", "a", {"title": "y"}),
             ("m3", "b", {"title": "x"}), ("m4", "b", {"title": "z"})]
        )
        eq = table.top_counts("item", terms=normalize_filter({"title": "x"}))
        assert eq.entries == (("a", 1), ("b", 1))
        member = table.top_counts("item", terms=normalize_filter({"title": ["x", "y"]}))
        assert member.entries == (("a", 2), ("b", 1))

    def test_purity(self):
        table = table_of([("m1", "a", {"title": "x"}), ("m2", "b", {"title": "y"})])
        first = table.top_counts("item", limit=5)
        second = table.top_counts("item", limit=5)
        assert first == second

    def test_brute_force_oracle_random_table(self):
        rnd = random.Random(7)
        rows = [
            (f"m{rnd.randrange(200)}", f"item{rnd.randrange(40)}",
             {"title": f"t{rnd.randrange(12)}"})
            for _ in range(100_000)
        ]
        table = table_of(rows)
        for column, distinct in (("item", True), ("title", True), ("item", False)):
            expected = sort_counts(
                brute_force_group_by(
                    ((m, i if column == "item" else d["title"]) for m, i, d in rows),
                    distinct=distinct,
                )
            )
            got = table.top_counts(
                column, limit=len(expected), aggregation="distinct" if distinct else "raw"
            )
            assert list(got.entries) == expected


class TestDomainMetadata:
    def test_duplicate_domain_rejected(self):
        with pytest.raises(QueryError):
            ColumnMeta(name="c", domain=("a", "a"))

    def test_meta_validation(self):
        with pytest.raises(QueryError):
            ColumnMeta(name="c", delta_sensitivity=0)
        with pytest.raises(QueryError):
            ColumnMeta(name="c", tau=0)


class TestNeighborSensitivity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=1_000_000_000))
    def test_removing_one_member_moves_counts_by_at_most_one(self, seed):
        # Distinct aggregation: one member's removal changes each count by
        # at most 1, and for a one-title-per-member column, changes at most
        # one count.
        rnd = random.Random(seed)
        members = [f"m{i}" for i in range(30)]
        title_of = {m: f"t{rnd.randrange(6)}" for m in members}
        rows = []
        for m in members:
            for _ in range(rnd.randrange(1, 5)):
                rows.append((m, f"item{rnd.randrange(8)}", {"title": title_of[m]}))
        victim = rnd.choice(members)
        full = table_of(rows)
        reduced = table_of([r for r in rows if r[0] != victim])

        for column in ("item", "title"):
            before = dict(full.top_counts(column, limit=100).entries)
            after = dict(reduced.top_counts(column, limit=100).entries)
            changed = 0
            for value in set(before) | set(after):
                diff = abs(before.get(value, 0) - after.get(value, 0))
                assert diff <= 1
                changed += int(diff != 0)
            if column == "title":
                assert changed <= 1


class TestTopCountsProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),  # member
                st.integers(min_value=0, max_value=8),   # item
            ),
            max_size=60,
        ),
        st.booleans(),
    )
    def test_any_table_matches_brute_force(self, pairs, distinct):
        rows = [(f"m{m}", f"i{i}", {"title": "t"}) for m, i in pairs]
        table = table_of(rows)
        expected = sort_counts(
            brute_force_group_by(((m, i) for m, i, _ in rows), distinct=distinct)
        )
        got = table.top_counts(
            "item", limit=max(len(expected), 1),
            aggregation="distinct" if distinct else "raw",
        )
        assert list(got.entries) == expected


FILTER_VALUES = {
    "country": ["c0", "c1", "c2", "c9"],  # c9 never occurs in the data
    "title": ["t0", "t1", "t2", "t9"],
}


@st.composite
def filters(draw):
    """One- and two-term conjunctions of equality and membership terms."""
    columns = draw(st.lists(st.sampled_from(sorted(FILTER_VALUES)), min_size=1, max_size=2, unique=True))
    spec = {}
    for column in columns:
        if draw(st.booleans()):
            spec[column] = draw(st.sampled_from(FILTER_VALUES[column]))
        else:
            spec[column] = draw(
                st.lists(st.sampled_from(FILTER_VALUES[column]), min_size=1, max_size=3)
            )
    return spec


class TestFilteredProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),  # member
                st.integers(min_value=0, max_value=6),  # item
                st.integers(min_value=0, max_value=2),  # country
                st.integers(min_value=0, max_value=2),  # title
            ),
            max_size=50,
        ),
        filters(),
        st.sampled_from(["item", "title"]),
        st.booleans(),
        st.integers(min_value=1, max_value=8),
    )
    def test_filtered_counts_match_brute_force(self, draws, spec, group_by, distinct, limit):
        rows = [(f"m{m}", f"i{i}", {"country": f"c{c}", "title": f"t{t}"}) for m, i, c, t in draws]
        table = table_of(rows, make_schema(item={}, country={}, title={}))

        def matches(dims):
            return all(
                dims[column] == want if isinstance(want, str) else dims[column] in want
                for column, want in spec.items()
            )

        expected = brute_force_group_by(
            ((m, i if group_by == "item" else d[group_by]) for m, i, d in rows if matches(d)),
            distinct=distinct,
        )
        aggregation = "distinct" if distinct else "raw"
        assert table.group_counts(group_by, normalize_filter(spec), aggregation) == expected
        got = table.top_counts(group_by, normalize_filter(spec), limit=limit, aggregation=aggregation)
        assert list(got.entries) == sort_counts(expected)[:limit]


class TestTieOrder:
    VALUES = ["a", "a\x00", "A", "b", "\u00e9", "e\u0301", "\U0001f600", "\uffff", "a\x00\x00", "Z"]

    def test_lookalike_values_stay_distinct_in_python_order(self, tmp_path):
        # One member per value, so every count ties at 1 and the order is
        # the element id order alone.
        rows = [(f"m{n}", value, {"title": value}) for n, value in enumerate(self.VALUES)]
        table = table_of(rows)
        save_snapshot(table, tmp_path / "snap")
        for t in (table, load_snapshot(tmp_path / "snap")):
            for column in ("item", "title"):
                got = t.top_counts(column, limit=len(self.VALUES) + 1)
                assert got.entries == tuple((v, 1) for v in sorted(self.VALUES))
                assert t.group_counts(column) == {v: 1 for v in self.VALUES}
            assert t.top_counts("item", normalize_filter({"title": ["a", "Z"]})).entries == (("Z", 1), ("a", 1))
            assert t.top_counts("item", normalize_filter({"title": "a\x00"})).entries == (("a\x00", 1),)


class TestNormalizeFilter:
    def test_sorted_and_deduplicated(self):
        assert normalize_filter({"b": ["z", "y", "z"], "a": "x"}) == (
            ("a", "=", ("x",)),
            ("b", "@", ("y", "z")),
        )

    def test_empty(self):
        assert normalize_filter(None) == ()

    @pytest.mark.parametrize("spec", [{"country": 3}, {"country": None}, {"country": {"x": 1}}, {"country": []}])
    def test_malformed_term_names_its_column(self, spec):
        with pytest.raises(QueryError, match="'country'"):
            normalize_filter(spec)

    def test_filter_must_be_a_mapping(self):
        with pytest.raises(QueryError):
            normalize_filter(["country"])


class TestFileFormats:
    def test_ndjson_round_trip(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text(
            '{"member_id":"m1","item":"a","event_date":"2020-06-29","title":"x"}\n'
            '{"member_id":"m2","item":"b","event_date":"2020-06-30","title":"y"}\n'
        )
        records = load_ndjson(path)
        assert records[0].member_id == "m1"
        assert records[1].dimensions == {"title": "y"}

    def test_ndjson_bad_rows(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"member_id":"m1","item":"a"}\n')
        with pytest.raises(IngestError):
            load_ndjson(path)
        path.write_text("not json\n")
        with pytest.raises(IngestError):
            load_ndjson(path)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "member_id,item,event_date,title\n"
            "m1,a,2020-06-29,x\n"
            "m2,b,2020-06-30,y\n"
        )
        records = load_csv(path)
        assert records[1].item == "b"
        assert records[0].dimensions == {"title": "x"}

    def test_snapshot_save_load_save_is_byte_identical(self, tmp_path):
        schema = make_schema(item={}, title={"delta": 1}, country={"domain": ("de", "in")})
        rnd = random.Random(3)
        rows = [
            (f"m{rnd.randrange(30)}", f"item{rnd.randrange(9)}",
             {"title": rnd.choice(["x", "y\u00e9", "z\x00"]), "country": rnd.choice(["de", "in"])})
            for _ in range(200)
        ]
        dates = [AS_OF - timedelta(days=rnd.randrange(5)) for _ in rows]
        records = [r for row, when in zip(rows, dates) for r in make_records([row], when)]
        save_snapshot(ingest(records, schema, AS_OF), tmp_path / "a")
        save_snapshot(load_snapshot(tmp_path / "a"), tmp_path / "b")
        for name in ("rows.ndjson", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"member_id":"m2","item":"b","event_date":"2020-06-30"}', "missing=['title']"),
            ('{"member_id":"m2","item":"b","event_date":"2020-06-30","title":"x","country":"de"}',
             "extra=['country']"),
            ('{"member_id":"m2","event_date":"2020-06-30","title":"x"}', "missing fields ['item']"),
            ('{"member_id":"m2","item":"b","event_date":"30.06.2020","title":"x"}', "bad event_date"),
            ('{"member_id":"m2","item":["b"],"event_date":"2020-06-30","title":"x"}', "JSON scalars"),
        ],
    )
    def test_snapshot_bad_row_names_its_index(self, tmp_path, line, reason):
        table = table_of([("m1", "a", {"title": "x"})])
        save_snapshot(table, tmp_path / "snap")
        rows = tmp_path / "snap" / "rows.ndjson"
        rows.write_text(rows.read_text() + line + "\n")
        with pytest.raises(IngestError, match="row 1: .*" + re.escape(reason)):
            load_snapshot(tmp_path / "snap")

    def test_snapshot_round_trip(self, tmp_path):
        schema = make_schema(item={}, title={"delta": 1})
        table = ingest(
            make_records(
                [("m1", "a", {"title": "x"}), ("m2", "b", {"title": "y"}),
                 ("m3", "a", {"title": "y"})]
            ),
            schema,
            AS_OF,
        )
        save_snapshot(table, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.as_of == table.as_of
        assert loaded.top_counts("item").entries == table.top_counts("item").entries
        assert loaded.schema.meta("title").delta_sensitivity == 1
