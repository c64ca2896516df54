from __future__ import annotations

import json
import random
import re
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpquery import store
from dpquery.store import (
    ColumnMeta,
    IngestError,
    QueryError,
    Table,
    ingest,
    load_csv,
    load_ndjson,
    load_snapshot,
    normalize_filter,
    save_snapshot,
)
from oracles import brute_force_group_by, reference_encode_rows, sort_counts

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


SNAPSHOT_SCHEMA = make_schema(item={}, title={})
# Values save_snapshot writes between quotes as they are.
PLAIN_VALUES = ["a", "b", "m1", "x y", "~\x7f", "L" * 64, ""]
# Values written with escapes, longer than 64 bytes, or not strings.
ODD_VALUES = ['q"uote', "back\\slash", "caf\u00e9", "tab\t", "nul\x00", "\U0001f600", "L" * 65,
              1, True, 1.0, None, 0, False]
DATES = ["2020-06-30", "2020-06-29", "20200629", 20200630]


def canonical_line(member, item, when, title) -> str:
    row = {"member_id": member, "item": item, "event_date": when, "title": title}
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


@st.composite
def good_lines(draw) -> str:
    """A line that loads as a row (or is blank): mostly canonical, else any
    other shape such a line can take."""
    odd = draw(st.integers(min_value=0, max_value=3))
    values = st.sampled_from(PLAIN_VALUES if odd else PLAIN_VALUES + ODD_VALUES)
    when = draw(st.sampled_from(DATES[:2] if odd else DATES))
    row = {"member_id": draw(values), "item": draw(values), "event_date": when, "title": draw(values)}
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    if odd:
        return text
    shape = draw(st.sampled_from(["compact", "spaced", "reordered", "raw", "duplicate", "blank"]))
    if shape == "spaced":
        return json.dumps(row, sort_keys=True)
    if shape == "reordered":
        return json.dumps({k: row[k] for k in draw(st.permutations(list(row)))}, separators=(",", ":"))
    if shape == "raw":
        return json.dumps(row, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    if shape == "duplicate":
        return text[:-1] + ',"item":"dup"}'
    if shape == "blank":
        return draw(st.sampled_from(["", "  ", "\t \x0c"]))
    return text


@st.composite
def bad_lines(draw) -> str:
    """A line that load_snapshot refuses."""
    line = draw(good_lines().filter(lambda line: line.startswith("{")))
    row = json.loads(line)
    shape = draw(st.sampled_from(["date", "missing", "extra", "list", "invalid"]))
    if shape == "date":
        row["event_date"] = draw(st.sampled_from(["2020-13-01", "30.06.2020", "", True]))
    elif shape == "missing":
        del row[draw(st.sampled_from(sorted(row)))]
    elif shape == "extra":
        row["country"] = "de"
    elif shape == "list":
        row[draw(st.sampled_from(sorted(row)))] = draw(st.sampled_from([["b"], {"a": 1}]))
    else:
        return draw(st.sampled_from(["not json", line[:-1], line + ",", '["m1"]', "\ufeff" + line]))
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


@st.composite
def snapshot_rows(draw) -> bytes:
    """A rows.ndjson file: good lines with up to two bad ones among them,
    LF or CRLF endings, maybe no final newline."""
    lines = draw(st.lists(good_lines(), max_size=40))
    for bad in draw(st.lists(bad_lines(), max_size=2)):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), bad)
    ends = draw(st.lists(st.sampled_from(["\n"] * 5 + ["\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return text.encode("utf-8")


def outcome(build):
    try:
        return build()
    except Exception as exc:  # compared with the reference's outcome
        return exc


def table_state(table: Table) -> dict:
    """Vocabulary and codes of every field, and the ranked counts of both
    aggregations of every column."""
    state = {
        name: (tuple(vocab), codes.dtype, codes.tolist())
        for name, (vocab, codes) in (("member_id", table._members), ("event_date", table._dates))
    }
    for name, col in table._columns.items():
        state[name] = (col.vocab, col.codes.dtype, col.codes.tolist(), col.ranked)
    return state


def _file(*lines: str) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


GOOD_LINES = [canonical_line(f"m{n}", "a", "2020-06-30", "x") for n in range(4)]
BAD_DATE_LINE = canonical_line("m9", "b", "2020-13-01", "y")
OTHER_BAD_DATE_LINE = canonical_line("m8", "c", "2020-02-30", "z")


class TestFileFormats:
    @settings(max_examples=150, deadline=None)
    @given(snapshot_rows(), st.sampled_from([160, 400]))
    @example(_file(*GOOD_LINES, BAD_DATE_LINE, *GOOD_LINES, "not json", *GOOD_LINES), 160)
    @example(_file(*GOOD_LINES, "not json", *GOOD_LINES, BAD_DATE_LINE, *GOOD_LINES), 160)
    @example(_file(GOOD_LINES[0], BAD_DATE_LINE, GOOD_LINES[1], OTHER_BAD_DATE_LINE), 400)
    @example(b"", 160)
    def test_snapshot_load_matches_line_by_line_reference(self, content, block):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(store, "_BLOCK_BYTES", block, raising=False)  # many blocks per file
            snap = Path(tmp)
            save_snapshot(ingest([], SNAPSHOT_SCHEMA, AS_OF), snap)
            (snap / "rows.ndjson").write_bytes(content)
            expected = outcome(lambda: Table(
                SNAPSHOT_SCHEMA, AS_OF, reference_encode_rows(snap / "rows.ndjson", SNAPSHOT_SCHEMA)
            ))
            got = outcome(lambda: load_snapshot(snap))
        if isinstance(expected, Exception):
            assert (type(got), str(got)) == (type(expected), str(expected))
        else:
            assert table_state(got) == table_state(expected)

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

    def test_canonical_rows_are_handed_over_sorted(self, tmp_path, monkeypatch):
        # ASCII rows as save_snapshot writes them load as sorted, distinct
        # values and int32 codes, merged over many blocks, and Table keeps
        # those codes as they are.
        monkeypatch.setattr(store, "_BLOCK_BYTES", 300)
        rnd = random.Random(4)
        titles = ["", "x y", "L" * 64]
        rows = [(f"m{rnd.randrange(40)}", f"item{rnd.randrange(25)}", {"title": rnd.choice(titles)})
                for _ in range(120)]
        table = table_of(rows)
        save_snapshot(table, tmp_path / "snap")
        fields = store._encode_rows(tmp_path / "snap" / "rows.ndjson", table.schema)
        for values, codes in fields.values():
            assert list(values) == sorted(set(values)) and codes.dtype == np.int32
        loaded = Table(table.schema, AS_OF, fields)
        assert loaded._columns["item"].codes is fields["item"][1]
        assert table_state(loaded) == table_state(table)

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

    def test_snapshot_scalars_load_as_their_text(self, tmp_path):
        # 1, 1.0 and true (and 0, -0.0 and false) compare equal in Python;
        # each row loads as str(value), as load_ndjson gives it.
        table = table_of([("m1", "a", {"title": "x"})])
        save_snapshot(table, tmp_path / "snap")
        rows = tmp_path / "snap" / "rows.ndjson"
        items = [1, True, 1.0, "1", None, False, 0, -0.0, 1e400]
        rows.write_text("".join(
            json.dumps({"member_id": f"m{n}", "item": item, "event_date": "2020-06-30", "title": "x"}) + "\n"
            for n, item in enumerate(items)
        ))
        expected = {"1": 2, "True": 1, "1.0": 1, "None": 1, "False": 1, "0": 1, "-0.0": 1, "inf": 1}
        assert load_snapshot(tmp_path / "snap").group_counts("item") == expected
        assert ingest(load_ndjson(rows), table.schema, AS_OF).group_counts("item") == expected

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
