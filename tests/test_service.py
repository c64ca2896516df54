from __future__ import annotations

import json
import socket
from datetime import date

import pytest

from dpquery.budget import BudgetError, BudgetLedger, Cost, actual_cost
from dpquery.config import FetchRule
from dpquery.mechanisms import PrivacyParams, gumbel_unknown, rank_histogram, translate_query
from dpquery.noise import KeyedNoise, NoiseKey, canonical_query, derive_seed
from dpquery.service import MAX_REQUEST_BYTES, QueryService, QuerySpec, Rejection, ServiceServer
from dpquery.store import QueryError, ingest, normalize_filter

from conftest import AS_OF, SECRET, make_records, make_schema

PARAMS = PrivacyParams(eps_per=0.8, delta=1e-8)
FETCH = FetchRule(k_multiplier=2, min_fetch=20)


def service_schema():
    return make_schema(
        item={},
        title={"delta": 1},
        seniority={"domain": tuple(f"level{i}" for i in range(10))},
        region={"domain": ("amer", "apac", "emea", "other"), "delta": 1},
    )


def build_table(n_members=100, n_items=60, shuffle=False):
    rows = []
    for m in range(n_members):
        member = f"m{m:03d}"
        dims = {
            "title": f"title{m % 12}",
            "seniority": f"level{m % 10}",
            "region": ("amer", "apac", "emea", "other")[m % 4],
        }
        # item i is engaged by members 0..(n_members - 2i), a clean ramp
        for i in range(n_items):
            if m <= n_members - 2 * i:
                rows.append((member, f"item{i:03d}", dims))
    if shuffle:
        rows = list(reversed(rows))
    return ingest(make_records(rows), service_schema(), AS_OF)


def build_service(table=None, ledger=None) -> QueryService:
    if table is None:
        table = build_table()
    return QueryService(
        tables={"events": table},
        secret=SECRET,
        params=PARAMS,
        ledger=ledger or BudgetLedger(),
        fetch=FETCH,
    )


def query(analyst="alice", group_by="item", k=10, filter=None, as_of=None):
    return QuerySpec(
        analyst_id=analyst, table="events", group_by=group_by, k=k,
        filter=filter, as_of_date=as_of,
    )


class TestClassify:
    def test_restricted_unknown_domain(self):
        service = build_service()
        qc = service.classify(query(group_by="title"))
        assert (qc.domain, qc.delta_sensitivity) == (None, 1)

    def test_undeclared_column_defaults(self):
        table = ingest(
            make_records([("m1", "a", {"title": "x", "seniority": "level0", "region": "amer"})]),
            service_schema(),
            AS_OF,
        )
        service = build_service(table)
        qc = service.classify(query(group_by="item"))
        assert (qc.domain, qc.delta_sensitivity, qc.tau) == (None, None, 1)

    def test_known_unrestricted(self):
        service = build_service()
        qc = service.classify(query(group_by="seniority"))
        assert (len(qc.domain), qc.delta_sensitivity) == (10, None)

    def test_known_restricted(self):
        service = build_service()
        qc = service.classify(query(group_by="region"))
        assert (len(qc.domain), qc.delta_sensitivity) == (4, 1)


class TestExecute:
    def test_unknown_unrestricted_end_to_end(self):
        service = build_service()
        response = service.execute(query(k=10))
        assert 0 < len(response.entries) <= 10
        n = len(response.entries)
        assert response.cost_charged == Cost(
            2 * n + 1 - int(response.truncated), 1
        )
        rec = service.ledger.get_budget("alice")
        assert rec.used_info == response.cost_charged.info
        assert rec.used_calls == 1

    def test_matches_module_level_composition(self):
        # Re-run the pipeline by hand from the public pieces and compare.
        table = build_table()
        service = build_service(table)
        spec = query(k=10, filter={"region": "amer"})
        response = service.execute(spec)

        qclass = service.classify(spec)
        d_bar = translate_query(
            spec.k, k_multiplier=FETCH.k_multiplier, min_fetch=FETCH.min_fetch
        )
        slice_ = table.top_counts("item", normalize_filter({"region": "amer"}), limit=d_bar + 1)
        canon = canonical_query(
            table="events", group_by="item", terms=normalize_filter({"region": "amer"}),
            k=10, sensitivity="unrestricted", tau=1, delta_sensitivity=0,
        )
        noise = KeyedNoise(derive_seed(NoiseKey(SECRET, canon, AS_OF)))
        oracle = gumbel_unknown(
            rank_histogram(slice_.entries, d_bar + 1), 10, d_bar, 1, PARAMS, noise
        )
        assert tuple(response.noisy_values) == tuple(v for _, v in oracle.entries)
        assert [e for e, _ in response.entries] == [e for e, _ in oracle.entries]
        assert response.cost_charged == actual_cost(oracle, qclass, 10)

    def test_repeat_query_same_answer_fresh_charge(self):
        service = build_service()
        first = service.execute(query(k=5))
        second = service.execute(query(k=5))
        assert first.entries == second.entries
        assert first.noisy_values == second.noisy_values
        assert second.budget_remaining.info == (
            first.budget_remaining.info - second.cost_charged.info
        )

    def test_known_domain_round_trip(self):
        service = build_service()
        response = service.execute(query(group_by="region", k=1))
        assert response.mechanism == "known_laplace"
        assert len(response.entries) == 4  # whole domain comes back
        assert response.cost_charged == Cost(1, 0)
        topk = service.execute(query(group_by="seniority", k=3))
        assert topk.mechanism == "known_topk"
        assert len(topk.entries) == 3
        assert topk.cost_charged == Cost(6, 0)

    def test_restricted_unknown_round_trip(self):
        service = build_service()
        response = service.execute(query(group_by="title", k=5))
        assert response.mechanism == "unknown_laplace"
        assert response.truncated
        assert response.threshold_value is not None
        assert response.cost_charged == Cost(1, 1)

    def test_insufficient_budget_rejected_without_deduction(self):
        ledger = BudgetLedger(overrides={"alice": (5, 1)})
        service = build_service(ledger=ledger)
        outcome = service.execute(query(k=50))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "insufficient_for_query"
        assert outcome.expected_cost == Cost(101, 1)
        rec = ledger.get_budget("alice")
        assert (rec.used_info, rec.used_calls) == (0, 0)

    def test_exhausted_budget_reason(self):
        ledger = BudgetLedger(overrides={"alice": (100, 1)})
        service = build_service(ledger=ledger)
        first = service.execute(query(k=3))  # consumes the single call
        assert not isinstance(first, Rejection)
        outcome = service.execute(query(k=3))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "budget_exhausted"

    def test_zero_remaining_info_is_exhausted(self):
        ledger = BudgetLedger(overrides={"alice": (6, 30)})
        service = build_service(ledger=ledger)
        service.execute(query(group_by="seniority", k=3))  # costs (6, 0)
        outcome = service.execute(query(group_by="seniority", k=1))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "budget_exhausted"

    def test_store_error_releases_reservation(self):
        service = build_service()
        with pytest.raises(QueryError):
            service.execute(query(group_by="no_such_column", k=5))
        rec = service.ledger.get_budget("alice")
        assert (rec.used_info, rec.used_calls) == (0, 0)

    def test_mechanism_error_releases_reservation(self):
        # k larger than the declared domain fails after admission; the
        # reservation must come back in full.
        from dpquery.noise import ParameterError

        service = build_service()
        with pytest.raises(ParameterError):
            service.execute(query(group_by="seniority", k=20))
        rec = service.ledger.get_budget("alice")
        assert (rec.used_info, rec.used_calls) == (0, 0)

    @pytest.mark.parametrize("bad", [{"region": 3}, {"region": []}, {"region": {"amer": 1}}, ["region"]])
    def test_malformed_filter_rejected_before_budget(self, tmp_path, bad):
        service = build_service(ledger=BudgetLedger(state_dir=tmp_path))
        with pytest.raises(QueryError):
            service.execute(query(group_by="region", k=1, filter=bad))
        rec = service.ledger.get_budget("alice")
        assert (rec.used_info, rec.used_calls) == (0, 0)
        assert (tmp_path / "budget.journal").read_bytes() == b""

    @pytest.mark.parametrize("group_by, filter", [("nope", None), ("item", {"nope": "x"}), ("region", {"title": "title1", "nope": ["x"]})])
    def test_unknown_column_rejected_before_budget(self, tmp_path, group_by, filter):
        service = build_service(ledger=BudgetLedger(state_dir=tmp_path))
        with pytest.raises(QueryError, match="unknown column 'nope'"):
            service.execute(query(group_by=group_by, k=1, filter=filter))
        rec = service.ledger.get_budget("alice")
        assert (rec.used_info, rec.used_calls) == (0, 0)
        assert (tmp_path / "budget.journal").read_bytes() == b""

    def test_bad_k_rejected_before_budget(self):
        service = build_service()
        with pytest.raises(QueryError):
            service.execute(query(k=0))

    @pytest.mark.parametrize("field, value", [
        ("k", 5.9), ("k", True), ("analyst_id", 7), ("analyst_id", "a" * 70_000),
        ("table", ["events"]), ("group_by", None), ("as_of_date", "2020-06-30"),
    ], ids=["k-float", "k-true", "id-int", "id-oversize", "table-list", "group_by-null", "date-string"])
    def test_malformed_spec_refused_before_admission(self, tmp_path, field, value):
        service = build_service(ledger=BudgetLedger(state_dir=tmp_path))
        fields = {"analyst_id": "alice", "table": "events", "group_by": "item", "k": 5}
        with pytest.raises((QueryError, BudgetError)):
            service.execute(QuerySpec(**{**fields, field: value}))
        assert service.ledger.analysts() == []
        assert (tmp_path / "budget.journal").read_bytes() == b""

    def test_unknown_table(self):
        service = build_service()
        with pytest.raises(QueryError):
            service.execute(QuerySpec("a", "nope", "item", 5))

    def test_as_of_mismatch(self):
        service = build_service()
        with pytest.raises(QueryError):
            service.execute(query(as_of=date(2019, 1, 1)))

    def test_rounded_entries_clamped_non_negative(self):
        service = build_service()
        response = service.execute(query(group_by="region", k=1))
        assert all(isinstance(c, int) and c >= 0 for _, c in response.entries)
        assert all(
            c == max(0, round(v))
            for (_, c), v in zip(response.entries, response.noisy_values)
        )

    def test_empty_table_returns_withheld_result(self):
        empty = ingest([], service_schema(), AS_OF)
        service = build_service(empty)
        response = service.execute(query(k=5))
        assert response.entries == ()
        assert response.truncated
        # pay-what-you-get: an empty sentinel-terminated release costs
        # nothing in information units, but the call is spent
        assert response.cost_charged == Cost(0, 1)
        restricted = service.execute(query(group_by="title", k=5))
        assert restricted.entries == ()
        assert restricted.cost_charged == Cost(1, 1)


class TestDeterminism:
    def test_rebuilt_service_gives_identical_bytes(self):
        a = build_service().execute(query(k=10))
        b = build_service().execute(query(k=10))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_ingest_order_irrelevant(self):
        a = build_service(build_table()).execute(query(k=10))
        b = build_service(build_table(shuffle=True)).execute(query(k=10))
        assert a.to_dict() == b.to_dict()

    def test_snapshot_date_changes_noise(self):
        table_jan = build_table()
        rows_table = ingest(
            [r for r in table_jan.records], service_schema(), date(2020, 7, 1)
        )
        a = build_service(table_jan).execute(query(k=10))
        b = build_service(rows_table).execute(query(k=10))
        assert a.noisy_values != b.noisy_values

    def test_filter_spelling_irrelevant(self):
        a = build_service().execute(query(k=5, filter={"region": ["amer", "apac"]}))
        b = build_service().execute(query(k=5, filter={"region": ["apac", "amer", "apac"]}))
        assert a.to_dict() == b.to_dict()


class TestWireFormatDrift:
    def test_golden_response_bytes(self):
        # Frozen serialized response for a fixed tiny table and secret.
        # Reproducibility is a product contract: any change to the seed
        # derivation, substream labels, sampling transforms or response
        # serialization shows up here first.
        schema = make_schema(item={})
        rows = [("m1", "a", {}), ("m2", "a", {}), ("m3", "b", {})]
        table = ingest(make_records(rows), schema, AS_OF)
        service = QueryService(
            tables={"events": table},
            secret=SECRET,
            params=PrivacyParams(eps_per=1.0, delta=1e-6),
            ledger=BudgetLedger(),
            fetch=FetchRule(k_multiplier=2, min_fetch=4),
        )
        response = service.execute(query(k=2))
        blob = json.dumps(response.to_dict(), sort_keys=True, separators=(",", ":"))
        assert blob == (
            '{"budget_remaining":{"calls":29,"info":3000},'
            '"cost_charged":{"calls":1,"info":0},"entries":[],'
            '"k":2,"mechanism":"unknown_topk","noisy_values":[],'
            '"status":"ok","threshold_value":null,"truncated":true}'
        )

    def test_golden_release_bytes(self):
        # Counts far above the threshold: the released noisy values pin the
        # float serialization as well.  The two reals were independently
        # recomputed from the count substreams at the derived seed.
        schema = make_schema(item={})
        rows = [(f"m{m}", "a", {}) for m in range(60)]
        rows += [(f"m{m}", "b", {}) for m in range(40)]
        table = ingest(make_records(rows), schema, AS_OF)
        service = QueryService(
            tables={"events": table},
            secret=SECRET,
            params=PrivacyParams(eps_per=2.0, delta=1e-4),
            ledger=BudgetLedger(),
            fetch=FetchRule(k_multiplier=2, min_fetch=4),
        )
        response = service.execute(query(k=2))
        blob = json.dumps(response.to_dict(), sort_keys=True, separators=(",", ":"))
        assert blob == (
            '{"budget_remaining":{"calls":29,"info":2995},'
            '"cost_charged":{"calls":1,"info":5},'
            '"entries":[["a",61],["b",39]],"k":2,"mechanism":"unknown_topk",'
            '"noisy_values":[60.723527005355834,38.920267557092636],'
            '"status":"ok","threshold_value":null,"truncated":false}'
        )

    def test_golden_filtered_release_bytes(self):
        # A filtered release pins the filter's place in the canonical query.
        # The term kind follows the request's JSON type: a string is
        # equality, a one-element list is membership, and the two key
        # different seeds.
        schema = make_schema(item={}, region={})
        rows = [(f"m{m}", "a", {"region": "amer"}) for m in range(60)]
        rows += [(f"m{m}", "b", {"region": "amer"}) for m in range(40)]
        rows += [(f"m{m}", "c", {"region": "emea"}) for m in range(50)]
        table = ingest(make_records(rows), schema, AS_OF)
        blobs = []
        for filter in ({"region": "amer"}, {"region": ["amer"]}):
            service = QueryService(
                tables={"events": table},
                secret=SECRET,
                params=PrivacyParams(eps_per=2.0, delta=1e-4),
                ledger=BudgetLedger(),
                fetch=FetchRule(k_multiplier=2, min_fetch=4),
            )
            response = service.execute(query(k=2, filter=filter))
            blobs.append(json.dumps(response.to_dict(), sort_keys=True, separators=(",", ":")))
        assert blobs[0] == (
            '{"budget_remaining":{"calls":29,"info":2995},'
            '"cost_charged":{"calls":1,"info":5},'
            '"entries":[["a",61],["b",39]],"k":2,"mechanism":"unknown_topk",'
            '"noisy_values":[60.95008253746417,39.4534670342934],'
            '"status":"ok","threshold_value":null,"truncated":false}'
        )
        assert blobs[1] == (
            '{"budget_remaining":{"calls":29,"info":2995},'
            '"cost_charged":{"calls":1,"info":5},'
            '"entries":[["a",60],["b",39]],"k":2,"mechanism":"unknown_topk",'
            '"noisy_values":[59.595773590408164,39.49432941407784],'
            '"status":"ok","threshold_value":null,"truncated":false}'
        )
        assert blobs[0] != blobs[1]


class TestBudgetConformance:
    def test_trace_never_exceeds_period_budget(self):
        k_star, ell_star = 70, 3
        ledger = BudgetLedger(default_info=k_star, default_calls=ell_star)
        service = build_service(ledger=ledger)
        charged_info = charged_calls = 0
        for i in range(20):
            outcome = service.execute(query(k=2 + i % 3))
            if isinstance(outcome, Rejection):
                break
            charged_info += outcome.cost_charged.info
            charged_calls += outcome.cost_charged.calls
        rec = ledger.get_budget("alice")
        assert rec.used_info == charged_info <= k_star
        assert rec.used_calls == charged_calls <= ell_star


class Client:
    def __init__(self, address):
        self._sock = socket.create_connection(address)
        self._fh = self._sock.makefile("rwb")

    def send(self, payload) -> dict:
        line = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self._fh.write(line + b"\n")
        self._fh.flush()
        return json.loads(self._fh.readline())

    def close(self):
        self._fh.close()
        self._sock.close()


class TestServer:
    def test_query_over_socket(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        server = ServiceServer(build_service(ledger=ledger)).start()
        client = Client(server.address)
        try:
            assert client.send({"op": "ping"}) == {"pong": True, "status": "ok"}
            reply = client.send(
                {"op": "query", "analyst_id": "bob", "table": "events",
                 "group_by": "region", "k": 1}
            )
            assert reply["status"] == "ok"
            assert reply["cost_charged"] == {"info": 1, "calls": 0}
            budget = client.send({"op": "get_budget", "analyst_id": "bob"})
            assert budget["used"] == {"info": 1, "calls": 0}
        finally:
            client.close()
            server.stop()
        # exactly one cost record was journaled for the one executed query
        blob = (tmp_path / "budget.journal").read_bytes()
        assert blob == b""  # stop() snapshots and truncates
        snap = json.loads((tmp_path / "budget.snapshot.json").read_text())
        assert snap["records"]["bob"]["used_info"] == 1

    def test_journal_has_one_record_before_shutdown(self, tmp_path):
        ledger = BudgetLedger(state_dir=tmp_path)
        service = build_service(ledger=ledger)
        service.execute(query(group_by="region", k=1, analyst="carol"))
        blob = (tmp_path / "budget.journal").read_bytes()
        assert len(blob) == 2 + len(b"carol") + 16

    def test_malformed_request_no_deduction(self):
        server = ServiceServer(build_service()).start()
        client = Client(server.address)
        try:
            reply = client.send(b"this is not json")
            assert reply["status"] == "error"
            reply = client.send({"op": "query", "analyst_id": "dave"})  # missing fields
            assert reply["status"] == "error"
            budget = client.send({"op": "get_budget", "analyst_id": "dave"})
            assert budget["used"] == {"info": 0, "calls": 0}
        finally:
            client.close()
            server.stop()

    def test_stop_does_not_wait_for_idle_connections(self, tmp_path):
        import time

        server = ServiceServer(build_service(ledger=BudgetLedger(state_dir=tmp_path))).start()
        clients = [Client(server.address) for _ in range(2)]
        try:
            for client in clients:
                assert client.send({"op": "ping"})["status"] == "ok"
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 1.0
        finally:
            for client in clients:
                client.close()

    def test_finished_workers_are_pruned(self):
        server = ServiceServer(build_service()).start()
        try:
            for _ in range(50):
                client = Client(server.address)
                assert client.send({"op": "ping"})["status"] == "ok"
                client.close()
            assert len(server._threads) <= 5
        finally:
            server.stop()

    @pytest.mark.parametrize("field, value", [
        ("k", 5.9), ("k", True), ("k", "7"),
        ("analyst_id", {"x": 1}), ("analyst_id", 7), ("analyst_id", "a" * 70_000),
        ("table", ["events"]), ("group_by", None),
    ], ids=["k-float", "k-true", "k-string", "id-object", "id-int", "id-oversize", "table-list", "group_by-null"])
    def test_malformed_field_refused_before_admission(self, tmp_path, field, value):
        server = ServiceServer(build_service(ledger=BudgetLedger(state_dir=tmp_path))).start()
        client = Client(server.address)
        request = {"op": "query", "analyst_id": "fay", "table": "events", "group_by": "region", "k": 1}
        try:
            reply = client.send({**request, field: value})
            assert reply["status"] == "error"
            if field == "analyst_id":
                assert client.send({"op": "get_budget", "analyst_id": value})["status"] == "error"
            assert (tmp_path / "budget.journal").read_bytes() == b""
            assert server._service.ledger.analysts() == []
            assert client.send(request)["status"] == "ok"  # the well-formed request is charged
            budget = client.send({"op": "get_budget", "analyst_id": "fay"})
            assert budget["used"] == {"info": 1, "calls": 0}
        finally:
            client.close()
            server.stop()

    def test_integer_as_of_date_refused(self, tmp_path):
        server = ServiceServer(build_service(ledger=BudgetLedger(state_dir=tmp_path))).start()
        client = Client(server.address)
        request = {"op": "query", "analyst_id": "fay", "table": "events", "group_by": "region", "k": 1}
        try:
            assert client.send({**request, "as_of_date": 20200630})["status"] == "error"
            assert (tmp_path / "budget.journal").read_bytes() == b""
            assert server._service.ledger.analysts() == []
            assert client.send({**request, "as_of_date": AS_OF.isoformat()})["status"] == "ok"
        finally:
            client.close()
            server.stop()

    def test_request_line_is_capped(self, tmp_path):
        server = ServiceServer(build_service(ledger=BudgetLedger(state_dir=tmp_path))).start()
        try:
            with socket.create_connection(server.address, timeout=10) as sock, sock.makefile("rwb") as fh:
                ping = b'{"op": "ping"}'
                fh.write(b" " * (MAX_REQUEST_BYTES - len(ping)) + ping + b"\n")  # exactly the cap
                fh.flush()
                assert json.loads(fh.readline()) == {"pong": True, "status": "ok"}
                fh.write(b"x" * (MAX_REQUEST_BYTES + 1))  # no newline
                fh.flush()
                assert json.loads(fh.readline())["status"] == "error"
                assert fh.read() == b""  # then the server closes the connection
            assert (tmp_path / "budget.journal").read_bytes() == b""
            assert server._service.ledger.analysts() == []
        finally:
            server.stop()

    def test_stop_answers_a_query_in_flight(self, tmp_path):
        import threading
        import time

        service = build_service(ledger=BudgetLedger(state_dir=tmp_path))
        server = ServiceServer(service).start()
        entered, closing = threading.Event(), threading.Event()
        run_mechanism, server_close = service._run_mechanism, server.server_close

        def slow_mechanism(*args):
            entered.set()
            assert closing.wait(10)  # held until stop() is joining the workers
            time.sleep(0.2)  # still busy: stop() must wait for it, not close the ledger
            return run_mechanism(*args)

        def signalling_close():
            closing.set()
            server_close()

        service._run_mechanism = slow_mechanism
        server.server_close = signalling_close
        with socket.create_connection(server.address, timeout=10) as sock, sock.makefile("rwb") as fh:
            # Reserves 21 and settles at the released cost, so the settle is journaled.
            fh.write(json.dumps({"op": "query", "analyst_id": "gil", "table": "events",
                                 "group_by": "item", "k": 10}).encode() + b"\n")
            fh.flush()
            assert entered.wait(10)
            server.stop()
            reply = json.loads(fh.readline())
        assert reply["status"] == "ok"
        assert reply["cost_charged"]["info"] < 21
        snap = json.loads((tmp_path / "budget.snapshot.json").read_text())
        assert snap["records"]["gil"]["used_info"] == reply["cost_charged"]["info"]

    def test_client_that_never_reads_is_dropped(self, monkeypatch, capsys):
        import threading
        import time

        from dpquery import service as service_module

        monkeypatch.setattr(service_module, "CONNECTION_TIMEOUT_S", 2.0)
        server = ServiceServer(build_service()).start()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(server.address)
        sock.settimeout(1.0)
        pings = b'{"op":"ping"}\n' * 10_000
        try:
            # Pipeline pings and read no reply until the server takes none
            # for a second: its worker is then stuck sending replies nobody
            # reads, until its send times out and ends the connection.
            deadline = time.monotonic() + 30
            while True:
                assert time.monotonic() < deadline, "the server kept reading"
                try:
                    sock.sendall(pings)
                except OSError:  # the send timed out, or the server closed
                    break
            deadline = time.monotonic() + service_module.CONNECTION_TIMEOUT_S + 8
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not server._connections
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(timeout=3)
            assert not stopper.is_alive()
        finally:
            sock.close()
        assert "Traceback" not in capsys.readouterr().err

    def test_client_that_resets_is_closed_quietly(self, capsys):
        import struct
        import threading
        import time

        server = ServiceServer(build_service()).start()
        pings = b'{"op":"ping"}\n' * 2_000
        try:
            for _ in range(3):
                with socket.create_connection(server.address, timeout=10) as sock:
                    sock.sendall(pings)  # and read no reply
                    time.sleep(0.2)
                    # Linger 0: close() sends a reset, not a FIN.
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            deadline = time.monotonic() + 10
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not server._connections
        finally:
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(timeout=3)
        assert not stopper.is_alive()
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_op(self):
        server = ServiceServer(build_service()).start()
        client = Client(server.address)
        try:
            assert client.send({"op": "dance"})["status"] == "error"
        finally:
            client.close()
            server.stop()

    def test_rejection_over_socket(self):
        ledger = BudgetLedger(overrides={"eve": (5, 1)})
        server = ServiceServer(build_service(ledger=ledger)).start()
        client = Client(server.address)
        try:
            reply = client.send(
                {"op": "query", "analyst_id": "eve", "table": "events",
                 "group_by": "item", "k": 50}
            )
            assert reply["status"] == "rejected"
            assert reply["reason"] == "insufficient_for_query"
        finally:
            client.close()
            server.stop()

    def test_concurrent_clients_admit_exactly_budget(self):
        # Known-domain query costs (1, 0) flat; budget for exactly 5.
        import threading

        ledger = BudgetLedger(overrides={"mob": (5, 30)})
        server = ServiceServer(build_service(ledger=ledger)).start()
        payload = {"op": "query", "analyst_id": "mob", "table": "events",
                   "group_by": "region", "k": 1}
        replies = []
        lock = threading.Lock()

        def worker():
            client = Client(server.address)
            try:
                reply = client.send(payload)
            finally:
                client.close()
            with lock:
                replies.append(reply)

        threads = [threading.Thread(target=worker) for _ in range(20)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            server.stop()
        statuses = sorted(r["status"] for r in replies)
        assert statuses.count("ok") == 5
        assert statuses.count("rejected") == 15
