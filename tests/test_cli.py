from __future__ import annotations

import json
import subprocess
import sys

from datetime import datetime, timedelta, timezone

import pytest

from dpquery.budget import BudgetLedger, Cost
from dpquery.cli import main
from dpquery.config import load_config
from dpquery.service import ledger_from_config

from conftest import SECRET, cli_env

SCHEMA = {
    "columns": {
        "item": {},
        "title": {"delta": 1},
        "region": {"domain": ["amer", "apac", "emea"]},
    },
    "retention_days": 30,
}


def write_events(path, n=200, as_of_day=28):
    # item i is engaged by members 0..(n - 20 i), a ramp of distinct counts
    # comfortably above the release threshold at the test parameters
    lines = []
    for m in range(n):
        for i in range(9):
            if m < n - 20 * i:
                lines.append(
                    json.dumps(
                        {
                            "member_id": f"m{m:03d}",
                            "item": f"item{i:02d}",
                            "event_date": f"2020-06-{as_of_day:02d}",
                            "title": f"title{m % 4}",
                            "region": ("amer", "apac", "emea")[m % 3],
                        }
                    )
                )
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workspace(tmp_path):
    events = tmp_path / "events.ndjson"
    write_events(events)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "secret_hex": SECRET.hex(),
                "privacy": {"eps_per": 0.8, "delta": 1e-8},
                "budget": {"info": 3000, "calls": 30, "period": "monthly"},
                "fetch": {"k_multiplier": 2, "min_fetch": 15},
                "tables": {"events": "snap"},
            }
        )
    )
    return tmp_path


def run_main(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.strip()
    return json.loads(out.splitlines()[-1])


def ingest_snapshot(workspace, capsys):
    return run_main(
        capsys,
        "ingest",
        str(workspace / "events.ndjson"),
        "--schema",
        str(workspace / "schema.json"),
        "--as-of",
        "2020-06-30",
        "--out",
        str(workspace / "snap"),
    )


class TestIngestAndQuery:
    def test_ingest_reports_rows(self, workspace, capsys):
        summary = ingest_snapshot(workspace, capsys)
        assert summary["rows"] == sum(200 - 20 * i for i in range(9))
        assert summary["rejected_out_of_window"] == 0
        assert (workspace / "snap" / "manifest.json").exists()

    def test_query_roundtrip(self, workspace, capsys):
        ingest_snapshot(workspace, capsys)
        reply = run_main(
            capsys,
            "query",
            "--config", str(workspace / "config.json"),
            "--analyst", "alice",
            "--table", "events",
            "--group-by", "item",
            "--k", "5",
        )
        assert reply["status"] == "ok"
        assert reply["mechanism"] == "unknown_topk"
        assert 0 < len(reply["entries"]) <= 5

    def test_query_with_filters(self, workspace, capsys):
        ingest_snapshot(workspace, capsys)
        reply = run_main(
            capsys,
            "query",
            "--config", str(workspace / "config.json"),
            "--analyst", "alice",
            "--table", "events",
            "--group-by", "item",
            "--k", "3",
            "--filter", "region@amer,apac",
            "--filter", "title=title1",
        )
        assert reply["status"] == "ok"

    def test_repeat_runs_are_byte_identical(self, workspace, capsys):
        ingest_snapshot(workspace, capsys)
        argv = [
            "query",
            "--config", str(workspace / "config.json"),
            "--analyst", "alice",
            "--table", "events",
            "--group-by", "item",
            "--k", "5",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bad_filter_term(self, workspace, capsys):
        ingest_snapshot(workspace, capsys)
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--config", str(workspace / "config.json"),
                    "--analyst", "a",
                    "--table", "events",
                    "--group-by", "item",
                    "--k", "3",
                    "--filter", "garbage",
                ]
            )


class TestAccountantCli:
    def test_compose(self, capsys):
        reply = run_main(
            capsys, "accountant", "compose", "--eps", "0.15", "--t", "3000",
            "--delta-prime", "1e-9",
        )
        assert abs(reply["eps_composed"] - 34.9) <= 0.05

    def test_solve_then_overall(self, capsys):
        solved = run_main(
            capsys, "accountant", "solve", "--eps-max", "34.9",
            "--delta-star", "7e-9", "--k-star", "3000", "--ell-star", "30",
        )
        overall = run_main(
            capsys, "accountant", "overall",
            "--eps", str(solved["eps_per"]), "--delta", str(solved["delta"]),
            "--delta-prime", str(solved["delta_prime"]),
            "--k-star", "3000", "--ell-star", "30",
        )
        assert overall["eps_max"] == pytest.approx(34.9, rel=1e-6)
        assert overall["delta_star"] == pytest.approx(7e-9, rel=1e-9)


class TestCalibrateCli:
    def test_json_report(self, capsys):
        reply = run_main(capsys, "calibrate", "--json")
        assert reply["max_stable_k"] == 738
        assert reply["suggested_info_budget"] == 2954
        assert abs(reply["overall"]["eps_max"] - 34.9) <= 0.05

    def test_text_report(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "max stable top-k" in out
        assert "738" in out


class TestBudgetCli:
    def test_show_and_reset(self, workspace, capsys):
        config = json.loads((workspace / "config.json").read_text())
        config["state_dir"] = "state"
        (workspace / "config.json").write_text(json.dumps(config))
        ingest_snapshot(workspace, capsys)
        run_main(
            capsys, "query",
            "--config", str(workspace / "config.json"),
            "--analyst", "alice",
            "--table", "events",
            "--group-by", "item",
            "--k", "5",
        )
        shown = run_main(capsys, "budget", "show", "--config", str(workspace / "config.json"), "--analyst", "alice")
        assert shown["used"]["calls"] == 1
        run_main(capsys, "budget", "reset", "--config", str(workspace / "config.json"), "--analyst", "alice")
        shown = run_main(capsys, "budget", "show", "--config", str(workspace / "config.json"), "--analyst", "alice")
        assert shown["used"] == {"info": 0, "calls": 0}

    def test_config_without_state_dir_refused(self, workspace):
        with pytest.raises(SystemExit, match="state_dir"):
            main(["budget", "show", "--config", str(workspace / "config.json")])

    @staticmethod
    def budget_config(workspace, **budget) -> str:
        config = json.loads((workspace / "config.json").read_text())
        config["state_dir"] = "state"
        config["budget"].update(budget)
        (workspace / "config.json").write_text(json.dumps(config))
        return str(workspace / "config.json")

    def test_show_keeps_the_configured_override(self, workspace, capsys):
        config = self.budget_config(workspace, overrides={"zed": [100, 5]})
        killed = BudgetLedger(overrides={"zed": (100, 5)}, state_dir=workspace / "state")
        killed.update_budget("zed", Cost(60, 1))  # no close(): only the journal is on disk
        shown = run_main(capsys, "budget", "show", "--config", config)
        assert (shown["max"], shown["used"]) == ({"info": 100, "calls": 5}, {"info": 60, "calls": 1})
        serving = ledger_from_config(load_config(config))
        try:
            assert serving.get_budget("zed").max_info == 100
            assert serving.try_reserve("zed", Cost(60, 1)) is None
        finally:
            serving.close()

    def test_show_keeps_spend_within_a_days_period(self, workspace, capsys):
        config = self.budget_config(workspace, period="days:60")
        # The period began 40 days ago: a calendar month has ended since.
        began = datetime.now(timezone.utc) - timedelta(days=40)
        ledger = BudgetLedger(period="days:60", state_dir=workspace / "state", clock=lambda: began)
        ledger.update_budget("ann", Cost(2900, 1))
        ledger.close()
        shown = run_main(capsys, "budget", "show", "--config", config, "--analyst", "ann")
        assert shown["used"] == {"info": 2900, "calls": 1}
        serving = ledger_from_config(load_config(config))
        try:
            assert serving.get_budget("ann").used_info == 2900
        finally:
            serving.close()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dpquery.cli", "calibrate", "--json"],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["max_stable_k"] == 738


def test_serve_daemon_round_trip(workspace, capsys):
    import signal
    import socket
    import time

    ingest_snapshot(workspace, capsys)
    config = json.loads((workspace / "config.json").read_text())
    config["state_dir"] = "state"
    (workspace / "config.json").write_text(json.dumps(config))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dpquery.cli", "serve",
         "--config", str(workspace / "config.json"), "--port", "0"],
        stderr=subprocess.PIPE,
        cwd=workspace,
        env=cli_env(),
    )
    try:
        line = proc.stderr.readline().decode()  # "serving on host:port"
        if not line.startswith("serving on"):
            _, rest = proc.communicate(timeout=15)
            pytest.fail(
                f"serve did not start (exit code {proc.returncode}):\n"
                f"{line}{rest.decode()}"
            )
        port = int(line.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps({
                "op": "query", "analyst_id": "zed", "table": "events",
                "group_by": "item", "k": 3,
            }).encode() + b"\n")
            fh.flush()
            reply = json.loads(fh.readline())
        assert reply["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
        # graceful shutdown flushed the ledger to the snapshot
        snap = json.loads((workspace / "state" / "budget.snapshot.json").read_text())
        assert snap["records"]["zed"]["used_calls"] == 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
