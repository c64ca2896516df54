"""Command line front end.

Subcommands: ingest, query, serve, accountant, calibrate, budget.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from datetime import date
from pathlib import Path

from .calibration import full_report
from .composition import PerQueryParams, SystemPrivacyBudget, br_compose, overall_guarantee, solve_eps_per
from .config import load_config
from .service import QuerySpec, ServiceServer, ledger_from_config, service_from_config
from .store import Schema, ingest, load_csv, load_ndjson, save_snapshot


def _parse_filter(terms: list[str] | None) -> dict | None:
    """--filter col=value or --filter col@v1,v2 (membership), repeatable."""
    if not terms:
        return None
    parsed: dict[str, object] = {}
    for term in terms:
        if "@" in term and ("=" not in term or term.index("@") < term.index("=")):
            column, _, values = term.partition("@")
            parsed[column] = values.split(",")
        elif "=" in term:
            column, _, value = term.partition("=")
            parsed[column] = value
        else:
            raise SystemExit(f"bad filter term {term!r}; use col=value or col@v1,v2")
    return parsed


def _print_json(payload: object) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_ingest(args: argparse.Namespace) -> int:
    schema = Schema.from_dict(json.loads(Path(args.schema).read_text()))
    records = []
    for source in args.inputs:
        path = Path(source)
        loader = load_csv if path.suffix.lower() == ".csv" else load_ndjson
        records.extend(loader(path))
    table = ingest(records, schema, date.fromisoformat(args.as_of))
    save_snapshot(table, args.out)
    _print_json(
        {
            "snapshot": str(args.out),
            "rows": len(table),
            "rejected_out_of_window": table.rejected_out_of_window,
        }
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    service = service_from_config(config)
    spec = QuerySpec(
        analyst_id=args.analyst,
        table=args.table,
        group_by=args.group_by,
        k=args.k,
        filter=_parse_filter(args.filter),
        as_of_date=date.fromisoformat(args.as_of) if args.as_of else None,
    )
    try:
        outcome = service.execute(spec)
    finally:
        service.close()
    _print_json(outcome.to_dict())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    service = service_from_config(config)
    server = ServiceServer(service, host=args.host, port=args.port).start()
    host, port = server.address
    print(f"serving on {host}:{port}", file=sys.stderr)
    done = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: done.set())
    done.wait()
    server.stop()
    return 0


def _cmd_accountant(args: argparse.Namespace) -> int:
    if args.mode == "compose":
        _print_json(
            {
                "eps_per": args.eps,
                "t": args.t,
                "delta_prime": args.delta_prime,
                "eps_composed": br_compose(args.eps, args.t, args.delta_prime),
            }
        )
    elif args.mode == "overall":
        params = PerQueryParams(args.eps, args.delta, args.delta_prime)
        eps_max, delta_star = overall_guarantee(params, args.k_star, args.ell_star)
        _print_json({"eps_max": eps_max, "delta_star": delta_star})
    else:  # solve
        budget = SystemPrivacyBudget(args.eps_max, args.delta_star, args.k_star, args.ell_star)
        params = solve_eps_per(budget)
        _print_json(
            {
                "eps_per": params.eps_per,
                "delta": params.delta,
                "delta_prime": params.delta_prime,
            }
        )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    report = full_report(
        eps_per=args.eps,
        delta=args.delta,
        k_star=args.k_star,
        ell_star=args.ell_star,
        delta_prime=args.delta_prime,
        n_days=args.days,
        d_bar=args.d_bar,
    )
    if args.json:
        _print_json(report.to_dict())
    else:
        print(report.to_text())
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if config.state_dir is None:
        raise SystemExit("budget needs a config with a state_dir")
    ledger = ledger_from_config(config)
    try:
        if args.mode == "show":
            analysts = [args.analyst] if args.analyst else ledger.analysts()
            for analyst in analysts:
                _print_json(ledger.get_budget(analyst).to_dict())
        else:  # reset
            rec = ledger.reset_usage(args.analyst)
            _print_json({"analyst_id": rec.analyst_id, "used": {"info": 0, "calls": 0}})
    finally:
        ledger.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpquery")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate event files into a table snapshot")
    p.add_argument("inputs", nargs="+", help="NDJSON or CSV event files")
    p.add_argument("--schema", required=True, help="schema config JSON")
    p.add_argument("--as-of", required=True, help="snapshot date (YYYY-MM-DD)")
    p.add_argument("--out", required=True, help="snapshot output directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("query", help="execute one query and print the JSON response")
    p.add_argument("--config", required=True)
    p.add_argument("--analyst", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--group-by", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--filter", action="append")
    p.add_argument("--as-of")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("serve", help="run the socket service until SIGINT/SIGTERM")
    p.add_argument("--config", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7199)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("accountant", help="offline composition what-ifs")
    acc = p.add_subparsers(dest="mode", required=True)
    c = acc.add_parser("compose")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--delta-prime", type=float, default=0.0)
    o = acc.add_parser("overall")
    o.add_argument("--eps", type=float, required=True)
    o.add_argument("--delta", type=float, required=True)
    o.add_argument("--delta-prime", type=float, required=True)
    o.add_argument("--k-star", type=int, required=True)
    o.add_argument("--ell-star", type=int, required=True)
    s = acc.add_parser("solve")
    s.add_argument("--eps-max", type=float, required=True)
    s.add_argument("--delta-star", type=float, required=True)
    s.add_argument("--k-star", type=int, required=True)
    s.add_argument("--ell-star", type=int, required=True)
    p.set_defaults(func=_cmd_accountant)

    p = sub.add_parser("calibrate", help="print the attack calculus report")
    p.add_argument("--eps", type=float, default=0.15)
    p.add_argument("--delta", type=float, default=1e-10)
    p.add_argument("--k-star", type=int, default=3000)
    p.add_argument("--ell-star", type=int, default=30)
    p.add_argument("--delta-prime", type=float, default=1e-9)
    p.add_argument("--days", type=int, default=30)
    p.add_argument("--d-bar", type=int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("budget", help="inspect or reset analyst budgets")
    bud = p.add_subparsers(dest="mode", required=True)
    show = bud.add_parser("show")
    show.add_argument("--config", required=True)
    show.add_argument("--analyst")
    reset = bud.add_parser("reset")
    reset.add_argument("--config", required=True)
    reset.add_argument("--analyst", required=True)
    p.set_defaults(func=_cmd_budget)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
