"""The server child process, the request stream and the closed loop that drives it.

One client thread drives one or two connections.  Every round sends the
next request on each connection and waits for all replies, so each
connection is a closed loop and the reference is never timed while a request
is in flight.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import SpeedTrack
from workloads import TABLE, Inputs, Query

REPLY_TIMEOUT_S = 60.0
START_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One request, its reply and its timing."""

    kind: str  # "query" | "get_budget" | "ping"
    analyst: str | None
    query: Query | None
    payload: bytes
    sent: float = 0.0
    received: float = 0.0
    reply: bytes | None = None
    timed: bool = False


def request(kind: str, analyst: str | None, query: Query | None, rng: np.random.Generator) -> dict:
    if kind == "ping":
        return {"op": "ping"}
    if kind == "get_budget":
        return {"op": "get_budget", "analyst_id": analyst}
    req = {"op": "query", "analyst_id": analyst, "table": TABLE, "group_by": query.group_by, "k": query.k}
    if query.filter:
        (column, values), = query.filter
        if query.membership:
            # The same query in another order must draw the same noise.
            req["filter"] = {column: [values[i] for i in rng.permutation(len(values))]}
        else:
            req["filter"] = {column: values[0]}
    return req


def _apportion(shares: list[float], total: int) -> list[int]:
    """Whole counts in proportion to ``shares`` that sum to ``total``."""
    exact = np.array(shares) / sum(shares) * total
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact, kind="stable")[: total - counts.sum()]:
        counts[i] += 1
    return counts.tolist()


class OpStream:
    """The endless request sequence of one connection.

    Requests come in decks of DECK operations that hold the mix in exact
    proportions: each kind of request, the share of queries from the
    analysts that start at their cap (who alone are refused), and each
    query of a kind's pool in turn.  The layout of a deck is fixed per
    workload, and each small request (a refused query, a ``get_budget`` or
    a ``ping``) directly follows a query of an ordinary analyst.  A small
    request after a large query runs on cold caches and takes about three
    times as long as one after another small request; with the order drawn
    per seed, the share of such pairs, and with it the median of the small
    requests, moved from run to run.  The seed draws the analysts, where
    each pool starts and the order of membership filters.  Connection c
    owns the analysts whose index is c modulo the number of connections."""

    DECK = 200

    def __init__(self, inputs: Inputs, conn: int):
        w = inputs.workload
        self.inputs = inputs
        self.rng = np.random.default_rng([inputs.seed, w.index, 100 + conn])
        owned = np.arange(conn, w.analysts, w.connections)
        self.heavy = owned[owned < w.heavy]
        self.normal = owned[owned >= w.heavy]
        self.normal_p = inputs.weights[self.normal] / inputs.weights[self.normal].sum()
        counts = _apportion([q.weight for q in w.queries] + [w.get_budget, w.ping], self.DECK)
        queries = [q.group_by for q, c in zip(w.queries, counts) for _ in range(c)]
        n_heavy = round(w.heavy_share * len(queries))
        layout = np.random.default_rng([w.index, 100 + conn])
        queries = [queries[i] for i in layout.permutation(len(queries))]
        large = [(kind, False) for kind in queries[n_heavy:]]
        small = [(kind, True) for kind in queries[:n_heavy]]
        small += [("get_budget", False)] * counts[-2] + [("ping", False)] * counts[-1]
        small = [small[i] for i in layout.permutation(len(small))]
        if len(small) > len(large):
            raise ValueError(f"{w.name}: more small requests than large queries to follow")
        self.slots = [s for i, big in enumerate(large) for s in [big] + small[i : i + 1]]
        self.by_kind = {q.group_by: [x for x in inputs.pool if x.group_by == q.group_by] for q in w.queries}
        self.turn = {kind: int(self.rng.integers(len(pool))) for kind, pool in self.by_kind.items()}
        self.buffer: list[Op] = []

    def _deal(self) -> None:
        for kind, heavy in self.slots:
            analyst = None
            if kind != "ping":
                if heavy:
                    a = self.heavy[self.rng.integers(len(self.heavy))]
                else:
                    a = self.rng.choice(self.normal, p=self.normal_p)
                analyst = self.inputs.analysts[a]
            query = None
            if kind in self.by_kind:
                pool = self.by_kind[kind]
                query = pool[self.turn[kind] % len(pool)]
                self.turn[kind] += 1
                kind = "query"
            payload = json.dumps(request(kind, analyst, query, self.rng)).encode() + b"\n"
            self.buffer.append(Op(kind, analyst, query, payload))
        self.buffer.reverse()

    def next(self) -> Op:
        if not self.buffer:
            self._deal()
        return self.buffer.pop()


class Conn:
    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.parts: list[bytes] = []

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read(self) -> bytes | None:
        """Consume what has arrived; the reply line once it is complete."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        end = chunk.find(b"\n")
        if end < 0:
            self.parts.append(chunk)
            return None
        line = b"".join(self.parts) + chunk[:end]
        self.parts = [chunk[end + 1 :]] if end + 1 < len(chunk) else []
        return line

    def call(self, data: bytes) -> bytes:
        self.send(data)
        while (line := self.read()) is None:
            pass
        return line

    def close(self) -> None:
        self.sock.close()


class Server:
    """``dpquery serve`` as a child process of the benchmark."""

    def __init__(self, root: Path, inputs: Inputs, log: Path):
        env = dict(os.environ)
        rest = env.get("PYTHONPATH")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), rest]))
        self.log = log
        self._log_fh = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "dpquery.cli", "serve", "--config", str(inputs.config), "--port", "0"],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log_fh,
        )
        self.address = self._wait_address()

    def _wait_address(self) -> tuple[str, int]:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            text = self.log.read_bytes()
            if b"\n" in text:
                first = text.split(b"\n", 1)[0].decode()
                if not first.startswith("serving on "):
                    break
                host, port = first.removeprefix("serving on ").rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(f"server did not start: {self.log.read_text(errors='replace')[-2000:]}")

    def kill(self) -> float:
        """SIGKILL, as a crash would; the journal holds whatever was flushed.
        Returns the process's peak resident set in MB."""
        peak = 0.0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            peak = usage.ru_maxrss / 1024
        self._log_fh.close()
        return peak


PING = b'{"op": "ping"}\n'


def start(root: Path, inputs: Inputs, log: Path) -> tuple[Server, float]:
    """Start a server; return it with the seconds from spawn to the first
    answered ping."""
    t0 = time.perf_counter()
    server = Server(root, inputs, log)
    conn = Conn(server.address)
    try:
        reply = conn.call(PING)
    finally:
        conn.close()
    took = time.perf_counter() - t0
    if json.loads(reply) != {"pong": True, "status": "ok"}:
        server.kill()
        raise RuntimeError(f"bad ping reply {reply!r}")
    return server, took


@dataclass
class Round:
    start: float
    end: float
    ops: list[Op]


def drive(address: tuple[str, int], streams: list[OpStream], warmup_s: float, seconds: float,
          speed: SpeedTrack) -> tuple[list[Op], list[Round], str | None]:
    """Closed loop for ``warmup_s`` untimed then ``seconds`` timed seconds.

    Returns every op sent, the timed rounds, and the error that ended the
    run early, if any (a lost connection or a reply timeout)."""
    conns = [Conn(address) for _ in streams]
    ops: list[Op] = []
    rounds: list[Round] = []
    by_sock = {c.sock: c for c in conns}
    begin = time.perf_counter()
    timed_from = begin + warmup_s
    stop = timed_from + seconds
    error = None
    try:
        while True:
            speed.maybe_sample()
            now = time.perf_counter()
            if now >= stop:
                break
            batch = [s.next() for s in streams]
            start_t = time.perf_counter()
            for op, conn in zip(batch, conns):
                op.sent = time.perf_counter()
                conn.send(op.payload)
            ops.extend(batch)
            waiting = {conn.sock: op for op, conn in zip(batch, conns)}
            while waiting:
                if len(waiting) == 1:
                    ready = list(waiting)
                else:
                    ready, _, _ = select.select(list(waiting), [], [], REPLY_TIMEOUT_S)
                    if not ready:
                        raise TimeoutError("no reply within the timeout")
                for sock in ready:
                    line = by_sock[sock].read()
                    if line is not None:
                        op = waiting.pop(sock)
                        op.received = time.perf_counter()
                        op.reply = line
            end_t = time.perf_counter()
            if start_t >= timed_from:
                for op in batch:
                    op.timed = True
                rounds.append(Round(start_t, end_t, batch))
    except (OSError, TimeoutError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        for conn in conns:
            conn.close()
    speed.sample()
    return ops, rounds, error


def read_budgets(address: tuple[str, int], analysts: list[str]) -> dict[str, dict]:
    """get_budget for each analyst over one connection (closed afterwards)."""
    conn = Conn(address)
    try:
        return {a: json.loads(conn.call(json.dumps({"op": "get_budget", "analyst_id": a}).encode() + b"\n"))
                for a in analysts}
    finally:
        conn.close()
