"""The ``wire-mixed`` workload: reads beside durable commits, over TCP.

A :class:`~repro.server.PCQEServer` runs in a child process
(``server_child.py``) on a durable data directory holding the running
example plus a ``Ledger`` table.  This process is the load generator,
with two connections:

* a closed-loop reader asking the running-example query at fraction
  0.0 — a pure read on its pinned snapshot, checked against the
  in-process answer;
* an open-loop writer committing one ``INSERT INTO Ledger`` per due time
  at a fixed rate.  Latency is timed from the due time, so a stalled
  commit also charges the inserts queued behind it, and how late the
  generator sent each insert is reported.  Open loop on purpose: with a
  closed-loop writer, faster commits would mean more commits and could
  make reads look worse.

An untraced run is cut into equal parts with a fresh server boot before
each, the previous server stopping gracefully; every boot is one
set-up.  After the run the last server is killed with SIGKILL and the
data directory is recovered; it must hold every acknowledged insert.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from layers import EXPECTED
from stats import beyond, low_percentile, per_reference, percentile, reference_ms
from tracing import zero_call_targets

from repro import PCQEngine, QueryRequest
from repro.server import ServerClient
from repro.storage import REAL, TEXT, Database, Schema
from repro.storage.durability import SNAPSHOT_FILE, recover, write_snapshot
from repro.workload import venture_capital_database

HERE = Path(__file__).resolve().parent
QUERY = venture_capital_database().QUERY
_REPLY_TIMEOUT_S = 60.0


def build_data_dir(path: str, seed: int, rows: int) -> None:
    """The running example plus *rows* Ledger rows, as one snapshot."""
    rng = random.Random(seed)
    db = Database("wire")
    for table in venture_capital_database().db.tables():
        copy = db.create_table(table.name, table.schema.unqualified())
        for row in table.scan():
            copy.insert(
                list(row.values), confidence=row.confidence, cost_model=row.cost_model
            )
    ledger = db.create_table("Ledger", Schema.of(("Account", TEXT), ("Amount", REAL)))
    ledger.insert_many(
        [[f"L{index:06d}", round(rng.uniform(0.0, 1000.0), 2)] for index in range(rows)],
        confidence=0.9,
    )
    os.makedirs(path)
    write_snapshot(db, os.path.join(path, SNAPSHOT_FILE), wal_seq=0)


def reference_answer() -> tuple[list, list]:
    """Rows and confidences of the reader's ask, computed in-process."""
    scenario = venture_capital_database()
    result = PCQEngine(scenario.db, scenario.policies).execute(
        QueryRequest(QUERY, "investment", required_fraction=0.0), user="bob"
    )
    rows = [list(row.values) for row, _confidence in result.released]
    return rows, [confidence for _row, confidence in result.released]


class ServerProcess:
    """The child server: started, commanded over stdin, and always reaped."""

    def __init__(self, data_dir: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), data_dir],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()
        try:
            self.port = self._reply()["port"]
        except BaseException:
            self.kill()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def _reply(self) -> dict[str, Any]:
        line = self._lines.get(timeout=_REPLY_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"server process exited ({self.proc.wait()})")
        return json.loads(line)

    def command(self, **message: Any) -> dict[str, Any]:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        """Graceful stop: the server drains and closes the database."""
        self.command(cmd="stop")
        self.proc.wait(timeout=_REPLY_TIMEOUT_S)
        self._close_pipes()

    def kill(self) -> None:
        """SIGKILL, as a crash; acknowledged commits must survive it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=_REPLY_TIMEOUT_S)
        self._close_pipes()

    def _close_pipes(self) -> None:
        self._pump.join(timeout=_REPLY_TIMEOUT_S)
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class _Phase:
    def __init__(self) -> None:
        self.ask_ms: list[float] = []
        self.reference: list[float] = []
        self.ask_failed = 0
        self.commit_ms: list[float] = []
        self.late_ms: list[float] = []
        self.commit_failed = 0
        self.wrong: list[str] = []
        self.elapsed = 0.0


def _phase(
    reader: ServerClient,
    writer: ServerClient,
    seconds: float,
    rate: float,
    inserts: list[tuple[str, float]],
    acked: list[str],
    reference: tuple[list, list],
) -> _Phase:
    """One measured phase: the reader loops while the writer keeps time."""
    start = time.perf_counter() + 0.05
    phase = _Phase()
    end = start + seconds
    rows, confidences = reference

    def read() -> None:
        while time.perf_counter() < start:
            time.sleep(0.001)
        while True:
            began = time.perf_counter()
            if began >= end:
                break
            try:
                reply = reader.ask(QUERY, 0.0)
            except Exception as error:  # counted, and the run goes on
                reply = None
                phase.ask_failed += 1
                if len(phase.wrong) < 5:
                    phase.wrong.append(f"ask failed: {error}")
            latency = (time.perf_counter() - began) * 1e3
            phase.ask_ms.append(latency)
            phase.reference.append(reference_ms())
            if (
                reply is not None
                and (reply["rows"] != rows or reply["confidences"] != confidences)
                and len(phase.wrong) < 5
            ):
                phase.wrong.append("a wire ask differs from the in-process answer")
        phase.elapsed = time.perf_counter() - start - sum(phase.reference) / 1e3

    def write() -> None:
        for index, (account, amount) in enumerate(inserts):
            due = start + (index + 0.5) / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            phase.late_ms.append((sent - due) * 1e3)
            try:
                writer.sql(f"INSERT INTO Ledger VALUES ('{account}', {amount})")
            except Exception as error:  # counted, and the run goes on
                phase.commit_failed += 1
                if len(phase.wrong) < 5:
                    phase.wrong.append(f"insert failed: {error}")
            else:
                acked.append(account)
            phase.commit_ms.append((time.perf_counter() - due) * 1e3)

    threads = [threading.Thread(target=read), threading.Thread(target=write)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phase


def _server_request_ms(openmetrics: str) -> float:
    """Mean of the server's own request-latency histogram, in ms."""
    values = {}
    for line in openmetrics.splitlines():
        for suffix in ("_sum", "_count"):
            key = f"server_request_latency_seconds{suffix} "
            if line.startswith(key):
                values[suffix] = float(line[len(key) :])
    if not values.get("_count"):
        return 0.0
    return 1e3 * values["_sum"] / values["_count"]


def _client(server: ServerProcess, user: str, purpose: str) -> ServerClient:
    return ServerClient("127.0.0.1", server.port, user=user, purpose=purpose)


def _recovery_errors(data_dir: str, acked: list[str]) -> list[str]:
    recovered, _report = recover(data_dir)
    accounts = {row.values[0] for row in recovered.table("Ledger").scan()}
    lost = [account for account in acked if account not in accounts]
    if lost:
        return [f"recovery lost {len(lost)} acknowledged insert(s), e.g. {lost[0]}"]
    return []


def run(
    seed: int, seconds: float, trace: bool, spec: dict, work: Path, out: Path
) -> dict[str, Any]:
    """Build the data directory, boot, measure, crash, recover, check."""
    try:
        return _run(seed, seconds, trace, spec, work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(
    seed: int, seconds: float, trace: bool, spec: dict, work: Path, out: Path
) -> dict[str, Any]:
    data_dir = str(work / "data")
    out.mkdir(exist_ok=True)
    rng = random.Random(seed)
    build_data_dir(data_dir, rng.randrange(2**31), spec["ledger_rows"])
    reference = reference_answer()
    rate = spec["writer_rate_per_s"]
    pct = spec["tail_percentile"]
    numbers = itertools.count()
    errors: list[str] = []
    acked: list[str] = []
    setup_times: list[float] = []
    peak_rss: list[float] = []
    layers: dict[str, float] | None = None

    server: ServerProcess | None = None
    reader = writer = None

    def close() -> None:
        for client in (reader, writer):
            if client is not None:
                client.close()

    def boot() -> None:
        """One set-up: a cold server boot on the data directory (recovery
        and the first MVCC generation) up to the first answered ask."""
        nonlocal server, reader, writer
        if server is not None:
            peak_rss.append(server.command(cmd="ledger")["peak_rss_mb"])
            close()
            server.stop()
        began = time.perf_counter()
        server = ServerProcess(data_dir)
        reader = _client(server, "bob", "investment")
        first = reader.ask(QUERY, 0.0)
        setup_times.append(time.perf_counter() - began)
        if (first["rows"], first["confidences"]) != reference:
            errors.append("the first wire ask differs from the in-process answer")
        writer = _client(server, "alice", "analysis")

    def measure(length: float) -> _Phase:
        inserts = [
            (f"W{next(numbers):06d}", round(rng.uniform(0.0, 1000.0), 2))
            for _ in range(max(1, round(length * rate)))
        ]
        return _phase(reader, writer, length, rate, inserts, acked, reference)

    try:
        if trace:
            # Half untraced, then half with the server's layers wrapped.
            boot()
            plain = measure(seconds / 2)
            server.command(cmd="trace")
            phase = measure(seconds / 2)
            spans = str(out / "wire-mixed.spans.jsonl")
            child = server.command(cmd="ledger", spans=spans)
            missing = zero_call_targets(child["calls"], EXPECTED["wire-mixed"])
            if missing:
                errors.append(f"wrappers recorded no call: {', '.join(missing)}")
            layers = child["layers"]
            layers.update(
                {
                    "server.request_ms": _server_request_ms(reader.metrics()),
                    "server.overhead_ms": sum(phase.ask_ms) / len(phase.ask_ms)
                    - layers["session.ask_ms"],
                    "trace.overhead_pct": 100.0
                    * (
                        per_reference(phase.ask_ms, phase.reference)
                        / per_reference(plain.ask_ms, plain.reference)
                        - 1.0
                    ),
                    "writer.late_ms": sum(phase.late_ms) / len(phase.late_ms),
                    "writer.commit_p50_ms": statistics.median(phase.commit_ms),
                    "writer.commit_tail_ms": percentile(phase.commit_ms, 75),
                    "ask.quote_cost": 0.0,
                    "ask.tail_ms": percentile(plain.ask_ms, pct),
                    "ask.per_s": len(plain.ask_ms) / plain.elapsed,
                    "ask.p50_ms": statistics.median(plain.ask_ms),
                    "ask.mean_ms": statistics.fmean(plain.ask_ms),
                    "reference.mean_ms": statistics.fmean(plain.reference),
                }
            )
            phases = [plain, phase]
            measured = [phase]
            peak_rss.append(child["peak_rss_mb"])
        else:
            # A fresh boot before each equal part of the run, so the median
            # set-up samples the machine's speed over the whole run.
            phases = []
            for _part in range(spec["setups"]):
                boot()
                phases.append(measure(seconds / spec["setups"]))
            measured = phases
            peak_rss.append(server.command(cmd="ledger")["peak_rss_mb"])
    finally:
        close()
        if server is not None:
            server.kill()  # a crash: every acknowledged insert must survive

    errors.extend(_recovery_errors(data_dir, acked))
    for one in phases:
        errors.extend(one.wrong)
    ask_ms = [latency for one in measured for latency in one.ask_ms]
    reference = [ms for one in measured for ms in one.reference]
    commit_ms = [latency for one in measured for latency in one.commit_ms]
    return {
        "setup_s": low_percentile([setup_times]),
        "ask_mean_ref": per_reference(ask_ms, reference),
        "ask_mean_ms": statistics.fmean(ask_ms),
        "reference_mean_ms": statistics.fmean(reference),
        "ask_p50_ms": statistics.median(ask_ms),
        "asks_per_s": len(ask_ms) / sum(one.elapsed for one in measured),
        "peak_rss_mb": max(peak_rss),
        "tail_ms": percentile(ask_ms, pct),
        "tail_label": f"p{pct}",
        "tail_beyond": beyond(ask_ms, pct),
        "commit_p50_ms": statistics.median(commit_ms),
        "commit_max_ms": max(commit_ms),
        "commits": len(commit_ms),
        "late_ms": max(late for one in measured for late in one.late_ms),
        "attempted": sum(len(one.ask_ms) + len(one.commit_ms) for one in phases),
        "failed": sum(one.ask_failed + one.commit_failed for one in phases),
        "errors": errors,
        "layers": layers,
    }
