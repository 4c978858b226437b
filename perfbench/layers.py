"""Which program functions the traced run wraps, and the per-layer ledger.

Every wrapped function is public API of one layer.  The ask path (SQL
front end, engines, policy, lineage, strategy finding) is wrapped in the
benchmark process for the in-process workloads and inside the server
process for ``wire-mixed``; the commit path (DML, WAL, MVCC) and the
serving layer (session, protocol) only run in the server.
"""

from __future__ import annotations

from tracing import Recorder, Target, layer_times

ASK_TARGETS = [
    Target("repro.sql.lexer:tokenize", "sql.tokenize"),
    Target("repro.sql.parser:parse", "sql.parse"),
    Target("repro.sql.parser:parse_command", "sql.parse"),
    Target("repro.sql.planner:plan_statement", "sql.plan"),
    Target("repro.algebra.optimizer:optimize", "algebra.optimize"),
    Target("repro.engines.select:select_engine", "engines.select"),
    Target(
        "repro.engines.select:PreparedPlan.execute",
        "engines.execute",
        amount=lambda result, _args: len(result),
    ),
    Target(
        "repro.policy.enforcement:PolicyEvaluator.apply_threshold",
        "policy.apply_threshold",
    ),
    Target(
        "repro.lineage.circuit:CircuitPool.compile",
        "lineage.compile",
        grows=lambda args: len(args[0]),
    ),
    Target("repro.lineage.circuit:CircuitPool.evaluate_many", "lineage.evaluate"),
    Target("repro.lineage.confidence:ConfidenceFunction.evaluate", "lineage.evaluate"),
    Target("repro.lineage.circuit:CircuitEvaluator.set_value", "lineage.evaluate"),
    Target(
        "repro.lineage.circuit:CircuitEvaluator.set_value_recorded",
        "lineage.evaluate",
    ),
    Target("repro.lineage.circuit:CircuitEvaluator.restore", "lineage.evaluate"),
    Target(
        "repro.increment.problem:IncrementProblem.from_results",
        "increment.problem_build",
    ),
    Target("repro.increment.dnc:solve_dnc", "increment.solve"),
    Target("repro.increment.greedy:solve_greedy", "increment.greedy"),
    Target("repro.increment.heuristic:solve_heuristic", "increment.heuristic"),
    Target("repro.increment.problem:SearchState.probe", "increment.probe", kind="count"),
]

SERVER_TARGETS = ASK_TARGETS + [
    Target("repro.server.session:Session.ask", "session.ask"),
    Target("repro.server.session:Session.run_sql", "session.run_sql"),
    Target("repro.sql.dml:execute_dml", "storage.execute_dml"),
    Target(
        "repro.storage.durability.wal:WriteAheadLog.append",
        "wal.append",
        amount=lambda result, _args: result,
    ),
    Target("repro.storage.durability.fileio:OsFile.fsync", "wal.fsync", kind="count"),
    Target("repro.server.mvcc:MVCCDatabase.commit", "mvcc.commit"),
    Target("repro.server.mvcc:MVCCDatabase.snapshot", "mvcc.snapshot"),
    Target(
        "repro.server.mvcc:SnapshotTable.__init__",
        "mvcc.rows_copied",
        kind="count",
        amount=lambda _result, args: len(args[1]),
    ),
    Target(
        "repro.server.protocol:encode_frame",
        "protocol.encode",
        amount=lambda result, _args: len(result),
    ),
]

#: Root span the in-process loop opens around each ask.
ASK_ROOT = "ask"

_FRONT_END = ("sql.tokenize", "sql.parse", "sql.plan", "algebra.optimize")
_ASK_LAYERS = _FRONT_END + (
    "engines.select",
    "engines.execute",
    "policy.apply_threshold",
    "lineage.compile",
    "lineage.evaluate",
    "increment.problem_build",
    "increment.solve",
    "increment.greedy",
    "increment.heuristic",
)
_INCREMENT_LINEAGE = (
    "lineage.compile",
    "lineage.evaluate",
    "increment.problem_build",
    "increment.solve",
    "increment.greedy",
    "increment.heuristic",
)

#: Calls each workload must record: a layer whose wrapper saw no call is a
#: renamed or bypassed function, and the traced run fails on it.
EXPECTED = {
    "ask-demo": [*_ASK_LAYERS, "increment.probe"],
    "ask-cohort": [*_ASK_LAYERS, "increment.probe"],
    "wire-mixed": [
        name for name in _ASK_LAYERS if not name.startswith("increment.")
    ]
    + [
        "session.ask",
        "session.run_sql",
        "storage.execute_dml",
        "wal.append",
        "wal.fsync",
        "mvcc.commit",
        "mvcc.snapshot",
        "mvcc.rows_copied",
        "protocol.encode",
    ],
}


#: Metrics measured by the wire load generator; zero on in-process runs,
#: which have no server.
LOAD_GENERATOR_METRICS = (
    "server.request_ms",
    "server.overhead_ms",
    "writer.late_ms",
    "writer.commit_p50_ms",
    "writer.commit_tail_ms",
)


def _per(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def ledger(recorder: Recorder, ask_root: str) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    Ask-path times are self milliseconds per ask (spans under *ask_root*),
    commit-path times self milliseconds per commit; counts are totals
    divided by asks or commits, which repeat exactly when the number of
    asks per input and of commits is fixed.
    """
    self_ms, roots = layer_times(recorder)
    calls = recorder.calls
    counters = recorder.counters
    asks = len(roots.get(ask_root, []))
    commits = calls.get("mvcc.commit", 0)
    ask_total = _per(sum(roots.get(ask_root, [])), asks)

    def ask_self(name: str) -> float:
        return _per(self_ms.get((ask_root, name), 0.0), asks)

    def all_self(name: str) -> float:
        return sum(value for (_root, span), value in self_ms.items() if span == name)

    out: dict[str, float] = {}
    for name in _ASK_LAYERS:
        out[f"{name}_ms"] = ask_self(name)
    out["ask.unattributed_ms"] = ask_self(ask_root)
    out["engines.rows_out"] = _per(counters.get("engines.execute", 0), asks)
    out["lineage.circuit_nodes"] = _per(counters.get("lineage.compile", 0), asks)
    out["increment.probes_per_ask"] = _per(counters.get("increment.probe", 0), asks)
    out["ask.front_end_pct"] = (
        100.0 * sum(ask_self(name) for name in _FRONT_END) / ask_total
        if ask_total
        else 0.0
    )
    out["ask.increment_lineage_pct"] = (
        100.0 * sum(ask_self(name) for name in _INCREMENT_LINEAGE) / ask_total
        if ask_total
        else 0.0
    )
    out["storage.execute_dml_ms"] = _per(all_self("storage.execute_dml"), commits)
    out["wal.append_ms"] = _per(all_self("wal.append"), commits)
    out["wal.bytes_per_commit"] = _per(counters.get("wal.append", 0), commits)
    out["wal.fsyncs_per_commit"] = _per(calls.get("wal.fsync", 0), commits)
    out["mvcc.commit_self_ms"] = _per(all_self("mvcc.commit"), commits)
    out["mvcc.rows_copied_per_commit"] = _per(
        counters.get("mvcc.rows_copied", 0), commits
    )
    out["mvcc.snapshot_ms"] = _per(all_self("mvcc.snapshot"), calls.get("mvcc.snapshot", 0))
    out["session.ask_ms"] = ask_total if ask_root == "session.ask" else 0.0
    run_sql = roots.get("session.run_sql", [])
    out["session.run_sql_ms"] = _per(sum(run_sql), len(run_sql))
    frames = calls.get("protocol.encode", 0)
    out["protocol.encode_ms"] = _per(all_self("protocol.encode"), frames)
    out["protocol.frame_bytes"] = _per(counters.get("protocol.encode", 0), frames)
    return out
