"""The in-process workloads: ``ask-demo`` and ``ask-cohort``.

Both are closed loops on one thread calling ``PCQEngine.execute`` with an
approval hook that declines, so every ask stops at the quote and leaves
the database unchanged: each iteration repeats the same work.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from layers import ASK_ROOT, ASK_TARGETS, EXPECTED, LOAD_GENERATOR_METRICS, ledger
from stats import (
    beyond,
    low_percentile,
    peak_rss_mb,
    per_reference,
    percentile,
    reference_ms,
)
from tracing import Recorder, install, zero_call_targets

from repro import PCQEngine, QueryRequest, QueryStatus
from repro.sql import run_sql
from repro.storage.durability import database_fingerprints
from repro.workload import healthcare_database, venture_capital_database

COHORT_QUERY = (
    "SELECT p.PatientId, p.Diagnosis, t.Treatment, t.ResponseRate "
    "FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
    "WHERE p.Stage = 'IV'"
)


SETUP_EVERY_S = 2.0
"""Seconds of asks between two slices of set-ups."""
SETUP_SLICE_S = 0.05
"""Least set-up time in a slice."""
SETUP_SHARE = 0.25
"""Most set-up time between asks, as a share of the asks' time so far."""


def _decline(_quote) -> bool:
    return False


class Case:
    """One database plus the ask the loop repeats against it."""

    def __init__(self, db, policies, request: QueryRequest, user: str) -> None:
        self.db = db
        self.policies = policies
        self.request = request
        self.user = user
        self.engine = PCQEngine(db, policies, solver="dnc", approval=_decline)
        self.first = self.engine.execute(request, user=user)
        self.signature = _signature(self.first)

    def ask(self):
        return self.engine.execute(self.request, user=self.user)


def _signature(result) -> tuple:
    quote = result.quote
    return (
        result.status,
        None if quote is None else (quote.cost, quote.shortfall),
        tuple((row.values, confidence) for row, confidence in result.released),
        result.withheld_count,
    )


def demo_builders(_seed: int, _spec: dict) -> list[Callable[[], Case]]:
    def build() -> Case:
        scenario = venture_capital_database()
        request = QueryRequest(scenario.QUERY, "investment", required_fraction=1.0)
        return Case(scenario.db, scenario.policies, request, "bob")

    return [build]


def cohort_builders(seed: int, spec: dict) -> list[Callable[[], Case]]:
    rng = random.Random(seed)

    def builder(cohort_seed: int) -> Callable[[], Case]:
        def build() -> Case:
            scenario = healthcare_database(patients=spec["patients"], seed=cohort_seed)
            request = QueryRequest(
                COHORT_QUERY, "treatment-evaluation", required_fraction=0.8
            )
            return Case(scenario.db, scenario.policies, request, "omar")

        return build

    return [builder(rng.randrange(1, 2**31)) for _ in range(spec["cohorts"])]


def _check_demo(case: Case) -> list[str]:
    result = case.first
    quote = result.quote
    if result.status is not QueryStatus.QUOTED or quote is None:
        return [f"ask-demo: expected a quote, got {result.status.value}"]
    if f"{quote.cost:.2f}" != "10.00":
        return [f"ask-demo: quoted {quote.cost!r}, expected 10.00"]
    return []


def _check_cohort(case: Case) -> list[str]:
    """The quote's targets, applied to a clone, lift the shortfall above β."""
    result = case.first
    quote = result.quote
    if result.status is not QueryStatus.QUOTED or quote is None:
        return [f"ask-cohort: expected a quote, got {result.status.value}"]
    beta = case.policies.threshold_for(case.user, case.request.purpose)
    clone = case.db.clone()
    clone.apply_confidences(quote.plan.targets)
    lifted = sum(
        1
        for confidence in run_sql(clone, case.request.sql).confidences(clone)
        if confidence > beta
    )
    if lifted - len(result.released) < quote.shortfall:
        return [
            f"ask-cohort: plan lifts {lifted - len(result.released)} rows above "
            f"{beta}, shortfall is {quote.shortfall}"
        ]
    return []


BUILDERS: dict[str, Callable[[int, dict], list[Callable[[], Case]]]] = {
    "ask-demo": demo_builders,
    "ask-cohort": cohort_builders,
}
CHECKS = {"ask-demo": _check_demo, "ask-cohort": _check_cohort}


def _mean_quote(cases: list[Case]) -> float:
    return sum(case.first.quote.cost for case in cases if case.first.quote) / len(cases)


class _Loop:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.reference: list[float] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.elapsed = 0.0


def _closed_loop(
    cases: list[Case],
    seconds: float,
    recorder: Recorder | None,
    between_rounds: Callable[[float], None] | None = None,
) -> _Loop:
    """Ask every case in turn for *seconds* of asks.

    A traced loop runs whole rounds, at least one, so that counts per ask
    average over every case equally and repeat exactly.  At the end of
    the first whole round past every ``SETUP_EVERY_S`` seconds of asks,
    *between_rounds* runs with the seconds of asks so far; its own time
    counts in no latency, not in ``elapsed``, and not against *seconds*.
    """
    loop = _Loop()
    clock = time.perf_counter_ns
    start = time.perf_counter()
    deadline = start + seconds
    due = start + SETUP_EVERY_S
    while True:
        for case in cases:
            if recorder is None and time.perf_counter() >= deadline:
                break
            began = clock()
            try:
                if recorder is None:
                    result = case.ask()
                else:
                    with recorder.root_span(ASK_ROOT):
                        result = case.ask()
            except Exception as error:  # counted, and the run goes on
                result = None
                loop.failed += 1
                if len(loop.wrong) < 5:
                    loop.wrong.append(f"ask raised {type(error).__name__}: {error}")
            latency = (clock() - began) / 1e6
            loop.latencies.append(latency)
            loop.reference.append(reference_ms())
            if (
                result is not None
                and _signature(result) != case.signature
                and len(loop.wrong) < 5
            ):
                loop.wrong.append("an ask returned a different answer than the first")
        else:
            began = time.perf_counter()
            if between_rounds is not None and began >= due:
                between_rounds(began - start)
                spent = time.perf_counter() - began
                start += spent
                deadline += spent
                due = began + spent + SETUP_EVERY_S
        if time.perf_counter() >= deadline:
            break
    loop.elapsed = time.perf_counter() - start - sum(loop.reference) / 1e3
    return loop


def run(
    name: str, seed: int, seconds: float, trace: bool, spec: dict, out: Path
) -> dict[str, Any]:
    """Set up, measure, and check one in-process workload."""
    # One set-up is one case built from nothing to its first answer.  The
    # cases asked are the last of spec["setups"] rounds of set-ups; more
    # rounds come in slices between the asks, so set-up time is sampled
    # over the whole run like ask latency.  A slice holds whole rounds
    # (every input once), so every input is set up equally often.
    builders = BUILDERS[name](seed, spec)
    setup_by_input: list[list[float]] = [[] for _ in builders]

    def set_up(index: int) -> Case:
        began = time.perf_counter()
        case = builders[index]()
        setup_by_input[index].append(time.perf_counter() - began)
        return case

    cases: list[Case] = []
    for _ in range(spec["setups"]):
        cases = [set_up(index) for index in range(len(builders))]
    interleaved = 0.0

    def set_up_between_rounds(measured: float) -> None:
        nonlocal interleaved
        if interleaved > SETUP_SHARE * measured:
            return
        began = time.perf_counter()
        while True:
            for index in range(len(builders)):
                set_up(index)
            if time.perf_counter() - began >= SETUP_SLICE_S:
                break
        interleaved += time.perf_counter() - began

    errors: list[str] = []
    for case in cases:
        errors.extend(CHECKS[name](case))
    before = [database_fingerprints(case.db) for case in cases]
    pct = spec["tail_percentile"]

    layers: dict[str, float] | None = None
    if trace:
        # Half the time untraced, then half traced, for the overhead.
        plain = _closed_loop(cases, seconds / 2, None)
        recorder = Recorder()
        install(recorder, ASK_TARGETS)
        loop = _closed_loop(cases, seconds / 2, recorder)
        missing = zero_call_targets(recorder.calls, EXPECTED[name])
        if missing:
            errors.append(f"wrappers recorded no call: {', '.join(missing)}")
        out.mkdir(exist_ok=True)
        recorder.write(str(out / f"{name}.spans.jsonl"))
        layers = ledger(recorder, ASK_ROOT)
        layers.update(dict.fromkeys(LOAD_GENERATOR_METRICS, 0.0))
        layers.update(
            {
                "trace.overhead_pct": 100.0
                * (
                    per_reference(loop.latencies, loop.reference)
                    / per_reference(plain.latencies, plain.reference)
                    - 1.0
                ),
                "ask.quote_cost": _mean_quote(cases),
                "ask.tail_ms": percentile(plain.latencies, pct),
                "ask.per_s": len(plain.latencies) / plain.elapsed,
                "ask.p50_ms": statistics.median(plain.latencies),
                "ask.mean_ms": statistics.fmean(plain.latencies),
                "reference.mean_ms": statistics.fmean(plain.reference),
            }
        )
        loops = [plain, loop]
    else:
        loop = _closed_loop(cases, seconds, None, set_up_between_rounds)
        loops = [loop]

    for one in loops:
        errors.extend(one.wrong)
    if [database_fingerprints(case.db) for case in cases] != before:
        errors.append("a quote-only ask changed the database")
    latencies = loop.latencies
    return {
        "setup_s": low_percentile(setup_by_input),
        "ask_mean_ref": per_reference(latencies, loop.reference),
        "ask_mean_ms": statistics.fmean(latencies),
        "reference_mean_ms": statistics.fmean(loop.reference),
        "ask_p50_ms": statistics.median(latencies),
        "asks_per_s": len(latencies) / loop.elapsed,
        "peak_rss_mb": peak_rss_mb(),
        "tail_ms": percentile(latencies, pct),
        "tail_label": f"p{pct}",
        "tail_beyond": beyond(latencies, pct),
        "quote_cost": _mean_quote(cases),
        "attempted": sum(len(one.latencies) for one in loops),
        "failed": sum(one.failed for one in loops),
        "errors": errors,
        "layers": layers,
    }
