"""Queries, the closed-loop timed pass, and the answer checker.

A query is one call into the program.  The timed pass sends the queries
one after another from a single client, recording each latency and either
the answer or the exception.  Checks run afterwards, outside the timing: a
query fails when it raised, when its answer is wrong, or when its check
itself raised on the answer.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass
class Query:
    """One call into the program and how to judge its answer.

    An answer is right when ``oracle`` accepts it and ``digest`` of it
    equals ``expected``, the digest committed with the benchmark.
    """

    kind: str
    key: str
    call: Callable[[], Any]
    digest: Callable[[Any], Any]
    oracle: Callable[[Any], bool]
    expected: Any = None
    # inputs whose documented behaviour the program does not meet yet; they
    # run in every pass but are tallied apart from the attempted queries
    known_defect: bool = False
    # reduces an answer to what the checks read, right after it is timed,
    # so answers held for the checks do not add to the pass's peak memory
    keep: Callable[[Any], Any] | None = None


@dataclass
class Raised:
    """Stands in for the answer of a query that raised."""

    error: str


@dataclass
class Outcome:
    query: Query
    latency_s: float
    answer: Any


def timed_pass(queries: list[Query]) -> list[Outcome]:
    outcomes = []
    for query in queries:
        start = perf_counter()
        try:
            answer = query.call()
        except Exception:  # noqa: BLE001 - every uncaught exception is a failed query
            answer = Raised(traceback.format_exc(limit=3))
        latency = perf_counter() - start
        if query.keep is not None and not isinstance(answer, Raised):
            answer = query.keep(answer)
        outcomes.append(Outcome(query, latency, answer))
    return outcomes


def judge(query: Query, answer) -> str | None:
    """None when the answer passes its check, else why it fails."""
    if isinstance(answer, Raised):
        return f"{query.key}: raised\n{answer.error}"
    try:
        if query.oracle(answer) and query.digest(answer) == query.expected:
            return None
    except Exception:  # noqa: BLE001 - a check that cannot read the answer fails it
        return f"{query.key}: check raised\n{traceback.format_exc(limit=3)}"
    return f"{query.key}: wrong answer"


def tally(outcomes: list[Outcome]) -> dict:
    """Count attempted and failed queries; known-defect inputs are counted apart."""
    counts = {"attempted": 0, "failed": 0, "known_defects": 0, "known_defects_open": 0}
    failures = []
    for outcome in outcomes:
        verdict = judge(outcome.query, outcome.answer)
        if outcome.query.known_defect:
            counts["known_defects"] += 1
            counts["known_defects_open"] += verdict is not None
            continue
        counts["attempted"] += 1
        if verdict is not None:
            counts["failed"] += 1
            failures.append(verdict)
    counts["failures"] = failures
    return counts


def self_check(outcomes: list[Outcome]) -> str | None:
    """Feed a corrupted answer and a forced exception through ``tally``.

    The corrupted answer is the answer of another query of the same kind:
    it has the right type and a digest other than the committed one.  Both
    must be counted as failed.  Returns why not, or None.
    """
    passing = [
        o for o in outcomes if not o.query.known_defect and judge(o.query, o.answer) is None
    ]
    for outcome in passing:
        query = outcome.query
        for other in outcomes:
            if (
                other.query.kind == query.kind
                and other.query.key != query.key
                and not isinstance(other.answer, Raised)
                and query.digest(other.answer) != query.expected
            ):
                forced = Query(query.kind, query.key, _raise, query.digest, query.oracle, query.expected)
                counts = tally([Outcome(query, 0.0, other.answer)] + timed_pass([forced]))
                if counts["attempted"] != 2 or counts["failed"] != 2:
                    return f"checker missed a planted failure: {counts}"
                return None
    if passing:
        return "no two queries of one kind with different answers to swap"
    return None


def _raise():
    raise RuntimeError("forced failure planted by the self-check")
