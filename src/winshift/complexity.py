"""First differences and factor complexity, directly and via the marked recurrence.

The first difference counts new factors per length and doubles as the
number of irreducible winning choice sequences of that length.  For a
marked uniform substitution with block length M and recurrence constant
K, a length n >= M*K + 2 has the same first difference as its extension
base n' = (n - 2) // M + 2 (``shift.extension_plan``), so the directly
computed base table up to M*K + 1 determines the whole sequence.

Proof.  The marked recurrence gives delta(n) = delta(b + 2) for
n = M^d * b + o + 1 with d maximal such that M^d * K + 2 <= n, b in
K..K*M - 1 and o in 1..M^d.  Then (n' - 2) // M^(d-1) = (n - 2) // M^d = b,
and M^(d-1) * K <= n' - 2 < M^d * K, so n' = b + 2 when d = 1 and n' has
coordinates (d - 1, b) otherwise.  Either way delta(n') = delta(n), and d
steps reach the base table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import PreconditionError
from .recognizability import sync_delay
from .shift import extension_plan
from .substitution import Substitution, factor_count


def recurrence_constant(subst: Substitution) -> int:
    """Least K with M*K + 1 at or past the synchronization delay."""
    delay = sync_delay(subst).delay
    M = subst.uniform_length
    return (delay + M - 2) // M


def resolve_method(subst: Substitution, method: str) -> str:
    """``auto`` is the recurrence on marked uniform input and direct otherwise."""
    if method == "auto":
        return "recurrence" if subst.uniform and subst.marked else "direct"
    if method not in ("direct", "recurrence"):
        raise PreconditionError(f"unknown method {method!r}")
    return method


def delta_direct(subst: Substitution, n: int) -> int:
    """First difference of the factor complexity from the direct factor counts.

    Both counts come from :func:`~winshift.substitution.factor_count`, which
    reads them off one suffix automaton per level and never builds ``L_n``.
    """
    if n < 0:
        raise PreconditionError("length must be nonnegative")
    subst.require("factor language computation", "primitive")
    if n == 0:
        return 1
    return factor_count(subst, n) - factor_count(subst, n - 1)


def delta_recurrence(subst: Substitution, n: int) -> int:
    """First difference via the marked recurrence; base table up to M*K + 1."""
    M = subst.require("the first-difference recurrence", "uniform", "marked")
    if n < 0:
        raise PreconditionError("length must be nonnegative")
    top = M * recurrence_constant(subst) + 1
    while n > top:
        n = extension_plan(n, M).base_length
    return delta_direct(subst, n)


@dataclass(frozen=True)
class ComplexityTable:
    """First differences and factor complexity with per-entry provenance."""

    upto: int
    deltas: tuple[int, ...]
    values: tuple[int, ...]
    methods: tuple[str, ...]


def complexity_table(subst: Substitution, upto: int, method: str = "auto") -> ComplexityTable:
    """Tabulate the first difference and its prefix sums up to a length."""
    if upto < 0:
        raise PreconditionError("table bound must be nonnegative")
    top = upto
    if resolve_method(subst, method) == "recurrence":
        M = subst.require("the first-difference recurrence", "uniform", "marked")
        top = min(upto, M * recurrence_constant(subst) + 1)
    deltas = [delta_direct(subst, n) for n in range(top + 1)]
    for n in range(top + 1, upto + 1):
        deltas.append(deltas[extension_plan(n, M).base_length])
    methods = ("direct",) * (top + 1) + ("recurrence",) * (upto - top)
    return ComplexityTable(upto, tuple(deltas), tuple(accumulate(deltas)), methods)
