"""First differences and factor complexity, directly and via the marked recurrence.

The first difference counts new factors per length and doubles as the
number of irreducible winning choice sequences of that length.  For a
marked uniform substitution the values repeat along a length
decomposition, so a short directly computed base table determines the
whole sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalConsistencyError, PreconditionError
from .recognizability import sync_delay
from .substitution import Substitution, language


def recurrence_constant(subst: Substitution) -> int:
    """Least K with M*K + 1 at or past the synchronization delay."""
    delay = sync_delay(subst).delay
    M = subst.uniform_length
    return (delay + M - 2) // M


def delta_direct(subst: Substitution, n: int) -> int:
    """First difference of the factor complexity by plain enumeration."""
    if n < 0:
        raise PreconditionError("length must be nonnegative")
    if n == 0:
        return 1
    return len(language(subst, n)) - len(language(subst, n - 1))


@dataclass(frozen=True)
class DeltaDecomposition:
    """Canonical coordinates n = M^depth * base + offset + 1.

    ``depth`` is maximal with M^depth * K + 2 <= n, which forces
    base in K..K*M-1 and offset in 1..M^depth.
    """

    n: int
    depth: int
    base: int
    offset: int


def delta_decompose(n: int, block_length: int, constant: int) -> DeltaDecomposition:
    if n < constant + 2:
        raise PreconditionError(f"decomposition starts at {constant + 2}")
    depth = 0
    while block_length ** (depth + 1) * constant + 2 <= n:
        depth += 1
    scale = block_length ** depth
    base = (n - 2) // scale
    offset = n - 1 - scale * base
    if not (constant <= base <= constant * block_length - 1 and 1 <= offset <= scale):
        raise InternalConsistencyError("decomposition coordinates out of range")
    return DeltaDecomposition(n, depth, base, offset)


def delta_recurrence(subst: Substitution, n: int) -> int:
    """First difference via the marked recurrence; base table up to M*K + 1."""
    subst.require("the first-difference recurrence", "uniform", "marked")
    if n < 0:
        raise PreconditionError("length must be nonnegative")
    M = subst.uniform_length
    constant = recurrence_constant(subst)
    if n <= M * constant + 1:
        return delta_direct(subst, n)
    dec = delta_decompose(n, M, constant)
    if dec.base + 2 > M * constant + 1:
        raise InternalConsistencyError("recurrence target escaped the base table")
    return delta_direct(subst, dec.base + 2)


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
    if method == "auto":
        method = "recurrence" if subst.uniform and subst.marked else "direct"
    if method not in ("direct", "recurrence"):
        raise PreconditionError(f"unknown method {method!r}")
    if method == "recurrence":
        subst.require("the first-difference recurrence", "uniform", "marked")
    base_top = (
        subst.uniform_length * recurrence_constant(subst) + 1
        if method == "recurrence"
        else None
    )
    deltas = [1]
    methods = ["direct"]
    for n in range(1, upto + 1):
        if method == "direct" or n <= base_top:
            deltas.append(delta_direct(subst, n))
            methods.append("direct")
        else:
            deltas.append(delta_recurrence(subst, n))
            methods.append("recurrence")
    values = []
    total = 0
    for d in deltas:
        total += d
        values.append(total)
    return ComplexityTable(upto, tuple(deltas), tuple(values), tuple(methods))
