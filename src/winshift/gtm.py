"""Generalized Thue-Morse words: closed forms for the whole pipeline.

The word t_{b,m} has at position n the base-b digit sum of n modulo m;
it is the fixed point of the rotation-built substitution
k -> k (k+1) ... (k+b-1) over Z_m.  Everything the generic machinery
computes for these substitutions is also available here in closed form:
factors of lengths 2 and 3, the synchronization delay 2b, the winning
shift, and the first difference and complexity functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .complexity import ComplexityTable
from .errors import InternalConsistencyError, PeriodicInputError, PreconditionError
from .substitution import Substitution, make_substitution
from .words import ChoiceSequence, Word


@dataclass(frozen=True)
class GtmParams:
    """Validated parameters; q is the order of k -> k + b - 1 on Z_m."""

    base: int
    modulus: int
    q: int


def gtm_params(b: int, m: int) -> GtmParams:
    """Validate (b, m); periodic parameters are rejected outright."""
    if b < 2:
        raise PreconditionError("base must be >= 2")
    if m < 1:
        raise PreconditionError("modulus must be >= 1")
    if (b - 1) % m == 0:
        raise PeriodicInputError(
            f"t_({b},{m}) is ultimately periodic: b ≡ 1 (mod m)"
        )
    return GtmParams(b, m, gtm_q(b, m))


def gtm_substitution(b: int, m: int) -> Substitution:
    """The substitution k -> k (k+1) ... (k+b-1) over Z_m.

    Periodic parameter pairs are allowed here so the periodicity probe
    has something to examine; the closed-form operations reject them.
    """
    if b < 2:
        raise PreconditionError("base must be >= 2")
    if m < 2:
        raise PreconditionError("need modulus >= 2 to materialize the substitution")
    images = tuple(tuple((k + t) % m for t in range(b)) for k in range(m))
    return make_substitution(images)


def gtm_letter(b: int, m: int, n: int) -> int:
    """Digit-sum oracle: the letter of t_{b,m} at position n."""
    if b < 2 or m < 1:
        raise PreconditionError("need base >= 2 and modulus >= 1")
    if n < 0:
        raise PreconditionError("position must be nonnegative")
    total = 0
    while n:
        total += n % b
        n //= b
    return total % m


def gtm_q(b: int, m: int) -> int:
    """Order of the final-letter rotation k -> k + b - 1 on Z_m: m / gcd(m, b - 1)."""
    if b < 2 or m < 1:
        raise PreconditionError("need base >= 2 and modulus >= 1")
    return m // gcd(m, b - 1)


def gtm_factors(b: int, m: int, n: int) -> frozenset[Word]:
    """Closed-form factor sets for lengths 2 and 3.

    Neighbouring letters inside an image differ by one; across an image
    boundary the left letter runs over the rotation orbit.
    """
    params = gtm_params(b, m)
    q, step = params.q, b - 1
    if n == 2:
        return frozenset(
            ((k - 1 + i * step) % m, k) for k in range(m) for i in range(q)
        )
    if n == 3:
        ascending = {
            ((k - 1 + i * step) % m, k, (k + 1) % m)
            for k in range(m)
            for i in range(q)
        }
        boundary = {
            ((k - 1) % m, k, (k + 1 - i * step) % m)
            for k in range(m)
            for i in range(q)
        }
        return frozenset(ascending | boundary)
    raise PreconditionError("closed-form factors cover lengths 2 and 3 only")


def gtm_sync_delay(b: int, m: int) -> int:
    """Synchronization delay 2b."""
    gtm_params(b, m)
    return 2 * b


def gtm_irreducibles(b: int, m: int, n: int) -> frozenset[ChoiceSequence]:
    """Irreducible winning choice sequences of length ``n`` in closed form.

    Two families: d 1^(n-2) a with a up to q, and, inside the window
    where a second branching fits, d 1^ell 2 1^(b^k - 1) 2 where k is
    maximal with b^k < n and ell = n - b^k - 2.
    """
    params = gtm_params(b, m)
    if n < 1:
        raise PreconditionError("length must be >= 1")
    if n == 1:
        return frozenset((a,) for a in range(2, m + 1))
    out: set[ChoiceSequence] = set()
    for d in range(1, m + 1):
        for a in range(2, params.q + 1):
            out.add((d,) + (1,) * (n - 2) + (a,))
    if n > b:
        k = 1
        while b ** (k + 1) < n:
            k += 1
        ell = n - b ** k - 2
        if 0 <= ell <= b ** k - b ** (k - 1) - 1:
            for d in range(1, m + 1):
                out.add((d,) + (1,) * ell + (2,) + (1,) * (b ** k - 1) + (2,))
    return frozenset(out)


def _gtm_values(b: int, m: int, n: int) -> tuple[int, int]:
    """(first difference, factor complexity) of t_{b,m} at length n."""
    q = gtm_params(b, m).q
    if n < 0:
        raise PreconditionError("length must be nonnegative")
    # Case split on the length; the ranges tile n >= 0 with no overlap,
    # and stepping outside them is a bug, not an input error.
    if n == 0:
        return 1, 1
    if n == 1:
        return m - 1, m
    if n <= b + 1:
        return (q - 1) * m, q * m * (n - 1) - m * (n - 2)
    k = 0
    while b ** (k + 2) + 1 < n:
        k += 1
    if not b ** (k + 1) + 2 <= n <= b ** (k + 2) + 1:
        raise InternalConsistencyError("length ranges must tile all lengths")
    spread = b ** (k + 1) - b ** k
    if n <= 2 * b ** (k + 1) - b ** k + 1:
        ell = n - b ** (k + 1) - 1
        if not 1 <= ell <= spread:
            raise InternalConsistencyError("offset escaped the growing range")
        return q * m, q * m * (n - 1) - m * spread
    ell = n - 2 * b ** (k + 1) + b ** k - 1
    if not 1 <= ell <= b ** (k + 2) - 2 * b ** (k + 1) + b ** k:
        raise InternalConsistencyError("offset escaped the flat range")
    return (q - 1) * m, q * m * (n - 1) - m * (spread + ell)


def gtm_delta(b: int, m: int, n: int) -> int:
    """Closed-form first difference of t_{b,m}."""
    return _gtm_values(b, m, n)[0]


def gtm_complexity(b: int, m: int, n: int) -> int:
    """Closed-form factor complexity of t_{b,m}."""
    return _gtm_values(b, m, n)[1]


def gtm_complexity_table(b: int, m: int, upto: int) -> ComplexityTable:
    """Closed-form table shaped like the generic one."""
    if upto < 0:
        raise PreconditionError("table bound must be nonnegative")
    deltas = tuple(gtm_delta(b, m, n) for n in range(upto + 1))
    return ComplexityTable(upto, deltas, tuple(accumulate(deltas)), ("closed_form",) * (upto + 1))
