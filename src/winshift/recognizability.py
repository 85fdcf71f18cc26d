"""Interpretations, synchronization and decompositions for uniform substitutions.

An interpretation reads a word as a doubly trimmed image of an ancestor
word.  A word is synchronized when all of its interpretations agree on
the trim residue mod M, which pins the image boundaries inside it.  The
synchronization delay is the least length past which every language word
is synchronized.

Interpretations are read off the level pairs ``σ^k(a)σ^k(b)`` that
``language`` and ``is_factor`` share: each occurrence of a word in the
image of a pair is one interpretation, so one text search serves a word
of any length and no factor language is built for it.  Only the
synchronization search reads ``language``, for the words of each level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

from .errors import (
    CapExceededError,
    InternalConsistencyError,
    NotInLanguageError,
    PeriodicInputError,
    PreconditionError,
)
from .substitution import Substitution, _occurrences, is_factor, language
from .words import Word


@dataclass(frozen=True)
class Interpretation:
    """One reading of a word: word = trim(apply(ancestor), front, back)."""

    ancestor: Word
    front: int
    back: int


@dataclass(frozen=True)
class SyncAnalysis:
    """Front-trim residues over all interpretations plus the aligned cuts."""

    word: Word
    offsets: frozenset[int]
    sync_positions: tuple[int, ...]

    @property
    def synchronized(self) -> bool:
        return len(self.offsets) == 1


@dataclass(frozen=True)
class SyncDelay:
    """The delay plus an unsynchronized witness of length delay - 1."""

    delay: int
    witness: Word | None
    witness_offsets: frozenset[int]


def interpretations(subst: Substitution, w: Word) -> frozenset[Interpretation]:
    """All interpretations of ``w``, with trims normalized below M.

    Every ancestor covering ``w`` with both trims below M has at most
    span = ceil((|w| + 2M - 2) / M) letters.  Every factor that short is
    a window of a pair ``p = σ^k(a)σ^k(b)`` whose blocks are at least
    span - 1 long, as the ``language`` docstring proves, and every window
    of such a pair is a factor.  So the interpretations are exactly the
    occurrences of ``w`` in the images ``σ(p)``: one at position t has the
    ancestor ``p[t // M:(t + |w| - 1) // M + 1]`` and the front trim t mod M.
    """
    M = subst.require("interpretation search", "uniform", "primitive")
    w = tuple(w)
    if not w:
        raise PreconditionError("word must be nonempty")
    if not is_factor(subst, w):
        raise NotInLanguageError(f"word is not a factor of the subshift: {w}")
    n = len(w)
    span = math.ceil((n + 2 * M - 2) / M)
    found = {
        (pair[t // M:(t + n - 1) // M + 1], t % M)
        for pair, t in _occurrences(subst, w, span, lift=1)
    }
    if not found:
        raise InternalConsistencyError("a language word must occur inside some image")
    return frozenset(
        Interpretation(ancestor, front, M * len(ancestor) - n - front) for ancestor, front in found
    )


def sync_analysis(subst: Substitution, w: Word) -> SyncAnalysis:
    """Offsets of ``w`` and, when they agree, the aligned cut positions."""
    M = subst.uniform_length
    interps = interpretations(subst, w)
    offsets = frozenset(it.front % M for it in interps)
    if len(offsets) == 1:
        (i,) = offsets
        positions = tuple(p for p in range(len(w) + 1) if (p + i) % M == 0)
    else:
        positions = ()
    return SyncAnalysis(tuple(w), offsets, positions)


def sync_delay(subst: Substitution, cap: int | None = None) -> SyncDelay:
    """Least length at which every language word is synchronized.

    Synchronization is monotone in the length, so the first fully
    synchronized level is the delay; the last unsynchronized word seen
    certifies minimality.  The search reads n = 1, 2, ... and stops at
    the first n where one of these holds, checked in this order:

    - every word of ``L_n`` is synchronized: the delay is n;
    - ``|L_{n+1}| = |L_n|``: ``PeriodicInputError`` names n;
    - n equals an explicit ``cap``: ``CapExceededError``.

    A stall proves periodicity: by Morse and Hedlund it makes the
    subshift eventually periodic, and the subshift of a primitive
    substitution is minimal, hence periodic.  An aperiodic input never
    stalls, so the periodic verdict is never wrong.  Without a cap the
    loop ends: an aperiodic primitive substitution synchronizes (Mossé),
    and a periodic one has bounded nondecreasing complexity, so it stalls.
    Lengths are read in increasing order, so the stall reported is the
    first one, the length ``periodicity_probe`` reports as ``detected_at``.
    """
    subst.require("synchronization delay", "uniform", "primitive")
    if cap is not None and cap < 1:
        raise PreconditionError("cap must be >= 1")
    return _sync_delay_search(subst, cap)


@lru_cache(maxsize=None)
def _sync_delay_search(subst: Substitution, limit: int | None) -> SyncDelay:
    witness: Word | None = None
    witness_offsets: frozenset[int] = frozenset()
    level = language(subst, 1)
    for n in count(1):
        unsynchronized = None
        for w in level.words:
            ana = sync_analysis(subst, w)
            if not ana.synchronized:
                unsynchronized = ana
                break
        if unsynchronized is None:
            return SyncDelay(n, witness, witness_offsets)
        following = language(subst, n + 1)
        if len(following) == len(level):
            raise PeriodicInputError(
                "the substitution is periodic: its factor complexity stalls "
                f"at length {n}, so no cap can help"
            )
        if n == limit:
            raise CapExceededError(
                f"no synchronization delay found up to length {limit}; "
                "the substitution may be periodic, or raise the cap"
            )
        witness = unsynchronized.word
        witness_offsets = unsynchronized.offsets
        level = following


def decomposition(subst: Substitution, w: Word) -> int:
    """Image-boundary residue of a long word.

    For a synchronized word every interpretation places the image
    boundaries at the same positions mod M; the returned residue r means
    images start exactly at the positions congruent to r.
    """
    delay = sync_delay(subst).delay
    w = tuple(w)
    if len(w) < delay:
        raise PreconditionError(
            f"decomposition needs length >= the synchronization delay {delay}"
        )
    ana = sync_analysis(subst, w)
    if not ana.synchronized:
        raise InternalConsistencyError(
            "word at or past the synchronization delay has several offsets"
        )
    (front,) = ana.offsets
    return (-front) % subst.uniform_length
