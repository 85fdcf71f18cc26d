"""Interpretations, synchronization, decompositions and periodicity for uniform substitutions.

An interpretation reads a word as a doubly trimmed image of an ancestor
word.  A word is synchronized when all of its interpretations agree on
the trim residue mod M, which pins the image boundaries inside it.  The
synchronization delay is the least length past which every language word
is synchronized.  A word is recognized when its interpretations also
agree on the ancestor letter under its centre; the first length at which
every word is recognized proves the input aperiodic, and the first
length at which the factor count stalls proves it periodic.

Interpretations are read off the level pairs ``σ^k(a)σ^k(b)`` that
``language`` and ``is_factor`` share: each occurrence of a word in the
image of a pair is one interpretation, so searching the at most s² images
serves a word of any length and no factor language is built for it.  The
words of each level ``L_n`` are read once, and the synchronization search
and the periodicity verdict both read that one reading.
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
from .substitution import Substitution, _occurrences, language
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
    The same search decides membership: the images ``σ(p)`` are the pairs
    of the next level, whose blocks are at least M(span - 1) >= |w| - 1
    long, so by the same lemma w is a factor iff it occurs in one of them.
    """
    M = subst.require("interpretation search", "uniform", "primitive")
    w = tuple(w)
    if not w:
        raise PreconditionError("word must be nonempty")
    n = len(w)
    span = math.ceil((n + 2 * M - 2) / M)
    found = {
        (tuple(map(ord, pair[t // M:(t + n - 1) // M + 1])), t % M)
        for pair, t in _occurrences(subst, w, span, lift=1)
    }
    if not found:
        raise NotInLanguageError(f"word is not a factor of the subshift: {w}")
    return frozenset(
        Interpretation(ancestor, front, M * len(ancestor) - n - front) for ancestor, front in found
    )


def sync_analysis(subst: Substitution, w: Word) -> SyncAnalysis:
    """Offsets of ``w`` and, when they agree, the aligned cut positions."""
    M = subst.uniform_length
    interps = interpretations(subst, w)
    offsets = frozenset(it.front for it in interps)
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
    for n in count(1):
        unsynchronized, _ = _level_reading(subst, n)
        if unsynchronized is None:
            return SyncDelay(n, witness, witness_offsets)
        if _stalls(subst, n):
            raise PeriodicInputError(
                "the substitution is periodic: its factor complexity stalls "
                f"at length {n}, so no cap can help"
            )
        if n == limit:
            raise CapExceededError(
                f"no synchronization delay found up to length {limit}; "
                "the substitution may be periodic, or raise the cap"
            )
        witness, witness_offsets = unsynchronized


@lru_cache(maxsize=None)
def _level_reading(
    subst: Substitution, n: int
) -> tuple[tuple[Word, frozenset[int]] | None, bool]:
    """The first unsynchronized word of sorted ``L_n`` with its offsets, or
    None; and whether every word of ``L_n`` is recognized.

    A recognized word is synchronized, so the walk stops at the first
    unsynchronized word, and each word's interpretations are read once.
    """
    M = subst.uniform_length
    centre = n // 2
    recognized = True
    for w in language(subst, n).words:
        interps = interpretations(subst, w)
        offsets = frozenset(it.front for it in interps)
        if len(offsets) > 1:
            return (w, offsets), False
        if recognized:
            letters = {it.ancestor[(it.front + centre) // M] for it in interps}
            recognized = len(letters) == 1
    return None, recognized


def _stalls(subst: Substitution, n: int) -> bool:
    return len(language(subst, n + 1)) == len(language(subst, n))


@lru_cache(maxsize=None)
def periodicity(subst: Substitution) -> tuple[bool, int]:
    """Whether the subshift is periodic, with the length that proves it.

    Reads n = 1, 2, ... and stops at the first n where one of these holds,
    checked in this order:

    - every word of ``L_n`` is recognized: its interpretations agree on
      the front trim and on the ancestor letter under position n // 2.
      Returns ``(False, n)``: aperiodic;
    - ``|L_{n+1}| = |L_n|``: returns ``(True, n)``: periodic.

    Both answers are exact, and the loop ends:

    - A stall means periodic: by Morse and Hedlund it makes the subshift
      eventually periodic, and the subshift of a primitive substitution is
      minimal, hence periodic.  So an aperiodic input never stalls.
    - A periodic subshift X is a finite set of P points, and the P·M pairs
      (y, k) with y in X and 0 <= k < M all map to points ``S^k σ(y)`` of
      X.  As M >= 2, some point x has two representations (y, k) and
      (y', k').  If k != k', every window of x has two interpretations with
      different front trims.  Otherwise y and y' differ at some position j;
      shifting x by a multiple of M gives ``S^k σ(S^j y) = S^k σ(S^j y')``,
      where the images of the differing letters sit at the same place, so
      for every n some window of length n has two interpretations with
      different letters under position n // 2.  Either way every length
      has an unrecognized word, so a periodic input never passes the first
      test; having bounded nondecreasing complexity, it stalls.
    - By Mossé's recognizability theorem an aperiodic primitive input has
      a radius past which a window fixes the cut and the ancestor letter
      at its centre, so at some n every word is recognized.

    A recognized word is synchronized, so the length that proves an input
    aperiodic is at least its synchronization delay, and the levels up to
    the delay are those the synchronization search reads.  Lengths are
    read in increasing order, so the stall reported is the first, the
    length ``periodicity_probe`` reports as ``detected_at``.
    """
    subst.require("periodicity verdict", "uniform", "primitive")
    for n in count(1):
        if _level_reading(subst, n)[1]:
            return False, n
        if _stalls(subst, n):
            return True, n


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
