"""Substitutions on {0..s-1}: classification, fixed points and factor languages."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat

from .errors import (
    ConstructionError,
    PreconditionError,
    UnsupportedInputError,
)
from .words import Word, factors


@dataclass(frozen=True)
class Substitution:
    """A substitution given by one image word per letter.

    Letters are ``0..size-1`` with ``size = len(images)``.  Instances
    compare and hash by their images; the hash is computed once, since every
    memo keyed by a substitution hashes it on each lookup, and the
    classification flags are derived lazily and cached on first use.
    """

    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) < 2:
            raise ConstructionError("alphabet must have at least two letters")
        for img in self.images:
            if not isinstance(img, tuple) or not img:
                raise ConstructionError("every image must be a nonempty tuple of letters")
            for a in img:
                # JSON true is a bool, and bool is an int in Python
                if not isinstance(a, int) or isinstance(a, bool):
                    raise ConstructionError(f"letter {a!r} is not an integer")
                if not 0 <= a < len(self.images):
                    raise ConstructionError(
                        f"letter {a!r} outside alphabet 0..{len(self.images) - 1}"
                    )
        if {len(img) for img in self.images} == {1}:
            raise ConstructionError("uniform substitutions must have image length >= 2")
        object.__setattr__(self, "_hash", hash(self.images))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def letters(self) -> range:
        return range(len(self.images))

    @cached_property
    def uniform_length(self) -> int | None:
        """Common image length M when uniform, else None."""
        lengths = {len(img) for img in self.images}
        return lengths.pop() if len(lengths) == 1 else None

    @property
    def uniform(self) -> bool:
        return self.uniform_length is not None

    @cached_property
    def left_marked(self) -> bool:
        """Images begin with pairwise distinct letters."""
        return len({img[0] for img in self.images}) == self.size

    @cached_property
    def right_marked(self) -> bool:
        """Images end with pairwise distinct letters."""
        return len({img[-1] for img in self.images}) == self.size

    @property
    def marked(self) -> bool:
        return self.left_marked and self.right_marked

    @cached_property
    def permutive(self) -> bool:
        """At every image position the letters across images form a permutation."""
        if not self.uniform:
            return False
        return all(
            len({img[p] for img in self.images}) == self.size
            for p in range(self.uniform_length)
        )

    @cached_property
    def primitive(self) -> bool:
        # Incidence matrix A[a][b] = occurrences of b in images[a]; the
        # substitution is primitive iff some power up to the Wielandt
        # bound (s-1)^2 + 1 is entrywise positive.
        s = self.size
        mat = [[0] * s for _ in range(s)]
        for a, img in enumerate(self.images):
            for b in img:
                mat[a][b] += 1
        power = [row[:] for row in mat]
        for _ in range((s - 1) ** 2 + 1):
            if all(all(x > 0 for x in row) for row in power):
                return True
            power = [
                [sum(power[a][c] * mat[c][b] for c in range(s)) for b in range(s)]
                for a in range(s)
            ]
        return False

    def require(self, what: str, *flags: str) -> int | None:
        """Refuse input that lacks a flag ``what`` needs; return the image length M.

        ``flags`` name properties of this class (``uniform``, ``left_marked``,
        ``marked``, ``primitive``), checked in order; the first that fails
        names the :class:`UnsupportedInputError`.  The message is built only
        on failure, because hot paths such as ``sync_delay`` pass here on
        every call.
        """
        for flag in flags:
            if not getattr(self, flag):
                raise UnsupportedInputError(
                    f"{what} requires a {flag.replace('_', '-')} substitution"
                )
        return self.uniform_length

    def image(self, letter: int) -> Word:
        return self.images[letter]

    def apply(self, w: Word) -> Word:
        """Homomorphic image of ``w`` (empty word maps to empty word)."""
        out: list[int] = []
        for a in w:
            out.extend(self.images[a])
        return tuple(out)


def make_substitution(images, alphabet_size: int | None = None) -> Substitution:
    """Build a substitution from per-letter images, validating the alphabet."""
    imgs = tuple(tuple(img) for img in images)
    if alphabet_size is not None and alphabet_size != len(imgs):
        raise ConstructionError(
            f"need exactly one image per letter: got {len(imgs)} images "
            f"for an alphabet of size {alphabet_size}"
        )
    return Substitution(imgs)


def fixed_point_prefix(subst: Substitution, letter: int, n: int) -> Word:
    """Length-``n`` prefix of the fixed point obtained by iterating on ``letter``.

    Requires the image of ``letter`` to start with it and have length at
    least two, so iteration converges letterwise.
    """
    if n < 0:
        raise PreconditionError("prefix length must be nonnegative")
    if not 0 <= letter < subst.size:
        raise PreconditionError(f"letter {letter} outside alphabet")
    img = subst.image(letter)
    if img[0] != letter or len(img) < 2:
        raise PreconditionError(
            f"letter {letter} does not seed a fixed point: its image must "
            "begin with it and have length >= 2"
        )
    w: Word = (letter,)
    while len(w) < n:
        w = subst.apply(w)
    return w[:n]


@dataclass(frozen=True)
class FactorLanguage:
    """The set of length-``n`` factors of the subshift, sorted canonically."""

    n: int
    words: tuple[Word, ...]

    def __contains__(self, w: Word) -> bool:
        # the words are sorted, so one bisection finds w or where it would be
        i = bisect_left(self.words, w)
        return i < len(self.words) and self.words[i] == w

    def __len__(self) -> int:
        return len(self.words)


@lru_cache(maxsize=None)
def _two_letter_factors(subst: Substitution) -> tuple[Word, ...]:
    """``L_2``, sorted: the closure of the two-letter factors of the images under σ.

    A two-letter factor of ``σ^{j+1}(c)`` lies inside one image ``σ(a)``
    or straddles ``σ(a)σ(b)`` for a factor ``ab`` of ``σ^j(c)``, so the
    closure is exactly ``L_2``; it has at most ``s²`` words.  Its order is
    the order of the level pairs.
    """
    found: set[Word] = set()
    todo = [w for img in subst.images for w in factors(img, 2)]
    while todo:
        w = todo.pop()
        if w not in found:
            found.add(w)
            todo.extend(factors(subst.apply(w), 2))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _level_blocks(subst: Substitution, k: int) -> tuple[str, ...]:
    """The level-k blocks ``σ^k(a)``, one per letter a, one code point per
    letter; level k + 1 spells each letter of level k as its image."""
    if k == 0:
        return tuple(map(chr, subst.letters))
    images = tuple("".join(map(chr, img)) for img in subst.images)
    return tuple(block.translate(images) for block in _level_blocks(subst, k - 1))


@lru_cache(maxsize=None)
def _level(subst: Substitution, n: int) -> int:
    """The level k of :func:`language` for length n: least with every ``|σ^k(a)| >= n - 1``."""
    k = 0
    while min(map(len, _level_blocks(subst, k))) < n - 1:
        k += 1
    return k


@lru_cache(maxsize=None)
def _level_pairs(subst: Substitution, k: int) -> tuple[str, ...]:
    """The level-k pairs ``σ^k(a)σ^k(b)``, one per ``ab`` of :func:`_two_letter_factors`."""
    blocks = _level_blocks(subst, k)
    return tuple(blocks[a] + blocks[b] for a, b in _two_letter_factors(subst))


def _occurrences(subst: Substitution, w: Word, n: int, lift: int = 0) -> Iterator[tuple[str, int]]:
    """Each occurrence of ``w`` in an image ``σ^lift(p)`` of a pair p of ``language(subst, n)``.

    The pairs are ``p = σ^k(a)σ^k(b)`` at the level k of length n, and
    ``σ^lift(p)`` is the pair of level ``k + lift`` over the same ``ab``, so
    searching those at most ``s²`` texts finds every occurrence.  Each is
    yielded as ``(p, t)``, p spelled as a str, with w at position t of
    ``σ^lift(p)``.  A word with a letter outside the alphabet has none: it
    never reaches ``chr`` or the search; nor has a word with a bool, which
    is an int in Python but no letter, as in :class:`Substitution`.
    """
    if not all(map(isinstance, w, repeat(int))) or any(map(isinstance, w, repeat(bool))):
        return
    if min(w, default=0) < 0 or max(w, default=0) >= subst.size:
        return
    k = _level(subst, n)
    needle = "".join(map(chr, w))
    for pair, image in zip(_level_pairs(subst, k), _level_pairs(subst, k + lift)):
        t = image.find(needle)
        while t >= 0:
            yield pair, t
            t = image.find(needle, t + 1)


def require_factor_length(subst: Substitution, n: int) -> None:
    """Refuse what :func:`language` and :func:`factor_count` refuse, building nothing."""
    if n < 0:
        raise PreconditionError("factor length must be nonnegative")
    subst.require("factor language computation", "primitive")


@lru_cache(maxsize=None)
def language(subst: Substitution, n: int) -> FactorLanguage:
    """All length-``n`` factors of the subshift generated by a primitive substitution.

    Let k be least with ``|σ^k(a)| >= n - 1`` for every letter a; the
    block lengths themselves fix k, so images of length one need no
    special care.  Then ``L_n`` is the set of length-n windows of
    ``σ^k(a)σ^k(b)`` that start inside ``σ^k(a)``, over the two-letter
    factors ``ab`` in ``L_2``.  It is built in one pass:

    - Every such window fits, since ``|σ^k(b)| >= n - 1``, and is a factor
      of the subshift: ``ab`` is a factor of some ``σ^j(c)``, so
      ``σ^k(ab)`` is one of ``σ^{j+k}(c)``.
    - Conversely let u in ``L_n`` be a factor of ``σ^K(c)``.  Primitivity
      puts c inside ``σ^p(c)`` for some p >= 1, so u is also a factor of
      ``σ^{K+tp}(c)`` for every t; take ``K >= k``.  Then ``σ^K(c)`` is the
      concatenation of the level-k blocks ``σ^k(d)`` over the letters d of
      ``σ^{K-k}(c)``.  Each block has length at least n - 1, so u touches
      at most two of them (a third would need n >= (n - 1) + 2).  If u
      starts in ``σ^k(d)`` and d is followed by e, then ``de`` is in
      ``L_2`` and u is a window of ``σ^k(d)σ^k(e)`` starting in
      ``σ^k(d)``.  If d is the last letter of ``σ^{K-k}(c)``, u lies inside
      ``σ^k(d)`` and any ``de`` in ``L_2`` serves.  One exists: some
      image has length two or more, ``σ(a) = xy...``, and primitivity
      puts d inside ``σ^p(x)``, followed by ``σ^p(y)`` in ``σ^{p+1}(a)``.

    Words are returned sorted.
    """
    require_factor_length(subst, n)
    k = _level(subst, n)
    blocks = _level_blocks(subst, k)
    found: set[Word] = set()
    for (a, _), pair in zip(_two_letter_factors(subst), _level_pairs(subst, k)):
        letters = tuple(map(ord, pair))
        found.update(letters[i:i + n] for i in range(len(blocks[a])))
    return FactorLanguage(n, tuple(sorted(found)))


def is_factor(subst: Substitution, w) -> bool:
    """Whether ``w`` is a factor of the subshift, i.e. ``w in language(subst, len(w))``.

    Only the pairs ``σ^k(a)σ^k(b)`` of :func:`language` are built, never
    ``L_n`` itself: w is a factor iff it occurs in one of them.  Every
    window of such a pair is a factor, since ``σ^k(ab)`` is one, and the
    ``language`` docstring shows that every factor is such a window.  A
    letter outside the alphabet makes no factor.
    """
    w = tuple(w)
    subst.require("factor test", "primitive")
    return next(_occurrences(subst, w, len(w)), None) is not None


@lru_cache(maxsize=None)
def _factor_counts(subst: Substitution, k: int) -> tuple[int, ...]:
    """``|L_n|`` for n = 0..N with N = min ``|σ^k(a)|`` + 1, from the level-k pairs.

    Every ``σ^k(a)`` has length >= n - 1 for these n, so by the argument
    of :func:`language` every length-n window of a pair ``σ^k(a)σ^k(b)``
    is a factor (``σ^k(ab)`` is one) and every factor is such a window:
    the distinct length-n substrings of the pairs are exactly ``L_n``.

    They are counted with one generalised suffix automaton over the pairs
    (Blumer et al. 1985), built online: each pair is read from the root,
    and a transition that already exists is followed, or split off by a
    clone when it skips a length.  A state v stands for the substrings
    of lengths ``len(link v) < n <= len v``, so a difference array over
    the states gives every count in one pass; the automaton is dropped.
    """
    top = min(map(len, _level_blocks(subst, k))) + 1
    length, link, edges = [0], [-1], [{}]

    def split(p: int, q: int, c: str) -> int:
        # a clone of q one letter longer than p takes over the c-edges of
        # p and its links that led to q
        r = len(length)
        length.append(length[p] + 1)
        link.append(link[q])
        edges.append(dict(edges[q]))
        link[q] = r
        while p >= 0 and edges[p].get(c) == q:
            edges[p][c] = r
            p = link[p]
        return r

    for pair in _level_pairs(subst, k):
        last = 0
        for c in pair:
            q = edges[last].get(c)
            if q is not None:
                last = q if length[q] == length[last] + 1 else split(last, q, c)
                continue
            cur = len(length)
            length.append(length[last] + 1)
            link.append(0)
            edges.append({})
            p = last
            while p >= 0 and c not in edges[p]:
                edges[p][c] = cur
                p = link[p]
            if p >= 0:
                q = edges[p][c]
                link[cur] = q if length[q] == length[p] + 1 else split(p, q, c)
            last = cur
    # the root stands for the empty word alone
    diff = [1, -1] + [0] * top
    for v in range(1, len(length)):
        low = length[link[v]] + 1
        if low <= top:
            diff[low] += 1
            diff[min(length[v], top) + 1] -= 1
    return tuple(accumulate(diff))[:top + 1]


def factor_count(subst: Substitution, n: int) -> int:
    """``len(language(subst, n))``, read off :func:`_factor_counts` without building ``L_n``."""
    require_factor_length(subst, n)
    return _factor_counts(subst, _level(subst, n))[n]


@dataclass(frozen=True)
class PeriodicityProbe:
    """Outcome of the Morse-Hedlund scan up to a bound."""

    periodic: bool
    detected_at: int | None
    bound: int


def periodicity_probe(subst: Substitution, n_max: int) -> PeriodicityProbe:
    """Detect periodicity via a stalling complexity function.

    The subshift of a primitive substitution is periodic iff the number
    of length-n factors is the same at two consecutive lengths (Morse and
    Hedlund).  This compares :func:`factor_count` for consecutive n up to
    the bound and reports the first stall; every count is exact, so the
    answer is certain for every length scanned and says nothing about
    longer ones.  Uniform input has an exact verdict,
    ``recognizability.periodicity``.
    """
    subst.require("periodicity probe", "primitive")
    if n_max < 1:
        raise PreconditionError("probe bound must be >= 1")
    prev = factor_count(subst, 1)
    for n in range(1, n_max + 1):
        cur = factor_count(subst, n + 1)
        if cur == prev:
            return PeriodicityProbe(True, n, n_max)
        prev = cur
    return PeriodicityProbe(False, None, n_max)
