"""Finite words and choice sequences as plain tuples of ints.

Words over an alphabet of size ``s`` use letters ``0..s-1``; choice
sequences use letters ``1..s``.  Tuples give structural equality, a
total lexicographic order and hashability for free, so every canonical
set in the package is just a sorted collection of tuples.
"""

from __future__ import annotations

from .errors import PreconditionError

Word = tuple[int, ...]
ChoiceSequence = tuple[int, ...]


def trim(w: Word, front: int, back: int) -> Word:
    """Drop ``front`` letters from the start of ``w`` and ``back`` from the end."""
    if front < 0 or back < 0:
        raise PreconditionError("trim counts must be nonnegative")
    if front + back > len(w):
        raise PreconditionError(
            f"cannot trim {front}+{back} letters from a word of length {len(w)}"
        )
    return w[front:len(w) - back]


def factors(w: Word, n: int) -> set[Word]:
    """All distinct length-``n`` factors of ``w``; empty when n exceeds |w|."""
    if n < 0:
        raise PreconditionError("factor length must be nonnegative")
    if n > len(w):
        return set()
    return {w[p:p + n] for p in range(len(w) - n + 1)}


def le(u: ChoiceSequence, v: ChoiceSequence) -> bool:
    """Letterwise partial order: |u| = |v| and u[i] <= v[i] everywhere."""
    return len(u) == len(v) and all(a <= b for a, b in zip(u, v))


def stretch(seq: ChoiceSequence, factor: int) -> ChoiceSequence:
    """Replace every letter k of ``seq`` by the block k 1^(factor-1)."""
    if factor < 1:
        raise PreconditionError("stretch factor must be >= 1")
    out = [1] * (len(seq) * factor)
    out[::factor] = seq
    return tuple(out)


def is_irreducible(seq: ChoiceSequence) -> bool:
    """A choice sequence is irreducible iff it is nonempty and does not end in 1."""
    return bool(seq) and seq[-1] > 1


# letters 0..9 to their digits; table rows of tens of thousands of letters
# are spelled through it several times faster than by str() per letter
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_word(w: Word, alphabet_size: int) -> str:
    """Digit string for alphabets of at most 9 letters, comma separated otherwise."""
    if alphabet_size <= 9:
        return bytes(w).translate(_DIGITS).decode()
    return ",".join(map(str, w))


def parse_word(text: str, alphabet_size: int) -> Word:
    """Inverse of :func:`format_word`; letters must lie in 0..size-1."""
    letters = _parse_letters(text, alphabet_size)
    for a in letters:
        if not 0 <= a < alphabet_size:
            raise PreconditionError(f"letter {a} outside alphabet 0..{alphabet_size - 1}")
    return letters


# the first letter of a table row that stands for every first letter
WILDCARD = "◇"


def format_choices(seq: ChoiceSequence, alphabet_size: int) -> str:
    """Choice sequences are spelled like words, see :func:`format_word`."""
    return format_word(seq, alphabet_size)


def parse_choices(text: str, alphabet_size: int) -> ChoiceSequence:
    """Inverse of :func:`format_choices`; letters must lie in 1..size."""
    letters = _parse_letters(text, alphabet_size)
    for a in letters:
        if not 1 <= a <= alphabet_size:
            raise PreconditionError(f"choice letter {a} outside 1..{alphabet_size}")
    return letters


def _parse_letters(text: str, alphabet_size: int) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    # above 9 letters words are comma separated, so a comma-free string is
    # one letter: (10,) is spelled 10
    parts = text.split(",") if "," in text or alphabet_size > 9 else list(text)
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise PreconditionError(f"cannot parse letters from {text!r}") from exc
