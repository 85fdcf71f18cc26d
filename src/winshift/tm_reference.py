"""Reference listing of irreducible winning choice sequences for ``tm``.

The rows below are the reference winning-shift listing for the two-letter
substitution 0 -> 01, 1 -> 10, lengths 1 through 24, in the compressed
form where the wildcard expands to every first letter 1..m (reducible
results are dropped, which only matters at length 1).
"""

from __future__ import annotations

from .words import WILDCARD, ChoiceSequence, is_irreducible, parse_choices

THUE_MORSE_ROWS: dict[int, tuple[str, ...]] = {
    1: ("◇",),
    2: ("◇2",),
    3: ("◇12",),
    4: ("◇112", "◇212"),
    5: ("◇1112",),
    6: ("◇11112", "◇21112"),
    7: ("◇111112", "◇121112"),
    8: ("◇1111112",),
    9: ("◇11111112",),
    10: ("◇111111112", "◇211111112"),
    11: ("◇1111111112", "◇1211111112"),
    12: ("◇11111111112", "◇11211111112"),
    13: ("◇111111111112", "◇111211111112"),
    14: ("◇1111111111112",),
    15: ("◇11111111111112",),
    16: ("◇111111111111112",),
    17: ("◇1111111111111112",),
    18: ("◇11111111111111112", "◇21111111111111112"),
    19: ("◇111111111111111112", "◇121111111111111112"),
    20: ("◇1111111111111111112", "◇1121111111111111112"),
    21: ("◇11111111111111111112", "◇11121111111111111112"),
    22: ("◇111111111111111111112", "◇111121111111111111112"),
    23: ("◇1111111111111111111112", "◇1111121111111111111112"),
    24: ("◇11111111111111111111112", "◇11111121111111111111112"),
}


def expand_pattern(pattern: str, m: int) -> frozenset[ChoiceSequence]:
    """Concrete irreducible sequences matching one row of ``cli.compress``."""
    if pattern.startswith(WILDCARD):
        # the suffix is spelled as if behind a first letter, as compress writes it
        suffix = parse_choices("1" + pattern[len(WILDCARD):], m)[1:]
        candidates = [(first,) + suffix for first in range(1, m + 1)]
    else:
        candidates = [parse_choices(pattern, m)]
    return frozenset(seq for seq in candidates if is_irreducible(seq))


def expand_row(n: int, m: int = 2) -> frozenset[ChoiceSequence]:
    """All concrete irreducible sequences of one reference row."""
    out: set[ChoiceSequence] = set()
    for pattern in THUE_MORSE_ROWS[n]:
        out |= expand_pattern(pattern, m)
    return frozenset(out)
