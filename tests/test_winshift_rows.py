"""Winning-shift rows spelled from the level rows.

The CLI renders ``winshift`` output by spelling each level's rows as text
(``cli._level_rows``: each base level's text stretched, no tuple spelled)
instead of expanding every sequence and regrouping it.  These tests hold
that path to the sequence path it replaced: ``reference_compress`` is
``compress`` as it was written over the expanded sequences, the tuple
spelling of ``irreducible_groups`` is spelled again by ``format_choices``,
and brute force is the independent check of the levels.
"""

import json

import pytest
from conftest import random_marked

from winshift import (
    builtin_substitution,
    enumerate_irreducible,
    format_choices,
    is_irreducible,
    make_substitution,
)
from winshift import cli
from winshift.catalog import substitution_to_dict
from winshift.cli import compress
from winshift.shift import irreducible_groups
from winshift.tm_reference import WILDCARD, expand_pattern

MAX_N = 60
# the substitutive path on marked input runs further: its rows are spelled
# through base chains several levels deep
LONG_N = 200
# brute force grows about cubically in n; past this length only the level
# paths run, and they are checked against brute force below it
BRUTE_N = 24


def reference_compress(sequences, m):
    """``compress`` over the expanded sequences, as the CLI used to run it."""
    groups = {}
    for seq in sequences:
        groups.setdefault(tuple(seq[1:]), set()).add(seq[0])
    rows = []
    for suffix in sorted(groups):
        firsts = groups[suffix]
        covered = set(range(1, m + 1)) if suffix else set(range(2, m + 1))
        tail = format_choices((0,) + suffix, m)[1:]
        if firsts == covered:
            rows.append(WILDCARD + tail)
        else:
            rows.extend(f"{first}{tail}" for first in sorted(firsts))
    return tuple(rows)


SUBSTS = [
    pytest.param(builtin_substitution(name), id=name)
    for name in ("tm", "ex42", "ex46", "gtm:2,3", "gtm:3,3", "gtm:2,11")
] + [
    pytest.param(make_substitution([(0, 0, 1), (1, 0, 2), (2, 1, 0)]), id="marked3"),
    pytest.param(
        make_substitution([(0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 2, 1, 0)]),
        id="perm4",
    ),
] + [
    pytest.param(subst, id=f"random-{list(subst.images)}")
    for subst in random_marked(6, seed=20171)
]


def expand(groups):
    return frozenset(
        (t,) + suffix
        for suffix, k in groups.items()
        for t in range(1, k + 1)
        if is_irreducible((t,) + suffix)
    )


@pytest.mark.parametrize("subst", SUBSTS)
def test_groups_and_rows_match_the_sequence_path(subst):
    m = subst.size
    methods = ["auto", "brute"]
    marked = subst.uniform and subst.marked
    if marked:
        methods.append("substitutive")
    for method in methods:
        top = BRUTE_N if method == "brute" else LONG_N if marked else MAX_N
        # carried across lengths as the table does, so each base level is spelled once
        spelled = {}
        for n in range(1, top + 1):
            sequences = enumerate_irreducible(subst, n, method)
            groups = irreducible_groups(subst, n, method)
            assert expand(groups) == sequences
            assert all(len(seq) == n for seq in sequences)
            assert all(is_irreducible((k,) + suffix) for suffix, k in groups.items())
            reference = reference_compress(sequences, m)
            assert compress(sequences, m) == reference
            rows = cli._level_rows(subst, n, method)
            assert rows == [
                (format_choices((0,) + suffix, m)[1:], range(1 if suffix else 2, k + 1))
                for suffix, k in sorted(groups.items())
            ]
            assert cli._level_rows(subst, n, method, spelled) == rows
            assert tuple(lead + tail for lead, tail in cli._row_parts(rows, m)) == reference
            ordered = [format_choices(seq, m) for seq in sorted(sequences)]
            assert [lead + tail for lead, tail in cli._sorted_parts(rows)] == ordered
            if method != "brute" and n <= BRUTE_N:
                assert sequences == enumerate_irreducible(subst, n, "brute")


def test_compress_keeps_its_meaning_on_any_set():
    # not downward closed: only the listed first letters are spelled
    assert compress({(2, 3)}, 3) == ("23",)
    assert compress({(1, 2), (3, 2)}, 3) == ("12", "32")
    assert compress({(1, 2), (2, 2), (3, 2)}, 3) == ("◇2",)
    assert compress({(2,), (3,)}, 3) == ("◇",)
    assert compress({(3,)}, 3) == ("3",)
    assert compress(set(), 3) == ()


def test_rows_above_nine_letters_read_back():
    # a length-1 row such as "10" is one letter, not the digits 1 and 0
    for sequences in ({(10,)}, {(2,), (10,)}, {(3, 10)}, {(t,) for t in range(2, 12)}):
        rows = compress(sequences, 11)
        assert frozenset().union(*(expand_pattern(r, 11) for r in rows)) == sequences
    assert compress({(10,)}, 11) == ("10",)


@pytest.mark.parametrize("subst", SUBSTS)
def test_table_blocks_are_the_length_answers(subst, tmp_path, capsys):
    # the table writer and the --length writer are separate loops; each
    # block "n: row" of the table is the --length n answer, line by line
    path = tmp_path / "subst.json"
    path.write_text(json.dumps(substitution_to_dict(subst)))

    def answer(*option):
        assert cli.main(["winshift", "--subst", str(path), *option]) == 0
        return capsys.readouterr().out

    top = LONG_N if subst.uniform and subst.marked else MAX_N
    table = answer("--table", f"1..{top}")
    assert table == "".join(
        f"{n}: {row}\n"
        for n in range(1, top + 1)
        for row in answer("--length", str(n)).splitlines()
    )
