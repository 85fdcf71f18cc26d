"""First differences directly, by the marked recurrence, and in tables.

The library follows the length map of ``shift.extension_plan`` one step at
a time.  ``reference_delta_recurrence`` is the recurrence as it was written
over the all-at-once decomposition n = M^depth * base + offset + 1; it is
the independent check of that rule.
"""

from dataclasses import dataclass

import pytest
from conftest import random_marked

from winshift import (
    InternalConsistencyError,
    PreconditionError,
    UnsupportedInputError,
    builtin_substitution,
    complexity_table,
    delta_direct,
    delta_recurrence,
    enumerate_irreducible,
    make_substitution,
    recurrence_constant,
)
from winshift import complexity


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


def reference_delta_recurrence(subst, n: int) -> int:
    """The first difference at n read at the base length of its decomposition."""
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


MARKED_INPUTS = (
    [
        pytest.param(builtin_substitution(name), id=name)
        for name in ("tm", "gtm:2,3", "gtm:3,3", "gtm:3,4")
    ]
    + [
        pytest.param(make_substitution([(0, 0, 1), (1, 0, 2), (2, 1, 0)]), id="marked3"),
        pytest.param(
            make_substitution([(0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 2, 1, 0)]),
            id="perm4",
        ),
    ]
    + [
        pytest.param(subst, id=f"random-{list(subst.images)}")
        for subst in random_marked(6, seed=20171)
    ]
)
LONG_LENGTHS = (10**6, 10**9 + 7, 10**12)

TM_DELTAS = (1, 1, 2, 2, 4, 2, 4, 4, 2, 2, 4, 4, 4, 4, 2)
TM_VALUES = (1, 2, 4, 6, 10, 12, 16, 20, 22, 24, 28, 32, 36, 40, 42)


def test_recurrence_constant(tm, gtm23, gtm33, gtm42):
    assert recurrence_constant(tm) == 2
    assert recurrence_constant(gtm23) == 2
    assert recurrence_constant(gtm33) == 2
    assert recurrence_constant(gtm42) == 2


def test_delta_direct_tm(tm):
    for n, expected in enumerate(TM_DELTAS):
        assert delta_direct(tm, n) == expected


def test_delta_direct_ex42(ex42):
    assert delta_direct(ex42, 0) == 1
    assert delta_direct(ex42, 6) == 4
    assert delta_direct(ex42, 14) == 5


def test_delta_decompose():
    assert (lambda d: (d.depth, d.base, d.offset))(delta_decompose(6, 2, 2)) == (1, 2, 1)
    assert (lambda d: (d.depth, d.base, d.offset))(delta_decompose(9, 2, 2)) == (1, 3, 2)
    assert (lambda d: (d.depth, d.base, d.offset))(delta_decompose(4, 2, 2)) == (0, 2, 1)
    with pytest.raises(PreconditionError):
        delta_decompose(3, 2, 2)


def test_delta_decompose_reconstructs():
    for M in (2, 3):
        for K in (1, 2, 3):
            for n in range(K + 2, 400):
                d = delta_decompose(n, M, K)
                assert M ** d.depth * d.base + d.offset + 1 == n
                assert K <= d.base <= K * M - 1
                assert 1 <= d.offset <= M ** d.depth


def test_level_ranges_tile():
    # ranges [M^k K + 2, M^(k+1) K + 1] partition everything past M K + 1
    for M, K in ((2, 2), (3, 2), (4, 2), (2, 3)):
        covered = 0
        low = M * K + 2
        k = 1
        while covered < 10 ** 6:
            assert M ** k * K + 2 == low  # no gap, no overlap
            low = M ** (k + 1) * K + 2
            covered = low - 1
            k += 1


def test_recurrence_matches_direct(tm, gtm23, gtm34, marked_nonpermutive, perm4):
    # marked_nonpermutive is the marked3 input of the other modules
    for subst in (tm, gtm23, gtm34, marked_nonpermutive, perm4):
        for n in range(0, 15):
            assert delta_recurrence(subst, n) == delta_direct(subst, n), (
                subst.images,
                n,
            )


@pytest.mark.parametrize("subst", MARKED_INPUTS)
def test_recurrence_matches_the_decomposition(subst):
    for n in (*range(0, 301), *LONG_LENGTHS):
        assert delta_recurrence(subst, n) == reference_delta_recurrence(subst, n), n


@pytest.mark.parametrize("subst", MARKED_INPUTS)
def test_recurrence_reads_only_the_base_table(subst, monkeypatch):
    top = subst.uniform_length * recurrence_constant(subst) + 1
    read = set()

    def recording_direct(s, n):
        read.add(n)
        return delta_direct(s, n)

    monkeypatch.setattr(complexity, "delta_direct", recording_direct)
    for n in (*range(0, 301), *LONG_LENGTHS):
        delta_recurrence(subst, n)
    assert read == set(range(0, top + 1))


@pytest.mark.parametrize("subst", MARKED_INPUTS)
def test_recurrence_table_fills_from_the_base_rows(subst):
    upto = 600
    top = subst.uniform_length * recurrence_constant(subst) + 1
    table = complexity_table(subst, upto, "recurrence")
    deltas = tuple(reference_delta_recurrence(subst, n) for n in range(upto + 1))
    assert table.upto == upto
    assert table.deltas == deltas
    assert table.values == tuple(sum(deltas[: n + 1]) for n in range(upto + 1))
    assert table.methods == ("direct",) * (top + 1) + ("recurrence",) * (upto - top)
    assert complexity_table(subst, upto) == table
    short = complexity_table(subst, top - 1, "recurrence")
    assert short.deltas == deltas[:top] and set(short.methods) == {"direct"}


def test_recurrence_known_values(tm, gtm23):
    assert delta_recurrence(tm, 6) == 4
    assert delta_recurrence(tm, 9) == 2
    assert delta_recurrence(gtm23, 5) == 6


def test_recurrence_refuses_unmarked(ex42, ex46):
    for subst in (ex42, ex46):
        with pytest.raises(UnsupportedInputError):
            delta_recurrence(subst, 6)
        with pytest.raises(UnsupportedInputError):
            complexity_table(subst, 6, "recurrence")


def test_direct_counts_refuse_non_primitive_input_at_every_length():
    # each letter maps into itself, so neither letter's images reach the other
    split = make_substitution([(0, 0), (1, 1)])
    for n in (0, 1, 4):
        with pytest.raises(UnsupportedInputError, match="requires a primitive substitution"):
            delta_direct(split, n)
    for upto in (0, 3):
        with pytest.raises(UnsupportedInputError, match="requires a primitive substitution"):
            complexity_table(split, upto, "direct")


def test_complexity_table_tm(tm):
    table = complexity_table(tm, 9, "recurrence")
    assert table.values == TM_VALUES[:10]
    assert table.methods[:6] == ("direct",) * 6
    assert set(table.methods[6:]) == {"recurrence"}
    direct = complexity_table(tm, 9, "direct")
    assert direct.values == table.values
    assert complexity_table(tm, 0).values == (1,)


def test_delta_counts_irreducible_sequences(tm, ex42, gtm23, gtm33):
    for subst in (tm, ex42, gtm23, gtm33):
        for n in range(1, 13):
            assert delta_direct(subst, n) == len(enumerate_irreducible(subst, n)), (
                subst.images,
                n,
            )


@pytest.mark.parametrize("name", ["tm", "gtm23", "marked_nonpermutive"])
def test_direct_table_matches_the_recurrence_to_4096(name, request):
    subst = request.getfixturevalue(name)
    direct = complexity_table(subst, 4096, "direct")
    recurrence = complexity_table(subst, 4096, "recurrence")
    assert direct.deltas == recurrence.deltas and direct.values == recurrence.values
    assert set(direct.methods) == {"direct"}


def test_fibonacci_direct_table_is_n_plus_one():
    # Sturmian: p(n) = n + 1 at every length
    table = complexity_table(make_substitution([(0, 1), (0,)]), 10**4)
    assert table.values == tuple(range(1, 10**4 + 2))
    assert set(table.methods) == {"direct"}


def test_complexity_strictly_increasing(tm, ex42, ex46, gtm33):
    for subst in (tm, ex42, ex46, gtm33):
        table = complexity_table(subst, 14, "direct")
        assert all(b > a for a, b in zip(table.values, table.values[1:]))
