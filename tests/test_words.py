from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winshift import (
    PreconditionError,
    factors,
    format_choices,
    format_word,
    is_irreducible,
    le,
    parse_choices,
    parse_word,
    stretch,
    trim,
)

words = st.lists(st.integers(0, 2), max_size=8).map(tuple)
choice_seqs = st.lists(st.integers(1, 3), max_size=8).map(tuple)


def test_trim_examples():
    assert trim((0, 1, 1, 0), 1, 1) == (1, 1)
    assert trim((0, 1, 1, 0), 0, 0) == (0, 1, 1, 0)
    # two letters in, one off the back: the shared part of both readings
    assert trim((0, 1, 0, 1), 0, 1) == (0, 1, 0)


def test_trim_rejects_out_of_range():
    with pytest.raises(PreconditionError):
        trim((0, 1), 2, 1)
    with pytest.raises(PreconditionError):
        trim((0, 1), -1, 0)


@given(words, st.integers(0, 8), st.integers(0, 8))
def test_trim_composes(w, i, j):
    if i + j <= len(w):
        assert trim(trim(w, i, 0), 0, j) == trim(w, i, j)


def test_factors_examples():
    assert factors((0, 1, 1, 0), 2) == {(0, 1), (1, 1), (1, 0)}
    assert factors((0, 1, 1, 0), 0) == {()}
    assert factors((0, 1), 3) == set()


@given(words, st.integers(0, 8))
def test_factors_count_bound(w, n):
    got = factors(w, n)
    assert len(got) <= max(len(w) - n + 1, 0)
    assert all(len(f) == n for f in got)


def test_le_examples():
    assert le((1, 1, 1, 2), (2, 2, 1, 2))
    assert not le((2, 1), (1, 2))
    assert not le((1, 2), (2, 1))
    assert le((1, 2, 1, 2), (2, 2, 1, 2))
    assert not le((1, 1), (1, 1, 1))


def test_le_is_partial_order_exhaustive():
    from itertools import product

    universe = [tuple(p) for p in product((1, 2, 3), repeat=3)]
    for u in universe:
        assert le(u, u)
        for v in universe:
            if le(u, v) and le(v, u):
                assert u == v
            for w in universe:
                if le(u, v) and le(v, w):
                    assert le(u, w)


def test_stretch_examples():
    assert stretch((2, 1), 2) == (2, 1, 1, 1)
    assert stretch((1, 2, 3), 1) == (1, 2, 3)
    assert stretch((2,), 3) == (2, 1, 1)


@settings(max_examples=200)
@given(choice_seqs, st.integers(1, 4))
def test_stretch_shape(seq, factor):
    out = stretch(seq, factor)
    assert len(out) == factor * len(seq)
    for p, letter in enumerate(out):
        if p % factor == 0:
            assert letter == seq[p // factor]
        else:
            assert letter == 1


def reference_stretch(seq, factor):
    """The per-letter generator ``stretch`` was first written as."""
    pad = (1,) * (factor - 1)
    return tuple(chain.from_iterable((k,) + pad for k in seq))


def test_stretch_matches_reference():
    sequences = [seq for size in range(6) for seq in product(range(1, 4), repeat=size)]
    sequences += [tuple(range(1, 41)), (7,) * 1000]
    for factor in range(1, 5):
        for seq in sequences:
            assert stretch(seq, factor) == reference_stretch(seq, factor)
    assert stretch([2, 1], 2) == (2, 1, 1, 1)  # any sequence, always a tuple
    with pytest.raises(PreconditionError):
        stretch((2,), 0)


@given(choice_seqs, choice_seqs, st.integers(1, 4))
def test_stretch_injective(u, v, factor):
    if u != v:
        assert stretch(u, factor) != stretch(v, factor)


def test_is_irreducible():
    assert is_irreducible((2, 2, 1, 2))
    assert not is_irreducible((1, 1, 1, 1))
    assert not is_irreducible(())


def test_serialization_round_trips():
    assert format_word((0, 1, 1, 0), 2) == "0110"
    assert parse_word("0110", 2) == (0, 1, 1, 0)
    assert format_choices((2, 2, 1, 2), 2) == "2212"
    assert parse_choices("2212", 2) == (2, 2, 1, 2)
    assert format_choices((2, 10, 1), 12) == "2,10,1"
    assert parse_choices("2,10,1", 12) == (2, 10, 1)
    assert parse_word("", 2) == ()


def test_parse_validates_range():
    with pytest.raises(PreconditionError):
        parse_word("012", 2)
    with pytest.raises(PreconditionError):
        parse_choices("102", 2)
    with pytest.raises(PreconditionError):
        parse_choices("x", 2)


def test_comma_free_text_is_one_letter_above_nine():
    # above 9 letters format_choices spells (10,) as "10", not as "1,0"
    for size in (10, 11, 12):
        for length in (1, 2):
            for seq in product(range(1, size + 1), repeat=length):
                assert parse_choices(format_choices(seq, size), size) == seq
        for length in (0, 1, 2):
            for w in product(range(size), repeat=length):
                assert parse_word(format_word(w, size), size) == w
    assert parse_choices("10", 11) == (10,)
    assert parse_word("10", 9) == (1, 0)  # up to 9 letters every digit is a letter
    with pytest.raises(PreconditionError):
        parse_choices("2212", 11)  # one letter, outside 1..11
