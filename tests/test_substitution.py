import math
import random
from itertools import product

import pytest
from conftest import past_a_byte, random_marked

from winshift import (
    ConstructionError,
    PreconditionError,
    UnsupportedInputError,
    builtin_substitution,
    factor_count,
    factors,
    fixed_point_prefix,
    is_factor,
    language,
    make_substitution,
    parse_word,
    periodicity_probe,
)


def test_tm_classification(tm):
    assert tm.uniform and tm.uniform_length == 2
    assert tm.left_marked and tm.right_marked and tm.marked
    assert tm.permutive
    assert tm.primitive


def test_ex42_classification(ex42):
    assert ex42.uniform and ex42.uniform_length == 3
    assert ex42.left_marked
    assert not ex42.right_marked  # last letters 1, 0, 1
    assert not ex42.marked
    assert ex42.primitive


def test_ex46_classification(ex46):
    assert not ex46.left_marked  # first letters 0, 0, 2
    assert not ex46.permutive
    assert ex46.primitive


def test_permutive_implies_marked(tm, gtm23, gtm33, gtm42):
    for subst in (tm, gtm23, gtm33, gtm42):
        assert subst.permutive
        assert subst.marked and subst.left_marked and subst.right_marked


def test_construction_errors():
    with pytest.raises(ConstructionError):
        make_substitution([(0, 1)])  # single letter alphabet
    with pytest.raises(ConstructionError):
        make_substitution([(0, 1), ()])  # empty image
    with pytest.raises(ConstructionError):
        make_substitution([(0, 2), (1, 0)])  # letter out of range
    with pytest.raises(ConstructionError):
        make_substitution([(0,), (1,)])  # uniform with image length 1
    with pytest.raises(ConstructionError):
        make_substitution([(0, 1), (1, 0)], alphabet_size=3)


def test_equal_substitutions_hash_alike_and_share_a_cache_entry():
    from winshift.substitution import _level_blocks

    images = [(1, 0, 0, 0, 1), (0, 1, 1, 1, 0)]  # no other test builds these
    a, b = make_substitution(images), make_substitution(images)
    assert a is not b and a == b and hash(a) == hash(b)
    misses = _level_blocks.cache_info().misses
    blocks = _level_blocks(a, 0)
    assert _level_blocks(b, 0) is blocks
    assert _level_blocks.cache_info().misses == misses + 1


def test_nonuniform_construction_is_allowed():
    subst = make_substitution([(0, 1), (0,)])
    assert not subst.uniform
    assert subst.uniform_length is None


def test_apply(tm, ex42):
    assert tm.apply((0, 1)) == (0, 1, 1, 0)
    assert tm.apply(()) == ()
    assert ex42.apply((0, 1)) == (0, 0, 1, 1, 2, 0)


def test_apply_is_homomorphism(tm, ex42):
    rng = random.Random(7)
    for subst in (tm, ex42):
        for _ in range(200):
            u = tuple(rng.randrange(subst.size) for _ in range(rng.randrange(6)))
            v = tuple(rng.randrange(subst.size) for _ in range(rng.randrange(6)))
            assert subst.apply(u + v) == subst.apply(u) + subst.apply(v)


def test_primitivity(tm, ex46):
    assert tm.primitive
    assert not make_substitution([(0, 0), (1, 1)]).primitive
    assert ex46.primitive


def test_fixed_point_prefixes(tm, ex42):
    assert fixed_point_prefix(tm, 0, 16) == parse_word("0110100110010110", 2)
    assert fixed_point_prefix(ex42, 0, 12) == parse_word("001001120001", 3)
    assert fixed_point_prefix(tm, 0, 1) == (0,)
    assert fixed_point_prefix(tm, 1, 4) == parse_word("1001", 2)


def test_fixed_point_requires_matching_first_letter(ex46):
    with pytest.raises(PreconditionError):
        fixed_point_prefix(ex46, 1, 4)  # image of 1 is 010


def test_language_small_cases(tm):
    assert [w for w in language(tm, 2).words] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    assert len(language(tm, 3)) == 6
    assert language(tm, 0).words == ((),)


def test_language_matches_long_prefix_scan(tm, ex42):
    # independent oracle: factors of a long fixed-point prefix
    for subst in (tm, ex42):
        prefix = fixed_point_prefix(subst, 0, 600)
        for n in range(1, 7):
            assert set(language(subst, n).words) == factors(prefix, n)


def test_language_with_length_one_images():
    # primitive, but some image has length one: 0 -> 01, 1 -> 0 is Fibonacci
    for images in ([(0, 1), (0,)], [(0, 1, 2), (2,), (1, 0)]):
        subst = make_substitution(images)
        prefix = fixed_point_prefix(subst, 0, 20000)
        for n in range(1, 41):
            assert set(language(subst, n).words) == factors(prefix, n), (images, n)


def reference_language(subst, n):
    """Length-n factors by iterating "apply σ, collect factors" until stable.

    Starts from the factors of the first iterated image of each letter that
    reaches length n, and stops once the set is stable and a floor of
    ceil(log_M n) + 2 rounds has passed, M the shortest image length.
    Needs every image to have length at least two.
    """
    if n == 0:
        return ((),)
    current = set()
    for s in subst.letters:
        w = (s,)
        while len(w) < n:
            w = subst.apply(w)
        current |= factors(w, n)
    shortest = min(len(img) for img in subst.images)
    min_rounds = math.ceil(math.log(max(n, 2), max(2, shortest))) + 2
    rounds = 0
    while True:
        grown = set(current)
        for w in current:
            grown |= factors(subst.apply(w), n)
        rounds += 1
        if grown == current and rounds >= min_rounds:
            return tuple(sorted(current))
        current = grown


@pytest.mark.parametrize(
    "images",
    [
        pytest.param(builtin_substitution(name).images, id=name)
        for name in ("tm", "ex42", "ex46", "gtm:2,3", "gtm:3,3", "gtm:4,2")
    ]
    + [
        pytest.param([(0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 2, 1, 0)], id="perm4"),
        pytest.param([(0, 0, 1), (1, 0, 2), (2, 1, 0)], id="marked3"),
        pytest.param([(0, 1), (0, 1)], id="periodic-twin"),  # fixed point (01)^w
    ],
)
def test_language_matches_iterated_reference(images):
    subst = make_substitution(images)
    for n in range(31):
        assert language(subst, n).words == reference_language(subst, n), n


def test_language_factor_closed(tm, ex42, gtm33):
    for subst in (tm, ex42, gtm33):
        for n in range(2, 9):
            longer = language(subst, n).words
            shorter = set(language(subst, n - 1).words)
            for w in longer:
                assert w[:-1] in shorter and w[1:] in shorter


def test_language_sizes_nondecreasing(tm, ex42, ex46):
    for subst in (tm, ex42, ex46):
        sizes = [len(language(subst, n)) for n in range(1, 17)]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)  # strictly increasing: aperiodic


@pytest.mark.parametrize("name", ["tm", "ex42", "gtm23", "fibonacci"])
def test_is_factor_agrees_with_language(name, request):
    if name == "fibonacci":
        subst = make_substitution([(0, 1), (0,)])
    else:
        subst = request.getfixturevalue(name)
    for n in range(9):
        lang = language(subst, n)
        for w in product(subst.letters, repeat=n):
            assert is_factor(subst, w) == (w in lang), w


def test_is_factor_past_a_byte():
    subst = past_a_byte()
    s = subst.size
    rng = random.Random(5)
    for n in range(1, 4):
        lang = language(subst, n)
        assert all(is_factor(subst, w) for w in lang.words)
        near = [tuple(rng.choice((0, 1, 255, 256)) for _ in range(n)) for _ in range(60)]
        assert [is_factor(subst, w) for w in near] == [w in lang for w in near]
    assert not is_factor(subst, (s,)) and not is_factor(subst, (-1, 0))


def _two_letter_inputs():
    """Every primitive two-letter substitution with image lengths 1 to 3,
    periodic ones such as 0 -> 01, 1 -> 01 included."""
    images = [w for m in (1, 2, 3) for w in product((0, 1), repeat=m)]
    found = []
    for pair in product(images, repeat=2):
        if {len(w) for w in pair} != {1}:
            subst = make_substitution(pair)
            if subst.primitive:
                found.append(subst)
    return found


@pytest.mark.parametrize(
    "inputs, upto",
    [
        pytest.param(
            lambda: [
                builtin_substitution(n)
                for n in ("tm", "ex42", "ex46", "gtm:2,3", "gtm:3,3", "gtm:3,2")
            ],
            40,
            id="builtins",
        ),
        pytest.param(lambda: random_marked(6, seed=20171), 40, id="random-marked"),
        pytest.param(_two_letter_inputs, 40, id="two-letter-lengths-1-3"),
        pytest.param(
            lambda: [make_substitution(i) for i in ([(0, 1), (0,)], [(0, 1, 2), (2,), (1, 0)])],
            40,
            id="length-one-images",
        ),
        # n <= 3 reads levels 0 and 1, the only ones below n = 260; the
        # automaton over its level-1 pairs already peaks near 100 MB
        pytest.param(lambda: [past_a_byte()], 3, id="past-a-byte"),
    ],
)
def test_factor_count_agrees_with_language(inputs, upto):
    for subst in inputs():
        for n in range(upto + 1):
            assert factor_count(subst, n) == len(language(subst, n)), (subst.images, n)


def test_language_requires_primitive():
    stuck = make_substitution([(0, 0), (1, 1)])
    with pytest.raises(UnsupportedInputError):
        language(stuck, 2)
    with pytest.raises(UnsupportedInputError):
        is_factor(stuck, (0, 0))
    with pytest.raises(UnsupportedInputError):
        factor_count(stuck, 2)
    with pytest.raises(PreconditionError):
        factor_count(builtin_substitution("tm"), -1)


def test_tm_is_overlap_free(tm):
    # no factor a u a u a: no block of length 2p+1 with period p
    for w in language(tm, 16).words:
        for start in range(len(w)):
            for period in range(1, (len(w) - start) // 2 + 1):
                end = start + 2 * period
                if end < len(w):
                    chunk = w[start:end + 1]
                    assert any(
                        chunk[i] != chunk[i + period] for i in range(period + 1)
                    ), (w, start, period)


def test_periodicity_probe(tm, gtm23):
    assert not periodicity_probe(tm, 16).periodic
    assert not periodicity_probe(gtm23, 16).periodic
    twin = make_substitution([(0, 1), (0, 1)])  # fixed point (01)^w
    probe = periodicity_probe(twin, 64)
    assert probe.periodic and probe.detected_at == 1


def test_periodicity_probe_gtm_periodic_parameters():
    from winshift import gtm_substitution

    probe = periodicity_probe(gtm_substitution(3, 2), 64)
    assert probe.periodic
