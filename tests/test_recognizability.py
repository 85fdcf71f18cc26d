import math
import random
from collections import Counter
from contextlib import suppress
from itertools import product

import pytest
from conftest import past_a_byte

import winshift.recognizability as recognizability
import winshift.substitution as substitution
from winshift import (
    CapExceededError,
    Interpretation,
    NotInLanguageError,
    PeriodicInputError,
    PreconditionError,
    SyncDelay,
    decomposition,
    fixed_point_prefix,
    gtm_substitution,
    interpretations,
    is_factor,
    language,
    make_substitution,
    parse_word,
    periodicity,
    periodicity_probe,
    sync_analysis,
    sync_delay,
)


def test_interpretations_tm_010(tm):
    got = interpretations(tm, (0, 1, 0))
    assert Interpretation((0, 0), 0, 1) in got
    assert Interpretation((1, 1), 1, 0) in got
    assert {it.front % 2 for it in got} == {0, 1}


def test_interpretations_tm_0110(tm):
    ana = sync_analysis(tm, (0, 1, 1, 0))
    assert ana.synchronized
    assert ana.offsets == frozenset({0})
    assert ana.sync_positions == (0, 2, 4)


def test_image_is_its_own_interpretation(tm):
    for z in language(tm, 3).words:
        got = interpretations(tm, tm.apply(z))
        assert Interpretation(z, 0, 0) in got


def test_interpretations_reject_foreign_words(tm, monkeypatch):
    # no letter outside 0..s-1 is ever spelled, by the levels or by the
    # search: -1 would fail chr, and s is no letter, so spelling it would
    # mean the letter check was skipped; 1.0 == 1 and True == 1, but
    # neither is a letter
    spelled = []

    def recording_chr(code):
        spelled.append(code)
        return chr(code)

    monkeypatch.setattr(substitution, "chr", recording_chr, raising=False)
    for w in ((0, 2), (0, -1), ("a",), (0, 0, 0), (0, 1.0, 1)):
        with pytest.raises(NotInLanguageError):
            interpretations(tm, w)
    with pytest.raises(PreconditionError):
        interpretations(tm, ())
    assert not is_factor(tm, (True, False))
    for read in (interpretations, sync_analysis, decomposition):
        with pytest.raises(NotInLanguageError):
            read(tm, (True, False, False, True))
    assert all(isinstance(code, int) and 0 <= code < tm.size for code in spelled)


def image_scan_interpretations(subst, w):
    """The search before it read the level pairs: σ of every word of L_span, scanned for w."""
    M = subst.uniform_length
    span = math.ceil((len(w) + 2 * M - 2) / M)
    found = set()
    for z in language(subst, span).words:
        img = subst.apply(z)
        for t in range(len(img) - len(w) + 1):
            if img[t:t + len(w)] == w:
                ancestor = z[t // M:(t + len(w) - 1) // M + 1]
                found.add(Interpretation(ancestor, t % M, M * len(ancestor) - len(w) - t % M))
    return frozenset(found)


def random_primitive_uniform(count, seed):
    """Seeded primitive uniform substitutions with s <= 3 and M <= 4, periodic ones included."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        s, M = rng.choice((2, 3)), rng.choice((2, 3, 4))
        subst = make_substitution(
            [tuple(rng.randrange(s) for _ in range(M)) for _ in range(s)]
        )
        if subst.primitive:
            found.append(subst)
    return found


def test_interpretations_match_the_image_scan(tm, ex42, ex46, gtm23, gtm33, gtm42, perm4):
    periodic = make_substitution([(0, 1), (0, 1)])
    cycle3 = make_substitution([(0, 1), (2, 0), (1, 2)])
    inputs = [tm, ex42, ex46, gtm23, gtm33, gtm42, perm4, periodic, cycle3]
    # letters past a byte: words of length <= 2 have span 2, so their search
    # reads level-1 pairs; the image scan takes about 25 ms a word there, so
    # only the words over letters at both ends of the alphabet are compared
    wide = past_a_byte()
    ends = {0, 1, wide.size - 2, wide.size - 1}
    cases = [
        (subst, w)
        for subst in inputs + random_primitive_uniform(50, 14)
        for n in range(1, 13)
        for w in language(subst, n).words
    ] + [(wide, w) for n in (1, 2) for w in language(wide, n).words if ends.issuperset(w)]
    for subst, w in cases:
        M = subst.uniform_length
        got = interpretations(subst, w)
        assert got == image_scan_interpretations(subst, w), (subst.images, w)
        for it in got:
            img = subst.apply(it.ancestor)
            assert 0 <= it.front < M and 0 <= it.back < M
            assert img[it.front:len(img) - it.back] == w


def test_sync_delays(tm, ex42, ex46, gtm23, gtm33, gtm42):
    assert sync_delay(tm).delay == 4
    assert sync_delay(ex42).delay == 5
    assert sync_delay(ex46).delay == 6
    assert sync_delay(gtm23).delay == 4
    assert sync_delay(gtm33).delay == 6
    assert sync_delay(gtm42).delay == 8


def test_sync_delay_witness_is_minimal(tm, ex42):
    for subst in (tm, ex42):
        result = sync_delay(subst)
        assert result.witness is not None
        assert len(result.witness) == result.delay - 1
        assert len(result.witness_offsets) >= 2
        assert not sync_analysis(subst, result.witness).synchronized


def test_synchronization_is_monotone_past_delay(tm, ex42):
    for subst in (tm, ex42):
        delay = sync_delay(subst).delay
        for n in (delay, delay + 1, delay + 2):
            for w in language(subst, n).words:
                assert sync_analysis(subst, w).synchronized


def test_sync_positions_align_with_offset(tm, ex42):
    for subst in (tm, ex42):
        M = subst.uniform_length
        delay = sync_delay(subst).delay
        for w in language(subst, delay).words:
            ana = sync_analysis(subst, w)
            (i,) = ana.offsets
            assert ana.sync_positions == tuple(
                p for p in range(len(w) + 1) if (p + i) % M == 0
            )


def test_decomposition_values(tm, ex42):
    # the fourteen-letter winning play over ex42 sits one position off the grid
    assert decomposition(ex42, parse_word("10011202010011", 3)) == 1
    assert decomposition(tm, (0, 1, 1, 0)) == 0
    for z in language(tm, 3).words:
        assert decomposition(tm, tm.apply(z)) == 0


def test_decomposition_requires_delay_length(tm):
    with pytest.raises(PreconditionError):
        decomposition(tm, (0, 1, 0))


def test_decomposition_shifts_under_extension(ex42):
    # a factor at position t inside a longer word loses t grid positions
    M = ex42.uniform_length
    delay = sync_delay(ex42).delay
    for w in language(ex42, 10).words:
        outer = decomposition(ex42, w)
        for t in range(len(w) - delay + 1):
            inner = decomposition(ex42, w[t:t + delay])
            assert inner == (outer - t) % M


def test_cap_exceeded_for_periodic_input(tm):
    with pytest.raises(PeriodicInputError, match="stalls at length 1"):
        sync_delay(gtm_substitution(3, 2), 20)
    with pytest.raises(CapExceededError):
        sync_delay(tm, 3)


def reference_sync_delay(subst, limit=64):
    """The search before the stall check: synchronized levels only, up to a cap."""
    witness, witness_offsets = None, frozenset()
    for n in range(1, limit + 1):
        analyses = (sync_analysis(subst, w) for w in language(subst, n).words)
        unsynchronized = next((ana for ana in analyses if not ana.synchronized), None)
        if unsynchronized is None:
            return SyncDelay(n, witness, witness_offsets)
        witness, witness_offsets = unsynchronized.word, unsynchronized.offsets
    raise CapExceededError(f"no synchronization delay found up to length {limit}")


def every_small_primitive_input():
    """Every primitive input with s = 2 and M <= 4 or s = 3 and M = 2: 568 of them."""
    found = [
        make_substitution(images)
        for s, M in ((2, 2), (2, 3), (2, 4), (3, 2))
        for images in product(product(range(s), repeat=M), repeat=s)
    ]
    return [subst for subst in found if subst.primitive]


def primitive_uniform_inputs():
    """:func:`every_small_primitive_input` and 60 seeded inputs with s = M = 3."""
    found = every_small_primitive_input()
    rng = random.Random(3)
    seeded = 0
    while seeded < 60:
        subst = make_substitution(
            [tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)]
        )
        if subst.primitive:
            found.append(subst)
            seeded += 1
    return found


def test_search_stops_on_exact_grounds_only():
    # a periodic input that synchronizes, such as [(0,1),(0,1)], keeps its
    # delay; one that never does is named at the probe's first stall
    periodic = 0
    for subst in primitive_uniform_inputs():
        try:
            expected = reference_sync_delay(subst)
        except CapExceededError:
            bound = 72 if subst.size == subst.uniform_length == 3 else 64
            stall = periodicity_probe(subst, bound).detected_at
            with pytest.raises(PeriodicInputError, match=f"stalls at length {stall},"):
                sync_delay(subst)
            periodic += 1
        else:
            assert sync_delay(subst) == expected, subst.images
    assert periodic == 10
    assert sync_delay(make_substitution([(0, 1), (0, 1)])) == SyncDelay(1, None, frozenset())


def test_search_reads_no_level_past_the_delay_or_the_stall(tm, ex42, monkeypatch):
    # each level is read once and carried: the stall check at n reads
    # L_{n+1}, which is the next level of the search
    read = []

    def recording(subst, n):
        read.append(n)
        return language(subst, n)

    monkeypatch.setattr(recognizability, "language", recording)
    search = recognizability._sync_delay_search.__wrapped__
    for subst, last in ((tm, 4), (ex42, 5), (gtm_substitution(3, 2), 2)):
        read.clear()
        with suppress(PeriodicInputError):
            search(subst, None)
        assert max(read) == last


def test_long_words_read_no_language_past_the_search(tm, monkeypatch):
    # interpretations come from the level pairs, so a long word builds no L_n
    asked = []

    def recording(module):
        build = module.language

        def language(subst, n):
            asked.append(n)
            return build(subst, n)

        monkeypatch.setattr(module, "language", language)

    recording(substitution)
    recording(recognizability)
    recognizability._sync_delay_search.__wrapped__(tm, None)
    searched = max(asked)
    asked.clear()
    w = fixed_point_prefix(tm, 0, 2003)[3:]
    assert decomposition(tm, w) == 1
    assert sync_analysis(tm, w).synchronized
    assert max(asked, default=0) <= searched

    # a prefix of the fixed point starts on the image grid
    w = fixed_point_prefix(tm, 0, 100000)
    assert decomposition(tm, w) == 0
    assert decomposition(tm, w[1:]) == 1


def reference_stall(subst, limit=32):
    """The first n <= limit with |L_{n+1}| = |L_n|, or None."""
    counts = [len(language(subst, n)) for n in range(1, limit + 2)]
    return next((n for n in range(1, limit + 1) if counts[n] == counts[n - 1]), None)


def test_periodicity_verdict_matches_the_stall_scan():
    inputs = every_small_primitive_input()
    assert len(inputs) == 568
    periodic = 0
    for subst in inputs:
        stall = reference_stall(subst)
        verdict, at = periodicity(subst)
        if verdict:
            assert at == stall, subst.images
            periodic += 1
        else:
            assert stall is None, subst.images
            assert at >= sync_delay(subst).delay, subst.images
    assert periodic > 0


def test_periodicity_verdict_reads_each_word_once(tm, perm4, monkeypatch):
    # the synchronization search and the verdict share one reading per level
    read = Counter()

    def counting(subst, w):
        read[subst, w] += 1
        return interpretations(subst, w)

    monkeypatch.setattr(recognizability, "interpretations", counting)
    for cached in (
        recognizability._level_reading,
        recognizability._sync_delay_search,
        recognizability.periodicity,
    ):
        cached.cache_clear()
    for subst, delay in ((tm, 4), (perm4, 4), (gtm_substitution(4, 5), 8)):
        assert sync_delay(subst).delay == delay
        assert periodicity(subst) == (False, delay)
    assert read and max(read.values()) == 1
