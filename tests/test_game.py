import gc
import time
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, compress, count, product
from operator import ne

import pytest
from conftest import random_marked
from hypothesis import given, settings
from hypothesis import strategies as st

from winshift import (
    InternalConsistencyError,
    Refutation,
    StrategyTree,
    PreconditionError,
    branch_profile,
    branch_rounds,
    builtin_substitution,
    is_irreducible,
    language,
    max_first_choice,
    member,
    parse_choices,
    strategy_choice_sequence,
    strategy_plays,
    validate_refutation,
    validate_strategy,
    winning_members,
    winning_set,
    winning_set_cardinality,
)
from winshift.game import suffix_first_letters
from winshift.words import Word, le


def refutation_plays(ref: Refutation) -> frozenset[Word]:
    """All words reachable when Bob follows the refutation.

    A refutation shares its nodes, so the plays can double with every round
    and this set can be exponential in the game length; to check a
    refutation use ``validate_refutation``, which never expands them.
    """
    out: set[Word] = set()
    stack: list[tuple[Word, Refutation]] = [((), ref)]
    while stack:
        prefix, node = stack.pop()
        if node.is_leaf:
            out.add(prefix)
            continue
        for _, (c, child) in node.responses.items():
            stack.append((prefix + (c,), child))
    return frozenset(out)


def test_winning_set_of_tm_length_4(tm):
    X = language(tm, 4).words
    ws = winning_set(X)
    assert winning_members(X) == frozenset(
        parse_choices(t, 2)
        for t in [
            "1111", "2111", "1211", "1121", "1112",
            "2211", "2121", "2112", "1212", "2212",
        ]
    )
    # the antichain of the full downward closed set; 2121 is the padded
    # maximal member, 2212 the irreducible one
    assert ws.maximal == ((2, 1, 2, 1), (2, 2, 1, 2))
    irreducible = {a for a in winning_members(X) if is_irreducible(a)}
    assert irreducible == {
        (1, 1, 1, 2), (2, 1, 1, 2), (1, 2, 1, 2), (2, 2, 1, 2),
    }


def test_winning_set_of_singleton():
    X = frozenset({(0, 1, 1)})
    ws = winning_set(X)
    assert ws.maximal == ((1, 1, 1),)
    assert winning_members(X) == frozenset({(1, 1, 1)})


def test_winning_set_of_full_cube():
    X = frozenset(product((0, 1), repeat=3))
    ws = winning_set(X)
    assert winning_members(X) == frozenset(product((1, 2), repeat=3))
    assert ws.maximal == ((2, 2, 2),)


def test_winning_set_edge_cases():
    assert winning_members(frozenset()) == frozenset()
    assert winning_members(frozenset({()})) == frozenset({()})
    with pytest.raises(PreconditionError):
        winning_set({(0,), (0, 1)})


def test_winning_set_expansion_threshold(tm):
    X = language(tm, 17).words
    ws = winning_set(X)
    assert (2,) + (1,) * 15 + (2,) in ws
    assert (2, 2) + (1,) * 14 + (2,) not in ws


def test_member_win_produces_valid_tree(tm):
    X = language(tm, 4).words
    outcome = member(X, (2, 2, 1, 2))
    assert outcome.win and outcome.refutation is None
    assert validate_strategy(outcome.strategy, X)
    assert strategy_choice_sequence(outcome.strategy) == (2, 2, 1, 2)
    assert branch_rounds(outcome.strategy) == (0, 1, 3)
    assert len(strategy_plays(outcome.strategy)) == 8


def test_member_lose_produces_refutation(tm):
    X = language(tm, 5).words
    outcome = member(X, (2, 2, 1, 1, 2))
    assert not outcome.win and outcome.strategy is None
    plays = refutation_plays(outcome.refutation)
    assert plays and not (plays & set(X))


def test_member_known_witnesses(tm, ex46):
    assert member(language(ex46, 7).words, (3, 1, 1, 1, 1, 1, 2), alphabet_size=3).win
    # the length-5 winning shift rows expand to 11112 and 21112
    assert member(language(tm, 5).words, (2, 1, 1, 1, 2)).win


def test_max_first_choice(tm, gtm23):
    assert max_first_choice(language(tm, 4).words, (2, 1, 2)) == (2, (0, 1))
    assert max_first_choice(frozenset({(0, 1, 1)}), (1, 1)) == (1, (0,))
    assert max_first_choice(language(gtm23, 3).words, (1, 2), alphabet_size=3) == (
        3,
        (0, 1, 2),
    )


def test_letters_no_state_interns_read_as_absent(tm, gtm23):
    # A suffix letter outside 1..(number of target letters) is no choice
    # letter any state can win with, whatever the sequence around it.
    for subst in (tm, gtm23):
        count = subst.size
        for n in (4, 7):
            X = language(subst, n).words
            for u in suffix_first_letters(X):
                for i in range(n - 1):
                    for bad in (0, -1, -count, count + 1, count + 2, 2 * count + 1):
                        v = u[:i] + (bad,) + u[i + 1:]
                        assert max_first_choice(X, v) == (0, ()), (u, i, bad)


def test_choice_letters_above_the_target_letter_count_lose(tm, gtm23):
    # allowed by a larger explicit alphabet, but no state offers that many letters
    for subst, size in ((tm, 5), (gtm23, 6)):
        X = language(subst, 5).words
        for a in sorted(winning_members(X)):
            for i in range(5):
                for big in range(subst.size + 1, size + 1):
                    alpha = a[:i] + (big,) + a[i + 1:]
                    outcome = member(X, alpha, alphabet_size=size)
                    assert not outcome.win, alpha
                    assert validate_refutation(outcome.refutation, X, alpha, size), alpha


def test_target_letters_outside_an_explicit_alphabet_are_refused():
    X = {(3,)}
    for refused in (
        lambda: member(X, (1,), alphabet_size=2),
        lambda: max_first_choice(X, (), alphabet_size=2),
        lambda: validate_refutation(Refutation(), X, (1,), 2),
    ):
        with pytest.raises(PreconditionError, match=r"target letter 3 outside 0\.\.1"):
            refused()
    with pytest.raises(PreconditionError, match=r"target letter -1 outside 0\.\.2"):
        member({(0, -1)}, (1, 1), alphabet_size=3)
    # an alphabet that holds every target letter is accepted
    won = member(X, (1,), alphabet_size=4)
    assert won.win and won.strategy.offer == (3,)
    assert max_first_choice(X, (), alphabet_size=4) == (1, (3,))


def test_suffix_first_letters_is_max_first_choice_on_every_suffix(tm, ex42, ex46, gtm23):
    for subst in (tm, ex42, ex46, gtm23, *random_marked(6, seed=20171)):
        for n in range(1, 11):
            X = language(subst, n).words
            groups = suffix_first_letters(X)
            for u in product(range(1, subst.size + 1), repeat=n - 1):
                k, letters = max_first_choice(X, u, alphabet_size=subst.size)
                # suffixes no first letter wins are left out
                assert groups.get(u, ()) == letters, (subst.images, u)
                assert k == len(letters)


def test_winning_set_spells_only_the_maximal_sequences(tm, monkeypatch):
    import winshift.game as game

    spelled = []
    spell = game._Trie.spell

    def counted(trie, i, length):
        spelled.append(i)
        return spell(trie, i, length)

    monkeypatch.setattr(game._Trie, "spell", counted)
    X = language(tm, 12).words
    assert winning_set_cardinality(X) == len(X)
    assert spelled == []
    maximal = winning_set(X).maximal
    assert len(spelled) == len(maximal) < len(X)


def test_cardinality_on_languages(tm, ex42, ex46, gtm23, gtm33):
    for subst in (tm, ex42, ex46, gtm23, gtm33):
        for n in range(1, 9):
            X = language(subst, n).words
            assert winning_set_cardinality(X) == len(X)


def test_winning_members_language_consistency(tm, gtm23):
    # factors of winning sequences for length n win at their own length
    for subst in (tm, gtm23):
        per_length = {
            n: winning_members(language(subst, n).words) for n in range(1, 10)
        }
        for n in range(2, 10):
            for alpha in per_length[n]:
                for shorter in range(1, n):
                    for start in range(n - shorter + 1):
                        assert alpha[start:start + shorter] in per_length[shorter]


targets = st.integers(2, 3).flatmap(
    lambda size: st.integers(1, 4).flatmap(
        lambda n: st.frozensets(
            st.lists(st.integers(0, size - 1), min_size=n, max_size=n).map(tuple),
            min_size=1,
            max_size=12,
        ).map(lambda X: (size, X))
    )
)


@settings(max_examples=200, deadline=None)
@given(targets)
def test_random_targets_cardinality_and_closure(case):
    size, X = case
    members = winning_members(X)
    assert len(members) == len(X)
    for alpha in members:
        for p, letter in enumerate(alpha):
            if letter > 1:
                lowered = alpha[:p] + (letter - 1,) + alpha[p + 1:]
                assert lowered in members


@settings(max_examples=200, deadline=None)
@given(targets, st.randoms(use_true_random=False))
def test_random_subtargets_monotone(case, rng):
    size, Y = case
    X = frozenset(w for w in Y if rng.random() < 0.5)
    assert winning_members(X) <= winning_members(Y)


@settings(max_examples=200, deadline=None)
@given(targets, st.lists(st.integers(1, 3), min_size=4, max_size=4))
def test_member_agrees_with_winning_set(case, raw):
    size, X = case
    n = len(next(iter(X)))
    alpha = tuple(min(k, size) for k in raw[:n])
    outcome = member(X, alpha, alphabet_size=size)
    assert outcome.win == (alpha in winning_members(X))
    if outcome.win:
        assert strategy_plays(outcome.strategy) <= X
    else:
        assert not (refutation_plays(outcome.refutation) & X)


def test_letters_past_the_key_base_win_nothing():
    # Head keys pack the letter t below a base of |X| + 1 = 3 here; 5 at
    # length 1 would pack to the key of 2 at length 2, which the root wins.
    X = frozenset({(0, 0), (1, 1)})
    assert member(X, (2, 1)).win
    for alpha in [(1, 3), (1, 5), (1, 8), (3, 1), (5, 1)]:
        assert not member(X, alpha, alphabet_size=8).win, alpha
    assert max_first_choice(X, (5,), alphabet_size=8) == (0, ())


def test_cardinality_mismatch_is_internal_error(monkeypatch):
    import winshift.game as game

    solved = game._trie

    def no_root_wins(target):
        trie = solved(target)
        wins = list(trie.wins)
        wins[trie.root] = frozenset()
        return replace(trie, wins=wins)

    monkeypatch.setattr(game, "_trie", no_root_wins)
    with pytest.raises(InternalConsistencyError):
        game.winning_set_cardinality(frozenset({(0,)}))


def refutation_loses(ref, X, alpha, size):
    """Replay Bob's table against every offer without recursion or expanding plays.

    Each (node, quotient) pair is walked once, so shared continuations cost
    nothing extra; a play loses when its quotient becomes empty.
    """
    seen = set()
    stack = [(ref, frozenset(X), 0)]
    while stack:
        node, target, i = stack.pop()
        if not target or (id(node), target) in seen:
            continue
        seen.add((id(node), target))
        if i == len(alpha):
            return False
        for offered in combinations(range(size), alpha[i]):
            c, child = node.responses[offered]
            if c not in offered:
                return False
            stack.append((child, frozenset(w[1:] for w in target if w[0] == c), i + 1))
    return True


def test_long_target_does_not_recurse():
    X = frozenset({(0,) * 1200, (1,) * 1200})
    assert winning_members(X) == {(1,) * 1200, (2,) + (1,) * 1199}
    assert winning_set(X).maximal == ((2,) + (1,) * 1199,)
    won = member(X, (2,) + (1,) * 1199)
    assert won.win and validate_strategy(won.strategy, X)
    lost = member(X, (2,) * 1200)
    # Bob keeps to the language for one round, then plays the dead letter 1
    assert not lost.win and refutation_plays(lost.refutation) == {(0, 1) + (0,) * 1198}
    # every offer here has one letter, so the plays double each round:
    # replay the shared table instead of expanding them
    lost = member(X, (1,) * 1199 + (2,))
    assert not lost.win and refutation_loses(lost.refutation, X, (1,) * 1199 + (2,), 2)


# Reference solver: backward induction recursing on quotient frozensets,
# memoized on the quotient itself.  The library solves the same games on
# the compacted trie of the target; both must agree exactly.


@lru_cache(maxsize=None)
def reference_members(target):
    if not target:
        return frozenset()
    if len(next(iter(target))) == 0:
        return frozenset({()})
    counts = {}
    for c in sorted({w[0] for w in target}):
        for beta in reference_members(frozenset(w[1:] for w in target if w[0] == c)):
            counts[beta] = counts.get(beta, 0) + 1
    return frozenset((t,) + beta for beta, k in counts.items() for t in range(1, k + 1))


def reference_strategy(target, alpha):
    if not alpha:
        return StrategyTree(())
    rest = alpha[1:]
    offer, quotients = [], {}
    for c in sorted({w[0] for w in target}):
        quotient = frozenset(w[1:] for w in target if w[0] == c)
        if rest in reference_members(quotient):
            offer.append(c)
            quotients[c] = quotient
            if len(offer) == alpha[0]:
                break
    assert len(offer) == alpha[0]
    return StrategyTree(tuple(offer), {c: reference_strategy(quotients[c], rest) for c in offer})


def reference_refutation(target, alpha, size):
    memo = {}

    def build(target, alpha):
        key = (target, alpha)
        if key in memo:
            return memo[key]
        responses = {}
        if alpha:
            for offered in combinations(range(size), alpha[0]):
                quotients = {c: frozenset(w[1:] for w in target if w[0] == c) for c in offered}
                # a letter with an empty quotient first, else the first that loses the rest
                dead = [c for c in offered if not quotients[c]]
                losing = [c for c in offered if alpha[1:] not in reference_members(quotients[c])]
                c = (dead or losing)[0]
                responses[offered] = (c, build(quotients[c], alpha[1:]))
        else:
            assert not target
        memo[key] = Refutation(responses)
        return memo[key]

    return build(target, alpha)


def reference_antichain(members):
    return tuple(sorted(a for a in members if not any(a != b and le(a, b) for b in members)))


def slicing_antichain(members):
    """Maximal members found by spelling every one-letter raise of every member.

    Exact because a winning set is downward closed; quadratic in the word
    length per member, so it reaches lengths the pairwise reference does not.
    """
    return tuple(
        sorted(
            a
            for a in members
            if not any(a[:i] + (a[i] + 1,) + a[i + 1:] in members for i in range(len(a)))
        )
    )


def same_strategy(a, b):
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.offer != y.offer or list(x.children) != list(y.children):
            return False
        stack.extend((x.children[c], y.children[c]) for c in x.children)
    return True


def same_refutation(a, b):
    # equal tables, offer order included, and the same sharing of nodes
    image = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if id(x) in image:
            if image[id(x)] is not y:
                return False
            continue
        image[id(x)] = y
        if list(x.responses) != list(y.responses):
            return False
        for offered, (c, child) in x.responses.items():
            d, other = y.responses[offered]
            if c != d:
                return False
            stack.append((child, other))
    return len({id(y) for y in image.values()}) == len(image)


def assert_matches_reference(X, size, alphas):
    target = frozenset(X)
    members = reference_members(target)
    assert winning_members(X) == members
    assert winning_set(X).maximal == reference_antichain(members)
    for alpha in alphas:
        outcome = member(X, alpha, alphabet_size=size)
        assert outcome.win == (alpha in members)
        if outcome.win:
            assert same_strategy(outcome.strategy, reference_strategy(target, alpha))
        else:
            expected = reference_refutation(target, alpha, size)
            assert same_refutation(outcome.refutation, expected)


@settings(max_examples=200, deadline=None)
@given(targets)
def test_random_targets_match_reference(case):
    size, X = case
    n = len(next(iter(X)))
    assert_matches_reference(X, size, list(product(range(1, size + 1), repeat=n)))


@pytest.mark.parametrize("name", ["tm", "ex42", "ex46", "gtm23"])
def test_languages_match_reference(name, request):
    subst = request.getfixturevalue(name)
    for n in range(1, 15):
        X = language(subst, n).words
        members = reference_members(frozenset(X))
        maximal = reference_antichain(members)
        # every winning sequence, and losers just above the maximal ones at
        # the first and the last round
        raised = {
            m[:i] + (m[i] + 1,) + m[i + 1:]
            for m in maximal
            for i in {0, n - 1}
            if m[i] < subst.size
        }
        assert_matches_reference(X, subst.size, sorted(members) + sorted(raised))


@pytest.mark.parametrize("name", ["tm", "ex42", "ex46", "gtm23"])
def test_long_antichains_match_the_slicing_reference(name, request):
    subst = request.getfixturevalue(name)
    for n in (40, 79, 120):
        X = language(subst, n).words
        assert winning_set(X).maximal == slicing_antichain(winning_members(X)), n


def minimal_automaton_solution(target):
    """The winning set, its maximal members and a membership test, solved on
    the minimal acyclic automaton of the target, the solver's former method.

    States are the distinct left quotients, minimised bottom-up by depth
    from the trie of the sorted target, and each state's winning set is
    solved once.  Winning sets hold hash-consed ids: the sequence t.j is
    keyed ``j * base + t``.  A member is maximal iff none of its interned
    one-letter raises wins; the raises of t.j are (t+1).j and t.r for each
    raise r of j.
    """
    base = len(frozenset().union(*target)) + 1
    wins = [frozenset(), frozenset({0})]
    ids, register = {}, {(): 1}

    def state_of(signature):
        state = register.get(signature)
        if state is None:
            state = register[signature] = len(wins)
            if len(signature) == 1:
                won = [ids.setdefault(beta * base + 1, len(ids) + 1) for beta in wins[signature[0][1]]]
            else:
                counts = {}
                for _, q in signature:
                    for beta in wins[q]:
                        counts[beta] = counts.get(beta, 0) + 1
                won = [
                    ids.setdefault(key, len(ids) + 1)
                    for beta, k in counts.items()
                    for key in range(beta * base + 1, beta * base + k + 1)
                ]
            wins.append(frozenset(won))
        return state

    words = sorted(target)
    common = [-1] + [next(compress(count(), map(ne, u, v))) for u, v in zip(words, words[1:])]
    starts, states = list(range(len(words))), [1] * len(words)
    for d in reversed(range(len(words[0]) if words else 0)):
        pairs = [(words[i][d], state) for i, state in zip(starts, states)]
        cuts = [k for k, i in enumerate(starts) if common[i] < d]
        starts = [starts[k] for k in cuts]
        cuts.append(len(pairs))
        states = [state_of(tuple(pairs[a:b])) for a, b in zip(cuts, cuts[1:])]
    root, cons = wins[states[0]] if states else frozenset(), [0, *ids]

    def spell(i):
        letters = []
        while i:
            i, t = divmod(cons[i], base)
            letters.append(t)
        return tuple(letters)

    def wins_root(alpha):
        j = 0
        for t in reversed(alpha):
            j = ids.get(j * base + t, -1) if 0 < t < base else -1
        return j in root

    raises = [[]]
    for key in cons[1:]:
        j, t = divmod(key, base)
        raises.append([i for i in map(ids.get, [r * base + t for r in raises[j]] + [key + 1]) if i])
    maximal = tuple(sorted(spell(a) for a in root if not any(r in root for r in raises[a])))
    return frozenset(map(spell, root)), maximal, wins_root


def test_trie_matches_the_minimal_automaton(tm, ex42, ex46):
    # dense cubes, where nodes of one shape share a winning set, and long
    # languages, where chains are long
    cases = [
        (frozenset(product((0, 1), repeat=14)), 3),
        (frozenset(product((0, 1, 2), repeat=8)), 4),
        *(
            (language(subst, n).words, subst.size)
            for subst, n in (
                (tm, 200), (ex46, 120), (ex42, 100),
                (builtin_substitution("gtm:3,3"), 45), (builtin_substitution("gtm:2,5"), 60),
            )
        ),
    ]
    for X, size in cases:
        members, maximal, wins = minimal_automaton_solution(X)
        assert winning_members(X) == members
        assert winning_set(X).maximal == maximal
        # the least and the greatest maximal member, and the least raised at
        # its first and last letter where the alphabet allows
        m, n = maximal[0], len(maximal[0])
        raised = [m[:i] + (m[i] + 1,) + m[i + 1:] for i in {0, n - 1} if m[i] < size]
        for alpha in [m, maximal[-1], *raised]:
            assert member(X, alpha, alphabet_size=size).win == wins(alpha), alpha


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector left on or off by the caller; restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


def test_solver_leaves_the_collector_as_it_found_it(collector):
    import winshift.game as game

    # a target no other test or parameter builds, so its trie is cold
    top = 7 if collector else 8
    X = frozenset(product((0, top), repeat=6)) - {(top,) * 6}
    misses = game._trie.cache_info().misses
    game._trie(X)
    assert game._trie.cache_info().misses == misses + 1
    assert gc.isenabled() == collector
    assert len(winning_set(X).maximal) > 1 and gc.isenabled() == collector
    assert member(X, (2,) * 5 + (1,)).win and gc.isenabled() == collector
    assert not member(X, (2,) * 6).win and gc.isenabled() == collector


def test_a_failing_builder_restores_the_collector(collector):
    import winshift.game as game

    X = frozenset({(0, 0), (1, 1)})
    trie = game._trie(X)
    winning, losing = (2, 1), (2, 2)
    with pytest.raises(InternalConsistencyError, match="winning sequence"):
        game._refutation(trie, winning, trie.suffix_ids(winning), 2)
    assert gc.isenabled() == collector
    with pytest.raises(InternalConsistencyError, match="losing sequence"):
        game._strategy(trie, losing, trie.suffix_ids(losing))
    assert gc.isenabled() == collector


def test_equal_winning_sets_are_one_object_and_ids_are_untracked(tm):
    import winshift.game as game

    for n in (8, 30):
        trie = game._trie(language(tm, n).words)
        wins = trie.wins
        assert len({id(w) for w in wins}) == len(set(wins)) < len(wins)
        # ints to ints: the cyclic collector never scans the pair index,
        # nor a node's children
        assert not gc.is_tracked(trie.ids)
        assert not any(map(gc.is_tracked, trie.kids))


def test_equal_answers_of_a_refutation_are_one_tuple(tm):
    X = language(tm, 8).words
    ref = member(X, (2, 2, 1, 1, 1, 1, 1, 2)).refutation
    tuples, askers, seen, stack = {}, {}, set(), [ref]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for answer in node.responses.values():
            c, child = answer
            tuples.setdefault((c, id(child)), set()).add(id(answer))
            askers.setdefault((c, id(child)), set()).add(id(node))
            stack.append(child)
    assert all(len(ids) == 1 for ids in tuples.values())
    # not vacuous: some answer is given by several nodes
    assert max(map(len, askers.values())) > 1


def test_certificates_are_slotted():
    X = frozenset({(0, 0), (1, 1)})
    tree, ref = member(X, (2, 1)).strategy, member(X, (2, 2)).refutation
    for node in (tree, ref, StrategyTree(()), Refutation()):
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.note = "no room for this"
    tree.offer = (1, 0)
    assert tree != member(X, (2, 1)).strategy


def _distinct_targets(count: int, top: int) -> list[frozenset[Word]]:
    """``count`` small targets of length-3 words over ``{0, top}``, none equal."""
    cube = sorted(product((0, top), repeat=3))
    return [frozenset(w for k, w in enumerate(cube) if i >> k & 1) for i in range(1, count + 1)]


def test_solver_memo_keeps_at_most_32_targets():
    import winshift.game as game

    for X in _distinct_targets(40, 9):
        winning_set_cardinality(X)
    assert game._trie.cache_info().currsize <= 32


def test_an_evicted_target_solves_the_same_again():
    import winshift.game as game

    X = frozenset(product((0, 1, 2), repeat=4)) - {(2,) * 4, (0, 1, 2, 0), (1, 1, 0, 0)}
    won, lost = (3, 3, 3, 2), (2, 3, 3, 3)

    def answers():
        return winning_set(X).maximal, member(X, won), member(X, lost), winning_members(X)

    before = answers()
    assert before[1].win and not before[2].win
    for Y in _distinct_targets(40, 12):
        winning_set_cardinality(Y)
    misses = game._trie.cache_info().misses
    assert answers() == before
    assert game._trie.cache_info().misses == misses + 1  # X was solved afresh


# Certificates on long games and malformed input: no recursion, no expansion
# of exponentially many plays, and a plain False for a table that is wrong.


def recursive_branch_profile(tree):
    # the definition ``branch_profile`` must reproduce
    if tree.is_leaf:
        return ()
    return (
        len(tree.offer),
        tuple(sorted(recursive_branch_profile(child) for child in tree.children.values())),
    )


def same_nested(a, b):
    # equality of nested tuples without recursing once per level
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, tuple) != isinstance(y, tuple):
            return False
        if not isinstance(x, tuple):
            if x != y:
                return False
        elif x is not y:
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
    return True


@settings(max_examples=200, deadline=None)
@given(targets)
def test_branch_profile_matches_recursive_definition(case):
    size, X = case
    for alpha in winning_members(X):
        tree = member(X, alpha, alphabet_size=size).strategy
        assert branch_profile(tree) == recursive_branch_profile(tree)


def test_branch_profile_of_long_strategy():
    def chain(rounds, bottom=()):
        for _ in range(rounds):
            bottom = (1, (bottom,))
        return bottom

    X = frozenset({(0,) * 1200, (1,) * 1200})
    tree = member(X, (2,) + (1,) * 1199).strategy
    assert same_nested(branch_profile(tree), (2, (chain(1199), chain(1199))))
    # a branch that differs only 1000 rounds down sorts after the plain one
    node = tree.children[0]
    for _ in range(1000):
        node = node.children[0]
    node.offer = (0, 1)
    node.children[1] = StrategyTree(())
    altered = chain(1000, (2, ((), chain(198))))
    assert same_nested(branch_profile(tree), (2, (chain(1199), altered)))


def test_long_strategies_compare_and_print_without_recursion():
    X = frozenset({(0,) * 1500, (1,) * 1500})
    alpha = (2,) + (1,) * 1499
    a, b = member(X, alpha), member(X, alpha)
    assert a.strategy is not b.strategy and a == b
    assert repr(a.strategy) == "StrategyTree(offer=(0, 1))"
    # one leaf 1499 rounds down differs
    node = b.strategy.children[1]
    while not node.is_leaf:
        node = node.children[node.offer[0]]
    node.offer, node.children = (1,), {1: StrategyTree(())}
    assert a != b


def test_shared_refutations_compare_once_per_node_pair():
    # compared as trees, these took about a second: every play was walked
    X = frozenset(w for w in product(range(8), repeat=4) if w[-1] == 0)
    alpha = (3, 3, 3, 2)
    a, b = member(X, alpha, alphabet_size=8), member(X, alpha, alphabet_size=8)
    assert not a.win and a.refutation is not b.refutation
    start = time.perf_counter()
    assert a == b
    assert time.perf_counter() - start < 0.1
    assert repr(a.refutation) == "Refutation()"
    # one pick in the last round differs
    node = b.refutation
    for _ in range(3):
        node = next(iter(node.responses.values()))[1]
    offered, (c, child) = next(iter(node.responses.items()))
    node.responses[offered] = (offered[offered.index(c) - 1], child)
    assert a != b


@settings(max_examples=100, deadline=None)
@given(targets, st.randoms(use_true_random=False))
def test_validate_refutation_agrees_with_plays(case, rng):
    size, X = case
    n = len(next(iter(X)))
    cube = list(product(range(size), repeat=n))
    Y = frozenset(w for w in cube if rng.random() < 0.3)
    for alpha in product(range(1, size + 1), repeat=n):
        outcome = member(X, alpha, alphabet_size=size)
        if outcome.win:
            continue
        plays = refutation_plays(outcome.refutation)
        assert validate_refutation(outcome.refutation, X, alpha, size)
        for other in (Y, frozenset(cube)):
            assert validate_refutation(outcome.refutation, other, alpha, size) == (
                not (plays & other)
            )


def test_validate_refutation_rejects_bad_tables():
    leaf = Refutation()
    # Bob picks 1 when only 0 is offered
    assert not validate_refutation(
        Refutation({(0,): (1, leaf), (1,): (1, leaf)}), {(0,)}, (1,), 2
    )
    # a table that lets Alice reach (0, 0)
    obliging = Refutation({(0,): (0, leaf), (1,): (1, leaf)})
    obliging = Refutation({(0,): (0, obliging), (1,): (1, obliging)})
    assert not validate_refutation(obliging, {(0, 0)}, (1, 1), 2)
    # the offer (0, 1) has no answer
    assert not validate_refutation(obliging, {(0, 0)}, (2, 1), 2)
    # one shared node, safe after letter 1 and not after letter 0
    shared = Refutation({(0, 1): (0, leaf)})
    root = Refutation({(0,): (0, shared), (1,): (1, shared)})
    assert not validate_refutation(root, {(0, 0), (1, 1)}, (1, 2), 2)
    X = frozenset({(0,) * 1200, (1,) * 1200})
    alpha = (1,) * 1199 + (2,)
    assert validate_refutation(member(X, alpha).refutation, X, alpha)


def test_validate_strategy_rejects_malformed_trees():
    ragged = StrategyTree(
        (0, 1), {0: StrategyTree(()), 1: StrategyTree((0,), {0: StrategyTree(())})}
    )
    assert validate_strategy(ragged, {(0, 0), (1, 0)}) is False
    uneven = StrategyTree(
        (0, 1),
        {
            0: StrategyTree((0,), {0: StrategyTree(())}),
            1: StrategyTree((0, 1), {0: StrategyTree(()), 1: StrategyTree(())}),
        },
    )
    assert validate_strategy(uneven, {(0, 0), (1, 0), (1, 1)}) is False


def test_long_language_target(tm):
    X = language(tm, 200).words
    won = member(X, (2,) + (1,) * 199)
    assert won.win and validate_strategy(won.strategy, X)
    alpha = (2, 2) + (1,) * 197 + (2,)
    lost = member(X, alpha)
    assert not lost.win and validate_refutation(lost.refutation, X, alpha)
    assert winning_set_cardinality(X) == len(X)


@settings(max_examples=200, deadline=None)
@given(targets)
def test_bob_leaves_the_language_whenever_the_offer_lets_him(case):
    size, X = case
    n = len(next(iter(X)))
    for alpha in product(range(1, size + 1), repeat=n):
        outcome = member(X, alpha, alphabet_size=size)
        if outcome.win:
            continue
        seen, stack = set(), [(outcome.refutation, frozenset(X), 0)]
        while stack:
            node, quotient, i = stack.pop()
            if i == n or (id(node), quotient) in seen:
                continue
            seen.add((id(node), quotient))
            first = {w[0] for w in quotient}
            for offered, (c, child) in node.responses.items():
                if not first.issuperset(offered):
                    assert c not in first, (alpha, i, offered)
                stack.append((child, frozenset(w[1:] for w in quotient if w[0] == c), i + 1))


def distinct_nodes(ref: Refutation) -> int:
    seen, stack = set(), [ref]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(child for _, child in node.responses.values())
    return len(seen)


def test_long_refutation_stays_small(tm):
    # the least maximal member at n = 300 with its letter 38 raised: 22,455
    # nodes when Bob took the first losing letter, dead or live
    X = language(tm, 300).words
    least = winning_set(X).maximal[0]
    alpha = least[:38] + (least[38] + 1,) + least[39:]
    lost = member(X, alpha)
    assert not lost.win and distinct_nodes(lost.refutation) <= 2393
    assert validate_refutation(lost.refutation, X, alpha)
