from itertools import product

import pytest
from conftest import random_marked

from winshift import (
    PreconditionError,
    UnsupportedInputError,
    branch_profile,
    choice_decomposition,
    desubstitute_strategy,
    enumerate_irreducible,
    extension_plan,
    language,
    make_substitution,
    member,
    parse_choices,
    strategy_choice_sequence,
    strategy_plays,
    stretch,
    substitute_strategy,
    sync_delay,
    validate_strategy,
    verify_form,
)
from winshift.catalog import builtin_substitution
from winshift.cli import compress
from winshift.errors import InternalConsistencyError
from winshift.game import StrategyTree, winning_members
from winshift.shift import _head_groups, _paths_to_depth, _suffix_target, irreducible_level
from winshift.tm_reference import THUE_MORSE_ROWS, expand_pattern, expand_row

PERM4 = make_substitution([(0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 2, 1, 0)])


def rows(texts, m=2):
    return frozenset(parse_choices(t, m) for t in texts)


def test_extension_plan():
    plan = extension_plan(5, 2)
    assert (plan.head_length, plan.base_length) == (2, 3)
    assert extension_plan(8, 2).base_length == 5
    assert extension_plan(9, 4).base_length == 3  # head 4, one middle block
    for n in range(2, 40):
        for M in (2, 3, 4):
            plan = extension_plan(n, M)
            assert 1 <= plan.head_length <= M
            assert plan.head_length + (plan.base_length - 2) * M + 1 == n


def test_brute_level_entries_tm(tm):
    level = irreducible_level(tm, 4)
    assert level.source == "brute"
    assert level.entries == {
        (1, 1, 2): (0, 1),
        (2, 1, 2): (0, 1),
    }


def test_cached_level_data_cannot_be_changed(tm):
    from dataclasses import FrozenInstanceError

    from winshift import shift

    try:
        level = irreducible_level(tm, 9)
        level.entries.clear()
        # the entries are a fresh view; the cached level and its extensions are intact
        assert level.entries
        assert enumerate_irreducible(tm, 9) == expand_row(9)
        assert enumerate_irreducible(tm, 17) == expand_row(17)
        with pytest.raises(FrozenInstanceError):
            level.n = 10
    finally:
        shift._level.cache_clear()


def test_substitutive_levels_store_only_head_tails(tm, gtm23, gtm33, marked_nonpermutive):
    # a substitutive level keeps rows (head tail, base row, first letters):
    # no suffix longer than M - 1 letters, and the rows in suffix order
    for subst in (tm, gtm23, gtm33, marked_nonpermutive, PERM4, *random_marked(3, seed=20171)):
        M, delay = subst.uniform_length, sync_delay(subst).delay
        for n in range(delay + 1, 400):
            level = irreducible_level(subst, n)
            assert level.source == "substitutive"
            assert level.base.n == extension_plan(n, M).base_length
            assert all(len(g) <= M - 1 for g, _, _ in level.rows)
            assert all(0 <= j < len(level.base.rows) for _, j, _ in level.rows)
            assert list(level.entries) == sorted(level.entries)


def test_auto_levels_up_to_the_delay_are_the_cached_levels(tm, gtm23, marked_nonpermutive):
    # the brute levels below the extension threshold are solved once and cached
    for subst in (tm, gtm23, marked_nonpermutive):
        for n in range(2, sync_delay(subst).delay + 1):
            assert irreducible_level(subst, n, "auto") is irreducible_level(
                subst, n, "substitutive"
            )


def test_enumerate_matches_reference_table(tm):
    for n in range(1, 13):
        assert enumerate_irreducible(tm, n, "brute") == expand_row(n)
    for n in range(1, 25):
        assert enumerate_irreducible(tm, n, "substitutive") == expand_row(n)


def test_compress_round_trips(tm):
    for n, reference in THUE_MORSE_ROWS.items():
        assert compress(expand_row(n), 2) == reference
    # above 9 letters the rows are spelled with commas, like format_choices
    gtm = builtin_substitution("gtm:2,11")
    assert compress(enumerate_irreducible(gtm, 3), 11)[-2:] == ("◇,1,10", "◇,1,11")
    for n in range(1, 6):
        sequences = enumerate_irreducible(gtm, n)
        rows_n = compress(sequences, 11)
        assert frozenset().union(*(expand_pattern(r, 11) for r in rows_n)) == sequences


def test_enumerate_named_rows(tm, ex42):
    assert enumerate_irreducible(tm, 10) == rows(
        ["1111111112", "2111111112", "1211111112", "2211111112"]
    )
    assert enumerate_irreducible(tm, 14) == rows(["11111111111112", "21111111111112"])
    assert len(enumerate_irreducible(ex42, 14, "brute")) == 5


def test_substitutive_equals_brute_past_delay(tm, gtm23, gtm33, marked_nonpermutive):
    for subst in (tm, gtm23, gtm33, marked_nonpermutive, *random_marked(6, seed=20171)):
        delay = sync_delay(subst).delay
        M = subst.uniform_length
        for n in range(delay + 1, delay + 2 * M + 1):
            assert enumerate_irreducible(subst, n, "substitutive") == enumerate_irreducible(
                subst, n, "brute"
            ), (subst.images, n)


def test_substitutive_recursion_depth_two(marked_nonpermutive):
    # lengths 17 and 18 decompose onto base level 7, itself past the delay 6,
    # so the extension recurses through a non-brute level
    subst = marked_nonpermutive
    for n in (17, 18):
        plan = extension_plan(n, subst.uniform_length)
        assert plan.base_length > sync_delay(subst).delay
        assert enumerate_irreducible(subst, n, "substitutive") == enumerate_irreducible(
            subst, n, "brute"
        )


def test_substitutive_requires_marked(ex42, ex46):
    for subst in (ex42, ex46):
        with pytest.raises(UnsupportedInputError):
            enumerate_irreducible(subst, 14, "substitutive")
        # auto silently falls back to brute force
        assert enumerate_irreducible(subst, 6, "auto") == enumerate_irreducible(
            subst, 6, "brute"
        )


def head_words_closed_form(k, head):
    """Winning head sequences over image suffixes of a permutive substitution.

    Distinct letters stay distinct at every image position, so the head
    game is won exactly by t 1^(head-1) for t up to the subset size.
    """
    pad = (1,) * (head - 1)
    return frozenset((t,) + pad for t in range(1, k + 1))


def test_head_words_closed_form_matches_solver(tm, gtm33, gtm42, marked_nonpermutive):
    for subst in (tm, gtm33, gtm42, PERM4):
        assert subst.permutive
        letters = tuple(subst.letters)
        M = subst.uniform_length
        for size in range(1, subst.size + 1):
            chosen = letters[:size]
            for head in range(1, M + 1):
                target = _suffix_target(subst, chosen, head)
                assert winning_members(target) == head_words_closed_form(size, head)
                # one group t 1^(head-1), with the letters at image position M - head next
                next_choices = tuple(sorted(subst.image(c)[M - head] for c in chosen))
                assert _head_groups(subst, chosen, head) == {(1,) * (head - 1): next_choices}
    # the closed form is specific to permutive substitutions
    target = _suffix_target(marked_nonpermutive, (0, 1, 2), 2)
    assert winning_members(target) != head_words_closed_form(3, 2)


def test_choice_decomposition(tm, ex42, ex46):
    alpha = parse_choices("12111111111112", 3)
    assert choice_decomposition(ex42, alpha, verify=True) == 1
    assert choice_decomposition(tm, parse_choices("2121112", 2), verify=True) == 0
    assert choice_decomposition(tm, (1,) * 7 + (2,)) == 1
    with pytest.raises(UnsupportedInputError):
        choice_decomposition(ex46, parse_choices("3111112", 3))
    with pytest.raises(PreconditionError):
        choice_decomposition(tm, (2, 2, 1, 2))  # not past the delay
    with pytest.raises(PreconditionError):
        choice_decomposition(tm, (2, 1, 2, 1, 1, 1, 2, 1))  # reducible


def test_verify_form(tm):
    assert verify_form(tm, parse_choices("2121112", 2))
    assert verify_form(tm, (1,) + parse_choices("1111121111111111111112", 2))
    assert not verify_form(tm, (2, 2, 1, 1, 2))
    with pytest.raises(PreconditionError):
        verify_form(tm, (2, 2, 1, 2))


def test_enumerated_sequences_satisfy_form_and_decomposition(tm, gtm23, gtm33):
    for subst in (tm, gtm23, gtm33):
        delay = sync_delay(subst).delay
        M = subst.uniform_length
        for n in range(delay + 1, delay + 2 * M + 1):
            for alpha in enumerate_irreducible(subst, n):
                assert verify_form(subst, alpha)
                assert choice_decomposition(subst, alpha) == (n - 1) % M


def test_substitute_strategy_fig_sequences(tm):
    base = member(language(tm, 4).words, (2, 2, 1, 2)).strategy
    produced = dict(substitute_strategy(tm, base, 2, 2))
    long_seq = parse_choices("21211121", 2)
    assert long_seq in produced
    tree = produced[long_seq]
    assert validate_strategy(tree, language(tm, 8).words)
    assert strategy_choice_sequence(tree) == long_seq
    shorter = dict(substitute_strategy(tm, base, 1, 2))
    assert parse_choices("2211121", 2) in shorter


def test_substitute_strategy_outputs_all_win(tm, gtm23):
    for subst, n in ((tm, 4), (gtm23, 3)):
        X = language(subst, n).words
        target_rows = sorted(enumerate_irreducible(subst, n))[:3]
        for alpha in target_rows:
            base = member(X, alpha, alphabet_size=subst.size).strategy
            M = subst.uniform_length
            for head in range(1, M + 1):
                for tail in range(1, M + 1):
                    for beta, tree in substitute_strategy(subst, base, head, tail):
                        size = head + (n - 2) * M + tail
                        assert len(beta) == size
                        assert validate_strategy(tree, language(subst, size).words)


def test_base_strategy_with_a_play_outside_the_language_is_refused(tm):
    # 1001 is a factor of Thue-Morse and 0000 is not (no cubes)
    base = member(frozenset({(0, 0, 0, 0), (1, 0, 0, 1)}), (2, 1, 1, 1)).strategy
    assert strategy_plays(base) == {(0, 0, 0, 0), (1, 0, 0, 1)}
    assert (1, 0, 0, 1) in language(tm, 4) and (0, 0, 0, 0) not in language(tm, 4)
    with pytest.raises(PreconditionError, match="base strategy is not winning"):
        substitute_strategy(tm, base, 1, 1)


def test_transport_builds_no_factor_language_at_the_base_length(tm, monkeypatch):
    import winshift.shift as shift

    base = member(language(tm, 200).words, (2,) + (1,) * 198 + (2,)).strategy
    built = []

    def recorded(subst, n):
        built.append(n)
        return language(subst, n)

    monkeypatch.setattr(shift, "language", recorded)
    pairs = substitute_strategy(tm, base, 2, 1)
    assert built == []
    assert any(beta[-1] != 1 and len(beta) == 399 for beta, _ in pairs)


def test_degenerate_substitution_forces_ones(tm):
    # a branchless base strategy yields all-1 middle blocks
    base = member(frozenset({(0, 1, 1)}), (1, 1, 1)).strategy
    for beta, _ in substitute_strategy(tm, base, 1, 1):
        assert set(beta[1:-1]) <= {1}


def test_desubstitute_inverts_known_pair(tm):
    long_tree = member(language(tm, 7).words, parse_choices("2121112", 2)).strategy
    back = desubstitute_strategy(tm, long_tree)
    assert strategy_choice_sequence(back) == (2, 2, 1, 2)
    assert validate_strategy(back, language(tm, 4).words)


def test_desubstitute_rejects_unmarked(ex42):
    alpha = parse_choices("12111111111112", 3)
    tree = member(language(ex42, 14).words, alpha, alphabet_size=3).strategy
    with pytest.raises(UnsupportedInputError):
        desubstitute_strategy(ex42, tree)


def test_round_trip_preserves_branch_structure(tm, gtm33):
    for subst, n in ((tm, 4), (gtm33, 4)):
        X = language(subst, n).words
        M = subst.uniform_length
        for alpha in sorted(enumerate_irreducible(subst, n))[:4]:
            base = member(X, alpha, alphabet_size=subst.size).strategy
            for head in range(1, M + 1):
                canonical = (
                    (alpha[0],) + (1,) * (head - 1) + stretch(alpha[1:-1], M) + (alpha[-1],)
                )
                for beta, tree in substitute_strategy(subst, base, head, 1):
                    if beta[-1] == 1 or len(beta) <= sync_delay(subst).delay:
                        continue
                    back = desubstitute_strategy(subst, tree)
                    # block letters of the long sequence come back out
                    assert strategy_choice_sequence(back) == (beta[0],) + beta[head::M]
                    assert validate_strategy(back, X)
                    if beta == canonical:
                        assert branch_profile(back) == branch_profile(base)


def test_bounded_branching_tm(tm):
    # every winning sequence carries at most three letters above 1
    seen = set()
    for n in range(1, 25):
        for alpha in enumerate_irreducible(tm, n):
            seen.add(sum(1 for a in alpha if a > 1))
    assert max(seen) == 3


def test_tm_closure_rule(tm):
    # from d w 2 winning also d stretch(w) 2 and stretch(d w) 2 are winning
    for n in range(2, 13):
        for alpha in enumerate_irreducible(tm, n):
            head, middle, last = alpha[0], alpha[1:-1], alpha[-1]
            assert last == 2
            first = (head,) + stretch(middle, 2) + (2,)
            second = stretch((head,) + middle, 2) + (2,)
            assert first in enumerate_irreducible(tm, len(first))
            assert second in enumerate_irreducible(tm, len(second))


def _nodes_at_depth(tree, depth):
    level = [tree]
    for _ in range(depth):
        level = [child for node in level for child in node.children.values()]
    return level


def reference_substitute_strategy(subst, tree, head_length, tail_length):
    """``substitute_strategy`` with three hand-built block targets and a scan
    of every short play to the current depth at each block boundary."""
    n = len(strategy_choice_sequence(tree))
    head_target = _suffix_target(subst, tree.offer, head_length)
    block_choices = [winning_members(head_target)]
    for depth in range(1, n - 1):
        per_node = [
            winning_members(frozenset(subst.image(c) for c in node.offer))
            for node in _nodes_at_depth(tree, depth)
        ]
        block_choices.append(frozenset.intersection(*per_node))
    per_node = [
        winning_members(frozenset(subst.image(c)[:tail_length] for c in node.offer))
        for node in _nodes_at_depth(tree, n - 1)
    ]
    block_choices.append(frozenset.intersection(*per_node))
    results = []
    for blocks in product(*(sorted(choice) for choice in block_choices)):
        beta = sum(blocks, ())
        results.append(
            (beta, reference_substituted_tree(subst, tree, head_target, tail_length, blocks))
        )
    return sorted(results, key=lambda pair: pair[0])


def reference_substituted_tree(subst, short, head_target, tail_length, blocks):
    phases = len(blocks)

    def phase_target(phase, played):
        candidates = [
            prefix
            for prefix, _ in _paths_to_depth(short, phase)
            if subst.apply(prefix)[len(subst.apply(prefix)) - len(played):] == played
        ]
        if not candidates:
            raise InternalConsistencyError("no short play matches the built word")
        node = short
        for c in min(candidates):
            node = node.children[c]
        if phase < phases - 1:
            return frozenset(subst.image(c) for c in node.offer)
        return frozenset(subst.image(c)[:tail_length] for c in node.offer)

    def walk(phase, played, node):
        if node.is_leaf:
            if phase == phases - 1:
                return StrategyTree(())
            outcome = member(
                phase_target(phase + 1, played), blocks[phase + 1], alphabet_size=subst.size
            )
            assert outcome.win
            return walk(phase + 1, played, outcome.strategy)
        return StrategyTree(
            node.offer,
            {c: walk(phase, played + (c,), child) for c, child in node.children.items()},
        )

    first = member(head_target, blocks[0], alphabet_size=subst.size)
    assert first.win
    return walk(0, (), first.strategy)


def test_transport_matches_the_rescanning_reference(tm, ex42, gtm23, gtm33):
    # ex42's images end in 1, 0 and 1, so two short plays can match one head
    # word and the least one decides which offer the next block game sees
    pairs = 0
    for subst in (tm, ex42, gtm23, gtm33):
        M = subst.uniform_length
        for n in range(2, 6):
            X = language(subst, n).words
            for alpha in sorted(enumerate_irreducible(subst, n))[:6]:
                base = member(X, alpha, alphabet_size=subst.size).strategy
                for head in range(1, M + 1):
                    for tail in range(1, M + 1):
                        produced = substitute_strategy(subst, base, head, tail)
                        assert produced == reference_substitute_strategy(
                            subst, base, head, tail
                        ), (subst.images, alpha, head, tail)
                        pairs += len(produced)
    assert pairs > 2000


def test_transport_of_a_long_strategy_does_not_recurse_per_letter(tm):
    # 200 short rounds become 399 long ones, one tree level per letter
    alpha = (2,) + (1,) * 198 + (2,)
    base = member(language(tm, 200).words, alpha).strategy
    produced = substitute_strategy(tm, base, 2, 1)
    assert len(produced) == 4
    X = language(tm, 399).words
    irreducible = 0
    for beta, tree in produced:
        assert len(beta) == 399
        assert validate_strategy(tree, X)
        assert strategy_choice_sequence(tree) == beta
        if beta[-1] != 1:
            irreducible += 1
            back = desubstitute_strategy(tm, tree)
            assert strategy_choice_sequence(back) == (beta[0],) + beta[2::2]
            assert validate_strategy(back, language(tm, 200).words)
    assert irreducible == 2


def test_transport_solves_each_block_game_once(tm, monkeypatch):
    import winshift.shift as shift

    tree = member(language(tm, 200).words, (2,) + (1,) * 198 + (2,)).strategy
    for _ in range(3):
        beta, tree = next((b, t) for b, t in substitute_strategy(tm, tree, 2, 1) if b[-1] != 1)
    assert len(beta) == 1593
    calls = []

    def counted(X, alpha, alphabet_size=None):
        calls.append(alpha)
        return member(X, alpha, alphabet_size)

    monkeypatch.setattr(shift, "member", counted)
    produced = substitute_strategy(tm, tree, 2, 1)
    # one block game per (offer, first or last phase, block), not one per
    # long round: 3185 rounds ask at most 8
    assert 0 < len(calls) <= 8
    assert len(produced) == 2
    assert all(strategy_choice_sequence(t) == b for b, t in produced)


def reference_desubstitute_strategy(subst, tree):
    """``desubstitute_strategy`` as one recursive call per image block."""
    M = subst.uniform_length
    total = len(strategy_choice_sequence(tree))
    head = (total - 2) % M + 1
    by_last = {subst.image(a)[-1]: a for a in subst.letters}
    by_first = {subst.image(a)[0]: a for a in subst.letters}
    by_image = {subst.image(a): a for a in subst.letters}

    def desub(node, done):
        if done == total - 1:
            offer = tuple(sorted(by_first[c] for c in node.offer))
            return StrategyTree(offer, {a: StrategyTree(()) for a in offer})
        children = {}
        for c in node.offer:
            segment = [c]
            cursor = node.children[c]
            for _ in range(M - 1):
                (d,) = cursor.offer
                segment.append(d)
                cursor = cursor.children[d]
            children[by_image[tuple(segment)]] = desub(cursor, done + M)
        return StrategyTree(tuple(sorted(children)), children)

    heads = {by_last[played[-1]]: desub(node, head) for played, node in _paths_to_depth(tree, head)}
    return StrategyTree(tuple(sorted(heads)), heads)


def same_tree(a, b):
    """Equal offers and equal child key order at every node."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.offer != y.offer or list(x.children) != list(y.children):
            return False
        stack.extend(zip(x.children.values(), y.children.values()))
    return True


def test_desubstitution_matches_the_recursive_reference(tm, gtm23, gtm33):
    checked = 0
    for subst in (tm, gtm23, gtm33):
        M = subst.uniform_length
        delay = sync_delay(subst).delay
        for n in range(2, 6):
            X = language(subst, n).words
            for alpha in sorted(enumerate_irreducible(subst, n))[:6]:
                base = member(X, alpha, alphabet_size=subst.size).strategy
                for head in range(1, M + 1):
                    for beta, tree in substitute_strategy(subst, base, head, 1):
                        if beta[-1] == 1 or len(beta) <= delay:
                            continue
                        back = desubstitute_strategy(subst, tree)
                        assert same_tree(back, reference_desubstitute_strategy(subst, tree))
                        checked += 1
    assert checked == 228


def test_desubstitution_of_a_long_strategy_does_not_recurse_per_block(tm):
    # four transports of a 200-round strategy give 3185 rounds, one tree
    # level per letter; the tree is checked against the 1593-round one it
    # came from, not against language(tm, 3185)
    tree = member(language(tm, 200).words, (2,) + (1,) * 198 + (2,)).strategy
    for _ in range(4):
        short = tree
        beta, tree = next(
            (b, t) for b, t in substitute_strategy(tm, short, 2, 1) if b[-1] != 1
        )
    assert len(beta) == 3185
    back = desubstitute_strategy(tm, tree)
    assert strategy_choice_sequence(back) == (beta[0],) + beta[2::2]
    assert strategy_plays(back) == strategy_plays(short)
