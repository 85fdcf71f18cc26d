"""Substitutive structure of winning shifts of marked uniform substitutions.

Past the synchronization delay, every irreducible winning choice
sequence splits into a short head played on image suffixes, stretched
middle blocks played on whole images, and a final letter.  This module
enumerates winning shifts level by level from brute-forced base levels,
transports strategy trees forward (image substitution) and backward
(desubstitution), and checks the structural form of long sequences.

A length n is held as rows (g, j, first letters), one per irreducible
suffix u, sorted by u (see :class:`LevelData`, whose ``leads`` alone says
which first letters a row stands for), and every reader takes it from
:func:`irreducible_level`.  A brute level, read off
the solved game, has g = u.  Past the delay a level is the paper's
substitutive form over its base level of length (n - 2) // M + 2: u is a
winning head tail g of length h - 1 followed by the suffix of base row j,
stretched.  Sorting on (g, j) is sorting on u, because every g has the
same length and stretching keeps the order of equal-length sequences.  So
a level is built from its base in O(rows), stores no suffix longer than
M - 1 letters, and :func:`spell_suffixes` spells a whole chain of base
levels on demand, as tuples for the library or as text for the CLI.
Every head game is solved once per substitution.  Transport follows the
short plays consistent with the word built so far instead of rescanning
the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from operator import itemgetter

from .errors import InternalConsistencyError, PreconditionError
from .game import (
    StrategyTree,
    member,
    strategy_choice_sequence,
    strategy_plays,
    suffix_first_letters,
    winning_members,
)
from .recognizability import decomposition, sync_delay
from .substitution import Substitution, is_factor, language
from .words import ChoiceSequence, Word, is_irreducible, stretch


@dataclass(frozen=True)
class ExtensionPlan:
    """How a target length decomposes: target = head + (base - 2) * M + 1.

    The head length lies in 1..M and is congruent to target - 1 mod M;
    the base length is the largest compatible shorter level.
    """

    target_length: int
    head_length: int
    base_length: int


def extension_plan(target_length: int, block_length: int) -> ExtensionPlan:
    if target_length < 2:
        raise PreconditionError("extension plans start at length 2")
    if block_length < 2:
        raise PreconditionError("block length must be >= 2")
    head = (target_length - 2) % block_length + 1
    base = (target_length - 1 - head) // block_length + 2
    return ExtensionPlan(target_length, head, base)


@dataclass(frozen=True, eq=False)
class LevelData:
    """The irreducible winning sequences of one length n, as rows over a base level.

    Each row ``(g, j, first_letters)`` stands for one irreducible suffix u
    of length n - 1.  A brute level has no ``base``: g is u itself and j
    is None.  A substitutive level keeps the paper's form
    u = g + stretch(v[:-1], M) + (v[-1],), where v is the suffix of row j
    of ``base`` (the level of length (n - 2) // M + 2, with M the
    ``block_length``) and g is a winning head tail of length h - 1, h the
    head length of :func:`extension_plan`.  So a level costs O(rows)
    memory whatever n is, and :func:`spell_suffixes` spells it on demand.

    The first letters are the letters c, ascending, whose quotient game
    after c wins u, which every winning strategy for k.u must open with.
    Their number k is the largest first letter with k.u winning, and the
    sequences of the level are t.u for t in :meth:`leads`: 1 <= t <= k,
    save at length 1.

    Rows are sorted by suffix.  On a substitutive level that is the order
    of (g, j): every g has the same length h - 1, the base rows are sorted
    by suffix, and stretching keeps the order of equal-length sequences
    (the first difference of v and v' moves to the same place in both).
    """

    n: int
    rows: tuple[tuple[ChoiceSequence, int | None, tuple[int, ...]], ...]
    base: LevelData | None = None
    block_length: int | None = None

    @property
    def source(self) -> str:
        return "brute" if self.base is None else "substitutive"

    @property
    def entries(self) -> dict[ChoiceSequence, tuple[int, ...]]:
        """Suffix -> first letters, spelled afresh on every access."""
        suffixes = spell_suffixes(self, tuple, _stretch)
        return dict(zip(suffixes, (letters for _, _, letters in self.rows)))

    def leads(self, letters: tuple[int, ...]) -> range:
        """The first letters t of the sequences t.u of the row whose first
        letters are ``letters``: 1..k with k = len(letters), except at length
        1, where the first letter is also the last, so 1 is reducible."""
        return range(1 if self.n > 1 else 2, len(letters) + 1)


def spell_suffixes(level: LevelData, spell, stretch, spelled: dict | None = None) -> list:
    """The suffixes of ``level``'s rows, in row order.

    ``spell(g)`` spells a tuple of letters (a head tail, or a whole suffix
    of a brute level) and ``stretch(v, M)`` spells stretch(u[:-1], M) +
    (u[-1],) from the spelling v of u; spellings join with ``+``.  Each
    base suffix is stretched once, however many rows share it (every base
    row has one at least: the head tail of ones always wins).
    ``spelled`` maps levels to their spelled suffixes and gains every
    level spelled here, so a caller spelling many lengths spells each base
    level once.
    """
    if spelled is None:
        spelled = {}
    if level not in spelled:
        if level.base is None:
            spelled[level] = [spell(g) for g, _, _ in level.rows]
        else:
            below = spell_suffixes(level.base, spell, stretch, spelled)
            tails = [stretch(v, level.block_length) for v in below]
            spelled[level] = [spell(g) + tails[j] for g, j, _ in level.rows]
    return spelled[level]


def _stretch(u: ChoiceSequence, M: int) -> ChoiceSequence:
    return stretch(u[:-1], M) + u[-1:]


def _delay(subst: Substitution) -> int:
    return sync_delay(subst).delay


def _suffix_target(subst: Substitution, first_letters, head: int) -> frozenset[Word]:
    return frozenset(subst.image(c)[len(subst.image(c)) - head:] for c in first_letters)


@lru_cache(maxsize=None)
def _head_groups(
    subst: Substitution, first_letters, head: int
) -> dict[ChoiceSequence, tuple[int, ...]]:
    """``suffix_first_letters`` of the head game on the image suffixes of
    ``first_letters``: solved once per key (at most 2^s * M keys per
    substitution), so callers must not mutate the result."""
    return suffix_first_letters(_suffix_target(subst, first_letters, head))


@lru_cache(maxsize=None)
def _level(subst: Substitution, n: int) -> LevelData:
    # length 2 is its own extension base, so it must be solved directly
    if n <= max(_delay(subst), 2):
        return _brute_level(subst, n)
    plan = extension_plan(n, subst.uniform_length)
    return _extended(subst, _level(subst, plan.base_length), plan.head_length)


def _brute_level(subst: Substitution, n: int) -> LevelData:
    """The irreducible winning sequences of length ``n`` read off the solved
    game: a row's sequences end with its suffix, so the suffix ends above 1,
    save the empty suffix of length 1, whose reducible lead is dropped by
    :meth:`LevelData.leads`."""
    groups = suffix_first_letters(language(subst, n).words)
    rows = tuple(
        (suffix, None, letters)
        for suffix, letters in sorted(groups.items())
        if not suffix or suffix[-1] > 1
    )
    return LevelData(n, rows)


def _extended(subst: Substitution, base: LevelData, head: int) -> LevelData:
    """The level of length head + (base.n - 2) * M + 1: every winning head
    tail g of a base row's first letters, over that row, in (g, j) order."""
    by_head: dict[ChoiceSequence, list] = {}
    for j, (_, _, first_letters) in enumerate(base.rows):
        for g, letters in _head_groups(subst, first_letters, head).items():
            by_head.setdefault(g, []).append((g, j, letters))
    M = subst.uniform_length
    rows = tuple(chain.from_iterable(by_head[g] for g in sorted(by_head)))
    return LevelData(head + (base.n - 2) * M + 1, rows, base, M)


def irreducible_level(subst: Substitution, n: int, method: str = "auto") -> LevelData:
    """The rows of the irreducible winning sequences of length ``n``.

    ``brute`` solves the game on the full factor language; it works for
    any primitive substitution at desk scale.  ``substitutive`` builds
    levels past the synchronization delay by the head/block extension
    and falls back to brute force on the base window.  ``auto`` picks
    the extension whenever it applies.  ``brute``, length 1 and input
    that is not uniform and marked get a fresh brute level.  Every other
    length is the cached level of ``_level``, which owns the delay
    threshold and solves the lengths up to the delay by brute force itself.
    """
    if n < 1:
        raise PreconditionError("length must be >= 1")
    if method not in ("auto", "brute", "substitutive"):
        raise PreconditionError(f"unknown method {method!r}")
    if method == "substitutive":
        subst.require("substitutive enumeration", "uniform", "marked")
    if method == "brute" or n < 2 or not (subst.uniform and subst.marked):
        return _brute_level(subst, n)
    return _level(subst, n)


def enumerate_irreducible(
    subst: Substitution, n: int, method: str = "auto"
) -> frozenset[ChoiceSequence]:
    """All irreducible winning choice sequences of length ``n``, on the path
    ``method`` picks as in :func:`irreducible_level`."""
    level = irreducible_level(subst, n, method)
    return frozenset(
        (t,) + suffix for suffix, letters in level.entries.items() for t in level.leads(letters)
    )


def irreducible_groups(
    subst: Substitution, n: int, method: str = "auto"
) -> dict[ChoiceSequence, int]:
    """The irreducible winning sequences of length ``n`` grouped by suffix.

    Maps each suffix u to the largest first letter k with k.u winning; the
    group is every t.u with t in :meth:`LevelData.leads`, which is exact
    because winning sets are downward closed.  ``method`` picks the path as
    in :func:`irreducible_level`.
    """
    entries = irreducible_level(subst, n, method).entries
    return {suffix: len(letters) for suffix, letters in entries.items()}


def _long_irreducible(subst: Substitution, alpha, what: str) -> ChoiceSequence:
    """``alpha`` as a tuple, once it is irreducible and longer than the delay
    of a uniform left-marked substitution."""
    subst.require(what, "uniform", "left_marked")
    alpha = tuple(alpha)
    if not is_irreducible(alpha):
        raise PreconditionError("choice sequence must be irreducible")
    delay = _delay(subst)
    if len(alpha) <= delay:
        raise PreconditionError(f"{what} needs length > the delay {delay}")
    return alpha


def choice_decomposition(subst: Substitution, alpha, verify: bool = False) -> int:
    """Image-boundary residue shared by every winning play of ``alpha``.

    For a left-marked substitution the final branching of any winning
    strategy marks a synchronization point, so the residue is forced by
    the length alone.  With ``verify`` the game is solved and every play
    of the extracted strategy is checked against the residue.
    """
    alpha = _long_irreducible(subst, alpha, "choice-sequence decomposition")
    residue = (len(alpha) - 1) % subst.uniform_length
    if verify:
        target = language(subst, len(alpha)).words
        outcome = member(target, alpha, alphabet_size=subst.size)
        if not outcome.win:
            raise PreconditionError("choice sequence is not in the winning shift")
        for play in strategy_plays(outcome.strategy):
            if decomposition(subst, play) != residue:
                raise InternalConsistencyError(
                    "winning play decomposition disagrees with the predicted residue"
                )
    return residue


def verify_form(subst: Substitution, alpha) -> bool:
    """Check the stretched shape of a long irreducible sequence.

    After dropping the head and the final letter, letters above 1 may
    only sit at block starts, i.e. the remainder is a stretched word.
    """
    alpha = _long_irreducible(subst, alpha, "form check")
    M = subst.uniform_length
    head = (len(alpha) - 1) % M
    body = alpha[head:len(alpha) - 1]
    if len(body) % M:
        raise InternalConsistencyError("body length must be a block multiple")
    return all(x == 1 for p, x in enumerate(body) if p % M)


def _paths_to_depth(tree: StrategyTree, depth: int) -> list[tuple[Word, StrategyTree]]:
    level: list[tuple[Word, StrategyTree]] = [((), tree)]
    for _ in range(depth):
        level = [
            (prefix + (c,), child)
            for prefix, node in level
            for c, child in node.children.items()
        ]
    return level


def substitute_strategy(
    subst: Substitution, tree: StrategyTree, head_length: int, tail_length: int
) -> list[tuple[ChoiceSequence, StrategyTree]]:
    """Transport a winning strategy through the substitution.

    The long game plays image suffixes of length ``head_length`` first,
    whole images for every middle round of the short strategy, and image
    prefixes of length ``tail_length`` last.  Every combination of
    winning block sequences yields a winning long sequence together with
    a branch-preserving strategy for it.
    """
    M = subst.require("strategy substitution", "uniform")
    if not 1 <= head_length <= M or not 1 <= tail_length <= M:
        raise PreconditionError(f"head and tail lengths must lie in 1..{M}")
    n = len(strategy_choice_sequence(tree))
    if n < 2:
        raise PreconditionError("base strategy must have at least two rounds")
    if not all(is_factor(subst, play) for play in strategy_plays(tree)):
        raise PreconditionError("base strategy is not winning for the factor language")

    def target(offer, depth: int) -> frozenset[Word]:
        low = M - head_length if depth == 0 else 0
        high = tail_length if depth == n - 1 else M
        return frozenset(subst.image(c)[low:high] for c in offer)

    # a block sequence must win the block game of every node at its depth
    block_choices: list[frozenset[ChoiceSequence]] = []
    level = [tree]
    for depth in range(n):
        offers = {node.offer for node in level}
        block_choices.append(
            frozenset.intersection(*(winning_members(target(o, depth)) for o in offers))
        )
        level = [child for node in level for child in node.children.values()]
    # blocks at one depth share a length, so the product comes out sorted by beta
    return [
        (tuple(chain.from_iterable(blocks)), _substituted_tree(subst, tree, target, blocks))
        for blocks in product(*(sorted(choice) for choice in block_choices))
    ]


def _substituted_tree(subst: Substitution, short: StrategyTree, target, blocks) -> StrategyTree:
    # Phase r plays the block game of a short node at depth r.  ``plays``
    # holds the short plays of length r whose images end with the word built
    # before phase r; at a block boundary they grow by the children whose
    # image ends with the finished block, and the least one names the next
    # node, which keeps output canonical.
    M = subst.uniform_length
    last = len(blocks) - 1
    # a block game depends on the offer, whether the phase is first or last,
    # and the block, so each is solved once per transport (trees are only read)
    strategies: dict[tuple, StrategyTree] = {}

    def block_strategy(phase: int, node: StrategyTree) -> StrategyTree:
        key = (node.offer, phase == 0, phase == last, blocks[phase])
        if key not in strategies:
            outcome = member(target(node.offer, phase), blocks[phase], alphabet_size=subst.size)
            if not outcome.win:
                raise InternalConsistencyError("block sequence lost a block game")
            strategies[key] = outcome.strategy
        return strategies[key]

    def settle(phase: int, plays, block: Word, node: StrategyTree):
        # cross finished blocks up to the next branching node, or None at the end
        while node.is_leaf:
            if phase == last:
                return None
            plays = [
                (play + (c,), child)
                for play, short_node in plays
                for c, child in short_node.children.items()
                if subst.image(c)[M - len(block):] == block
            ]
            if not plays:
                raise InternalConsistencyError("no short play matches the built word")
            _, next_node = min(plays, key=itemgetter(0))
            phase, block, node = phase + 1, (), block_strategy(phase + 1, next_node)
        return phase, plays, block, node

    # post-order on an explicit stack: one long round per letter is too deep
    # to recurse; a node is built once its children are
    built: list[StrategyTree] = []
    stack = [(settle(0, [((), short)], (), block_strategy(0, short)), False)]
    while stack:
        frame, ready = stack.pop()
        if frame is None:
            built.append(StrategyTree(()))
            continue
        phase, plays, block, node = frame
        if ready:
            children = built[len(built) - len(node.children):]
            del built[len(built) - len(node.children):]
            built.append(StrategyTree(node.offer, dict(zip(node.children, children))))
            continue
        stack.append((frame, True))
        stack.extend(
            (settle(phase, plays, block + (c,), child), False)
            for c, child in reversed(node.children.items())
        )
    return built[0]


def desubstitute_strategy(subst: Substitution, tree: StrategyTree) -> StrategyTree:
    """Invert the forward substitution on a winning strategy.

    The head rounds contract to a single choice (last image letters are
    distinct), middle blocks desubstitute through exact image lookup,
    and the final letters map through the first-letter permutation.
    """
    M = subst.require("strategy desubstitution", "uniform", "marked")
    seq = strategy_choice_sequence(tree)
    total = len(seq)
    if not seq or seq[-1] == 1:
        raise PreconditionError("strategy must realize an irreducible choice sequence")
    delay = _delay(subst)
    if total <= delay:
        raise PreconditionError(f"nothing to desubstitute at or below length {delay}")
    head = extension_plan(total, M).head_length
    by_last = {subst.image(a)[-1]: a for a in subst.letters}
    by_first = {subst.image(a)[0]: a for a in subst.letters}
    by_image = {subst.image(a): a for a in subst.letters}

    # nodes are filled top-down from a stack, like game._strategy: a long
    # game is one tree level per letter, too deep to recurse
    root = StrategyTree(())
    stack: list[tuple[StrategyTree, StrategyTree, int]] = []
    for played, node in _paths_to_depth(tree, head):
        a = by_last.get(played[-1])
        if a is None or subst.image(a)[M - head:] != played:
            raise InternalConsistencyError("head play is not an image suffix")
        root.children[a] = StrategyTree(())
        stack.append((root.children[a], node, head))
    root.offer = tuple(sorted(root.children))
    while stack:
        out, node, done = stack.pop()
        if done == total - 1:
            for child in node.children.values():
                if not child.is_leaf:
                    raise InternalConsistencyError("final round must end the strategy")
            out.offer = tuple(sorted(by_first[c] for c in node.offer))
            out.children = {a: StrategyTree(()) for a in out.offer}
            continue
        for c in node.offer:
            segment = [c]
            cursor = node.children[c]
            for _ in range(M - 1):
                if len(cursor.offer) != 1:
                    raise InternalConsistencyError("branch inside an image block")
                (d,) = cursor.offer
                segment.append(d)
                cursor = cursor.children[d]
            letter = by_image.get(tuple(segment))
            if letter is None:
                raise InternalConsistencyError("block segment is not an image")
            out.children[letter] = StrategyTree(())
            stack.append((out.children[letter], cursor, done + M))
        out.offer = tuple(sorted(out.children))
    return root
