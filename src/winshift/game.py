"""Finite word games solved exactly by backward induction.

A game is given by a target set of equal-length words and a choice
sequence over ``1..|S|``: each round Alice offers a subset of the stated
size and Bob picks a letter from it; Alice wins when the built word lands
in the target.  ``winning_set`` computes the full downward closed set of
winning choice sequences; ``member`` produces a strategy tree or a
refutation, both replayable certificates.

The solver works on the minimal acyclic automaton of the target (Revuz
1992; Daciuk et al. 2000), built once per target: its states are exactly
the distinct left quotients ("what is still needed after a prefix"), so
the winning set of each quotient is computed once, bottom-up by remaining
length, and strategies and refutations walk the one transition table.
Quotients of subshift languages collapse onto follower sets, so the
automaton stays small.  Maximal winning sequences are found by testing
one-letter raises, which is exact for a downward closed set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .errors import InternalConsistencyError, PreconditionError
from .words import ChoiceSequence, Word, le


def _as_target(X) -> frozenset[Word]:
    target = frozenset(tuple(w) for w in X)
    if len({len(w) for w in target}) > 1:
        raise PreconditionError("target words must share a single length")
    return target


def _target_length(target: frozenset[Word]) -> int:
    return len(next(iter(target))) if target else 0


def _infer_alphabet(target: frozenset[Word], alphabet_size: int | None) -> int:
    if alphabet_size is not None:
        if alphabet_size < 1:
            raise PreconditionError("alphabet size must be >= 1")
        return alphabet_size
    return max((a for w in target for a in w), default=0) + 1


def residual(X, c: int) -> frozenset[Word]:
    """Left quotient of the target by one letter: words w with c.w in X."""
    return frozenset(w[1:] for w in _as_target(X) if w and w[0] == c)


_DEAD, _ACCEPT = 0, 1


@dataclass(frozen=True)
class _Automaton:
    """Minimal acyclic DFA of a target, with the winning set of every state.

    State 0 is the empty quotient (no letter leads anywhere) and state 1
    the quotient {()}; every other state is one distinct nonempty left
    quotient.  Ids grow bottom-up, so a state's children have smaller ids.
    ``delta[q]`` maps letters to children in ascending letter order.
    """

    root: int
    delta: tuple[dict[int, int], ...]
    wins: tuple[frozenset[ChoiceSequence], ...]

    def child(self, state: int, c: int) -> int:
        return self.delta[state].get(c, _DEAD)


@lru_cache(maxsize=None)
def _automaton(target: frozenset[Word]) -> _Automaton:
    delta: list[dict[int, int]] = [{}, {}]
    wins: list[frozenset[ChoiceSequence]] = [frozenset(), frozenset({()})]
    if not target:
        return _Automaton(_DEAD, tuple(delta), tuple(wins))
    # Minimise the trie of the target bottom-up: ``level`` maps the
    # prefixes of one length to their states.  A state's signature is its
    # sorted (letter, child) pairs, and two prefixes have the same quotient
    # iff their signatures agree; the empty signature is the accepting state.
    register: dict[tuple[tuple[int, int], ...], int] = {}
    level: dict[Word, int] = dict.fromkeys(target, _ACCEPT)
    for _ in range(_target_length(target)):
        edges: dict[Word, list[tuple[int, int]]] = {}
        for prefix, state in level.items():
            edges.setdefault(prefix[:-1], []).append((prefix[-1], state))
        level = {}
        for prefix, pairs in edges.items():
            signature = tuple(sorted(pairs))
            state = register.get(signature)
            if state is None:
                state = register[signature] = len(delta)
                delta.append(dict(signature))
                # Backward induction: k.b wins iff b wins the quotient game
                # for at least k distinct first letters.
                counts = Counter(beta for _, q in signature for beta in wins[q])
                wins.append(
                    frozenset((t,) + beta for beta, k in counts.items() for t in range(1, k + 1))
                )
            level[prefix] = state
    return _Automaton(level[()], tuple(delta), tuple(wins))


def _members(target: frozenset[Word]) -> frozenset[ChoiceSequence]:
    automaton = _automaton(target)
    return automaton.wins[automaton.root]


def winning_members(X) -> frozenset[ChoiceSequence]:
    """The winning set of ``X`` as an explicit set of choice sequences."""
    return _members(_as_target(X))


@dataclass(frozen=True)
class WinningSet:
    """A winning set stored as the antichain of its maximal elements.

    Downward closure makes the antichain canonical: a sequence is a
    member iff it is letterwise below some maximal element.  The full
    expansion is materialized only for short games.
    """

    n: int
    maximal: tuple[ChoiceSequence, ...]
    expansion: frozenset[ChoiceSequence] | None

    def __contains__(self, alpha) -> bool:
        alpha = tuple(alpha)
        return any(le(alpha, m) for m in self.maximal)


def winning_set(X, expansion_threshold: int = 16) -> WinningSet:
    """Exact winning set of a target of equal-length words."""
    target = _as_target(X)
    if not target:
        return WinningSet(0, (), frozenset())
    n = _target_length(target)
    members = _members(target)
    if len(members) != len(target):
        raise InternalConsistencyError(
            f"winning set size {len(members)} differs from target size {len(target)}"
        )
    maximal = _antichain(members)
    expansion = members if n <= expansion_threshold else None
    return WinningSet(n, maximal, expansion)


def _antichain(members: frozenset[ChoiceSequence]) -> tuple[ChoiceSequence, ...]:
    # members is downward closed: if a < b for a member b, raising a by one
    # at a position where it lies below b stays <= b, so that raise is a
    # member.  Hence a is maximal iff none of its one-letter raises is.
    return tuple(
        sorted(
            a
            for a in members
            if not any(a[:i] + (a[i] + 1,) + a[i + 1:] in members for i in range(len(a)))
        )
    )


def winning_set_cardinality(X) -> int:
    """Size of the winning set; always equals the target size."""
    target = _as_target(X)
    size = len(_members(target))
    if size != len(target):
        raise InternalConsistencyError(
            f"winning set size {size} differs from target size {len(target)}"
        )
    return size


def max_first_choice(X, u, alphabet_size: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Largest k with k.u winning, and the set A of first letters realizing it.

    A letter c belongs to A when ``u`` wins the quotient game after c; a
    zero count just means no first letter works for this suffix.
    """
    target = _as_target(X)
    u = tuple(u)
    if target and len(u) != _target_length(target) - 1:
        raise PreconditionError("suffix must be one letter shorter than the target words")
    size = _infer_alphabet(target, alphabet_size)
    automaton = _automaton(target)
    winners = tuple(
        c for c in range(size) if u in automaton.wins[automaton.child(automaton.root, c)]
    )
    return len(winners), winners


@dataclass
class StrategyTree:
    """One node of Alice's strategy: the offered subset and a child per letter.

    Leaves carry an empty offer.  Root-to-leaf letter paths are exactly
    the plays Alice can be forced through.
    """

    offer: tuple[int, ...]
    children: dict[int, "StrategyTree"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.offer


@dataclass
class Refutation:
    """Bob's answer table: for every subset Alice may offer, his pick and the continuation."""

    responses: dict[tuple[int, ...], tuple[int, "Refutation"]] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.responses


@dataclass(frozen=True)
class MemberResult:
    """Outcome of a membership query: exactly one certificate is set."""

    win: bool
    strategy: StrategyTree | None = None
    refutation: Refutation | None = None


def member(X, alpha, alphabet_size: int | None = None) -> MemberResult:
    """Decide whether Alice wins with ``alpha`` and certify the answer."""
    target = _as_target(X)
    alpha = tuple(alpha)
    size = _infer_alphabet(target, alphabet_size)
    if target and len(alpha) != _target_length(target):
        raise PreconditionError("choice sequence length must match the target word length")
    for k in alpha:
        if not 1 <= k <= size:
            raise PreconditionError(f"choice letter {k} outside 1..{size}")
    automaton = _automaton(target)
    if alpha in automaton.wins[automaton.root]:
        return MemberResult(True, strategy=_strategy(automaton, alpha))
    return MemberResult(False, refutation=_refutation(automaton, alpha, size))


def _strategy(automaton: _Automaton, alpha: ChoiceSequence) -> StrategyTree:
    # Deterministic extraction: offer the lexicographically least subset
    # of letters whose quotient game stays winning.  Nodes are filled from
    # a stack, so long games do not recurse.
    rests = [alpha[i + 1:] for i in range(len(alpha))]
    root = StrategyTree(())
    stack = [(root, automaton.root, 0)]
    while stack:
        node, state, i = stack.pop()
        if i == len(alpha):
            continue
        offer: list[tuple[int, int]] = []
        for c, child in automaton.delta[state].items():
            if rests[i] in automaton.wins[child]:
                offer.append((c, child))
                if len(offer) == alpha[i]:
                    break
        if len(offer) < alpha[i]:
            raise InternalConsistencyError("strategy extraction on a losing sequence")
        node.offer = tuple(c for c, _ in offer)
        for c, child in offer:
            node.children[c] = StrategyTree(())
            stack.append((node.children[c], child, i + 1))
    return root


def _refutation(automaton: _Automaton, alpha: ChoiceSequence, size: int) -> Refutation:
    # Bob answers each offer with its first letter whose quotient game loses
    # the rest.  Nodes are shared per (state, round): the round fixes the
    # rest of alpha, so this is the memo on (quotient, rest of alpha).
    rests = [alpha[i + 1:] for i in range(len(alpha))]
    memo: dict[tuple[int, int], Refutation] = {}
    pending: list[tuple[Refutation, int, int]] = []

    def node_for(state: int, i: int) -> Refutation:
        node = memo.get((state, i))
        if node is None:
            node = memo[state, i] = Refutation({})
            pending.append((node, state, i))
        return node

    root = node_for(automaton.root, 0)
    while pending:
        node, state, i = pending.pop()
        if i == len(alpha):
            if state != _DEAD:
                raise InternalConsistencyError("refutation requested for a won empty game")
            continue
        for offered in combinations(range(size), alpha[i]):
            for c in offered:
                child = automaton.child(state, c)
                if rests[i] not in automaton.wins[child]:
                    node.responses[offered] = (c, node_for(child, i + 1))
                    break
            else:
                raise InternalConsistencyError("refutation requested for a winning sequence")
    return root


def strategy_plays(tree: StrategyTree) -> frozenset[Word]:
    """All words Bob can steer the play into under this strategy."""
    out: list[Word] = []
    stack: list[tuple[Word, StrategyTree]] = [((), tree)]
    while stack:
        prefix, node = stack.pop()
        if node.is_leaf:
            out.append(prefix)
            continue
        for c, child in node.children.items():
            stack.append((prefix + (c,), child))
    return frozenset(out)


def strategy_choice_sequence(tree: StrategyTree) -> ChoiceSequence:
    """The choice sequence a strategy realizes; offer sizes must agree per round."""
    seq: list[int] = []
    level = [tree]
    while True:
        leaves = [node for node in level if node.is_leaf]
        if leaves:
            if len(leaves) != len(level):
                raise InternalConsistencyError("strategy tree with ragged depth")
            return tuple(seq)
        sizes = {len(node.offer) for node in level}
        if len(sizes) != 1:
            raise InternalConsistencyError("strategy tree with uneven offers in one round")
        seq.append(sizes.pop())
        level = [child for node in level for child in node.children.values()]


def branch_rounds(tree: StrategyTree) -> tuple[int, ...]:
    """Rounds, 0-indexed, at which the strategy actually branches."""
    seq = strategy_choice_sequence(tree)
    return tuple(i for i, k in enumerate(seq) if k > 1)


def branch_profile(tree: StrategyTree):
    """Branch skeleton as nested arities; letter identities are ignored."""
    if tree.is_leaf:
        return ()
    return (
        len(tree.offer),
        tuple(sorted(branch_profile(child) for child in tree.children.values())),
    )


def validate_strategy(tree: StrategyTree, X) -> bool:
    """Check structural sanity and replay every play against the target."""
    target = _as_target(X)
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if set(node.children) != set(node.offer):
            return False
        stack.extend(node.children.values())
    strategy_choice_sequence(tree)
    return strategy_plays(tree) <= target


def refutation_plays(ref: Refutation) -> frozenset[Word]:
    """All words reachable when Bob follows the refutation; may be large."""
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
