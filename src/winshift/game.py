"""Finite word games solved exactly by backward induction.

A game is given by a target set of equal-length words and a choice
sequence over ``1..|S|``: each round Alice offers a subset of the stated
size and Bob picks a letter from it; Alice wins when the built word lands
in the target.  ``winning_set`` computes the full downward closed set of
winning choice sequences; ``member`` produces a strategy tree or a
refutation, both replayable certificates.

The solver works on the minimal acyclic automaton of the target (Revuz
1992; Daciuk et al. 2000), built once per target and kept for the 32 most
recently used targets: its states are exactly
the distinct left quotients ("what is still needed after a prefix"), so
the winning set of each quotient is computed once, bottom-up by remaining
length, and strategies and refutations walk the one transition table.
Quotients of subshift languages collapse onto follower sets, so the
automaton stays small.  The automaton is built from the trie of the sorted
target, level by level, and winning sets are sets of hash-consed integer
ids of choice sequences: the pair (letter t, id j of the rest) is the int
``j * base + t``, so no step copies or hashes a whole sequence, and the
pair index is an int-to-int dict that the cyclic collector never scans.  A
state costs time in proportion to its children's winning sets, whatever the
word length; states with equal winning sets share one frozenset.  Maximal
winning sequences are found on the same ids: a member is maximal iff none
of its one-letter raises wins, which is exact for a downward closed set, and
the raises of t.j are (t+1).j and t.r for each raise r of j, so one sweep in
id order finds every id's raises without spelling a sequence.  Certificates
are slotted dataclasses, and a refutation builds each (letter, continuation)
answer once and shares it among every offer and node that gives it.

In a refutation Bob answers an offer with a dead letter, one with no
transition from the current state, whenever the offer holds one, and else
with the first letter whose quotient game loses the rest.  This is sound:
after a dead letter the quotient is empty and wins nothing, so the play ends
outside the target whatever follows.  The play then stays in the one dead
node of each later round, so Bob opens new nodes in the language only where
every offered letter keeps him there.

The builders (automaton, strategy, refutation, maximal sequences) run with
the cyclic garbage collector paused.  They allocate one container per state
or node and form no reference cycle, so reference counting frees all of
it; left on, the collector would rescan these live containers again and
again while they are built.  The caller's setting is restored on return;
the switch is process-wide, so a thread that flips it while a builder runs
may find it reset when the builder returns.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import cmp_to_key, lru_cache, wraps
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


def _infer_alphabet(letters: frozenset[int], alphabet_size: int | None) -> int:
    """The alphabet size: the given one, which must hold every target letter,
    else one more than the largest target letter."""
    if alphabet_size is None:
        return max(letters, default=0) + 1
    if alphabet_size < 1:
        raise PreconditionError("alphabet size must be >= 1")
    for a in sorted(letters):
        if not 0 <= a < alphabet_size:
            raise PreconditionError(f"target letter {a} outside 0..{alphabet_size - 1}")
    return alphabet_size


def residual(X, c: int) -> frozenset[Word]:
    """Left quotient of the target by one letter: words w with c.w in X."""
    return frozenset(w[1:] for w in _as_target(X) if w and w[0] == c)


_DEAD, _ACCEPT = 0, 1
# The id of a choice sequence that no state wins: no winning set holds it,
# and no interned pair has it as a tail.
_ABSENT = -1


@dataclass(frozen=True)
class _Automaton:
    """Minimal acyclic DFA of a target, with the winning set of every state.

    State 0 is the empty quotient (no letter leads anywhere) and state 1
    the quotient {()}; every other state is one distinct nonempty left
    quotient.  Ids grow bottom-up, so a state's children have smaller ids.
    ``delta[q]`` is the signature of q: its (letter, child) pairs in
    ascending letter order.  ``letters`` are the letters of the target.

    Winning sets hold hash-consed choice sequences: id 0 is ``()`` and the
    sequence t.j (the letter t followed by sequence j) is keyed by the int
    ``j * base + t``.  ``base`` is one more than the number of target
    letters, which bounds every choice letter a state can win with, so only
    keys with ``0 < t < base`` are ever interned and the key is one-to-one.
    ``ids`` maps each key to its id and ``cons[i]`` is the key of id i.
    Equal sequences get one id in every state, so ``wins[q]`` is a set of
    ints, and a sequence is tested by interning its suffixes once.  States
    with equal winning sets share one frozenset.
    """

    root: int
    delta: tuple[tuple[tuple[int, int], ...], ...]
    wins: tuple[frozenset[int], ...]
    letters: frozenset[int]
    base: int
    cons: list[int]
    ids: dict[int, int]

    def suffix_ids(self, seq: ChoiceSequence) -> list[int]:
        """Ids of ``seq[i:]`` for i = 0..len(seq); ``_ABSENT`` where no state wins it."""
        get, base, j, out = self.ids.get, self.base, 0, [0]
        for t in reversed(seq):
            # outside 0 < t < base the key would alias another pair's
            j = get(j * base + t, _ABSENT) if 0 < t < base else _ABSENT
            out.append(j)
        out.reverse()
        return out

    def spell(self, i: int) -> ChoiceSequence:
        cons, base, letters = self.cons, self.base, []
        while i:
            i, t = divmod(cons[i], base)
            letters.append(t)
        return tuple(letters)


def _collector_paused(build):
    """Run ``build`` with the cyclic collector off, then leave it as the caller had it.

    Only for builders that form no reference cycle (see the module docstring).
    """

    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _common_prefix(u: Word, v: Word) -> int:
    k = 0
    while u[k] == v[k]:
        k += 1
    return k


# perfbench passes look up 26 targets (367 calls) or 40 (46 calls); 32 misses as often as no bound
@lru_cache(maxsize=32)
@_collector_paused
def _automaton(target: frozenset[Word]) -> _Automaton:
    letters = frozenset().union(*target)
    base = len(letters) + 1
    delta: list[tuple[tuple[int, int], ...]] = [(), ()]
    wins: list[frozenset[int]] = [frozenset(), frozenset({0})]
    # equal winning sets, of any states, become one object
    interned: dict[frozenset[int], frozenset[int]] = {w: w for w in wins}
    # Key j * base + t gets the next free id; ids are never reused, so
    # ``cons`` is the keys of ``ids`` in insertion order after the 0 of ().
    ids: dict[int, int] = {}
    register: dict[tuple[tuple[int, int], ...], int] = {(): _ACCEPT}

    def state_of(signature: tuple[tuple[int, int], ...]) -> int:
        # Two trie nodes have the same quotient iff their (letter, child)
        # pairs agree; the empty signature is the accepting state.
        state = register.get(signature)
        if state is None:
            state = register[signature] = len(delta)
            delta.append(signature)
            # Backward induction: k.b wins iff b wins the quotient game for
            # at least k distinct first letters; k <= len(signature) < base.
            if len(signature) == 1:
                won = [ids.setdefault(beta * base + 1, len(ids) + 1) for beta in wins[signature[0][1]]]
            else:
                counts: dict[int, int] = {}
                for _, q in signature:
                    for beta in wins[q]:
                        counts[beta] = counts.get(beta, 0) + 1
                won = [
                    ids.setdefault(key, len(ids) + 1)
                    for beta, k in counts.items()
                    for key in range(beta * base + 1, beta * base + k + 1)
                ]
            won_set = frozenset(won)
            wins.append(interned.setdefault(won_set, won_set))
        return state

    # Minimise the trie of the sorted target bottom-up by depth.  Its nodes
    # at depth d are the runs of words sharing a prefix of length d, named
    # by their first word; the run at depth d + 1 starting at word i opens a
    # new run at depth d iff words i - 1 and i share fewer than d letters.
    # Runs come in ascending order, so every signature is already sorted.
    words = sorted(target)
    common = [-1] + [_common_prefix(u, v) for u, v in zip(words, words[1:])]
    starts = list(range(len(words)))
    states = [_ACCEPT] * len(words)
    for d in reversed(range(_target_length(target))):
        pairs = [(words[i][d], state) for i, state in zip(starts, states)]
        cuts = [k for k, i in enumerate(starts) if common[i] < d]
        starts = [starts[k] for k in cuts]
        cuts.append(len(pairs))
        states = [state_of(tuple(pairs[a:b])) for a, b in zip(cuts, cuts[1:])]
    root = states[0] if states else _DEAD
    return _Automaton(root, tuple(delta), tuple(wins), letters, base, [0, *ids], ids)


def winning_members(X) -> frozenset[ChoiceSequence]:
    """The winning set of ``X`` as an explicit set of choice sequences."""
    automaton = _automaton(_as_target(X))
    return frozenset(map(automaton.spell, automaton.wins[automaton.root]))


@dataclass(frozen=True)
class WinningSet:
    """A winning set stored as the antichain of its maximal elements.

    Downward closure makes the antichain canonical: a sequence is a
    member iff it is letterwise below some maximal element.
    """

    n: int
    maximal: tuple[ChoiceSequence, ...]

    def __contains__(self, alpha) -> bool:
        alpha = tuple(alpha)
        return any(le(alpha, m) for m in self.maximal)


def winning_set(X) -> WinningSet:
    """Exact winning set of a target of equal-length words."""
    target = _as_target(X)
    if not target:
        return WinningSet(0, ())
    return WinningSet(_target_length(target), _antichain(_checked_automaton(target)))


def _checked_automaton(target: frozenset[Word]) -> _Automaton:
    """The solved automaton, once its root wins exactly |X| sequences."""
    automaton = _automaton(target)
    size = len(automaton.wins[automaton.root])
    if size != len(target):
        raise InternalConsistencyError(
            f"winning set size {size} differs from target size {len(target)}"
        )
    return automaton


@_collector_paused
def _antichain(automaton: _Automaton) -> tuple[ChoiceSequence, ...]:
    # The root's winning set is downward closed: if a < b for a member b,
    # raising a by one at a position where it lies below b stays <= b, so
    # that raise is a member.  Hence a is maximal iff none of its one-letter
    # raises is.  The raises of t.j are (t+1).j and t.r for each raise r of
    # j.  A raise that wins the root has all its suffixes interned, so only
    # interned raises matter; every id comes after its tail, so one sweep
    # over ``cons`` finds each id's interned raises.  The key of (t+1).j is
    # one more than that of t.j; for t + 1 = base it reads t = 0 of the next
    # tail, which is never interned, so it is absent as it should be.
    get, base, wins = automaton.ids.get, automaton.base, automaton.wins[automaton.root]
    raises: list[list[int]] = [[]]
    for key in automaton.cons[1:]:
        j, t = divmod(key, base)
        below = raises[j]
        # most ids have no raise below them: build no list for those
        up = [i for i in map(get, [r * base + t for r in below]) if i is not None] if below else []
        i = get(key + 1)
        if i is not None:
            up.append(i)
        raises.append(up)
    return tuple(sorted(
        automaton.spell(a) for a in wins if not any(r in wins for r in raises[a])
    ))


def winning_set_cardinality(X) -> int:
    """Size of the winning set; always equals the target size."""
    target = _as_target(X)
    _checked_automaton(target)
    return len(target)


def max_first_choice(X, u, alphabet_size: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Largest k with k.u winning, and the set A of first letters realizing it.

    A letter c belongs to A when ``u`` wins the quotient game after c; a
    zero count just means no first letter works for this suffix.
    """
    target = _as_target(X)
    u = tuple(u)
    if target and len(u) != _target_length(target) - 1:
        raise PreconditionError("suffix must be one letter shorter than the target words")
    automaton = _automaton(target)
    size = _infer_alphabet(automaton.letters, alphabet_size)
    suffix = automaton.suffix_ids(u)[0]
    kids = dict(automaton.delta[automaton.root])
    winners = tuple(c for c in range(size) if suffix in automaton.wins[kids.get(c, _DEAD)])
    return len(winners), winners


def suffix_first_letters(X) -> dict[ChoiceSequence, tuple[int, ...]]:
    """Each suffix u with some k.u winning -> the letters c, ascending, whose
    quotient game after c wins u: :func:`max_first_choice` for every suffix
    at once, read off the root's children."""
    automaton = _automaton(_as_target(X))
    letters: dict[int, list[int]] = {}
    for c, child in automaton.delta[automaton.root]:
        for beta in automaton.wins[child]:
            letters.setdefault(beta, []).append(c)
    return {automaton.spell(beta): tuple(cs) for beta, cs in letters.items()}


def _same_certificate(self, other) -> bool:
    """Equality of two strategy trees, or of two refutations, node pair by node
    pair from a stack: each pair is compared once, so a long game does not
    recurse and a shared continuation is not compared again.  ``repr`` shows
    a certificate's root alone, for the same reason."""
    if type(other) is not type(self):
        return NotImplemented
    seen, stack = set(), [(self, other)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        (held, kids), (other_held, other_kids) = x._parts(), y._parts()
        if held != other_held or kids.keys() != other_kids.keys():
            return False
        stack.extend((kid, other_kids[key]) for key, kid in kids.items())
    return True


@dataclass(slots=True)
class StrategyTree:
    """One node of Alice's strategy: the offered subset and a child per letter.

    Leaves carry an empty offer.  Root-to-leaf letter paths are exactly
    the plays Alice can be forced through.
    """

    offer: tuple[int, ...]
    children: dict[int, "StrategyTree"] = field(default_factory=dict, repr=False)
    __eq__ = _same_certificate

    @property
    def is_leaf(self) -> bool:
        return not self.offer

    def _parts(self):
        return self.offer, self.children


@dataclass(slots=True)
class Refutation:
    """Bob's answer table: for every subset Alice may offer, his pick and the continuation."""

    responses: dict[tuple[int, ...], tuple[int, "Refutation"]] = field(
        default_factory=dict, repr=False
    )
    __eq__ = _same_certificate

    @property
    def is_leaf(self) -> bool:
        return not self.responses

    def _parts(self):
        return (), {(offered, c): child for offered, (c, child) in self.responses.items()}


@dataclass(frozen=True)
class MemberResult:
    """Outcome of a membership query: exactly one certificate is set."""

    win: bool
    strategy: StrategyTree | None = None
    refutation: Refutation | None = None


def _check_choices(target: frozenset[Word], alpha: ChoiceSequence, size: int) -> None:
    if target and len(alpha) != _target_length(target):
        raise PreconditionError("choice sequence length must match the target word length")
    for k in alpha:
        if not 1 <= k <= size:
            raise PreconditionError(f"choice letter {k} outside 1..{size}")


def member(X, alpha, alphabet_size: int | None = None) -> MemberResult:
    """Decide whether Alice wins with ``alpha`` and certify the answer."""
    target = _as_target(X)
    alpha = tuple(alpha)
    automaton = _automaton(target)
    size = _infer_alphabet(automaton.letters, alphabet_size)
    _check_choices(target, alpha, size)
    suffixes = automaton.suffix_ids(alpha)
    if suffixes[0] in automaton.wins[automaton.root]:
        return MemberResult(True, strategy=_strategy(automaton, alpha, suffixes))
    return MemberResult(False, refutation=_refutation(automaton, alpha, suffixes, size))


@_collector_paused
def _strategy(automaton: _Automaton, alpha: ChoiceSequence, suffixes: list[int]) -> StrategyTree:
    # Deterministic extraction: offer the lexicographically least subset
    # of letters whose quotient game stays winning.  Nodes are filled from
    # a stack, so long games do not recurse.  ``suffixes[i]`` is the id of
    # ``alpha[i:]``.
    wins = automaton.wins
    root = StrategyTree(())
    stack = [(root, automaton.root, 0)]
    while stack:
        node, state, i = stack.pop()
        if i == len(alpha):
            continue
        rest = suffixes[i + 1]
        offer: list[tuple[int, int]] = []
        for c, child in automaton.delta[state]:
            if rest in wins[child]:
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


@_collector_paused
def _refutation(
    automaton: _Automaton, alpha: ChoiceSequence, suffixes: list[int], size: int
) -> Refutation:
    # Bob answers each offer with its first dead letter, one with no
    # transition from the state, if it holds one: the play has then left
    # the target whatever follows, since wins[_DEAD] is empty.  Only when
    # every offered letter is live does he pick the first one whose
    # quotient game loses the rest.  Nodes are shared per (state, round):
    # the round fixes the rest of alpha, so this is the memo on (quotient,
    # rest of alpha).  A state other than _DEAD lies at one depth, so it
    # fixes its round and keys its node alone; the dead node of round i is
    # keyed -i.  Each (letter, node) answer is one tuple, keyed
    # ``node key * size + letter``.
    wins = automaton.wins
    offers = {k: tuple(combinations(range(size), k)) for k in set(alpha)}
    root = Refutation({})
    nodes = {automaton.root: root}
    answers: dict[int, tuple[int, Refutation]] = {}
    pending = [(root, automaton.root, 0)]
    while pending:
        node, state, i = pending.pop()
        if i == len(alpha):
            if state != _DEAD:
                raise InternalConsistencyError("refutation requested for a won empty game")
            continue
        rest, kids = suffixes[i + 1], dict(automaton.delta[state])
        for offered in offers[alpha[i]]:
            for c in offered:
                if c not in kids:
                    child = _DEAD
                    break
            else:
                for c in offered:
                    child = kids[c]
                    if rest not in wins[child]:
                        break
                else:
                    raise InternalConsistencyError("refutation requested for a winning sequence")
            at = child or -i - 1
            answer = answers.get(at * size + c)
            if answer is None:
                after = nodes.get(at)
                if after is None:
                    after = nodes[at] = Refutation({})
                    pending.append((after, child, i + 1))
                answer = answers[at * size + c] = (c, after)
            node.responses[offered] = answer
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
    """Branch skeleton as nested arities; letter identities are ignored.

    A leaf is ``()`` and any other node ``(len(offer), sorted child
    skeletons)``.  Nodes are visited post-order from an explicit stack, and
    each distinct skeleton gets an id with its shape ``(arity, child ids)``,
    so siblings are sorted by walking shapes in a loop, and long games
    neither recurse nor compare deep tuples.
    """
    shapes: list[tuple[int, tuple[int, ...]]] = []
    shape_ids: dict[tuple[int, tuple[int, ...]], int] = {}
    node_ids: dict[int, int] = {}

    def compare(a: int, b: int) -> int:
        # tuple order on the skeletons: arity first, then children in turn
        while a != b:
            (k, xs), (m, ys) = shapes[a], shapes[b]
            if k != m:
                return -1 if k < m else 1
            for x, y in zip(xs, ys):
                if x != y:
                    a, b = x, y
                    break
            else:
                return (len(xs) > len(ys)) - (len(xs) < len(ys))
        return 0

    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in node_ids:
            continue
        if node.is_leaf:
            shape = (0, ())
        elif expanded:
            child_ids = (node_ids[id(child)] for child in node.children.values())
            shape = (len(node.offer), tuple(sorted(child_ids, key=cmp_to_key(compare))))
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children.values())
            continue
        node_ids[id(node)] = shape_ids.setdefault(shape, len(shapes))
        if len(shape_ids) > len(shapes):
            shapes.append(shape)
    # ids grow post-order, so children are spelled before their parents
    skeletons: list[tuple] = []
    for k, children in shapes:
        skeletons.append((k, tuple(skeletons[c] for c in children)) if k else ())
    return skeletons[node_ids[id(tree)]]


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
    try:
        strategy_choice_sequence(tree)
    except InternalConsistencyError:
        return False
    return strategy_plays(tree) <= target


def validate_refutation(ref: Refutation, X, alpha, alphabet_size: int | None = None) -> bool:
    """Replay Bob's table against every offer; True iff no play ends in the target.

    Each (node, quotient) pair is replayed once, the quotients being
    frozensets of suffixes of ``X``, so shared continuations cost nothing
    extra and the check stays polynomial where expanding every play is not.
    It uses none of the solver's state, so it checks the solver
    independently.  A pick outside its offer, or an offer the table does not
    answer while the play can still reach the target, fails the check.
    """
    target = _as_target(X)
    alpha = tuple(alpha)
    size = _infer_alphabet(frozenset().union(*target), alphabet_size)
    _check_choices(target, alpha, size)
    seen: set[tuple[int, frozenset[Word]]] = set()
    stack = [(ref, target, 0)]
    while stack:
        node, quotient, i = stack.pop()
        if not quotient or (id(node), quotient) in seen:
            continue
        seen.add((id(node), quotient))
        if i == len(alpha):
            return False
        for offered in combinations(range(size), alpha[i]):
            c, child = node.responses.get(offered, (None, None))
            if c not in offered:
                return False
            stack.append((child, frozenset(w[1:] for w in quotient if w[0] == c), i + 1))
    return True
