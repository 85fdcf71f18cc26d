"""Finite word games solved exactly by backward induction.

A game is given by a target set of equal-length words and a choice
sequence over ``1..|S|``: each round Alice offers a subset of the stated
size and Bob picks a letter from it; Alice wins when the built word lands
in the target.  ``winning_set`` computes the full downward closed set of
winning choice sequences; ``member`` produces a strategy tree or a
refutation, both replayable certificates.

The solver works on the compacted trie of the target, built once per target
and kept for the 32 most recently used targets.  A node is a maximal run of
sorted target words that share a prefix; its depth, the length of that
prefix, is read off the common prefixes of neighbouring words, and the node
branches there unless it is a leaf, one word at depth n.  Between a node
and each child lies a chain of positions where every word of the child run
reads the same next letter.  Only the branching nodes are solved:

    Chain step.  If every word of a quotient Q starts with the one letter
    c, then W(Q) = {1.b : b in W(c^-1 Q)}.  For k.b wins Q iff b wins the
    quotient after a letter for at least k distinct first letters of Q;
    c is the only one, so k = 1, and 1.b wins iff b wins c^-1 Q.  By
    induction the position r letters up the chain above a node v has the
    winning set 1^r.W(v).

So a choice sequence of a known length is named by the id of its head, the
sequence left once its leading 1s are dropped, and one set of head ids is
the winning set of a node and of every position on the chain above it.  The
head t.1^r.h with t >= 2 and h a head is hash-consed as one int packing t,
its length and the id of h, so no step copies or hashes a whole sequence.
A branching node's set follows from its children's: a head b won by c
children gives 1.b, the same id, and t.b for 2 <= t <= c.  It depends only
on the node's unlabelled shape, the sorted (chain length, child shape)
pairs, so it is solved once per shape and nodes of one shape share one
frozenset: a dense target, whose many nodes have few shapes, keeps the
sharing a minimal automaton would give it.  Nodes are ints indexing flat
lists, and the id index and each node's children map hold only ints, so
the cyclic collector tracks none of them: a solved trie adds a few dozen
tracked objects however many nodes it has.  The size of the root's set must be the size of the target, which the
code checks.  Maximal winning sequences are found on the same ids: a member
is maximal iff none of its one-letter raises wins, which is exact for a
downward closed set, and the raises of the head t.1^r.h are (t+1).1^r.h,
t.1^p.2.1^(r-p-1).h for p < r, and t.1^r.g for each raise g of h, so one
sweep in id order finds every id's raises without spelling a sequence.

Certificates read their letters from one word per node: every word of the
run spells the chain above it.  They are slotted dataclasses, and a
refutation builds each (letter, continuation) answer once and shares it
among every offer and node that gives it.  Refutation nodes are shared per
(quotient, round).  Node quotients get ids hash-consed from the leaves up
when a target's first refutation is built, and the quotient r letters up a
chain, that letter in front of the one below, when a refutation first
reaches it.

In a refutation Bob answers an offer with a dead letter, one that leaves
the target from the current position, whenever the offer holds one, and
else with the first letter whose quotient game loses the rest.  This is
sound: after a dead letter the quotient is empty and wins nothing, so the
play ends outside the target whatever follows.  The play then stays in the
one dead node of each later round, so Bob opens new nodes in the language
only where every offered letter keeps him there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key, lru_cache
from itertools import chain, combinations, compress, count
from operator import ne

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


# The id of a choice sequence that no node wins: no winning set holds it,
# and no interned sequence has it as a tail.
_ABSENT = -1


@dataclass(frozen=True)
class _Trie:
    """The solved compacted trie of a target.

    Nodes are ints, numbered children first, so the root is the last one;
    the trie of the empty target has none.  Node v is a maximal run of
    sorted target words that share a prefix, and ``depth[v]`` is the length
    of that prefix: a leaf is one word at depth n, any other node branches
    at its depth.  ``word[v]`` is the first word of the run, so
    ``word[v][i]`` is the letter every word of the run has at each
    i < depth[v], the chain above v included.  ``kids[v]`` maps each letter
    at position depth[v] to its child run, in ascending letter order.
    ``wins[v]`` holds the ids of the sequences that win v's quotient; the
    ids of the sequences with a 1 in front are the same ids, so one set
    serves every position of the chain above v.

    A choice sequence of length m is named by the id of its head, the
    sequence left once its leading 1s are dropped: id 0 is the empty head,
    and the head t.1^r.h with t >= 2 is keyed by the int
    ``(j * (n + 1) + length) * base + t``, where j is the id of the head h,
    length = 1 + r + |h| and ``base`` exceeds the number of children of any
    node, so every t a node can win.  ``ids`` maps each key to its id and
    ``cons[i]`` is the key of id i; a key's tail is interned before it.
    The length m is known wherever an id is read, so 1^(m - length) pads
    the head back to the sequence.  The id index and the children maps
    hold only ints, so the cyclic collector never scans them.
    """

    n: int
    depth: list[int]
    word: list[Word]
    kids: list[dict[int, int]]
    wins: list[frozenset[int]]
    base: int
    cons: list[int]
    ids: dict[int, int]
    # (letter, id of the quotient below) -> id of a quotient on a chain
    lifted: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    @property
    def root(self) -> int | None:
        return len(self.depth) - 1 if self.depth else None

    @property
    def root_wins(self) -> frozenset[int]:
        return self.wins[-1] if self.wins else frozenset()

    @cached_property
    def letters(self) -> frozenset[int]:
        # every target word is a leaf's word
        return frozenset().union(*self.word)

    def live(self, v: int | None, i: int) -> dict[int, int]:
        """The letters that stay in the target from the position at depth i
        on the chain above node v, or at it, each with the node at or below
        the next position; None is the position outside the target."""
        if v is None:
            return {}
        if i < self.depth[v]:
            return {self.word[v][i]: v}
        return self.kids[v]

    @cached_property
    def chains(self) -> list[list[int]]:
        """Per node, ids of the quotients at it and up the chain above it.

        ``chains[v][k]`` is the id of the quotient at depth
        ``depth[v] - k``; two positions have equal ids iff their quotients
        are equal.  A node's quotient is its child runs' letters and
        quotients, so node ids are hash-consed from the leaves up, in node
        order; the quotient k + 1 above a node is its letter there in front
        of the quotient k, and is interned by :meth:`quotient` when first
        asked.
        """
        depth, word = self.depth, self.word
        keys: dict[tuple, int] = {}
        chains: list[list[int]] = []
        for d, kids in zip(depth, self.kids):
            key = tuple((word[k][d:depth[k]], chains[k][0]) for k in kids.values())
            chains.append([keys.setdefault(key, len(keys))])
        return chains

    def quotient(self, v: int, i: int) -> int:
        """The id of the quotient at depth i on the chain above node v, or at it."""
        up, lifted, depth = self.chains[v], self.lifted, self.depth[v]
        while len(up) <= depth - i:
            key = (self.word[v][depth - len(up)], up[-1])
            # after every node id: there are no more of those than nodes
            up.append(lifted.setdefault(key, len(self.depth) + len(lifted)))
        return up[depth - i]

    def suffix_ids(self, seq: ChoiceSequence) -> list[int]:
        """Ids of ``seq[i:]`` for i = 0..len(seq); ``_ABSENT`` where no node wins it."""
        get, base, stride = self.ids.get, self.base, self.n + 1
        j, out = 0, [0]
        for length, t in enumerate(reversed(seq), 1):
            if t != 1:
                # no node wins a letter outside 2..base - 1, whose key
                # could name another head
                j = get((j * stride + length) * base + t, _ABSENT) if 1 < t < base else _ABSENT
            out.append(j)
        out.reverse()
        return out

    def spell(self, i: int, length: int) -> ChoiceSequence:
        """The sequence of ``length`` letters whose head has id ``i``."""
        cons, base, stride, letters = self.cons, self.base, self.n + 1, []
        while i:
            rest, t = divmod(cons[i], base)
            i, size = divmod(rest, stride)
            letters += [1] * (length - size)
            letters.append(t)
            length = size - 1
        letters += [1] * length
        return tuple(letters)


# perfbench passes look up 26 targets (367 calls) or 40 (46 calls); 32 misses as often as no bound
@lru_cache(maxsize=32)
def _trie(target: frozenset[Word]) -> _Trie:
    n = _target_length(target)
    # a node has at most |X| children, so it wins no t >= base
    base, stride = len(target) + 1, n + 1
    ids: dict[int, int] = {}
    depth: list[int] = []
    first: list[Word] = []
    children: list[dict[int, int]] = []
    # per node, the id of its unlabelled shape and the winning set it fixes
    solved: list[tuple[int, frozenset[int]]] = []
    leaf = (0, frozenset({0}))
    # unlabelled shape -> (shape id, winning set); the leaf is shape 0
    shapes: dict[tuple[int, ...], tuple[int, frozenset[int]]] = {(): leaf}

    def close(d: int, word: Word, kids: dict[int, int]) -> int:
        # The shape is the sorted children's shape ids, each with the length
        # of the chain down to the child: it fixes the remaining length and
        # the children's winning sets, so nodes of one shape share one
        # winning set, solved when the shape is new.
        shape = tuple(sorted([solved[k][0] * stride + depth[k] - d for k in kids.values()]))
        known = shapes.get(shape)
        if known is None:
            # Backward induction: k.b wins iff b wins the quotient game for
            # at least k distinct first letters.  1.b has the id of b, and
            # t.b for t >= 2 is the head keyed by (t, length, id of b);
            # k <= len(kids) < base.
            length = n - d
            counts = Counter(chain.from_iterable(solved[k][1] for k in kids.values()))
            won = list(counts)
            for beta, k in counts.items():
                key = (beta * stride + length) * base
                for t in range(2, k + 1):
                    won.append(ids.setdefault(key + t, len(ids) + 1))
            known = shapes[shape] = (len(shapes), frozenset(won))
        depth.append(d)
        first.append(word)
        children.append(kids)
        solved.append(known)
        return len(depth) - 1

    # Build the trie of the sorted target from the common prefixes of
    # neighbours, keeping the open nodes on its rightmost path.  Each word's
    # leaf closes the open nodes deeper than d, the letters it shares with
    # the next word, and the subtree closed last hangs from the node at
    # depth d, opened if need be; the last word, with d = -1, closes them all.
    words = sorted(target)
    # the first index where two neighbours, distinct words of one length, differ
    common = [next(compress(count(), map(ne, u, v))) for u, v in zip(words, words[1:])]
    path: list[tuple[int, Word, dict[int, int]]] = []
    for word, d in zip(words, [*common, -1]):
        # the word's leaf: shape 0, won by the empty sequence alone
        last = len(depth)
        depth.append(n)
        first.append(word)
        children.append({})
        solved.append(leaf)
        while path and path[-1][0] > d:
            at, run, kids = path.pop()
            kids[word[at]] = last
            last = close(at, run, kids)
        if d < 0:
            break
        if path and path[-1][0] == d:
            path[-1][2][word[d]] = last
        else:
            path.append((d, first[last], {word[d]: last}))
    wins = [won for _, won in solved]
    return _Trie(n, depth, first, children, wins, base, [0, *ids], ids)


def winning_members(X) -> frozenset[ChoiceSequence]:
    """The winning set of ``X`` as an explicit set of choice sequences."""
    trie = _trie(_as_target(X))
    return frozenset(trie.spell(i, trie.n) for i in trie.root_wins)


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
    return WinningSet(_target_length(target), _antichain(_checked_trie(target)))


def _checked_trie(target: frozenset[Word]) -> _Trie:
    """The solved trie, once its root wins exactly |X| sequences."""
    trie = _trie(target)
    size = len(trie.root_wins)
    if size != len(target):
        raise InternalConsistencyError(
            f"winning set size {size} differs from target size {len(target)}"
        )
    return trie


def _antichain(trie: _Trie) -> tuple[ChoiceSequence, ...]:
    # The root's winning set is downward closed: if a < b for a member b,
    # raising a by one at a position where it lies below b stays <= b, so
    # that raise is a member.  Hence a is maximal iff none of its one-letter
    # raises is.  A raise that wins the root has all its suffixes interned,
    # so only interned raises matter.  The raises of the head t.1^r.h are
    # (t+1).1^r.h, t.1^p.2.1^(r-p-1).h for p < r, and t.1^r.g for each
    # raise g of h: the middle ones are t put before an interned head 2.1^q.h
    # shorter than the head, listed per h in ``twos``.  A member 1^m.h of
    # the root raises one of its leading 1s to every interned 2.1^q.h.
    # Keys are packed as in ``_Trie``: the key of t.1^r.g is
    # (g * stride + length) * base + t, and key + 1 is (t+1).1^r.h, whose
    # key when t + 1 == base has t = 0 and names no head.
    get, cons, wins = trie.ids.get, trie.cons, trie.root_wins
    base, stride = trie.base, trie.n + 1
    heads = [(t, *divmod(rest, stride)) for rest, t in (divmod(key, base) for key in cons)]
    twos: dict[int, list[tuple[int, int]]] = {}
    for i, (t, j, length) in enumerate(heads):
        if t == 2:
            twos.setdefault(j, []).append((length, i))
    raises: list[list[int]] = [[]]
    for key, (t, j, length) in zip(cons[1:], heads[1:]):
        up = [(g * stride + length) * base + t for g in raises[j]]
        up += [(k * stride + length) * base + t for size, k in twos.get(j, ()) if size < length]
        up.append(key + 1)
        raises.append([i for i in map(get, up) if i is not None])
    return tuple(sorted(
        trie.spell(a, trie.n)
        for a in wins
        if not any(r in wins for r in raises[a])
        and not any(k in wins for _, k in twos.get(a, ()))
    ))


def winning_set_cardinality(X) -> int:
    """Size of the winning set; always equals the target size."""
    target = _as_target(X)
    _checked_trie(target)
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
    trie = _trie(target)
    size = _infer_alphabet(trie.letters, alphabet_size)
    suffix = trie.suffix_ids(u)[0]
    kids = trie.live(trie.root, 0)
    winners = tuple(c for c in range(size) if c in kids and suffix in trie.wins[kids[c]])
    return len(winners), winners


def suffix_first_letters(X) -> dict[ChoiceSequence, tuple[int, ...]]:
    """Each suffix u with some k.u winning -> the letters c, ascending, whose
    quotient game after c wins u: :func:`max_first_choice` for every suffix
    at once, read off the root's children."""
    trie = _trie(_as_target(X))
    letters: dict[int, list[int]] = {}
    for c, child in trie.live(trie.root, 0).items():
        for beta in trie.wins[child]:
            letters.setdefault(beta, []).append(c)
    return {trie.spell(beta, trie.n - 1): tuple(cs) for beta, cs in letters.items()}


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
    trie = _trie(target)
    size = _infer_alphabet(trie.letters, alphabet_size)
    _check_choices(target, alpha, size)
    suffixes = trie.suffix_ids(alpha)
    if suffixes[0] in trie.root_wins:
        return MemberResult(True, strategy=_strategy(trie, alpha, suffixes))
    return MemberResult(False, refutation=_refutation(trie, alpha, suffixes, size))


def _strategy(trie: _Trie, alpha: ChoiceSequence, suffixes: list[int]) -> StrategyTree:
    # Deterministic extraction: offer the lexicographically least subset
    # of letters whose quotient game stays winning.  On a chain that is its
    # one letter, and a winning sequence plays 1 there.  Nodes are filled
    # from a stack, so long games do not recurse.  ``suffixes[i]`` is the
    # id of ``alpha[i:]``.
    depth, word, wins = trie.depth, trie.word, trie.wins
    root = StrategyTree(())
    stack = [(root, trie.root, 0)]
    while stack:
        node, at, i = stack.pop()
        while i < depth[at]:
            if alpha[i] != 1:
                raise InternalConsistencyError("strategy extraction on a losing sequence")
            c, child = word[at][i], StrategyTree(())
            node.offer, node.children[c] = (c,), child
            node, i = child, i + 1
        if i == len(alpha):
            continue
        rest = suffixes[i + 1]
        offer: list[tuple[int, int]] = []
        for c, kid in trie.kids[at].items():
            if rest in wins[kid]:
                offer.append((c, kid))
                if len(offer) == alpha[i]:
                    break
        if len(offer) < alpha[i]:
            raise InternalConsistencyError("strategy extraction on a losing sequence")
        node.offer = tuple(c for c, _ in offer)
        for c, kid in offer:
            node.children[c] = StrategyTree(())
            stack.append((node.children[c], kid, i + 1))
    return root


def _refutation(
    trie: _Trie, alpha: ChoiceSequence, suffixes: list[int], size: int
) -> Refutation:
    # Bob answers each offer with its first dead letter, one that leaves
    # the target, if it holds one: the play has then left the target
    # whatever follows.  Only when every offered letter is live does he pick
    # the first one whose quotient game loses the rest.  Nodes are shared
    # per (quotient, round): the round fixes the rest of alpha.  A live
    # position is keyed by its quotient's id from ``trie.chains``, which
    # fixes its round as well; the dead node of round i is keyed -i.  Each
    # (letter, node) answer is one tuple, keyed ``node key * size + letter``.
    chains, depth, wins = trie.chains, trie.depth, trie.wins
    offers = {k: tuple(combinations(range(size), k)) for k in set(alpha)}
    root = Refutation({})
    nodes: dict[int, Refutation] = {}
    answers: dict[int, tuple[int, Refutation]] = {}
    pending = [(root, trie.root, 0)]
    while pending:
        node, at, i = pending.pop()
        if i == len(alpha):
            if at is not None:
                raise InternalConsistencyError("refutation requested for a won empty game")
            continue
        rest, kids = suffixes[i + 1], trie.live(at, i)
        for offered in offers[alpha[i]]:
            for c in offered:
                if c not in kids:
                    child, key = None, -i - 1
                    break
            else:
                for c in offered:
                    child = kids[c]
                    if rest not in wins[child]:
                        break
                else:
                    raise InternalConsistencyError("refutation requested for a winning sequence")
                up, k = chains[child], depth[child] - i - 1
                key = up[k] if k < len(up) else trie.quotient(child, i + 1)
            answer = answers.get(key * size + c)
            if answer is None:
                after = nodes.get(key)
                if after is None:
                    after = nodes[key] = Refutation({})
                    pending.append((after, child, i + 1))
                answer = answers[key * size + c] = (c, after)
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
