"""The three workloads: seeded inputs, query batches and their checks.

Inputs come from a seed: every substitution of the base pool is relabeled
by a seeded permutation of its letters, and the per-substitution query
streams are merged in a seeded order.  Relabeling keeps choice sequences,
counts and complexity values, so expected answers and cost do not depend
on the seed while cache keys and words do.  Inside one stream the order is
fixed, so which query pays for a shared factor language does not depend on
the seed either.

Checks use an independent oracle where one exists (closed forms for the
generalized Thue-Morse words and for Thue-Morse complexity, the Thue-Morse
reference rows, |W(X)| = |X|, delta(n) = number of irreducible winning
sequences, strategy replay, refutation replay) and also compare a digest
of each answer against ``expected.json`` (written by ``record.py``).
Digests cover only what relabeling leaves unchanged (numbers, choice
sequences, verdicts, CLI output).  The one word they would see, a
``syncdelay`` witness, is left out; the check maps it back through the
relabeling and re-analyses it under the base substitution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from itertools import combinations, takewhile
from pathlib import Path
from typing import Callable, NamedTuple

import winshift as ws
from winshift import cli

from checker import Query


def gtm_images(b: int, m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((k + t) % m for t in range(b)) for k in range(m))


# alphabet sizes 2-4, image lengths 2-4; every one is primitive and aperiodic
BASES = {
    "tm": ((0, 1), (1, 0)),
    "ex42": ((0, 0, 1), (1, 2, 0), (2, 0, 1)),
    "ex46": ((0, 2, 1), (0, 1, 0), (2, 1, 0)),
    "gtm:2,3": gtm_images(2, 3),
    "gtm:3,4": gtm_images(3, 4),
    "marked3": ((0, 0, 1), (1, 0, 2), (2, 1, 0)),
    "perm4": ((0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 2, 1, 0)),
}


def relabel(images, perm):
    """The conjugate substitution perm . sigma . perm^-1."""
    out = [None] * len(images)
    for a, img in enumerate(images):
        out[perm[a]] = tuple(perm[x] for x in img)
    return tuple(out)


def sha(obj) -> str:
    if not isinstance(obj, str):
        obj = repr(obj)
    return hashlib.sha256(obj.encode()).hexdigest()


def tm_complexity(n: int) -> int:
    """Thue-Morse factor complexity (Brlek 1989; de Luca and Varricchio 1989).

    For n >= 3 write n = 2^r + q + 1 with 0 < q <= 2^r; then p(n) is
    6 * 2^(r-1) + 4q when q <= 2^(r-1) and 8 * 2^(r-1) + 2q otherwise.
    """
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2 ** r
    if 2 * q <= 2 ** r:
        return 3 * 2 ** r + 4 * q
    return 4 * 2 ** r + 2 * q


def closed_form_delta(name: str) -> Callable[[int], int] | None:
    if name == "tm":
        return lambda n: tm_complexity(n) - tm_complexity(n - 1) if n else 1
    if name.startswith("gtm:"):
        b, m = (int(x) for x in name[4:].split(","))
        return lambda n: ws.gtm_delta(b, m, n)
    return None


class Inputs:
    """Seeded relabelings and query order for one pass."""

    def __init__(self, workload: str, seed: int, pass_index: int, identity: bool = False):
        self.rng = random.Random(f"{workload}/{seed}/{pass_index}")
        self.identity = identity
        self.perms: dict[str, tuple[int, ...]] = {}

    def perm(self, name: str) -> tuple[int, ...]:
        if name not in self.perms:
            letters = list(range(len(BASES[name])))
            if not self.identity:
                self.rng.shuffle(letters)
            self.perms[name] = tuple(letters)
        return self.perms[name]

    def subst(self, name: str) -> ws.Substitution:
        return ws.make_substitution(relabel(BASES[name], self.perm(name)))

    def interleave(self, streams: list[list[Query]]) -> list[Query]:
        """Merge the streams in a seeded order, keeping each stream's own order."""
        picks = [i for i, stream in enumerate(streams) for _ in stream]
        if not self.identity:
            self.rng.shuffle(picks)
        cursors = [iter(stream) for stream in streams]
        return [next(cursors[i]) for i in picks]


@dataclass
class Workload:
    setup: Callable[[], None]
    queries: list[Query]


# ---------------------------------------------------------------- factor-tables

# name: (complexity table up to, periodicity probe bound)
FACTOR_PLAN = {
    "tm": (32, 38),
    "ex42": (26, 30),
    "ex46": (26, 30),
    "gtm:2,3": (26, 30),
    "gtm:3,4": (22, 28),
    "marked3": (22, 26),
    "perm4": (14, 20),
}


def factor_tables(inputs: Inputs, expected: dict, workdir: Path) -> Workload:
    streams = []
    for name, (upto, bound) in FACTOR_PLAN.items():
        subst = inputs.subst(name)
        closed = closed_form_delta(name)

        def delta_ok(n, value, closed=closed):
            return closed is None or closed(n) == value

        def table_ok(t, upto=upto, delta_ok=delta_ok):
            total, values = 0, []
            for d in t.deltas:
                total += d
                values.append(total)
            return (
                t.upto == upto
                and len(t.deltas) == upto + 1
                and tuple(values) == t.values
                and all(delta_ok(n, d) for n, d in enumerate(t.deltas))
            )

        stream = [
            Query(
                "complexity_table",
                f"{name}/table/{upto}",
                lambda s=subst, u=upto: ws.complexity_table(s, u, method="direct"),
                lambda t: sha((t.upto, t.deltas, t.values, t.methods)),
                table_ok,
            )
        ]
        # a length inside the table is answered from shared languages; the
        # longer ones and the probe need new ones, next to shared ones
        for n in (upto // 2, upto + 2, upto + 4):
            stream.append(
                Query(
                    "delta_direct",
                    f"{name}/delta/{n}",
                    lambda s=subst, n=n: ws.delta_direct(s, n),
                    lambda d: d,
                    lambda d, n=n, delta_ok=delta_ok: delta_ok(n, d),
                )
            )
        stream.append(
            Query(
                "periodicity_probe",
                f"{name}/probe/{bound}",
                lambda s=subst, b=bound: ws.periodicity_probe(s, b),
                lambda p: [p.periodic, p.detected_at, p.bound],
                lambda p, b=bound: p.periodic is False and p.bound == b,
            )
        )
        stream.append(
            Query(
                "delta_direct",
                f"{name}/delta/{bound + 2}",
                lambda s=subst, n=bound + 2: ws.delta_direct(s, n),
                lambda d: d,
                lambda d, n=bound + 2, delta_ok=delta_ok: delta_ok(n, d),
            )
        )
        streams.append(stream)
    queries = inputs.interleave(streams)
    for query in queries:
        query.expected = expected.get(query.key)
    return Workload(lambda: None, queries)


# ------------------------------------------------------------------- game-solve

# (name, length): winning sets, cardinalities and member queries
GAME_TARGETS = (
    ("tm", 40),
    ("gtm:2,3", 30),
    ("gtm:3,4", 24),
    ("marked3", 28),
    ("perm4", 22),
    ("ex42", 34),
    ("ex46", 34),
)
MEMBER_PICKS = 28
# unmarked substitutions, so the brute-force solver is the only method
BRUTE_TARGETS = (("ex42", 80), ("ex46", 96))
# marked substitutions whose strategies are carried through sigma and back
TRANSPORTS = (("tm", 6), ("gtm:2,3", 5), ("marked3", 5))


def _antichain_ok(maximal) -> bool:
    return bool(maximal) and not any(
        a != b and ws.le(a, b) for a in maximal for b in maximal
    )


def refutation_holds(ref, target: frozenset, alpha: tuple, size: int) -> bool:
    """Replay Bob's table: every play it allows must end outside the target.

    ``target`` holds what is still needed after the letters played so far,
    so a play ends outside the target exactly when the empty word is not in
    the final quotient.  Pairs already checked are remembered.
    """
    seen = set()

    def holds(node, target, rest) -> bool:
        if not target:
            return True
        key = (id(node), target)
        if key in seen:
            return True
        if not rest:
            return False
        for offered in combinations(range(size), rest[0]):
            c, child = node.responses[offered]
            if c not in offered:
                return False
            if not holds(child, frozenset(w[1:] for w in target if w[0] == c), rest[1:]):
                return False
        seen.add(key)
        return True

    return holds(ref, target, alpha)


def game_solve(inputs: Inputs, expected: dict, workdir: Path) -> Workload:
    pools = expected.get("member_pool", {})
    targets: dict[tuple[str, int], tuple] = {}
    substs = {name: inputs.subst(name) for name in BASES}
    needed = {*GAME_TARGETS, *BRUTE_TARGETS, *TRANSPORTS}

    def setup():
        for name, n in sorted(needed):
            targets[name, n] = ws.language(substs[name], n).words

    def winning_set_queries(name, n):
        return [
            Query(
                "winning_set",
                f"{name}/{n}/winning_set",
                lambda: ws.winning_set(targets[name, n]),
                lambda w: sha(w.maximal),
                lambda w: w.n == n and _antichain_ok(w.maximal),
            ),
            Query(
                "winning_set_cardinality",
                f"{name}/{n}/cardinality",
                lambda: ws.winning_set_cardinality(targets[name, n]),
                lambda c: c,
                lambda c: c == len(targets[name, n]),
            ),
        ]

    def member_query(name, n, alpha):
        s = substs[name]

        def certified(result):
            X = targets[name, n]
            if result.win:
                return (
                    ws.strategy_choice_sequence(result.strategy) == alpha
                    and ws.validate_strategy(result.strategy, X)
                )
            return refutation_holds(result.refutation, frozenset(X), alpha, s.size)

        return Query(
            "member",
            f"{name}/{n}/member/{''.join(map(str, alpha))}",
            lambda: ws.member(targets[name, n], alpha, alphabet_size=s.size),
            lambda r: r.win,
            certified,
        )

    def brute_query(name, n):
        s = substs[name]

        def delta_matches(found):
            # delta(n) equals the number of irreducible winning sequences;
            # |L_(n-1)| does not change under relabeling and is committed
            delta = len(targets[name, n]) - expected["language_size"][f"{name}/{n - 1}"]
            return len(found) == delta and all(ws.is_irreducible(a) for a in found)

        return Query(
            "enumerate_irreducible",
            f"{name}/{n}/brute",
            lambda: ws.enumerate_irreducible(s, n, method="brute"),
            lambda found: sha(sorted(found)),
            delta_matches,
        )

    def transport_query(name, n, alpha):
        s = substs[name]
        M = s.uniform_length

        def transport():
            base = ws.member(targets[name, n], alpha, alphabet_size=s.size).strategy
            pairs = ws.substitute_strategy(s, base, M, 1)
            delay = ws.sync_delay(s).delay
            beta, tree = next(
                (b, t) for b, t in pairs if ws.is_irreducible(b) and len(b) > delay
            )
            return pairs, beta, ws.desubstitute_strategy(s, tree)

        def replayed(answer):
            pairs, beta, back = answer
            return all(
                ws.strategy_choice_sequence(t) == b
                and ws.validate_strategy(t, ws.language(s, len(b)).words)
                for b, t in pairs
            ) and (
                ws.strategy_choice_sequence(back) == (beta[0],) + beta[M::M]
                and ws.validate_strategy(back, targets[name, n])
            )

        return Query(
            "transport",
            f"{name}/{n}/transport",
            transport,
            lambda a: sha(([b for b, _ in a[0]], a[1], ws.strategy_choice_sequence(a[2]))),
            replayed,
        )

    streams = []
    for name, n in GAME_TARGETS:
        pool = sorted(tuple(map(int, alpha)) for alpha in pools.get(f"{name}/{n}", {}))
        picks = inputs.rng.sample(pool, min(MEMBER_PICKS, len(pool))) if pool else []
        streams.append(
            winning_set_queries(name, n) + [member_query(name, n, a) for a in picks]
        )
    for name, n in BRUTE_TARGETS:
        streams.append([brute_query(name, n)] + winning_set_queries(name, n))
    for name, n in TRANSPORTS:
        alpha = tuple(map(int, expected.get("transport_alpha", {}).get(f"{name}/{n}", "")))
        streams.append([transport_query(name, n, alpha)])
    queries = inputs.interleave(streams)
    verdicts = {
        f"{key}/member/{alpha}": win for key, pool in pools.items() for alpha, win in pool.items()
    }
    for query in queries:
        query.expected = verdicts.get(query.key, expected.get(query.key))
    return Workload(setup, queries)


# ------------------------------------------------------------------- cli-tables

# substitutions passed to the CLI as JSON files, relabeled per pass
JSON_INPUTS = ("marked3", "perm4")

# Streams of command lines; {name} stands for the JSON file of the relabeled
# substitution.  Every stream runs in one process, so later invocations in a
# stream reuse the levels earlier ones built.
CLI_STREAMS = {
    "marked3": (
        "winshift --subst {marked3} --table 201..800",
        "winshift --subst {marked3} --length 20000",
        "winshift --subst {marked3} --length 12000 --format json",
        "delta --subst {marked3} --n 1000000000000",
        "complexity --subst {marked3} --upto 2000 --method recurrence",
        "syncdelay --subst {marked3}",
    ),
    "perm4": (
        "winshift --subst {perm4} --table 1..600",
        "winshift --subst {perm4} --length 30000",
        "complexity --subst {perm4} --upto 2000 --method recurrence --format json",
        "delta --subst {perm4} --n 999999999999",
        "syncdelay --subst {perm4} --format json",
    ),
    "tm": (
        "winshift --subst tm --table 1..1000",
        "delta --subst tm --n 1000000000000 --method recurrence",
        "winshift --subst tm --table 5..x",
        "WINSHIFT_SYNC_CAP=abc syncdelay --subst tm",
    ),
    "gtm": (
        "gtm --b 2 --m 3 winshift --length 300 --verify",
        "gtm --b 3 --m 4 delta --n 20 --verify",
        "gtm --b 2 --m 3 syncdelay --verify",
        "winshift --subst gtm:3,4 --length 30000 --format csv",
        "gtm --b 3 --m 2 complexity --upto 20 --verify",
    ),
    "errors": (
        "delta --subst ex46 --n 50 --method recurrence",
        "winshift --subst tm",
        "delta --subst tm",
        "winshift --subst nosuch --length 5",
    ),
}

# documented as usage errors (exit 2); both raise an uncaught ValueError at
# the time this benchmark was written
KNOWN_DEFECTS = {
    "winshift --subst tm --table 5..x": 2,
    "WINSHIFT_SYNC_CAP=abc syncdelay --subst tm": 2,
}


def run_cli(command: str, files: dict[str, str]) -> tuple[int, str, str]:
    """Run ``cli.main`` in this process with stdout and stderr captured."""
    words = command.split()
    # leading NAME=value words set environment variables, as in a shell
    assignments = list(takewhile(lambda w: "=" in w, words))
    env = dict(w.split("=", 1) for w in assignments)
    argv = [w.format(**files) for w in words[len(assignments):]]
    saved = {k: os.environ.get(k) for k in env}
    out, err = io.StringIO(), io.StringIO()
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


class CliAnswer(NamedTuple):
    """What the checks read of one invocation: stdout is kept as a digest
    plus its first 8 KiB and last 64 characters."""

    code: int
    stdout_sha256: str
    head: str
    tail: str
    stderr: str


def keep_cli(answer: tuple[int, str, str]) -> CliAnswer:
    code, out, err = answer
    return CliAnswer(code, sha(out), out[:8192], out[-64:], err)


def _cli_shape_ok(answer: CliAnswer) -> bool:
    if answer.code == 0:
        return answer.stderr == ""
    return (
        answer.code in (1, 2)
        and answer.stdout_sha256 == sha("")
        and answer.stderr.startswith(("error:", "usage:"))
    )


def _tm_rows_ok(reference: dict, answer: CliAnswer) -> bool:
    rows: dict[str, list[str]] = {}
    for line in answer.head.splitlines():
        n, row = line.split(": ")
        if int(n) > len(reference):
            break
        rows.setdefault(n, []).append(row)
    return bool(reference) and all(rows.get(n) == list(ref) for n, ref in reference.items())


def _sync_parts(answer: CliAnswer) -> tuple[int, int, str | None, list[int]]:
    """(code, L, witness, witness offsets) from text or JSON syncdelay output."""
    code, out = answer.code, answer.head
    if out.startswith("{"):
        obj = json.loads(out)
        return code, obj["L"], obj["witness"], obj["offsets_of_witness"]
    lines = out.splitlines()
    delay = int(lines[0].removeprefix("L = "))
    if len(lines) == 1:
        return code, delay, None, []
    witness, offsets = lines[1].removeprefix("witness = ").split(" (offsets {")
    return code, delay, witness, [int(x) for x in offsets.rstrip("})").split(", ")]


def _blank_witness(out: str) -> str:
    """syncdelay output with the witness word replaced, for the digest."""
    if out.startswith("{"):
        obj = json.loads(out)
        obj["witness"] = obj["witness"] and "W"
        return json.dumps(obj, sort_keys=True, indent=2)
    return re.sub(r"^witness = \d+ ", "witness = W ", out, flags=re.M)


def cli_tables(inputs: Inputs, expected: dict, workdir: Path) -> Workload:
    files: dict[str, str] = {}

    def setup():
        workdir.mkdir(parents=True, exist_ok=True)
        for name in JSON_INPUTS:
            subst = inputs.subst(name)
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(ws.substitution_to_dict(subst, name)))
            files[name] = str(path)

    def syncdelay_ok(name, answer) -> bool:
        # the witness is the first unsynchronized word in the relabeled
        # order; map it back and re-analyse it under the base substitution
        code, delay, witness, offsets = _sync_parts(answer)
        if code != 0 or witness is None:
            return code == 0
        inverse = {b: a for a, b in enumerate(inputs.perm(name))}
        word = tuple(inverse[int(x)] for x in witness)
        base = ws.make_substitution(BASES[name])
        analysis = ws.sync_analysis(base, word)
        return (
            len(word) == delay - 1
            and not analysis.synchronized
            and sorted(analysis.offsets) == offsets
        )

    streams = []
    for stream_name, commands in CLI_STREAMS.items():
        stream = []
        for command in commands:
            # the witness of a relabeled substitution depends on the labels
            sync_name = stream_name if command.startswith("syncdelay --subst {") else None
            if sync_name:
                digest = lambda a: [a.code, sha(_blank_witness(a.head))]  # noqa: E731
            else:
                digest = lambda a: [a.code, a.stdout_sha256]  # noqa: E731
            if command in KNOWN_DEFECTS:
                want = [KNOWN_DEFECTS[command], sha("")]
            else:
                want = expected.get(command)

            def oracle(answer, command=command, sync_name=sync_name):
                if not _cli_shape_ok(answer):
                    return False
                if sync_name:
                    return syncdelay_ok(sync_name, answer)
                if command == "winshift --subst tm --table 1..1000":
                    return _tm_rows_ok(expected.get("tm_reference_rows", {}), answer)
                if "--verify" in command and answer.code == 0:
                    return answer.tail.endswith("verify: ok\n")
                return True

            stream.append(
                Query(
                    "cli",
                    command,
                    lambda command=command: run_cli(command, files),
                    digest,
                    oracle,
                    want,
                    known_defect=command in KNOWN_DEFECTS,
                    keep=keep_cli,
                )
            )
        streams.append(stream)
    return Workload(setup, inputs.interleave(streams))


WORKLOADS = {
    "factor-tables": factor_tables,
    "game-solve": game_solve,
    "cli-tables": cli_tables,
}
