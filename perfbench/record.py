"""Regenerate ``expected.json`` from the program as it is now.

    python3 perfbench/record.py

Runs every workload once with the identity relabeling and records a digest
of each answer.  Before recording, each answer must pass its independent
oracle (closed forms, certificate replay, cardinality identities), so only
answers no oracle covers are taken on trust from the current code.  The
member pools are drawn here: maximal winning sequences and lowerings of
them (wins), and maximal ones with one letter raised (losses).  Re-record
only when the expected answers are meant to change.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POOL_SIDE = 24


def digits(alpha) -> str:
    return "".join(map(str, alpha))


def member_pool(ws, subst, n, rng) -> dict[str, bool]:
    X = ws.language(subst, n).words
    members = ws.winning_members(X)
    maximal = ws.winning_set(X).maximal
    wins = set(maximal)
    losses = set()
    for m in maximal:
        wins.add(tuple(rng.randint(1, k) for k in m))
        for p, k in enumerate(m):
            raised = m[:p] + (k + 1,) + m[p + 1:]
            if k < subst.size and raised not in members:
                losses.add(raised)
    picked = rng.sample(sorted(wins), min(POOL_SIDE, len(wins)))
    picked += rng.sample(sorted(losses), min(POOL_SIDE, len(losses)))
    return {digits(alpha): alpha in members for alpha in sorted(picked)}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import winshift as ws
    from winshift.tm_reference import THUE_MORSE_ROWS

    import checker
    import workloads

    rng = random.Random(0)
    game = {"member_pool": {}, "transport_alpha": {}, "language_size": {}}
    for name, n in workloads.GAME_TARGETS:
        subst = ws.make_substitution(workloads.BASES[name])
        game["member_pool"][f"{name}/{n}"] = member_pool(ws, subst, n, rng)
    for name, n in workloads.BRUTE_TARGETS:
        subst = ws.make_substitution(workloads.BASES[name])
        game["language_size"][f"{name}/{n - 1}"] = len(ws.language(subst, n - 1))
    for name, n in workloads.TRANSPORTS:
        subst = ws.make_substitution(workloads.BASES[name])
        irreducible = ws.enumerate_irreducible(subst, n, method="brute")
        game["transport_alpha"][f"{name}/{n}"] = digits(max(irreducible))
    expected = {
        "factor-tables": {},
        "game-solve": game,
        "cli-tables": {"tm_reference_rows": {str(n): rows for n, rows in THUE_MORSE_ROWS.items()}},
    }

    workdir = ROOT / ".perfbench" / "record"
    for name, build in workloads.WORKLOADS.items():
        inputs = workloads.Inputs(name, 0, 0, identity=True)
        work = build(inputs, expected[name], workdir)
        work.setup()
        for outcome in checker.timed_pass(work.queries):
            query, answer = outcome.query, outcome.answer
            if query.known_defect or query.kind == "member":
                continue
            if isinstance(answer, checker.Raised) or not query.oracle(answer):
                sys.stderr.write(f"{name}: {query.key} fails its oracle; not recorded\n")
                return 1
            expected[name][query.key] = query.digest(answer)
        # the pools' verdicts are checked the same way: by their certificates
        for outcome in checker.timed_pass(work.queries):
            if outcome.query.kind == "member" and checker.judge(outcome.query, outcome.answer):
                sys.stderr.write(f"{name}: {outcome.query.key} fails its check\n")
                return 1

    path = Path(__file__).parent / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
