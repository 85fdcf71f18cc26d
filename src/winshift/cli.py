"""Command-line front end: classification, languages, games, winning shifts.

Exit codes: 0 success, 1 domain error (unsupported or invalid input),
2 usage error, 3 verification failure.  Output is deterministic: equal
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import complexity as cx
from . import gtm as gtm_mod
from . import shift
from .catalog import resolve_substitution, substitution_to_dict
from .errors import CapExceededError, PeriodicInputError, WinshiftError
from .game import StrategyTree, member, winning_set, winning_set_cardinality
from .recognizability import sync_delay
from .substitution import (
    Substitution,
    fixed_point_prefix,
    language,
    periodicity_probe,
)
from .tm_reference import compress, expand_row
from .words import format_choices, format_word, parse_choices

_SYNC_CAP_ENV = "WINSHIFT_SYNC_CAP"


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _resolve(args) -> tuple[Substitution, str]:
    return resolve_substitution(args.subst)


def _flags(subst: Substitution) -> dict:
    return {
        "uniform": subst.uniform,
        "uniform_length": subst.uniform_length,
        "left_marked": subst.left_marked,
        "right_marked": subst.right_marked,
        "marked": subst.marked,
        "permutive": subst.permutive,
        "primitive": subst.primitive,
    }


def cmd_classify(args) -> int:
    subst, label = _resolve(args)
    if args.emit:
        with open(args.emit, "w") as handle:
            handle.write(_json(substitution_to_dict(subst, label)) + "\n")
    if args.format == "json":
        obj = substitution_to_dict(subst, label)
        obj["flags"] = _flags(subst)
        _emit(_json(obj))
        return 0
    lines = [f"name: {label}", f"alphabet: {subst.size}"]
    for a in subst.letters:
        lines.append(f"  {a} -> {format_word(subst.image(a), subst.size)}")
    for key, value in _flags(subst).items():
        lines.append(f"{key}: {value}")
    _emit("\n".join(lines))
    return 0


def cmd_fixedpoint(args) -> int:
    subst, _ = _resolve(args)
    prefix = fixed_point_prefix(subst, args.letter, args.length)
    _emit(format_word(prefix, subst.size))
    return 0


def cmd_language(args) -> int:
    subst, _ = _resolve(args)
    lang = language(subst, args.length)
    words = [format_word(w, subst.size) for w in lang.words]
    if args.format == "json":
        _emit(_json({"n": lang.n, "count": len(words), "words": words}))
    else:
        _emit("\n".join(words) if words else "")
    return 0


def cmd_syncdelay(args) -> int:
    subst, _ = _resolve(args)
    result = sync_delay(subst, args.cap)
    witness = (
        format_word(result.witness, subst.size) if result.witness is not None else None
    )
    if args.format == "json":
        _emit(
            _json(
                {
                    "L": result.delay,
                    "witness": witness,
                    "offsets_of_witness": sorted(result.witness_offsets),
                    "assumptions": ["aperiodicity assumed (run verify to probe)"],
                }
            )
        )
    else:
        _emit(f"L = {result.delay}")
        if witness is not None:
            offsets = ", ".join(str(i) for i in sorted(result.witness_offsets))
            _emit(f"witness = {witness} (offsets {{{offsets}}})")
    return 0


def cmd_winset(args) -> int:
    subst, _ = _resolve(args)
    target = language(subst, args.length).words
    if args.choice_seq is None:
        wset = winning_set(target)
        if args.format == "json":
            _emit(
                _json(
                    {
                        "length": args.length,
                        "count": winning_set_cardinality(target),
                        "maximal": [format_choices(m, subst.size) for m in wset.maximal],
                    }
                )
            )
        else:
            for m in wset.maximal:
                _emit(format_choices(m, subst.size))
            _emit(f"count = {winning_set_cardinality(target)}")
        return 0
    alpha = parse_choices(args.choice_seq, subst.size)
    outcome = member(target, alpha, alphabet_size=subst.size)
    verdict = "win" if outcome.win else "lose"
    if args.format == "json":
        _emit(_json({"choice_seq": args.choice_seq, "result": verdict}))
    else:
        _emit(verdict)
    if args.export_dot:
        if outcome.win:
            with open(args.export_dot, "w") as handle:
                handle.write(strategy_to_dot(outcome.strategy, subst.size))
        else:
            _emit("lose: no strategy tree to export")
    return 0


def cmd_winshift(args) -> int:
    subst, _ = _resolve(args)
    if args.table:
        low, high = args.table
        for n in range(low, high + 1):
            rows = shift.enumerate_irreducible(subst, n, args.method)
            for row in compress(rows, subst.size):
                _emit(f"{n}: {row}")
        return 0
    rows = shift.enumerate_irreducible(subst, args.length, args.method)
    ordered = sorted(rows)
    if args.format == "json":
        _emit(
            _json(
                {
                    "length": args.length,
                    "irreducible": [format_choices(r, subst.size) for r in ordered],
                    "count": len(ordered),
                    "assumptions": ["aperiodicity assumed (run verify to probe)"],
                }
            )
        )
    elif args.format == "csv":
        lines = ["n,sequence"]
        lines += [f"{args.length},{format_choices(r, subst.size)}" for r in ordered]
        _emit("\n".join(lines))
    else:
        for row in compress(ordered, subst.size):
            _emit(row)
    return 0


def cmd_delta(args) -> int:
    subst, _ = _resolve(args)
    if args.method == "recurrence":
        value = cx.delta_recurrence(subst, args.n)
    elif args.method == "direct":
        value = cx.delta_direct(subst, args.n)
    else:
        value = (
            cx.delta_recurrence(subst, args.n)
            if subst.uniform and subst.marked
            else cx.delta_direct(subst, args.n)
        )
    _emit(str(value))
    return 0


def cmd_complexity(args) -> int:
    subst, _ = _resolve(args)
    table = cx.complexity_table(subst, args.upto, args.method)
    return _print_complexity(table, args.format)


def _print_complexity(table: cx.ComplexityTable, fmt: str) -> int:
    if fmt == "json":
        _emit(
            _json(
                {
                    "upto": table.upto,
                    "delta": list(table.deltas),
                    "f": list(table.values),
                    "method": list(table.methods),
                }
            )
        )
        return 0
    lines = ["n,delta,f,method"]
    for n in range(table.upto + 1):
        lines.append(f"{n},{table.deltas[n]},{table.values[n]},{table.methods[n]}")
    _emit("\n".join(lines))
    return 0


def cmd_gtm(args) -> int:
    b, m = args.b, args.m
    sub = args.gtm_command
    if sub == "word":
        letters = tuple(gtm_mod.gtm_letter(b, m, i) for i in range(args.length))
        _emit(format_word(letters, m))
        return 0
    if sub == "factors":
        words = sorted(gtm_mod.gtm_factors(b, m, args.n))
        _emit("\n".join(format_word(w, m) for w in words))
        if args.verify:
            computed = set(language(gtm_mod.gtm_substitution(b, m), args.n).words)
            if computed != set(words):
                _emit("VERIFY FAIL: closed-form factors differ from the language")
                return 3
            _emit("verify: ok")
        return 0
    if sub == "syncdelay":
        value = gtm_mod.gtm_sync_delay(b, m, verify=args.verify)
        _emit(f"L = {value}")
        if args.verify:
            _emit("verify: ok")
        return 0
    if sub == "winshift":
        rows = sorted(gtm_mod.gtm_irreducibles(b, m, args.length))
        for row in compress(rows, m):
            _emit(row)
        if args.verify:
            computed = shift.enumerate_irreducible(
                gtm_mod.gtm_substitution(b, m), args.length, "auto"
            )
            if computed != frozenset(rows):
                _emit("VERIFY FAIL: closed-form winning shift differs from enumeration")
                return 3
            _emit("verify: ok")
        return 0
    if sub == "delta":
        value = gtm_mod.gtm_delta(b, m, args.n)
        _emit(str(value))
        if args.verify:
            direct = cx.delta_direct(gtm_mod.gtm_substitution(b, m), args.n)
            if direct != value:
                _emit(f"VERIFY FAIL: direct value {direct}")
                return 3
            _emit("verify: ok")
        return 0
    if sub == "complexity":
        table = gtm_mod.gtm_complexity_table(b, m, args.upto)
        code = _print_complexity(table, args.format)
        if code == 0 and args.verify:
            direct = cx.complexity_table(
                gtm_mod.gtm_substitution(b, m), args.upto, "direct"
            )
            if direct.values != table.values:
                _emit("VERIFY FAIL: closed-form complexity differs from enumeration")
                return 3
            _emit("verify: ok")
        return code
    raise AssertionError(f"unhandled gtm subcommand {sub!r}")


@dataclass
class VerifyCheck:
    name: str
    status: str
    detail: str


def _known_facts(label: str) -> dict:
    facts: dict = {}
    if label == "tm":
        facts["delay"] = 4
        facts["table"] = True
    elif label == "ex42":
        facts["delay"] = 5
        facts["deltas"] = {6: 4, 14: 5}
    elif label == "ex46":
        facts["delay"] = 6
        facts["membership"] = (7, (3, 1, 1, 1, 1, 1, 2))
    elif label.startswith("gtm:"):
        b = int(label[4:].split(",")[0])
        facts["delay"] = 2 * b
    return facts


def run_verify(subst: Substitution, label: str, depth: int) -> list[VerifyCheck]:
    checks: list[VerifyCheck] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append(VerifyCheck(name, "pass" if passed else "fail", detail))

    def skip(name: str, reason: str) -> None:
        checks.append(VerifyCheck(name, "skipped", reason))

    probe = periodicity_probe(subst)
    if probe.periodic:
        record("periodicity-probe", False, f"periodic: complexity stalls at {probe.detected_at}")
        return checks
    record("periodicity-probe", True, f"aperiodic up to {probe.bound}")

    facts = _known_facts(label)
    if subst.uniform:
        delay = sync_delay(subst).delay
        if "delay" in facts:
            record("known-delay", delay == facts["delay"], f"L = {delay}")
    else:
        delay = None
        skip("known-delay", "not uniform")

    ok = True
    for n in range(1, min(depth, 14) + 1):
        target = language(subst, n).words
        if winning_set_cardinality(target) != len(target):
            ok = False
    record("cardinality", ok, f"|W| = |X| for n <= {min(depth, 14)}")

    ok = True
    for n in range(1, min(depth, 8) + 1):
        members = winning_set(language(subst, n).words).expansion
        for alpha in members:
            for p, letter in enumerate(alpha):
                if letter > 1:
                    lowered = alpha[:p] + (letter - 1,) + alpha[p + 1:]
                    if lowered not in members:
                        ok = False
    record("downward-closure", ok, f"n <= {min(depth, 8)}")

    if subst.uniform and subst.marked and delay is not None:
        M = subst.uniform_length
        ok = True
        for n in range(delay + 1, delay + 2 * M + 1):
            brute = shift.enumerate_irreducible(subst, n, "brute")
            fast = shift.enumerate_irreducible(subst, n, "substitutive")
            if brute != fast:
                ok = False
        record("substitutive-vs-brute", ok, f"lengths {delay + 1}..{delay + 2 * M}")
        ok = True
        for n in range(1, depth + 1):
            if cx.delta_recurrence(subst, n) != cx.delta_direct(subst, n):
                ok = False
        record("delta-recurrence", ok, f"n <= {depth}")
    else:
        skip("substitutive-vs-brute", "not marked")
        skip("delta-recurrence", "not marked")

    if subst.uniform and subst.left_marked and delay is not None:
        ok = True
        for n in range(delay + 1, delay + subst.uniform_length + 1):
            rows = sorted(shift.enumerate_irreducible(subst, n, "auto"))[:6]
            for alpha in rows:
                if not shift.verify_form(subst, alpha):
                    ok = False
                shift.choice_decomposition(subst, alpha, verify=True)
        record("decomposition-form", ok, "sampled winning sequences past the delay")
    else:
        skip("decomposition-form", "not left-marked")

    if "deltas" in facts:
        ok = all(cx.delta_direct(subst, n) == v for n, v in facts["deltas"].items())
        record("known-deltas", ok, str(facts["deltas"]))
    if "membership" in facts:
        n, alpha = facts["membership"]
        outcome = member(language(subst, n).words, alpha, alphabet_size=subst.size)
        record(
            "known-membership",
            outcome.win,
            f"{format_choices(alpha, subst.size)} at length {n}",
        )

    if label.startswith("gtm:"):
        b, m = (int(x) for x in label[4:].split(","))
        ok = True
        for n in range(1, min(depth, 12) + 1):
            if gtm_mod.gtm_delta(b, m, n) != cx.delta_direct(subst, n):
                ok = False
            if gtm_mod.gtm_complexity(b, m, n) != len(language(subst, n)):
                ok = False
        for n in (2, 3):
            if gtm_mod.gtm_factors(b, m, n) != frozenset(language(subst, n).words):
                ok = False
        for n in range(1, min(depth, 20) + 1):
            if gtm_mod.gtm_irreducibles(b, m, n) != shift.enumerate_irreducible(subst, n):
                ok = False
        record("gtm-closed-forms", ok, f"diffs up to depth {min(depth, 20)}")
    else:
        skip("gtm-closed-forms", "not a gtm substitution")

    if facts.get("table"):
        ok = True
        for n in range(1, min(depth, 24) + 1):
            if expand_row(n, subst.size) != shift.enumerate_irreducible(subst, n):
                ok = False
        record("tm-reference-table", ok, f"rows 1..{min(depth, 24)}")
    else:
        skip("tm-reference-table", "reference rows cover tm only")
    return checks


def cmd_verify(args) -> int:
    if args.subst:
        subst, label = resolve_substitution(args.subst)
    else:
        subst, label = gtm_mod.gtm_substitution(args.b, args.m), f"gtm:{args.b},{args.m}"
    checks = run_verify(subst, label, args.depth)
    failed = [c for c in checks if c.status == "fail"]
    for check in checks:
        _emit(f"{check.status.upper():7s} {check.name}: {check.detail}")
    _emit(f"overall: {'fail' if failed else 'pass'}")
    return 3 if failed else 0


def strategy_to_dot(tree: StrategyTree, alphabet_size: int) -> str:
    """DOT rendering with chains contracted: edges appear only at branchings."""
    lines = ["digraph strategy {", "  node [shape=box];"]
    ids: dict[tuple[int, ...], str] = {}

    def node_id(prefix: tuple[int, ...]) -> str:
        if prefix not in ids:
            ids[prefix] = f"n{len(ids)}"
            label = format_word(prefix, alphabet_size) or "ε"
            lines.append(f'  {ids[prefix]} [label="{label}"];')
        return ids[prefix]

    def walk(node: StrategyTree, prefix: tuple[int, ...]) -> None:
        src = node_id(prefix)
        if node.is_leaf:
            return
        for c in node.offer:
            segment = [c]
            cursor = node.children[c]
            while not cursor.is_leaf and len(cursor.offer) == 1:
                (d,) = cursor.offer
                segment.append(d)
                cursor = cursor.children[d]
            grown = prefix + tuple(segment)
            dst = node_id(grown)
            seg_text = format_word(tuple(segment), alphabet_size)
            lines.append(f'  {src} -> {dst} [label="{seg_text}"];')
            walk(cursor, grown)

    walk(tree, ())
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_range(text: str) -> tuple[int, int]:
    """``A..B`` as (A, B), or a bare ``B`` as (1, B); argparse reports a bad one."""
    low, dots, high = text.partition("..")
    try:
        return (int(low), int(high)) if dots else (1, int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B or B, got {text!r}") from None


def _parse_cap(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer from --cap or ${_SYNC_CAP_ENV}, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winshift",
        description="Winning shifts, synchronization and factor complexity "
        "of uniform substitutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_subst(p):
        p.add_argument("--subst", required=True, help="built-in name or JSON file")

    p = sub.add_parser("classify", help="validate a substitution and print its flags")
    add_subst(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--emit", metavar="PATH", help="write the substitution back as JSON")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("fixedpoint", help="prefix of the fixed point")
    add_subst(p)
    p.add_argument("--letter", type=int, default=0)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(handler=cmd_fixedpoint)

    p = sub.add_parser("language", help="length-n factors of the subshift")
    add_subst(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_language)

    p = sub.add_parser("syncdelay", help="synchronization delay and witness")
    add_subst(p)
    # argparse converts a string default with ``type``, so a malformed
    # environment value is a usage error like a malformed --cap
    p.add_argument(
        "--cap",
        type=_parse_cap,
        default=os.environ.get(_SYNC_CAP_ENV) or None,
        help=f"length cap of the search (default: ${_SYNC_CAP_ENV}, else a built-in bound)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_syncdelay)

    p = sub.add_parser("winset", help="winning set of the length-n language")
    add_subst(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--choice-seq", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--export-dot", metavar="PATH", default=None)
    p.set_defaults(handler=cmd_winset)

    p = sub.add_parser("winshift", help="irreducible sequences of the winning shift")
    add_subst(p)
    p.add_argument("--length", type=int)
    p.add_argument("--method", choices=("auto", "brute", "substitutive"), default="auto")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--table", metavar="A..B", type=_parse_range, default=None)
    p.set_defaults(handler=cmd_winshift)

    p = sub.add_parser("delta", help="first difference of the factor complexity")
    add_subst(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("auto", "direct", "recurrence"), default="auto")
    p.set_defaults(handler=cmd_delta)

    p = sub.add_parser("complexity", help="factor complexity table")
    add_subst(p)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--method", choices=("auto", "direct", "recurrence"), default="auto")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_complexity)

    p = sub.add_parser("gtm", help="closed forms for generalized Thue-Morse words")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    gtm_sub = p.add_subparsers(dest="gtm_command", required=True)
    q = gtm_sub.add_parser("word")
    q.add_argument("--length", type=int, required=True)
    q = gtm_sub.add_parser("factors")
    q.add_argument("--n", type=int, required=True, choices=(2, 3))
    q.add_argument("--verify", action="store_true")
    q = gtm_sub.add_parser("syncdelay")
    q.add_argument("--verify", action="store_true")
    q = gtm_sub.add_parser("winshift")
    q.add_argument("--length", type=int, required=True)
    q.add_argument("--verify", action="store_true")
    q = gtm_sub.add_parser("delta")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--verify", action="store_true")
    q = gtm_sub.add_parser("complexity")
    q.add_argument("--upto", type=int, required=True)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.add_argument("--verify", action="store_true")
    p.set_defaults(handler=cmd_gtm)

    p = sub.add_parser("verify", help="cross-validate the pipelines and known values")
    p.add_argument("--subst", default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(handler=cmd_verify)

    return parser


def _run(args) -> int:
    try:
        return args.handler(args)
    except CapExceededError:
        # A periodic subshift never synchronizes, so a larger cap cannot
        # help; the probe runs on this failure path only.
        subst = _resolve(args)[0] if getattr(args, "subst", None) else None
        if subst is not None and subst.primitive:
            probe = periodicity_probe(subst)
            if probe.periodic:
                raise PeriodicInputError(
                    "the substitution is periodic: its factor complexity stalls "
                    f"at length {probe.detected_at}, so no cap can help"
                ) from None
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "winshift" and args.length is None and args.table is None:
        sys.stderr.write("error: winshift needs --length or --table\n")
        return 2
    if args.command == "verify" and not args.subst and (args.b is None or args.m is None):
        sys.stderr.write("error: verify needs --subst or both --b and --m\n")
        return 2
    try:
        return _run(args)
    except WinshiftError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
