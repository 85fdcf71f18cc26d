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
from functools import cache
from itertools import chain

from . import complexity as cx
from . import gtm as gtm_mod
from . import shift, verify
from .catalog import gtm_parameters, resolve_substitution, substitution_to_dict
from .errors import PreconditionError, WinshiftError
from .game import StrategyTree, member, winning_set, winning_set_cardinality
from .recognizability import periodicity, sync_delay
from .substitution import Substitution, fixed_point_prefix, language, require_factor_length
from .words import WILDCARD, ChoiceSequence, format_choices, format_word, parse_choices

_SYNC_CAP_ENV = "WINSHIFT_SYNC_CAP"


def _emit_pieces(pieces) -> None:
    """Write one answer in one call: a single join of ``pieces``, which hold
    every newline, the last one included.  Every piece is built before
    anything is written, so an answer that fails leaves stdout empty."""
    sys.stdout.write("".join(pieces))


def _emit_lines(lines) -> None:
    """Write every line, each ending in a newline; none writes nothing."""
    _emit_pieces(piece for line in lines for piece in (line, "\n"))


def _emit(text: str) -> None:
    _emit_pieces((text, "\n"))


_JSON = json.JSONEncoder(sort_keys=True, indent=2)


def _emit_json(obj) -> None:
    """The JSON text of ``obj`` and its newline, joined once from the
    encoder's chunks."""
    _emit_pieces(chain(_JSON.iterencode(obj), ("\n",)))


def _write(path: str, text: str) -> None:
    """Write an output file; a failed write is a domain error, like a failed read."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


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
    subst, label = resolve_substitution(args.subst)
    if args.emit:
        _write(args.emit, _JSON.encode(substitution_to_dict(subst, label)) + "\n")
    if args.format == "json":
        obj = substitution_to_dict(subst, label)
        obj["flags"] = _flags(subst)
        _emit_json(obj)
        return 0
    lines = [f"name: {label}", f"alphabet: {subst.size}"]
    for a in subst.letters:
        lines.append(f"  {a} -> {format_word(subst.image(a), subst.size)}")
    for key, value in _flags(subst).items():
        lines.append(f"{key}: {value}")
    _emit_lines(lines)
    return 0


def cmd_fixedpoint(args) -> int:
    subst, _ = resolve_substitution(args.subst)
    prefix = fixed_point_prefix(subst, args.letter, args.length)
    _emit(format_word(prefix, subst.size))
    return 0


def cmd_language(args) -> int:
    subst, _ = resolve_substitution(args.subst)
    lang = language(subst, args.length)
    _periodicity_label(subst, args.format)
    if args.format == "json":
        words = [format_word(w, subst.size) for w in lang.words]
        _emit_json({"n": lang.n, "count": len(words), "words": words})
    else:
        _print_words(lang.words, subst.size)
    return 0


def _print_words(words, size: int) -> None:
    _emit_lines(format_word(w, size) for w in words)


def _periodicity_label(subst: Substitution, fmt: str) -> list[str]:
    """The ``assumptions`` of a json answer on ``subst``, which has been
    answered, so it is primitive.  A uniform periodic input is named there,
    or in a stderr note in the other formats; commands whose json has no
    ``assumptions`` call this for the note alone."""
    if subst.uniform:
        periodic, at = periodicity(subst)
        if periodic:
            stall = f"periodic: its factor complexity stalls at length {at}"
            if fmt != "json":
                sys.stderr.write(f"note: {stall}\n")
            return [stall]
    return ["aperiodicity assumed (run verify to probe)"]


def cmd_syncdelay(args) -> int:
    subst, _ = resolve_substitution(args.subst)
    result = sync_delay(subst, args.cap)
    assumptions = _periodicity_label(subst, args.format)
    witness = (
        format_word(result.witness, subst.size) if result.witness is not None else None
    )
    if args.format == "json":
        _emit_json(
            {
                "L": result.delay,
                "witness": witness,
                "offsets_of_witness": sorted(result.witness_offsets),
                "assumptions": assumptions,
            }
        )
    else:
        _emit(f"L = {result.delay}")
        if witness is not None:
            offsets = ", ".join(str(i) for i in sorted(result.witness_offsets))
            _emit(f"witness = {witness} (offsets {{{offsets}}})")
    return 0


def cmd_winset(args) -> int:
    subst, _ = resolve_substitution(args.subst)
    if args.choice_seq is None:
        target = language(subst, args.length).words
        maximal = [format_choices(m, subst.size) for m in winning_set(target).maximal]
        count = winning_set_cardinality(target)
        _periodicity_label(subst, args.format)
        if args.format == "json":
            _emit_json({"length": args.length, "count": count, "maximal": maximal})
        else:
            _emit_lines(maximal + [f"count = {count}"])
        return 0
    # the sequence is checked before L_n is built: a mismatched one is
    # refused however long the target words would be
    require_factor_length(subst, args.length)
    alpha = parse_choices(args.choice_seq, subst.size)
    if len(alpha) != args.length:
        raise PreconditionError("choice sequence length must match the target word length")
    outcome = member(language(subst, args.length).words, alpha, alphabet_size=subst.size)
    # the tree is written first, so a failed write leaves stdout empty
    if args.export_dot:
        if outcome.win:
            _write(args.export_dot, strategy_to_dot(outcome.strategy, subst.size))
        else:
            sys.stderr.write("lose: no strategy tree to export\n")
    verdict = "win" if outcome.win else "lose"
    _periodicity_label(subst, args.format)
    if args.format == "json":
        _emit_json({"choice_seq": args.choice_seq, "result": verdict})
    else:
        _emit(verdict)
    return 0


@cache
def _text_spelling(m: int):
    """``spell_suffixes`` spellers for the text of :func:`format_choices`, each
    letter with the separator before it: none up to 9 letters, a comma above.
    Built once per alphabet size, so a table reuses them at every length."""
    if m <= 9:
        def stretch(text: str, M: int) -> str:
            body = bytearray(b"1") * ((len(text) - 1) * M + 1)
            body[::M] = text.encode()
            return body.decode()

        return lambda g: format_word(g, m), stretch

    def stretch_listed(text: str, M: int) -> str:
        # ",a,b" -> ",a,1,..,1,b": every comma but the first gains M - 1 ones
        sep = ",1" * (M - 1) + ","
        return text.replace(",", sep)[len(sep) - 1:]

    return lambda g: "".join(f",{c}" for c in g), stretch_listed


def _level_rows(subst: Substitution, n: int, method: str, spelled: dict | None = None) -> list:
    """The irreducible sequences of length n as (suffix text, range of first
    letters), in suffix order; ``spelled`` carries spelled levels between lengths."""
    level = shift.irreducible_level(subst, n, method)
    tails = shift.spell_suffixes(level, *_text_spelling(subst.size), spelled)
    return [(tail, level.leads(letters)) for tail, (_, _, letters) in zip(tails, level.rows)]


def compress(sequences, m: int) -> tuple[str, ...]:
    """Wildcard-compress a set of sequences for table display.

    A suffix group collapses to a wildcard row exactly when every first
    letter 1..m occurs (or, at length 1, when all irreducible first
    letters occur); other groups are listed concretely.  Rows are spelled
    by :func:`format_choices`, so above 9 letters they read ``◇,1,10``.
    """
    groups: dict[ChoiceSequence, set[int]] = {}
    for seq in sequences:
        groups.setdefault(tuple(seq[1:]), set()).add(seq[0])
    # each suffix spelled with its leading separator, if any
    tails = [
        (format_choices((0,) + suffix, m)[1:], sorted(firsts))
        for suffix, firsts in sorted(groups.items())
    ]
    return tuple(lead + tail for lead, tail in _row_parts(tails, m))


def _row_parts(groups, m: int):
    """(lead, tail) of every row of :func:`compress`, from (suffix text,
    ascending first letters) pairs in suffix order; the lead is the
    wildcard or one first letter, and the tail is the suffix text itself."""
    for tail, firsts in groups:
        # At length 1 (no tail) the first letter is also the last, so 1 is
        # reducible and a wildcard row can only ever cover 2..m.  Distinct
        # ascending letters from low to m, as many as low..m, are low..m.
        low = 1 if tail else 2
        if firsts[0] == low and firsts[-1] == m and len(firsts) == m + 1 - low:
            yield WILDCARD, tail
        else:
            for first in firsts:
                yield str(first), tail


def _sorted_parts(groups):
    """(first letter, suffix text) of every sequence of the (suffix text,
    range of first letters) pairs, in sorted order: first letter, then suffix."""
    top = max((firsts[-1] for _, firsts in groups if firsts), default=0)
    for t in range(1, top + 1):
        lead = str(t)
        for tail, firsts in groups:
            if t in firsts:
                yield lead, tail


def _add_lines(pieces: list[str], parts, label: str = "") -> list[str]:
    """``pieces`` grown by one line per (lead, tail) part: ``label``, lead,
    tail and a newline, each an existing string that is not copied."""
    for lead, tail in parts:
        pieces += (label, lead, tail, "\n")
    return pieces


def cmd_winshift(args) -> int:
    subst, _ = resolve_substitution(args.subst)
    m = subst.size
    if args.table:
        low, high = args.table
        # each base level is spelled once for the whole table, and its rows'
        # pieces are joined once every length is built, so a failing length
        # leaves stdout empty
        spelled: dict = {}
        pieces: list[str] = []
        for n in range(low, high + 1):
            rows = _row_parts(_level_rows(subst, n, args.method, spelled), m)
            _add_lines(pieces, rows, f"{n}: ")
        _periodicity_label(subst, args.format)
        _emit_pieces(pieces)
        return 0
    groups = _level_rows(subst, args.length, args.method)
    assumptions = _periodicity_label(subst, args.format)
    if args.format == "text":
        _emit_pieces(_add_lines([], _row_parts(groups, m)))
        return 0
    if args.format == "json":
        ordered = [lead + tail for lead, tail in _sorted_parts(groups)]
        _emit_json(
            {
                "length": args.length,
                "irreducible": ordered,
                "count": len(ordered),
                "assumptions": assumptions,
            }
        )
        return 0
    _emit_pieces(_add_lines(["n,sequence\n"], _sorted_parts(groups), f"{args.length},"))
    return 0


def cmd_delta(args) -> int:
    subst, _ = resolve_substitution(args.subst)
    method = cx.resolve_method(subst, args.method)
    delta = cx.delta_recurrence if method == "recurrence" else cx.delta_direct
    value = delta(subst, args.n)
    _periodicity_label(subst, "text")
    _emit(str(value))
    return 0


def cmd_complexity(args) -> int:
    subst, _ = resolve_substitution(args.subst)
    table = cx.complexity_table(subst, args.upto, args.method)
    _periodicity_label(subst, args.format)
    _print_complexity(table, args.format)
    return 0


def _print_complexity(table: cx.ComplexityTable, fmt: str, verdict: str | None = None) -> None:
    """csv or json table; in json a ``gtm --verify`` verdict joins the object."""
    if fmt == "json":
        obj = {
            "upto": table.upto,
            "delta": list(table.deltas),
            "f": list(table.values),
            "method": list(table.methods),
        }
        if verdict is not None:
            obj["verify"] = verdict
        _emit_json(obj)
        return
    rows = (
        f"{n},{table.deltas[n]},{table.values[n]},{table.methods[n]}" for n in range(table.upto + 1)
    )
    _emit_lines(chain(("n,delta,f,method",), rows))


def cmd_gtm(args) -> int:
    b, m, kind = args.b, args.m, args.gtm_command
    if kind == "word":
        if args.size < 0:
            raise PreconditionError("prefix length must be nonnegative")
        _emit(format_word(tuple(gtm_mod.gtm_letter(b, m, i) for i in range(args.size)), m))
        return 0
    shown, verdict = verify.gtm_answer(kind, b, m, args.size, args.verify)
    if kind == "complexity":
        _print_complexity(shown, args.format, verdict)
    elif kind == "factors":
        _print_words(shown, m)
    elif kind == "winshift":
        _emit_lines(compress(shown, m))
    else:
        _emit(f"L = {shown}" if kind == "syncdelay" else str(shown))
    if verdict is not None and args.format != "json":
        _emit("verify: ok" if verdict == "ok" else verdict)
    return 0 if verdict in (None, "ok") else 3


def cmd_verify(args) -> int:
    gtm = gtm_parameters(args.subst) if args.subst else (args.b, args.m)
    subst = gtm_mod.gtm_substitution(*gtm) if gtm else resolve_substitution(args.subst)[0]
    rows = verify.run(subst, args.subst, gtm, args.depth)
    failed = any(status == "fail" for status, _, _ in rows)
    _emit_lines(f"{status.upper():7s} {name}: {detail}" for status, name, detail in rows)
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
    """``A..B`` as (A, B), or a bare ``B`` as (1, B); argparse reports a bad
    or reversed one."""
    low, dots, high = text.partition("..")
    try:
        bounds = (int(low), int(high)) if dots else (1, int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B or B, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: expected A..B with A <= B")
    return bounds


def _parse_cap(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer from --cap or ${_SYNC_CAP_ENV}, got {text!r}"
        ) from None


@cache
def build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The parser, built once per process, and its ``--cap`` action, whose
    default :func:`main` reads from the environment before every parse."""
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
    cap = p.add_argument(
        "--cap",
        type=_parse_cap,
        help=f"length cap of the search (default: ${_SYNC_CAP_ENV}, else none)",
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
    # each command's size option is ``size`` and only complexity has a
    # format; the metavars keep the help as the option names made it
    q = gtm_sub.add_parser("word")
    q.add_argument("--length", dest="size", metavar="LENGTH", type=int, required=True)
    q = gtm_sub.add_parser("factors")
    q.add_argument("--n", dest="size", type=int, required=True, choices=(2, 3))
    q.add_argument("--verify", action="store_true")
    q = gtm_sub.add_parser("syncdelay")
    q.add_argument("--verify", action="store_true")
    q = gtm_sub.add_parser("winshift")
    q.add_argument("--length", dest="size", metavar="LENGTH", type=int, required=True)
    q.add_argument("--verify", action="store_true")
    q = gtm_sub.add_parser("delta")
    q.add_argument("--n", dest="size", metavar="N", type=int, required=True)
    q.add_argument("--verify", action="store_true")
    q = gtm_sub.add_parser("complexity")
    q.add_argument("--upto", dest="size", metavar="UPTO", type=int, required=True)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.add_argument("--verify", action="store_true")
    p.set_defaults(handler=cmd_gtm, size=None, format=None)

    p = sub.add_parser("verify", help="cross-validate the pipelines and known values")
    p.add_argument("--subst", default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(handler=cmd_verify)

    return parser, cap


def _usage_problem(args) -> str | None:
    """A rule the command line breaks that argparse does not check."""
    if args.command == "winshift":
        if args.length is None and args.table is None:
            return "winshift needs --length or --table"
        if args.table is not None and args.length is not None:
            return "winshift takes --length or --table, not both"
        if args.table is not None and args.format != "text":
            return "winshift --table prints text rows only; drop --format"
        return None
    if args.command != "verify":
        return None
    if args.subst and (args.b is not None or args.m is not None):
        return "verify takes --subst or --b and --m, not both"
    if not args.subst and (args.b is None or args.m is None):
        return "verify needs --subst or both --b and --m"
    if args.depth < 1:
        return "verify needs --depth >= 1"
    return None


def main(argv=None) -> int:
    parser, cap = build_parser()
    # read when parsing, not when building: argparse converts a string
    # default with ``type``, so a malformed value is a usage error like a
    # malformed --cap
    cap.default = os.environ.get(_SYNC_CAP_ENV) or None
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    problem = _usage_problem(args)
    if problem:
        sys.stderr.write(f"error: {problem}\n")
        return 2
    try:
        return args.handler(args)
    except WinshiftError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
