"""Golden CLI corpus: exit code and stdout digest of every recorded invocation.

``cli_golden.json`` maps each command line to (exit code, sha256 of stdout,
stderr kind).  Stderr is compared only by its ``error:``/``usage:`` prefix, so
domain errors may be reworded without touching the corpus.  ``{marked}`` is a
marked three-letter substitution and ``{perm4}`` a permutive four-letter one,
both written as JSON; ``{cycle3}`` is a marked periodic substitution that
never synchronizes, ``{twin}`` an unmarked periodic one that synchronizes at
L = 1, and ``{fib}`` the non-uniform Fibonacci substitution.
``{dot}`` and ``{emit}`` are scratch output paths.  Every entry runs with
``COLUMNS=80``, because argparse wraps help and usage text to the terminal
width.

Re-record after a deliberate output change with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from winshift.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
MARKED = {"alphabet": 3, "images": [[0, 0, 1], [1, 0, 2], [2, 1, 0]], "name": "marked3"}
PERM4 = {
    "alphabet": 4,
    "images": [[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 2, 1, 0]],
    "name": "perm4",
}
CYCLE3 = {"alphabet": 3, "images": [[0, 1], [2, 0], [1, 2]], "name": "cycle3"}
FIB = {"alphabet": 2, "images": [[0, 1], [0]], "name": "fib"}
TWIN = {"alphabet": 2, "images": [[0, 1], [0, 1]], "name": "twin"}

SUBSTS = ("tm", "ex42", "ex46", "gtm:2,3", "gtm:3,3", "{marked}")
PER_SUBST = (
    "classify --subst {s}",
    "classify --subst {s} --format json",
    "classify --subst {s} --emit {{emit}}",
    "fixedpoint --subst {s} --length 20",
    "language --subst {s} --length 4",
    "language --subst {s} --length 4 --format json",
    "syncdelay --subst {s}",
    "syncdelay --subst {s} --format json",
    "winset --subst {s} --length 4",
    "winset --subst {s} --length 4 --format json",
    "winset --subst {s} --length 4 --choice-seq 2212 --export-dot {{dot}}",
    "winset --subst {s} --length 5 --choice-seq 22112",
    "winset --subst {s} --length 5 --choice-seq 22112 --format json --export-dot {{dot}}",
    "winset --subst {s} --length 5 --choice-seq 22112 --export-dot {{dot}}",
    "winshift --subst {s} --length 7",
    "winshift --subst {s} --length 7 --format json",
    "winshift --subst {s} --length 7 --format csv",
    "winshift --subst {s} --length 9 --method brute",
    "winshift --subst {s} --length 9 --method substitutive",
    "winshift --subst {s} --table 1..10",
    "delta --subst {s} --n 9",
    "delta --subst {s} --n 9 --method direct",
    "delta --subst {s} --n 9 --method recurrence",
    "complexity --subst {s} --upto 8",
    "complexity --subst {s} --upto 8 --format json",
    "complexity --subst {s} --upto 8 --method recurrence",
    "complexity --subst {s} --upto 8 --method direct",
    "verify --subst {s} --depth 5",
)
GTM_PARAMS = ((2, 2), (2, 3), (3, 4), (3, 2), (4, 3), (2, 1))
PER_GTM = (
    "word --length 12",
    "factors --n 2",
    "factors --n 3",
    "syncdelay",
    "winshift --length 9",
    "delta --n 10",
    "complexity --upto 10",
    "complexity --upto 10 --format json",
)
OTHERS = (
    "winshift --subst gtm:2,11 --length 3",
    "winshift --subst gtm:2,11 --length 3 --format csv",
    "winshift --subst gtm:2,11 --length 3 --format json",
    "winshift --subst gtm:2,11 --table 1..4",
    "gtm --b 2 --m 11 winshift --length 3",
    "winshift --subst tm",
    "nonsense",
    "verify",
    "verify --b 2",
    "verify --subst tm --depth 0",
    "verify --b 2 --m 3 --depth -1",
    "verify --subst tm --b 3 --m 4",
    "verify --subst tm --m 4",
    "winshift --subst tm --table 5..x",
    "winshift --subst tm --length 5 --format xml",
    "winshift --subst nosuch --length 5",
    "classify --subst gtm:x",
    "delta --subst ex46 --n 50 --method recurrence",
    "syncdelay --subst tm --cap 2",
    "winset --subst tm --length 4 --choice-seq 9",
    "gtm --b 1 --m 3 word --length 4",
    "gtm --b 2 --m 3 factors --n 4",
    "gtm --b 2 --m 3 winshift",
    "winshift --subst gtm:3,2 --length 5",
    "syncdelay --subst gtm:3,2",
    "delta --subst gtm:3,2 --n 5",
    "complexity --subst gtm:3,2 --upto 5",
    "verify --subst gtm:3,2 --depth 5",
    # long tables and lengths: the suffix-grouped rows path
    "winshift --subst {marked} --table 1..300",
    "winshift --subst tm --table 1..400",
    "winshift --subst gtm:3,4 --table 1..120",
    "winshift --subst {marked} --table 1..12 --method brute",
    "winshift --subst gtm:2,11 --table 1..40",
    "winshift --subst {marked} --length 3000",
    "winshift --subst {marked} --length 3000 --format json",
    "winshift --subst {marked} --length 3000 --format csv",
    "winshift --subst {perm4} --table 1..200",
    "winshift --subst {perm4} --length 5000 --format csv",
    # errors that must leave stdout empty, and values read back as given
    "winshift --subst gtm:3,2 --table 1..5",
    "winshift --subst tm --table 5..3",
    "winshift --subst tm --table 3 --length 5",
    "gtm --b 2 --m 3 word --length -2",
    "winset --subst gtm:2,11 --length 1 --choice-seq 10",
    # head games on permutive input, and the length-1 rule in every format
    "verify --subst {perm4} --depth 6",
    "winshift --subst {perm4} --length 40 --method substitutive",
    "winshift --subst {perm4} --length 12 --method brute",
    "winshift --subst gtm:2,3 --length 1 --format json",
    "winshift --subst gtm:2,3 --length 1 --format csv",
    "winshift --subst ex42 --length 1 --format csv",
    # long recurrences: rows and lengths far past the base table
    *(
        f"complexity --subst {s} --upto 300 --method recurrence"
        for s in ("tm", "gtm:2,3", "gtm:3,3", "{marked}", "{perm4}")
    ),
    "complexity --subst {marked} --upto 300 --format json",
    *(f"delta --subst {s} --n 1000000000000" for s in ("tm", "gtm:3,3", "{marked}", "{perm4}")),
    "delta --subst tm --n 1000000007 --method recurrence",
    # periodic input on every path that needs the synchronization delay
    "syncdelay --subst gtm:3,2 --cap 20",
    "syncdelay --subst gtm:3,2 --cap 1",
    "syncdelay --subst gtm:4,3",
    "syncdelay --subst gtm:3,2 --format json",
    "winshift --subst gtm:3,2 --length 9 --method substitutive",
    "delta --subst gtm:3,2 --n 5 --method recurrence",
    "syncdelay --subst {cycle3}",
    "winshift --subst {cycle3} --length 6",
    "delta --subst {cycle3} --n 9",
    "complexity --subst {cycle3} --upto 6",
    "verify --subst {cycle3} --depth 5",
    # non-uniform input: the rows verify skips
    "verify --subst {fib} --depth 6",
    "syncdelay --subst {fib}",
    "winshift --subst {fib} --length 6",
    "complexity --subst {fib} --upto 6",
    # long rows spelled from deep base chains: digits, and commas above 9 letters
    "winshift --subst {marked} --table 201..800",
    "winshift --subst tm --table 1..1000",
    "winshift --subst gtm:2,11 --table 1..300",
    "winshift --subst gtm:2,11 --length 5000 --format json",
    "winshift --subst {perm4} --length 30000",
    # sync witnesses (the first unsynchronized word of sorted L_n) and deeper verify runs
    "syncdelay --subst {perm4}",
    "syncdelay --subst {perm4} --format json",
    "syncdelay --subst gtm:3,4",
    "syncdelay --subst gtm:4,5 --format json",
    "verify --subst {marked} --depth 12",
    "verify --subst gtm:3,4 --depth 8",
    "verify --subst tm --depth 64",
    # periodic input that synchronizes, and the periodicity row on a long probe
    "syncdelay --subst {twin}",
    "syncdelay --subst {twin} --format json",
    "winshift --subst {twin} --length 6 --format json",
    "verify --subst {twin} --depth 5",
    "verify --subst gtm:4,5 --depth 2",
    # answers on periodic input that synchronizes, in every format they have
    "complexity --subst {twin} --upto 4",
    "complexity --subst {twin} --upto 4 --format json",
    "delta --subst {twin} --n 4",
    "winset --subst {twin} --length 4",
    "winset --subst {twin} --length 4 --format json",
    "winset --subst {twin} --length 4 --choice-seq 2111",
    "language --subst {twin} --length 4",
    "language --subst {twin} --length 4 --format json",
    # direct factor counts at lengths where the count, not the words, matters
    "complexity --subst tm --upto 200 --method direct",
    "complexity --subst {fib} --upto 200",
    "delta --subst {fib} --n 150",
    # help of the top level, every command and every gtm command
    "--help",
    *(
        f"{c} --help"
        for c in (
            "classify", "fixedpoint", "language", "syncdelay", "winset",
            "winshift", "delta", "complexity", "gtm", "verify",
        )
    ),
    *(
        f"gtm --b 2 --m 3 {c} --help"
        for c in ("word", "factors", "syncdelay", "winshift", "delta", "complexity")
    ),
)


def corpus() -> list[str]:
    commands = [c.format(s=s) for s in SUBSTS for c in PER_SUBST]
    for b, m in GTM_PARAMS:
        for c in PER_GTM:
            commands.append(f"gtm --b {b} --m {m} {c}")
            if not c.startswith("word"):
                commands.append(f"gtm --b {b} --m {m} {c} --verify")
        commands.append(f"verify --b {b} --m {m} --depth 5")
    return commands + list(OTHERS)


def write_inputs(tmp: Path) -> dict[str, str]:
    """Write the substitution files into ``tmp`` and return every
    placeholder's path.  A corpus run writes them once: rewriting a file
    that exists can cost tens of milliseconds, creating one far less."""
    paths = {"dot": str(tmp / "tree.dot"), "emit": str(tmp / "emit.json")}
    substs = {"marked": MARKED, "perm4": PERM4, "cycle3": CYCLE3, "fib": FIB, "twin": TWIN}
    for key, subst in substs.items():
        path = tmp / f"{subst['name']}.json"
        path.write_text(json.dumps(subst))
        paths[key] = str(path)
    return paths


def replay(command: str, paths: dict[str, str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main([word.format(**paths) for word in command.split()])
    kind = next((p for p in ("error:", "usage:") if err.getvalue().startswith(p)), "")
    if err.getvalue() and not kind:
        kind = "other"
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), kind]


def test_golden_corpus(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    commands = corpus()
    assert sorted(golden) == sorted(commands)
    paths = write_inputs(tmp_path)
    mismatched = [c for c in commands if replay(c, paths) != golden[c]]
    assert mismatched == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        recorded = {command: replay(command, paths) for command in corpus()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} invocations to {GOLDEN}")
