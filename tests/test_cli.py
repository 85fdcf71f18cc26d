import contextlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from winshift import SyncDelay, verify
from winshift.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_winshift_text_rows(capsys):
    code, out = run(capsys, "winshift", "--subst", "tm", "--length", "10")
    assert code == 0
    assert out == "◇111111112\n◇211111112\n"


def test_winshift_json(capsys):
    code, out = run(capsys, "winshift", "--subst", "tm", "--length", "14", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 2
    assert obj["irreducible"] == ["11111111111112", "21111111111112"]


def test_winshift_table(capsys):
    code, out = run(capsys, "winshift", "--subst", "tm", "--table", "4..5")
    assert code == 0
    assert out.splitlines() == ["4: ◇112", "4: ◇212", "5: ◇1112"]


class _KeptWrites:
    """A stdout that keeps each written string by reference: the capture
    copies nothing, so a peak counts only what the command built
    (``io.StringIO`` copies a write from Python 3.12 on)."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)


@pytest.mark.parametrize(
    "command",
    [
        "winshift --subst tm --table 1..400",
        "winshift --subst gtm:2,11 --table 1..200",
        "winshift --subst tm --length 5000",
    ],
)
def test_answer_text_is_not_copied_row_by_row(command):
    # A warm run holds the spelled suffixes and one join of the answer:
    # about 1.6-2x the answer's size.  Copying each row into a line and
    # each line again with its newline peaked at 3.6-4.2x.
    def traced_run():
        out = _KeptWrites()
        with contextlib.redirect_stdout(out):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert main(command.split()) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        # the whole answer in one write, so a failure leaves stdout empty
        assert len(out.parts) == 1
        return peak, out.parts[0]

    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        traced_run()  # the levels are cached from here on
        peak, text = traced_run()
    finally:
        if started:
            tracemalloc.stop()
    assert text
    assert peak <= 2.5 * sys.getsizeof(text)


def test_syncdelay_text_and_json(capsys):
    code, out = run(capsys, "syncdelay", "--subst", "ex42")
    assert code == 0
    assert out.startswith("L = 5\n")
    code, out = run(capsys, "syncdelay", "--subst", "tm", "--format", "json")
    obj = json.loads(out)
    assert obj["L"] == 4
    assert obj["witness"] == "010"
    assert obj["offsets_of_witness"] == [0, 1]


def test_classify_round_trip(capsys, tmp_path):
    emitted = tmp_path / "subst.json"
    code, _ = run(capsys, "classify", "--subst", "ex42", "--emit", str(emitted))
    assert code == 0
    code, out = run(capsys, "classify", "--subst", str(emitted), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["images"] == [[0, 0, 1], [1, 2, 0], [2, 0, 1]]
    assert obj["flags"]["left_marked"] and not obj["flags"]["right_marked"]


def test_fixedpoint_and_language(capsys):
    code, out = run(capsys, "fixedpoint", "--subst", "tm", "--length", "16")
    assert (code, out) == (0, "0110100110010110\n")
    code, out = run(capsys, "language", "--subst", "tm", "--length", "2")
    assert out.splitlines() == ["00", "01", "10", "11"]


def test_winset_membership_and_dot(capsys, tmp_path):
    code, out = run(capsys, "winset", "--subst", "tm", "--length", "4")
    assert code == 0
    assert "2212" in out and "count = 10" in out
    dot = tmp_path / "tree.dot"
    code, out = run(
        capsys, "winset", "--subst", "tm", "--length", "4",
        "--choice-seq", "2212", "--export-dot", str(dot),
    )
    assert code == 0 and out == "win\n"
    text = dot.read_text()
    assert text.startswith("digraph strategy {")
    assert 'label="ε"' in text
    code, out = run(
        capsys, "winset", "--subst", "tm", "--length", "5", "--choice-seq", "22112",
    )
    assert code == 0 and out == "lose\n"
    # the export note is a diagnostic: stdout stays one JSON document
    code = main([
        "winset", "--subst", "tm", "--length", "5", "--choice-seq", "22112",
        "--format", "json", "--export-dot", str(dot),
    ])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["result"] == "lose"
    assert captured.err == "lose: no strategy tree to export\n"


def test_complexity_csv(capsys):
    code, out = run(capsys, "complexity", "--subst", "tm", "--upto", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,delta,f,method"
    assert lines[1] == "0,1,1,direct"
    assert lines[5] == "4,4,10,direct"


def test_delta_methods(capsys):
    code, out = run(capsys, "delta", "--subst", "ex42", "--n", "14", "--method", "direct")
    assert (code, out) == (0, "5\n")
    code, _ = run(capsys, "delta", "--subst", "ex42", "--n", "6", "--method", "recurrence")
    assert code == 1  # domain error: not marked


def test_gtm_commands(capsys):
    code, out = run(capsys, "gtm", "--b", "2", "--m", "2", "syncdelay", "--verify")
    assert code == 0 and out == "L = 4\nverify: ok\n"
    code, out = run(capsys, "gtm", "--b", "2", "--m", "3", "winshift", "--length", "5", "--verify")
    assert code == 0
    assert out.splitlines()[:2] == ["◇1112", "◇1113"]
    code, out = run(capsys, "gtm", "--b", "2", "--m", "2", "word", "--length", "6")
    assert (code, out) == (0, "011010\n")
    code, out = run(
        capsys, "gtm", "--b", "2", "--m", "3", "complexity", "--upto", "4",
        "--format", "json", "--verify",
    )
    assert code == 0 and json.loads(out)["verify"] == "ok"


def test_gtm_periodic_is_domain_error(capsys):
    code, _ = run(capsys, "gtm", "--b", "3", "--m", "2", "delta", "--n", "3")
    assert code == 1


def test_usage_errors(capsys):
    assert main(["winshift", "--subst", "tm"]) == 2  # no --length/--table
    assert main(["nonsense"]) == 2
    assert main(["verify"]) == 2
    for argv in (
        ["verify", "--subst", "tm", "--depth", "0"],
        ["verify", "--b", "2", "--m", "3", "--depth", "-1"],
        ["verify", "--subst", "tm", "--b", "3", "--m", "4"],
        ["verify", "--subst", "tm", "--m", "4"],
        # --table takes a nonempty range and ignores no other option
        ["winshift", "--subst", "tm", "--table", "5..3"],
        ["winshift", "--subst", "tm", "--table", "0"],
        ["winshift", "--subst", "tm", "--table", "3", "--length", "5"],
        ["winshift", "--subst", "tm", "--table", "3", "--format", "json"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""


def test_malformed_values_are_usage_errors(capsys, monkeypatch):
    for bad in ("5..x", "x", "5..6..7"):
        assert main(["winshift", "--subst", "tm", "--table", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --table: expected A..B or B" in captured.err
    monkeypatch.setenv("WINSHIFT_SYNC_CAP", "abc")
    assert main(["syncdelay", "--subst", "tm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "WINSHIFT_SYNC_CAP, got 'abc'" in captured.err
    code, out = run(capsys, "syncdelay", "--subst", "tm", "--cap", "10")
    assert (code, out.splitlines()[0]) == (0, "L = 4")  # --cap wins over the variable


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "--subst", "tm", "--depth", "8")
    assert code == 0
    assert "overall: pass" in out
    code, out = run(capsys, "verify", "--b", "2", "--m", "3", "--depth", "8")
    assert code == 0
    assert "gtm-closed-forms" in out


def test_verify_reads_the_periodicity_verdict(capsys):
    code, out = run(capsys, "verify", "--subst", "gtm:4,5", "--depth", "2")
    assert code == 0
    assert out.startswith("PASS    periodicity-probe: aperiodic: every word of length 8 is recognized\n")
    code, out = run(capsys, "verify", "--subst", "gtm:3,2", "--depth", "2")
    assert (code, out) == (3, "FAIL    periodicity-probe: periodic: complexity stalls at 1\noverall: fail\n")


def test_periodic_input_that_synchronizes_is_labelled(capsys, tmp_path):
    # [01, 01] has the fixed point (01)^w and synchronizes at L = 1: the
    # answers are exact, and each one says the input is periodic
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps({"alphabet": 2, "images": [[0, 1], [0, 1]]}))
    stall = "periodic: its factor complexity stalls at length 1"
    for argv, out in (
        (["syncdelay"], "L = 1\n"),
        (["winshift", "--length", "6", "--format", "csv"], "n,sequence\n"),
        (["winshift", "--length", "6"], ""),
        (["winshift", "--table", "1..3"], "1: ◇\n"),
        (["complexity", "--upto", "1"], "n,delta,f,method\n0,1,1,direct\n1,1,2,direct\n"),
        (["delta", "--n", "4"], "0\n"),
        (["winset", "--length", "4"], "2111\ncount = 2\n"),
        (["winset", "--length", "4", "--choice-seq", "2111"], "win\n"),
        (["language", "--length", "2"], "01\n10\n"),
    ):
        assert main([argv[0], "--subst", str(twin), *argv[1:]]) == 0
        assert tuple(capsys.readouterr()) == (out, f"note: {stall}\n")
    # json without an assumptions field carries no note
    for argv in (
        ["complexity", "--upto", "2"], ["winset", "--length", "4"], ["language", "--length", "2"]
    ):
        assert main([argv[0], "--subst", str(twin), *argv[1:], "--format", "json"]) == 0
        assert capsys.readouterr().err == ""
    for argv in (["syncdelay"], ["winshift", "--length", "6"]):
        assert main([argv[0], "--subst", str(twin), *argv[1:], "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["assumptions"] == [stall]
        assert captured.err == ""
    # aperiodic input keeps its label and an empty stderr
    for argv in (["syncdelay", "--subst", "tm"], ["winshift", "--subst", "tm", "--length", "6"]):
        assert main([*argv, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["assumptions"] == ["aperiodicity assumed (run verify to probe)"]
        assert captured.err == ""


def test_verify_depth_bounds_the_delta_recurrence_row(capsys, monkeypatch):
    # every delta_direct(n) builds L_n, so an unbounded row ran out of memory
    import winshift.cli as cli

    asked = []
    delta_direct = cli.cx.delta_direct

    def recording(subst, n):
        asked.append(n)
        return delta_direct(subst, n)

    monkeypatch.setattr(cli.cx, "delta_direct", recording)
    code, out = run(capsys, "verify", "--subst", "tm", "--depth", "1000")
    assert code == 0
    assert asked and max(asked) <= 64
    (row,) = [line for line in out.splitlines() if "delta-recurrence" in line]
    assert row.endswith("n <= 64")


def test_gtm_verify_mismatch_is_exit_3(capsys, monkeypatch):
    import winshift.cli as cli

    monkeypatch.setattr(cli.cx, "delta_direct", lambda subst, n: -1)
    code, out = run(capsys, "gtm", "--b", "2", "--m", "2", "delta", "--n", "4", "--verify")
    assert code == 3
    assert "VERIFY FAIL" in out
    code, out = run(
        capsys, "gtm", "--b", "2", "--m", "2", "complexity", "--upto", "4",
        "--format", "json", "--verify",
    )
    assert code == 3
    assert json.loads(out)["verify"].startswith("VERIFY FAIL")
    monkeypatch.setattr(verify, "sync_delay", lambda subst: SyncDelay(99, None, frozenset()))
    code, out = run(capsys, "gtm", "--b", "2", "--m", "2", "syncdelay", "--verify")
    assert code == 3
    assert out.startswith("L = 4\nVERIFY FAIL")


def test_verify_check_that_raises_is_a_failed_row(capsys, monkeypatch):
    import winshift.cli as cli
    import winshift.game as game
    from winshift.errors import InternalConsistencyError

    solved = game._trie

    def one_short(target):
        # the solver loses one winning sequence of length 3 at the root
        trie = solved(target)
        if len(next(iter(target))) != 3:
            return trie
        wins = list(trie.wins)
        wins[trie.root] -= {trie.suffix_ids((1, 1, 1))[0]}
        return replace(trie, wins=wins)

    monkeypatch.setattr(game, "_trie", one_short)
    try:
        code, out = run(capsys, "verify", "--subst", "tm", "--depth", "5")
    finally:
        # nothing built from the short sets may outlive the patch
        cli.shift._level.cache_clear()
        cli.shift._head_groups.cache_clear()
    lines = out.splitlines()
    assert code == 3
    assert "FAIL    cardinality: winning set size 5 differs from target size 6" in lines
    assert "PASS    tm-reference-table: rows 1..5" in lines  # the later checks still ran
    assert lines[-1] == "overall: fail"

    def broken(subst, alpha):
        raise InternalConsistencyError("body length must be a block multiple")

    monkeypatch.setattr(game, "_trie", solved)
    monkeypatch.setattr(cli.shift, "verify_form", broken)
    code, out = run(capsys, "verify", "--subst", "ex42", "--depth", "5")
    lines = out.splitlines()
    assert code == 3
    assert "FAIL    decomposition-form: body length must be a block multiple" in lines
    assert "PASS    known-deltas: {6: 4, 14: 5}" in lines
    assert lines[-1] == "overall: fail"


def test_gtm_verify_pipeline_that_raises_is_exit_3(capsys, monkeypatch):
    import winshift.cli as cli
    from winshift.errors import InternalConsistencyError

    def broken(subst, n, method="auto"):
        raise InternalConsistencyError("first-choice count disagrees with the winning set")

    monkeypatch.setattr(cli.shift, "enumerate_irreducible", broken)
    code, out = run(capsys, "gtm", "--b", "2", "--m", "3", "winshift", "--length", "9", "--verify")
    assert code == 3
    # the closed-form rows print, then the verdict names the failure
    assert out.splitlines()[-1] == (
        "VERIFY FAIL: the winshift pipeline failed: "
        "first-choice count disagrees with the winning set"
    )
    assert out.startswith("◇11111112\n")


def test_sync_cap_env_override(capsys, monkeypatch):
    # the variable is read on every call, not when the parser is built
    monkeypatch.setenv("WINSHIFT_SYNC_CAP", "2")
    code, _ = run(capsys, "syncdelay", "--subst", "tm")
    assert code == 1  # cap exceeded before the true delay 4
    monkeypatch.delenv("WINSHIFT_SYNC_CAP")
    code, out = run(capsys, "syncdelay", "--subst", "tm")
    assert (code, out.splitlines()[0]) == (0, "L = 4")
    monkeypatch.setenv("WINSHIFT_SYNC_CAP", "abc")
    code, out = run(capsys, "syncdelay", "--subst", "tm")
    assert (code, out) == (2, "")


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    import argparse

    import winshift.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    per_call = []
    for argv in (["syncdelay", "--subst", "tm"], ["delta", "--subst", "tm", "--n", "5"], ["nonsense"]):
        before = len(built)
        main(argv)
        per_call.append(len(built) - before)
    capsys.readouterr()
    assert per_call[0] > 0 and per_call[1:] == [0, 0]


def test_failed_output_write_is_a_domain_error(capsys, tmp_path):
    missing = tmp_path / "no" / "such"
    for argv in (
        ["classify", "--subst", "tm", "--emit", str(missing / "x.json")],
        [
            "winset", "--subst", "tm", "--length", "4", "--choice-seq", "2212",
            "--export-dot", str(missing / "x.dot"),
        ],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {missing}")


def test_periodic_input_names_the_stall(capsys, monkeypatch):
    # gtm:3,2 is periodic (b = 1 mod m): no synchronization cap can help
    for argv in (
        ["winshift", "--subst", "gtm:3,2", "--length", "5"],
        ["syncdelay", "--subst", "gtm:3,2"],
        ["syncdelay", "--subst", "gtm:3,2", "--cap", "20"],
        ["delta", "--subst", "gtm:3,2", "--n", "5"],
        ["complexity", "--subst", "gtm:3,2", "--upto", "5"],
        # length 1 alone prints "1: ◇"; a table is all or nothing
        ["winshift", "--subst", "gtm:3,2", "--table", "1..5"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "periodic: its factor complexity stalls at length 1" in captured.err
        assert "raise the cap" not in captured.err
    code, out = run(capsys, "winshift", "--subst", "gtm:3,2", "--table", "1")
    assert (code, out) == (0, "1: ◇\n")
    # an aperiodic input that merely hits a small cap keeps the cap message
    assert main(["syncdelay", "--subst", "tm", "--cap", "2"]) == 1
    assert "raise the cap" in capsys.readouterr().err
    # the success path never runs the probe
    monkeypatch.setattr(verify, "periodicity_probe", None)
    code, out = run(capsys, "winshift", "--subst", "tm", "--length", "10")
    assert (code, out) == (0, "◇111111112\n◇211111112\n")


def test_gtm_word_negative_length_is_domain_error(capsys):
    for argv in (
        ["gtm", "--b", "2", "--m", "3", "word", "--length", "-2"],
        ["fixedpoint", "--subst", "tm", "--length", "-2"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: prefix length must be nonnegative\n"


def test_bad_substitution_files_are_construction_errors(capsys, tmp_path):
    tm_text = json.dumps({"alphabet": 2, "images": [[0, 1], [1, 0]]})
    cases = {
        # a UTF-16 byte-order mark: not UTF-8 text
        "bom.json": (b"\xff\xfe", "not UTF-8"),
        # JSON true is no letter, although bool is an int in Python
        "bool-letter.json": (tm_text.replace("[0, 1]", "[0, true]").encode(), "letter True"),
        # 1.0 lies in the alphabet's range, but it is no integer
        "float-letter.json": (
            tm_text.replace("[0, 1]", "[0, 1.0]").encode(),
            "letter 1.0 is not an integer",
        ),
        "bool-alphabet.json": (
            tm_text.replace('"alphabet": 2', '"alphabet": true').encode(),
            "alphabet size must be an integer",
        ),
    }
    for name, (data, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        for argv in (["classify", "--subst", str(path)], ["winshift", "--subst", str(path), "--length", "3"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert message in captured.err


def test_choice_letters_above_nine(capsys):
    # format_choices spells the one-letter sequence (10,) as "10"
    code, out = run(
        capsys, "winset", "--subst", "gtm:2,11", "--length", "1", "--choice-seq", "10"
    )
    assert (code, out) == (0, "win\n")
    assert main(["winset", "--subst", "gtm:2,11", "--length", "1", "--choice-seq", "12"]) == 1
    assert "choice letter 12 outside 1..11" in capsys.readouterr().err


def test_choice_sequence_is_checked_before_the_language_is_built(capsys, tmp_path):
    # L_n at n = 10^8 would not finish; the sequence is refused first
    start = time.perf_counter()
    assert main(["winset", "--subst", "tm", "--length", "100000000", "--choice-seq", "12"]) == 1
    assert capsys.readouterr().err == (
        "error: choice sequence length must match the target word length\n"
    )
    assert main(["winset", "--subst", "tm", "--length", "100000000", "--choice-seq", "13"]) == 1
    assert capsys.readouterr().err == "error: choice letter 3 outside 1..2\n"
    assert time.perf_counter() - start < 1.0
    # the length and the substitution are still refused before the letters
    assert main(["winset", "--subst", "tm", "--length", "-1", "--choice-seq", "3"]) == 1
    assert capsys.readouterr().err == "error: factor length must be nonnegative\n"
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"alphabet": 2, "images": [[0, 0], [1, 1]]}))
    assert main(["winset", "--subst", str(identity), "--length", "2", "--choice-seq", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: factor language computation requires a primitive substitution\n"
    )


def test_output_determinism(capsys):
    first = run(capsys, "winshift", "--subst", "gtm:3,3", "--length", "9", "--format", "json")
    second = run(capsys, "winshift", "--subst", "gtm:3,3", "--length", "9", "--format", "json")
    assert first == second


def test_module_entry_point_smoke():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "winshift", "syncdelay", "--subst", "tm"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("L = 4")
