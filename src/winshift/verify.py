"""Cross-checks of the pipelines against each other and against known values.

:func:`checks` lists the named checks on one input, each runnable alone,
:func:`run` turns them into rows, and :func:`gtm_answer` checks one gtm
closed form.  A pipeline that raises :class:`InternalConsistencyError`
fails its check, and the checks after it still run.  Nothing here prints.
"""

from __future__ import annotations

from collections.abc import Callable

from . import complexity as cx
from . import gtm as gtm_mod
from . import shift
from .errors import InternalConsistencyError
from .game import member, winning_members, winning_set_cardinality
from .recognizability import periodicity, sync_delay
from .substitution import Substitution, language, periodicity_probe
from .tm_reference import expand_row
from .words import format_choices

# a check returns (passed, detail); a str is the reason a check does not apply
Check = str | Callable[[], tuple[bool, str]]

# known values of the built-in substitutions
_KNOWN_FACTS = {
    "tm": {"delay": 4, "table": True},
    "ex42": {"delay": 5, "deltas": {6: 4, 14: 5}},
    "ex46": {"delay": 6, "membership": (7, (3, 1, 1, 1, 1, 1, 2))},
}


def outcome(check: Callable[[], tuple[bool, str]], prefix: str = "") -> tuple[bool, str]:
    """``check()``; one that raises :class:`InternalConsistencyError` has
    failed, with ``prefix`` and the error as its detail."""
    try:
        return check()
    except InternalConsistencyError as exc:
        return False, f"{prefix}{exc}"


def _gtm_form(kind: str, b: int, m: int, n: int | None):
    """One gtm quantity as (what is shown, its closed form, the generic pipeline).

    The closed form is computed first, so periodic (b, m) fail before any
    substitution is built.  The generic pipeline maps the substitution to
    the value the closed form must equal; it looks its functions up in
    this module when called.
    """
    if kind == "factors":
        words = gtm_mod.gtm_factors(b, m, n)
        return sorted(words), words, lambda s: frozenset(language(s, n).words)
    if kind == "syncdelay":
        delay = gtm_mod.gtm_sync_delay(b, m)
        return delay, delay, lambda s: sync_delay(s).delay
    if kind == "winshift":
        rows = gtm_mod.gtm_irreducibles(b, m, n)
        return rows, rows, lambda s: shift.enumerate_irreducible(s, n)
    if kind == "delta":
        value = gtm_mod.gtm_delta(b, m, n)
        return value, value, lambda s: cx.delta_direct(s, n)
    table = gtm_mod.gtm_complexity_table(b, m, n)
    return table, table.values, lambda s: cx.complexity_table(s, n, "direct").values


def gtm_answer(kind: str, b: int, m: int, n: int | None, with_verdict: bool):
    """What ``gtm <kind>`` shows, and its verdict if asked: ``"ok"``, or
    a ``VERIFY FAIL`` line when the generic pipeline on gtm:b,m differs from
    the closed form or raises."""
    shown, closed, generic = _gtm_form(kind, b, m, n)
    if not with_verdict:
        return shown, None
    differs = f"closed-form {kind} differs from the pipeline"
    passed, detail = outcome(
        lambda: (generic(gtm_mod.gtm_substitution(b, m)) == closed, differs),
        f"the {kind} pipeline failed: ",
    )
    return shown, "ok" if passed else f"VERIFY FAIL: {detail}"


def checks(
    subst: Substitution, builtin: str | None, gtm: tuple[int, int] | None, depth: int
) -> list[tuple[str, Check]]:
    """The named checks on ``subst``, in row order; ``builtin`` names the
    known facts to check, and ``gtm`` = (b, m) adds the closed forms.  A
    known fact the input lacks gives no check.

    The periodicity check comes first, and every later one assumes it
    passed.  Uniform input reads the exact verdict; other input has no
    interpretations, so a scan of the factor counts to length 64 stands
    in for it.
    """
    facts = _KNOWN_FACTS.get(builtin, {})
    M = subst.uniform_length
    marked = subst.uniform and subst.marked

    def periodicity_probe_check():
        if subst.uniform:
            periodic, at = periodicity(subst)
            aperiodic = f"aperiodic: every word of length {at} is recognized"
        else:
            probe = periodicity_probe(subst, 64)
            periodic, at = probe.periodic, probe.detected_at
            aperiodic = f"aperiodic up to {probe.bound}"
        return not periodic, f"periodic: complexity stalls at {at}" if periodic else aperiodic

    def known_delay():
        delay = sync_delay(subst).delay
        return delay == (gtm_mod.gtm_sync_delay(*gtm) if gtm else facts["delay"]), f"L = {delay}"

    def cardinality():
        # winning_set_cardinality raises unless |W| = |X|
        for n in range(1, min(depth, 14) + 1):
            winning_set_cardinality(language(subst, n).words)
        return True, f"|W| = |X| for n <= {min(depth, 14)}"

    def downward_closure():
        ok = True
        for n in range(1, min(depth, 8) + 1):
            members = winning_members(language(subst, n).words)
            ok &= all(
                alpha[:p] + (letter - 1,) + alpha[p + 1:] in members
                for alpha in members
                for p, letter in enumerate(alpha)
                if letter > 1
            )
        return ok, f"n <= {min(depth, 8)}"

    def substitutive_vs_brute():
        delay = sync_delay(subst).delay
        ok = all(
            shift.enumerate_irreducible(subst, n, "brute")
            == shift.enumerate_irreducible(subst, n, "substitutive")
            for n in range(delay + 1, delay + 2 * M + 1)
        )
        return ok, f"lengths {delay + 1}..{delay + 2 * M}"

    def delta_recurrence():
        # bounded: direct counts to 10^5 letters still cost seconds and hundreds of MB
        bound = min(depth, 64)
        ok = all(
            cx.delta_recurrence(subst, n) == cx.delta_direct(subst, n) for n in range(1, bound + 1)
        )
        return ok, f"n <= {bound}"

    def decomposition_form():
        ok, delay = True, sync_delay(subst).delay
        for n in range(delay + 1, delay + M + 1):
            for alpha in sorted(shift.enumerate_irreducible(subst, n, "auto"))[:6]:
                ok &= shift.verify_form(subst, alpha)
                shift.choice_decomposition(subst, alpha, verify=True)
        return ok, "sampled winning sequences past the delay"

    def known_deltas():
        deltas = facts["deltas"]
        return all(cx.delta_direct(subst, n) == v for n, v in deltas.items()), str(deltas)

    def known_membership():
        n, alpha = facts["membership"]
        won = member(language(subst, n).words, alpha, alphabet_size=subst.size).win
        return won, f"{format_choices(alpha, subst.size)} at length {n}"

    def gtm_closed_forms():
        forms = [_gtm_form("complexity", *gtm, min(depth, 12))]
        forms += [_gtm_form("factors", *gtm, n) for n in (2, 3)]
        forms += [_gtm_form("winshift", *gtm, n) for n in range(1, min(depth, 20) + 1)]
        ok = all(closed == generic(subst) for _, closed, generic in forms)
        return ok, f"diffs up to depth {min(depth, 20)}"

    def tm_reference_table():
        ok = all(
            expand_row(n, subst.size) == shift.enumerate_irreducible(subst, n)
            for n in range(1, min(depth, 24) + 1)
        )
        return ok, f"rows 1..{min(depth, 24)}"

    delay_known = known_delay if gtm or "delay" in facts else None
    left_marked = subst.uniform and subst.left_marked
    reference = "reference rows cover tm only"
    pairs = [
        ("periodicity-probe", periodicity_probe_check),
        ("known-delay", delay_known if subst.uniform else "not uniform"),
        ("cardinality", cardinality),
        ("downward-closure", downward_closure),
        ("substitutive-vs-brute", substitutive_vs_brute if marked else "not marked"),
        ("delta-recurrence", delta_recurrence if marked else "not marked"),
        ("decomposition-form", decomposition_form if left_marked else "not left-marked"),
        ("known-deltas", known_deltas if "deltas" in facts else None),
        ("known-membership", known_membership if "membership" in facts else None),
        ("gtm-closed-forms", gtm_closed_forms if gtm else "not a gtm substitution"),
        ("tm-reference-table", tm_reference_table if "table" in facts else reference),
    ]
    return [(name, check) for name, check in pairs if check is not None]


def run(
    subst: Substitution, builtin: str | None, gtm: tuple[int, int] | None, depth: int
) -> list[tuple[str, str, str]]:
    """The :func:`checks` on ``subst`` as (status, check, detail) rows, the
    status ``pass``, ``fail`` or ``skipped``.  Periodic input ends the run
    at its failed first row."""
    rows = []
    for name, check in checks(subst, builtin, gtm, depth):
        if isinstance(check, str):
            rows.append(("skipped", name, check))
            continue
        passed, detail = outcome(check)
        rows.append(("pass" if passed else "fail", name, detail))
        if not passed and name == "periodicity-probe":
            break
    return rows
