"""The cross-checks as a library: each check runs alone, without the command line."""

import pytest

from winshift import verify

ROWS = [
    "periodicity-probe",
    "known-delay",
    "cardinality",
    "downward-closure",
    "substitutive-vs-brute",
    "delta-recurrence",
    "decomposition-form",
]
TAIL = ["gtm-closed-forms", "tm-reference-table"]


def test_one_check_runs_alone(tm, monkeypatch):
    def another_check(*args, **kwargs):
        raise AssertionError("another check ran")

    for module, names in (
        (verify, ("periodicity", "periodicity_probe", "sync_delay", "language", "member")),
        (verify, ("winning_members", "winning_set_cardinality", "_gtm_form")),
        (verify.cx, ("delta_direct", "delta_recurrence", "complexity_table")),
        (verify.shift, ("verify_form", "choice_decomposition")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, another_check)
    check = dict(verify.checks(tm, "tm", None, 5))["tm-reference-table"]
    assert check() == (True, "rows 1..5")


@pytest.mark.parametrize(
    "name, gtm, names",
    [
        ("tm", None, ROWS + TAIL),
        ("ex42", None, ROWS + ["known-deltas"] + TAIL),
        ("gtm23", (2, 3), ROWS + TAIL),
    ],
)
def test_checks_keep_the_row_order(request, name, gtm, names):
    subst = request.getfixturevalue(name)
    pairs = verify.checks(subst, name, gtm, 5)
    assert [check for check, _ in pairs] == names
    assert [row[1] for row in verify.run(subst, name, gtm, 5)] == names
