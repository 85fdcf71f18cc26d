import pytest

from winshift import (
    PeriodicInputError,
    PreconditionError,
    delta_direct,
    enumerate_irreducible,
    fixed_point_prefix,
    gtm_complexity,
    gtm_complexity_table,
    gtm_delta,
    gtm_factors,
    gtm_irreducibles,
    gtm_letter,
    gtm_params,
    gtm_q,
    gtm_substitution,
    gtm_sync_delay,
    language,
    sync_delay,
)

SUITE = ((2, 2), (2, 3), (3, 3), (4, 2))


def test_params_and_q():
    assert gtm_q(2, 2) == 2
    assert gtm_q(2, 3) == 3
    assert gtm_q(4, 2) == 2
    assert gtm_q(3, 3) == 3
    # q is the least q >= 1 with q (b - 1) = 0 in Z_m: iterate the rotation
    for b in range(2, 13):
        for m in range(1, 25):
            x, steps = (b - 1) % m, 1
            while x != 0:
                x, steps = (x + b - 1) % m, steps + 1
            assert gtm_q(b, m) == steps, (b, m)
    assert gtm_params(6, 4).q == 4


def test_periodic_parameters_rejected():
    with pytest.raises(PeriodicInputError, match=r"b ≡ 1 \(mod m\)"):
        gtm_params(3, 2)
    with pytest.raises(PeriodicInputError):
        gtm_params(2, 1)
    with pytest.raises(PeriodicInputError):
        gtm_params(5, 4)


def test_substitution_images(tm):
    assert gtm_substitution(2, 2).images == tm.images
    assert gtm_substitution(2, 3).images == ((0, 1), (1, 2), (2, 0))
    assert gtm_substitution(3, 3).images == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    with pytest.raises(PreconditionError):
        gtm_substitution(3, 1)


def test_substitution_allows_periodic_parameters_for_probing():
    subst = gtm_substitution(3, 2)
    assert subst.images == ((0, 1, 0), (1, 0, 1))


def test_letter_oracle():
    assert [gtm_letter(2, 2, n) for n in range(6)] == [0, 1, 1, 0, 1, 0]
    assert gtm_letter(4, 2, 0) == 0
    assert gtm_letter(2, 3, 3) == 2  # digit sum of 11b is 2


@pytest.mark.parametrize("b,m", SUITE)
def test_letter_matches_fixed_point(b, m):
    prefix = fixed_point_prefix(gtm_substitution(b, m), 0, 10 ** 4)
    assert all(gtm_letter(b, m, n) == prefix[n] for n in range(10 ** 4))


@pytest.mark.parametrize("b,m", SUITE)
def test_factors_closed_form(b, m):
    subst = gtm_substitution(b, m)
    for n in (2, 3):
        assert gtm_factors(b, m, n) == frozenset(language(subst, n).words)
    with pytest.raises(PreconditionError):
        gtm_factors(b, m, 4)


def test_factor_examples():
    assert len(gtm_factors(2, 3, 2)) == 9
    assert gtm_factors(2, 2, 2) == frozenset(
        {(0, 0), (0, 1), (1, 0), (1, 1)}
    )
    length3 = gtm_factors(2, 2, 3)
    assert len(length3) == 6
    assert (0, 0, 0) not in length3 and (1, 1, 1) not in length3


@pytest.mark.parametrize("b,m", SUITE)
def test_sync_delay_closed_form(b, m):
    assert gtm_sync_delay(b, m) == 2 * b
    assert sync_delay(gtm_substitution(b, m)).delay == 2 * b


def test_irreducibles_named_rows():
    assert gtm_irreducibles(2, 2, 7) == {
        (1, 1, 1, 1, 1, 1, 2),
        (2, 1, 1, 1, 1, 1, 2),
        (1, 1, 2, 1, 1, 1, 2),
        (2, 1, 2, 1, 1, 1, 2),
    }
    assert gtm_irreducibles(2, 2, 5) == {(1, 1, 1, 1, 2), (2, 1, 1, 1, 2)}
    assert gtm_irreducibles(2, 3, 5) == {
        (d, 1, 1, 1, a) for d in (1, 2, 3) for a in (2, 3)
    }
    assert gtm_irreducibles(2, 2, 1) == {(2,)}


@pytest.mark.parametrize("b,m", SUITE)
def test_irreducibles_match_enumeration(b, m):
    subst = gtm_substitution(b, m)
    for n in range(1, 2 * b + 1):
        assert gtm_irreducibles(b, m, n) == enumerate_irreducible(subst, n, "brute")
    for n in range(1, 31):
        assert gtm_irreducibles(b, m, n) == enumerate_irreducible(subst, n, "auto")


@pytest.mark.parametrize("b,m", SUITE)
def test_delta_counts_irreducibles(b, m):
    for n in range(1, 31):
        assert len(gtm_irreducibles(b, m, n)) == gtm_delta(b, m, n)


@pytest.mark.parametrize("b,m", SUITE)
def test_delta_and_complexity_match_enumeration(b, m):
    subst = gtm_substitution(b, m)
    for n in range(0, 13):
        assert gtm_delta(b, m, n) == delta_direct(subst, n)
        expected = len(language(subst, n)) if n else 1
        assert gtm_complexity(b, m, n) == expected


def test_complexity_closed_form_examples():
    assert gtm_complexity(2, 2, 4) == 10
    assert gtm_complexity(2, 2, 5) == 12
    assert gtm_complexity(2, 3, 2) == 9
    assert gtm_delta(2, 3, 5) == 6
    assert gtm_delta(2, 2, 1) == 1


def test_rows_tile_and_sum():
    # differences telescoping into the complexity at every length
    for b, m in SUITE:
        total = 1
        for n in range(1, 10 ** 4):
            total += gtm_delta(b, m, n)
            assert total == gtm_complexity(b, m, n), (b, m, n)


def test_row_ranges_tile_arithmetically():
    # growing and flat ranges join with no gap or overlap up to 10^6
    for b in (2, 3, 4):
        boundary = b + 2
        k = 0
        while boundary < 10 ** 6:
            grow_top = 2 * b ** (k + 1) - b ** k + 1
            flat_top = b ** (k + 2) + 1
            assert boundary == b ** (k + 1) + 2
            assert grow_top < flat_top
            boundary = flat_top + 1
            k += 1


def test_complexity_table_closed_form():
    table = gtm_complexity_table(2, 2, 9)
    assert table.values == (1, 2, 4, 6, 10, 12, 16, 20, 22, 24)
    assert set(table.methods) == {"closed_form"}
