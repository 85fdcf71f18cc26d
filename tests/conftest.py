import random
from functools import cache

import pytest

from winshift import builtin_substitution, gtm_substitution, make_substitution, periodicity


def random_marked(count, seed):
    """Seeded primitive aperiodic marked uniform substitutions, s <= 3, M <= 3."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        s, M = rng.choice((2, 3)), rng.choice((2, 3))
        firsts, lasts = rng.sample(range(s), s), rng.sample(range(s), s)
        images = [
            (firsts[a],) + tuple(rng.randrange(s) for _ in range(M - 2)) + (lasts[a],)
            for a in range(s)
        ]
        subst = make_substitution(images)
        # periodic inputs have no synchronization delay: out of the domain
        if subst.primitive and not periodicity(subst)[0]:
            found.append(subst)
    return found


@cache
def past_a_byte():
    """A primitive uniform substitution on 257 letters, so a letter does not
    fit in a byte; every image holds every letter, which keeps the
    primitivity check to one matrix.  One instance serves every test: the
    caches keyed by it then find it by identity, not by comparing images."""
    s = 257
    return make_substitution([(a,) + tuple(range(s)) for a in range(s)])


@pytest.fixture(scope="session")
def tm():
    return builtin_substitution("tm")


@pytest.fixture(scope="session")
def ex42():
    return builtin_substitution("ex42")


@pytest.fixture(scope="session")
def ex46():
    return builtin_substitution("ex46")


@pytest.fixture(scope="session")
def gtm23():
    return gtm_substitution(2, 3)


@pytest.fixture(scope="session")
def gtm33():
    return gtm_substitution(3, 3)


@pytest.fixture(scope="session")
def gtm42():
    return gtm_substitution(4, 2)


@pytest.fixture(scope="session")
def marked_nonpermutive():
    # first letters 0,1,2 and last letters 1,2,0 are distinct, but the middle
    # column 0,0,1 is not a permutation; synchronization delay is 6
    return make_substitution([(0, 0, 1), (1, 0, 2), (2, 1, 0)])


@pytest.fixture(scope="session")
def gtm34():
    return gtm_substitution(3, 4)


@pytest.fixture(scope="session")
def perm4():
    return make_substitution([(0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 2, 1, 0)])
