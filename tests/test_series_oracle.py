"""The six series conversions against the Fraction loop in `oracles`.

`freeprob.cumulants` runs them on integers scaled by powers of the common
denominator; the oracle normalises a Fraction at every term.  Both must give
the same values, each of type Fraction.
"""

import math
import random
from fractions import Fraction as F

import pytest

from freeprob.cumulants import (
    MAX_SERIES_BITS,
    boolean_from_moments,
    classical_from_moments,
    free_from_moments,
    moments_from_boolean,
    moments_from_classical,
    moments_from_free,
)
from oracles import series_in_fractions

CONVERSIONS = [
    (classical_from_moments, "classical", False),
    (moments_from_classical, "classical", True),
    (free_from_moments, "free", False),
    (moments_from_free, "free", True),
    (boolean_from_moments, "boolean", False),
    (moments_from_boolean, "boolean", True),
]
IDS = [convert.__name__ for convert, _, _ in CONVERSIONS]


def assert_matches_oracle(convert, kind, to_moments, seq):
    got = convert(seq)
    want = series_in_fractions(seq, kind, to_moments)
    assert got == want
    assert all(type(x) is F for x in got)


def given(seq, to_moments):
    """A moment sequence must start with 1; index 0 of a cumulant sequence is unused."""
    return list(seq) if to_moments else [F(1)] + list(seq[1:])


@pytest.mark.parametrize(("convert", "kind", "to_moments"), CONVERSIONS, ids=IDS)
def test_seeded_rationals_orders_0_to_40(convert, kind, to_moments):
    rng = random.Random(f"{kind}-{to_moments}")
    for order in range(41):
        seq = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        assert_matches_oracle(convert, kind, to_moments, given(seq, to_moments))


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


LAW_ORDER = 24
LAW_MOMENTS = {
    "gaussian": [math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0 for n in range(LAW_ORDER + 1)],
    "semicircle": [catalan(n // 2) if n % 2 == 0 else 0 for n in range(LAW_ORDER + 1)],
    "bernoulli": [1 if n % 2 == 0 else 0 for n in range(LAW_ORDER + 1)],
    "poisson": [bell(n) for n in range(LAW_ORDER + 1)],
    "free_poisson": [catalan(n) for n in range(LAW_ORDER + 1)],
    "unit2": [1 if n == 2 else 0 for n in range(LAW_ORDER + 1)],
    "ones": [0] + [1] * LAW_ORDER,
}


@pytest.mark.parametrize(("convert", "kind", "to_moments"), CONVERSIONS, ids=IDS)
@pytest.mark.parametrize("law", sorted(LAW_MOMENTS))
def test_integer_law_sequences(convert, kind, to_moments, law):
    assert_matches_oracle(convert, kind, to_moments, given(LAW_MOMENTS[law], to_moments))


# nine odd primes whose product has exactly MAX_SERIES_BITS bits
WIDE_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize(("convert", "kind", "to_moments"), CONVERSIONS, ids=IDS)
def test_common_denominator_just_under_the_bits_bound(convert, kind, to_moments):
    assert math.prod(WIDE_PRIMES).bit_length() == MAX_SERIES_BITS
    rng = random.Random(7)
    seq = [F(rng.choice((-1, 1)) * rng.randint(1, p - 1), p) for p in WIDE_PRIMES * 3]
    assert_matches_oracle(convert, kind, to_moments, given([F(1)] + seq, to_moments))


@pytest.mark.parametrize("kind", ["classical", "free", "boolean"])
def test_round_trip_keeps_the_scale(kind):
    # the cumulants' denominators grow like D^j, and their lcm far exceeds the
    # bits bound; the scale built from them stays within it
    (to_cumulants, _, _), (to_moments, _, _) = [c for c in CONVERSIONS if c[1] == kind]
    rng = random.Random(11)
    moments = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(60)]
    cumulants = to_cumulants(moments)
    assert math.lcm(*(x.denominator for x in cumulants)).bit_length() > 4 * MAX_SERIES_BITS
    assert to_moments(cumulants) == moments
