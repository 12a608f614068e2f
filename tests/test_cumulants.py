import math
from fractions import Fraction as F

import pytest

from freeprob.cumulants import (
    MAX_FREE_SERIES_ORDER,
    MAX_RIORDAN_ORDER,
    MAX_SERIES_BITS,
    MAX_SERIES_ORDER,
    WeightKind,
    WeightSpec,
    boolean_from_free,
    boolean_from_moments,
    classical_from_moments,
    cumulant_via_moebius_weights,
    cumulants_via_lattice,
    free_from_classical,
    free_from_moments,
    gaussian_free_cumulants,
    gaussian_shifted_sequence,
    moments_from_boolean,
    moments_from_classical,
    moments_from_free,
    moments_via_lattice,
    nc_innerpoint_sum,
    weighted_pairing_moment,
)
from freeprob.errors import BoundExceededError
from freeprob.partitions import LatticeKind, classify

from oracles import flagged_partition_sum

GAUSS_MOMENTS = [1, 0, 1, 0, 3, 0, 15, 0, 105, 0, 945]


def gauss_moments(n):
    out = [F(1)]
    for k in range(1, n + 1):
        out.append(F(0) if k % 2 else out[-2] * (k - 1))
    return out


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def semicircle_moments(n):
    return [F(catalan(k // 2)) if k % 2 == 0 else F(0) for k in range(n + 1)]


# ---------------------------------------------------------------- classical


def test_classical_gaussian():
    cc = classical_from_moments(GAUSS_MOMENTS[:7])
    assert cc == [0, 0, 1, 0, 0, 0, 0]


def test_classical_delta_zero():
    assert classical_from_moments([1, 0, 0, 0]) == [0, 0, 0, 0]


def test_classical_small_example():
    cc = classical_from_moments([1, 1, 2, 5])
    assert cc == [0, 1, 1, 1]


def test_classical_round_trip():
    m = [F(1), F(1, 2), F(2), F(-3), F(7, 3), F(11)]
    assert moments_from_classical(classical_from_moments(m)) == m


# ---------------------------------------------------------------- free


def test_free_gaussian_cumulants():
    fc = free_from_moments(gauss_moments(12))
    assert [fc[k] for k in (2, 4, 6, 8, 10, 12)] == [1, 1, 4, 27, 248, 2830]
    assert all(fc[k] == 0 for k in (1, 3, 5, 7, 9, 11))


def test_semicircle_moments_are_catalan():
    fc = [F(0)] * 7
    fc[2] = F(1)
    m = moments_from_free(fc)
    assert m == semicircle_moments(6)
    assert m[4] == 2 and m[6] == 5


def test_free_delta_zero():
    assert free_from_moments([1, 0, 0, 0, 0]) == [0] * 5


def test_free_round_trip():
    m = [F(1), F(1), F(3, 2), F(-1), F(4), F(0), F(9, 5)]
    assert moments_from_free(free_from_moments(m)) == m


# ---------------------------------------------------------------- boolean


def test_boolean_gaussian():
    bc = boolean_from_moments(gauss_moments(6))
    assert bc[2] == 1 and bc[4] == 2 and bc[6] == 10


def test_boolean_gaussian_counts_irreducible_pairings():
    from freeprob.partitions import enumerate_pairings

    bc = boolean_from_moments(gauss_moments(8))
    for n in (2, 4, 6, 8):
        count = sum(1 for p in enumerate_pairings(n) if classify(p).irreducible)
        assert bc[n] == count
    assert sum(1 for p in enumerate_pairings(6) if classify(p).irreducible) == 10


def test_boolean_delta_zero():
    assert boolean_from_moments([1, 0, 0, 0]) == [0] * 4


def test_boolean_round_trip():
    m = [F(1), F(-1, 3), F(2), F(5), F(1, 7)]
    assert moments_from_boolean(boolean_from_moments(m)) == m


# ------------------------------------------------- series input checks


SERIES_ALL = [
    classical_from_moments,
    moments_from_classical,
    free_from_moments,
    moments_from_free,
    boolean_from_moments,
    moments_from_boolean,
]


@pytest.mark.parametrize("convert", SERIES_ALL)
def test_series_reject_empty_sequence(convert):
    with pytest.raises(ValueError):
        convert([])


@pytest.mark.parametrize("convert", [free_from_moments, moments_from_free])
def test_free_series_bound(convert):
    seq = [F(1)] + [F(0)] * (MAX_FREE_SERIES_ORDER + 1)
    with pytest.raises(BoundExceededError, match=str(MAX_FREE_SERIES_ORDER)):
        convert(seq)


@pytest.mark.parametrize(
    "convert", [classical_from_moments, moments_from_classical, boolean_from_moments, moments_from_boolean]
)
def test_classical_and_boolean_series_bound(convert):
    seq = [F(1)] + [F(0)] * (MAX_SERIES_ORDER + 1)
    with pytest.raises(BoundExceededError, match=str(MAX_SERIES_ORDER)):
        convert(seq)
    assert len(convert(seq[:2])) == 2


@pytest.mark.parametrize("convert", SERIES_ALL)
def test_series_bits_bound(convert):
    edge = 2**MAX_SERIES_BITS
    # one bit over, then exactly at, the bound on the scale D (first entry)
    # and on the scaled entries D^j x_j (the others; D = 3 in the last)
    too_wide = [[F(1, edge + 1)], [F(edge)], [F(0), F(edge**2)], [F(1, 3), F(edge**2 // 9 + 1)]]
    at_edge = [[F(1, edge - 1)], [F(edge - 1)], [F(0), F(edge**2 - 1)], [F(1, 3), F(edge**2 // 9)]]
    for tail in too_wide:
        with pytest.raises(BoundExceededError, match=str(MAX_SERIES_BITS)):
            convert([F(1)] + tail)
    for tail in at_edge:
        assert len(convert([F(1)] + tail)) == len(tail) + 1


# ------------------------------------------------- lattice oracle equivalence

ORACLE_SEQUENCES = [
    gauss_moments(10),
    semicircle_moments(10),
    [F(1)] * 11,  # delta_1: all moments 1
    [F(1), F(1, 2), F(1), F(2), F(9, 2), F(12), F(31), F(85), F(248), F(726), F(2110)],
    [F(1), F(0), F(2), F(1), F(7), F(-2), F(40), F(13), F(300), F(-5), F(2400)],
]

SERIES = {
    "classical": classical_from_moments,
    "free": free_from_moments,
    "boolean": boolean_from_moments,
}
SERIES_INV = {
    "classical": moments_from_classical,
    "free": moments_from_free,
    "boolean": moments_from_boolean,
}


@pytest.mark.parametrize("flavour", ["classical", "free", "boolean"])
@pytest.mark.parametrize("seq_index", range(len(ORACLE_SEQUENCES)))
def test_series_matches_lattice_oracle(flavour, seq_index):
    m = ORACLE_SEQUENCES[seq_index]
    series = SERIES[flavour](m)
    oracle = cumulants_via_lattice(m, flavour)
    assert series == oracle
    assert moments_via_lattice(series, flavour) == m
    assert SERIES_INV[flavour](series) == m


@pytest.mark.parametrize("flavour", ["classical", "free", "boolean"])
def test_series_matches_literal_moebius_weights(flavour):
    m = ORACLE_SEQUENCES[3][:8]
    series = SERIES[flavour](m)
    for order in range(1, 8):
        assert series[order] == cumulant_via_moebius_weights(m, flavour, order)


# ------------------------------------------------- connected / irreducible sums


def test_free_from_classical_gaussian():
    cc = classical_from_moments(gauss_moments(8))
    assert free_from_classical(cc, 6) == 4
    assert free_from_classical(cc, 8) == 27


def test_free_from_classical_only_singletons():
    cc = [F(0), F(5), F(0), F(0), F(0)]
    for n in (2, 3, 4):
        assert free_from_classical(cc, n) == 0


def test_free_from_classical_matches_series_route():
    m = ORACLE_SEQUENCES[4][:9]
    cc = classical_from_moments(m)
    fc = free_from_moments(m)
    for n in range(1, 9):
        assert free_from_classical(cc, n) == fc[n]


def test_boolean_from_free_examples():
    semicircle_fc = [F(0), F(0), F(1), F(0), F(0)]
    assert boolean_from_free(semicircle_fc, 4) == 1
    fc = [F(0), F(7)]
    assert boolean_from_free(fc, 1) == 7
    gauss_fc = free_from_moments(gauss_moments(4))
    assert boolean_from_free(gauss_fc, 4) == 2


def test_boolean_from_free_matches_series_route():
    m = ORACLE_SEQUENCES[3][:9]
    fc = free_from_moments(m)
    bc = boolean_from_moments(m)
    for n in range(1, 9):
        assert boolean_from_free(fc, n) == bc[n]


def test_boolean_from_classical_irreducible_sum():
    # bc_n also equals the sum of classical-cumulant products over irreducible
    # partitions of the full lattice
    m = ORACLE_SEQUENCES[3][:8]
    cc = classical_from_moments(m)
    bc = boolean_from_moments(m)
    for n in range(1, 8):
        assert flagged_partition_sum(cc, n, LatticeKind.ALL, "irreducible") == bc[n]


@pytest.mark.parametrize("seq_index", [0, 3, 4])
def test_connected_and_irreducible_sums_match_lattice_oracle(seq_index):
    m = ORACLE_SEQUENCES[seq_index][:10]
    cc = classical_from_moments(m)
    fc = free_from_moments(m)
    for n in range(1, 10):
        assert free_from_classical(cc, n) == flagged_partition_sum(cc, n, LatticeKind.ALL, "connected")
        assert boolean_from_free(fc, n) == flagged_partition_sum(fc, n, LatticeKind.NONCROSSING, "irreducible")


def test_free_from_classical_gaussian_past_lattice_orders():
    # the Gaussian's only classical cumulant is k_2 = 1; its free cumulants
    # count connected pairings, which the Riordan recursion gives independently
    cc = [F(0), F(0), F(1)] + [F(0)] * 58
    fc = gaussian_free_cumulants(60)
    for n in range(1, 61):
        assert free_from_classical(cc, n) == fc[n]


def test_boolean_from_free_semicircle_past_lattice_orders():
    # the semicircle's only free cumulant is fc_2 = 1; its boolean cumulants
    # are b_{2j} = Catalan(j - 1) and vanish at odd orders
    fc = [F(0), F(0), F(1)] + [F(0)] * 58
    for n in range(1, 61):
        assert boolean_from_free(fc, n) == (catalan(n // 2 - 1) if n % 2 == 0 else 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cumulant_via_moebius_weights([1, 0, 1], "free", 4),
        lambda: cumulant_via_moebius_weights([1, 0, 1], "free", 0),
        lambda: free_from_classical([0, 0, 1], 4),
        lambda: boolean_from_free([0, 0, 1], 4),
    ],
    ids=["moebius-beyond-sequence", "moebius-order-0", "connected-beyond", "irreducible-beyond"],
)
def test_lattice_sums_check_order(call):
    with pytest.raises(ValueError, match="order must be between 1 and 2"):
        call()


# ------------------------------------------------- Gaussian specialisations


def test_gaussian_free_cumulants_values():
    fc = gaussian_free_cumulants(12)
    assert fc[10] == 248 and fc[12] == 2830
    assert all(fc[k] == 0 for k in range(1, 12, 2))
    s = gaussian_shifted_sequence(6)
    assert s[0] == 1 and s[2] == 1 and s[4] == 4 and s[6] == 27


def test_shifted_sequence_riordan_forms_agree():
    # s_{2n} = n sum_i s_{2i} s_{2(n-i-1)} (the library form) equals
    # sum_i (2i+1) s_{2i} s_{2(n-i-1)}: pairing term i with term n-1-i
    s = gaussian_shifted_sequence(MAX_RIORDAN_ORDER)
    for two_n in range(2, MAX_RIORDAN_ORDER + 1, 2):
        n = two_n // 2
        assert s[two_n] == sum((2 * i + 1) * s[2 * i] * s[two_n - 2 - 2 * i] for i in range(n))


def test_gaussian_free_cumulants_match_moment_route():
    fc = gaussian_free_cumulants(12)
    assert free_from_moments(gauss_moments(12)) == fc


# ------------------------------------------------- weighted pairing sums


@pytest.mark.parametrize("s", [F(1, 2), F(2), F(3)])
def test_weighted_cc_power_order4(s):
    spec = WeightSpec(WeightKind.CC_POWER, s)
    assert weighted_pairing_moment(4, spec) == 2 * s**2 + s


def test_weighted_cc_power_order2():
    spec = WeightSpec(WeightKind.CC_POWER, F(7, 3))
    assert weighted_pairing_moment(2, spec) == F(7, 3)


def test_weighted_cr_power_degenerate_parameters():
    for n in (2, 4, 6, 8):
        assert weighted_pairing_moment(n, WeightSpec(WeightKind.CR_POWER, F(1))) == math.prod(
            range(n - 1, 0, -2)
        )
        assert weighted_pairing_moment(n, WeightSpec(WeightKind.CR_POWER, F(0))) == catalan(n // 2)


def test_weighted_q_gaussian_fourth_moment():
    q = F(2, 5)
    assert weighted_pairing_moment(4, WeightSpec(WeightKind.CR_POWER, q)) == 2 + q


@pytest.mark.parametrize("s", [F(1, 3), F(1, 2), F(2), F(5)])
def test_gbm_identity(s):
    # sum over pairings of s^cc equals the moment of the s-scaled free cumulants
    fc = [F(x) for x in gaussian_free_cumulants(12)]
    scaled = [s * x for x in fc]
    m = moments_from_free(scaled)
    for two_n in range(2, 13, 2):
        spec = WeightSpec(WeightKind.CC_POWER, s)
        assert weighted_pairing_moment(two_n, spec) == m[two_n]


def test_bdj_boundary_cases():
    for two_n in (2, 4, 6, 8):
        assert weighted_pairing_moment(two_n, WeightSpec(WeightKind.BDJ, F(1))) == math.prod(
            range(two_n - 1, 0, -2)
        )
        assert weighted_pairing_moment(two_n, WeightSpec(WeightKind.BDJ, F(0))) == catalan(
            two_n // 2
        )


@pytest.mark.parametrize("b", [F(1, 4), F(1, 2), F(3, 4)])
def test_bdj_identity(b):
    # The BDJ-weighted pairing sum equals the moments of
    # (Gaussian dilated by sqrt(b)) boxplus (semicircle dilated by sqrt(1-b)):
    # even free cumulants fc_{2k} -> b^k fc_{2k}(Gaussian) + (1-b)^k [2k == 2].
    # The variances b and 1-b add up to 1, matching the weighted m_2 = 1.
    gauss_fc = [F(x) for x in gaussian_free_cumulants(10)]
    mixed = [F(0)] * 11
    for k in range(2, 11, 2):
        mixed[k] = b ** (k // 2) * gauss_fc[k]
    mixed[2] += 1 - b
    m = moments_from_free(mixed)
    for two_n in range(2, 11, 2):
        assert weighted_pairing_moment(two_n, WeightSpec(WeightKind.BDJ, b)) == m[two_n]


# ------------------------------------------------- inner points


def test_nc_innerpoint_sum_values():
    assert nc_innerpoint_sum(2) == 1
    assert nc_innerpoint_sum(6) == 27
    assert nc_innerpoint_sum(8) == 248


def test_nc_innerpoint_matches_shifted_sequence():
    s = gaussian_shifted_sequence(12)
    for two_n in range(0, 13, 2):
        assert nc_innerpoint_sum(two_n) == s[two_n]


# ------------------------------------------------- dilation


def test_dilate_scaled_gaussian_moment():
    s = F(3, 7)
    fc = [F(0), F(0), s, F(0), s]  # s * (Gaussian fc through order 4)
    m = moments_from_free(fc)
    assert m[4] == s + 2 * s**2
    spec = WeightSpec(WeightKind.CC_POWER, s)
    assert weighted_pairing_moment(4, spec) == m[4]
