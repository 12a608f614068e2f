from fractions import Fraction as F

import pytest

from freeprob.cumulants import (
    free_from_moments,
    gaussian_free_cumulants,
    gaussian_shifted_sequence,
)
from freeprob.errors import BoundExceededError
from freeprob.partitions import count_connected_pairings
from freeprob.transforms.fid import MAX_C_BITS, _free_cumulants
from freeprob.transforms import (
    fid_test,
    formal_phi_ode_check,
    free_cumulants_of_mu_c,
    moments_from_jacobi,
    mu_c_jacobi,
    shifted_sequence_of_mu_c,
)


def test_free_cumulants_c0_match_connected_pairings():
    fc = free_cumulants_of_mu_c(0, 12)
    for two_n in range(2, 13, 2):
        assert fc[two_n] == count_connected_pairings(two_n)
    assert all(fc[k] == 0 for k in range(1, 13, 2))


def test_free_cumulants_delta_zero():
    fc = free_cumulants_of_mu_c(-1, 10)
    assert fc == [F(0)] * 11


def test_free_cumulants_low_order_closed_forms():
    for c in (F(1, 2), F(-1, 2), F(9, 10), F(3)):
        fc = free_cumulants_of_mu_c(c, 6)
        assert fc[2] == c + 1
        assert fc[4] == c + 1
        assert fc[6] == (c + 1) ** 2 + 3 * (c + 1)


@pytest.mark.parametrize("c", [F(0), F(1, 2), F(-1, 2), F(9, 10), F(1), F(-9, 10)])
def test_free_cumulants_match_moment_pipeline(c):
    # independent route: Jacobi data -> exact moments -> free cumulants
    params = mu_c_jacobi(c, 31)
    moments = moments_from_jacobi(params, 60)
    assert free_from_moments(moments) == free_cumulants_of_mu_c(c, 60)


def test_exactness_chain_c0_reproduces_connected_pairings():
    # Jacobi data -> moments -> free cumulants equals the enumeration counts
    fc = free_from_moments(moments_from_jacobi(mu_c_jacobi(0, 7), 12))
    for two_n in range(2, 13, 2):
        assert fc[two_n] == count_connected_pairings(two_n)


def fraction_free_cumulants(c, order):
    """Oracle: the recursion of the module docstring on Fractions, term by term."""
    r = [F(0)] * max(order, 2)
    if order >= 2:
        r[1] = c + 1
    for m in range(2, order - 1, 2):
        acc = (m - 1) * r[m - 1]
        for i in range(3, m, 2):
            acc += (m - i) * r[i] * r[m - i]
        r[m + 1] = acc
    fc = [F(0)] * (order + 1)
    for n in range(1, order + 1):
        fc[n] = r[n - 1]
    return fc


@pytest.mark.parametrize(
    "c",
    [F(0), F(-1), F(-1, 2), F(9, 10), F(3), F(2, 5), pytest.param(F(2**128 - 159, 2**127 + 1), id="128-bit")],
    ids=str,
)
def test_integer_cumulant_recursion_matches_fraction_oracle(c):
    # the 128-bit c stops at order 120: the oracle takes over 20 s at 402
    big = max(c.numerator.bit_length(), c.denominator.bit_length()) == MAX_C_BITS
    for order in (0, 1, 2, 3, 30, 120 if big else 402):
        fc = _free_cumulants(c, order)
        assert fc == fraction_free_cumulants(c, order)
        assert all(type(x) is F for x in fc)


def test_shifted_sequence_gaussian():
    assert shifted_sequence_of_mu_c(0, 12) == [F(x) for x in gaussian_shifted_sequence(12)]


def test_fid_pass_for_nonpositive_c():
    for c in (F(-1), F(-3, 4), F(-1, 2), F(-1, 4), F(0)):
        report = fid_test(c, 120)
        assert report.verdict == "PASS", (c, report)
        assert report.first_negative_index is None
        assert all(s == 1 for s in report.beta_signs)


def test_fid_headline_failure_indices():
    # one-time ordinal calibration against c = 9/10; c = 1 then has no freedom
    report = fid_test(F(9, 10), 200)
    assert report.verdict == "FAIL"
    assert report.ordinal == 97
    assert report.matrix_size == 98
    assert all(s == 1 for s in report.beta_signs[:-1])
    assert report.beta_signs[-1] == -1

    report = fid_test(F(1), 200)
    assert report.verdict == "FAIL"
    assert report.ordinal == 83
    assert report.matrix_size == 84


def test_fid_failure_ordinal_decreases_in_c():
    # exploratory scan: the first failing Hankel index shrinks as c grows
    # (frozen after one computation; c = 1/2 still passes through depth 150);
    # c -> (ordinal, order), and c = 3/5 needs depth 191, so order 400
    expected = {
        F(3, 5): (191, 400),
        F(3, 4): (131, 300),
        F(3, 2): (47, 300),
        F(2): (33, 300),
        F(3): (23, 300),
    }
    ordinals = {}
    for c, (ordinal, order) in expected.items():
        report = fid_test(c, order)
        assert report.verdict == "FAIL"
        assert report.ordinal == ordinal
        ordinals[c] = report.ordinal
    ordinals[F(9, 10)] = 97
    ordinals[F(1)] = 83
    ordered = [ordinals[c] for c in sorted(ordinals)]
    assert ordered == sorted(ordered, reverse=True)
    assert fid_test(F(1, 2), 300).verdict == "PASS"


def test_fid_reaches_documented_order_budget():
    report = fid_test(F(-1, 2), 400)
    assert report.verdict == "PASS"
    assert len(report.beta_signs) == 200
    assert report.precision_digits is not None
    assert len(shifted_sequence_of_mu_c(F(-1, 2), 400)) == 401
    for call in (lambda: fid_test(F(-1, 2), 401), lambda: shifted_sequence_of_mu_c(0, 401)):
        with pytest.raises(BoundExceededError, match="400"):
            call()


def test_fid_bounds_the_size_of_c():
    # numerator and denominator of at most MAX_C_BITS bits; the bound is
    # checked before any cumulant is computed
    admitted = F(1, 2**(MAX_C_BITS - 1))
    assert len(free_cumulants_of_mu_c(admitted, 10)) == 11
    assert len(free_cumulants_of_mu_c(1 / admitted, 10)) == 11
    for c in (F(1, 2**MAX_C_BITS), F(2**MAX_C_BITS, 3), F(1, 10**400)):
        for call in (
            lambda: fid_test(c, 40),
            lambda: free_cumulants_of_mu_c(c, 10),
            lambda: shifted_sequence_of_mu_c(c, 10),
        ):
            with pytest.raises(BoundExceededError, match=f"{MAX_C_BITS} bits"):
                call()


def test_fid_rejects_small_order():
    with pytest.raises(ValueError):
        fid_test(F(1, 2), 3)


def test_formal_ode_check():
    assert formal_phi_ode_check(12)
    assert formal_phi_ode_check(2)


def test_formal_ode_negative_control():
    s = [F(x) for x in gaussian_shifted_sequence(12)]
    s[6] += 1
    result = formal_phi_ode_check(12, s)
    assert not result
    assert result.failing_order == 6


def test_formal_ode_matches_mu_c_shifted_only_at_c0():
    # the identity encodes the Gaussian recursion; it must fail for c != 0
    s = shifted_sequence_of_mu_c(F(1, 2), 12)
    assert not formal_phi_ode_check(12, s)
