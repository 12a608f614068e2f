import math
from fractions import Fraction as F

import pytest

from freeprob.cumulants import free_from_moments, gaussian_shifted_sequence, moments_from_free
from freeprob.errors import BoundExceededError
from freeprob.transforms import (
    JacobiParams,
    jacobi_from_moments,
    moments_from_jacobi,
    mu_c_jacobi,
    pivot_signs,
    shifted_sequence_of_mu_c,
)
from freeprob.transforms import jacobi
from oracles import Interval, full_width_sigma_scan, hankel_sign, hankel_sign_from_pivots


def gauss_moments(n):
    out = [F(1)]
    for k in range(1, n + 1):
        out.append(F(0) if k % 2 else out[-2] * (k - 1))
    return out


def catalan_moments(n):
    return [
        F(math.comb(k, k // 2) - (math.comb(k, k // 2 - 1) if k >= 2 else 0)) if k % 2 == 0 else F(0)
        for k in range(n + 1)
    ]


def test_mu_c_jacobi_values():
    p = mu_c_jacobi(0, 5)
    assert p.beta == (1, 2, 3, 4, 5)
    assert all(a == 0 for a in p.alpha)

    p = mu_c_jacobi(-1, 4)
    assert p.beta == (0, 0, 0, 0)

    p = mu_c_jacobi(F(9, 10), 3)
    assert p.beta == (F(19, 10), F(29, 10), F(39, 10))

    with pytest.raises(ValueError):
        mu_c_jacobi(F(-11, 10), 3)


def test_moments_from_jacobi_gaussian():
    m = moments_from_jacobi(mu_c_jacobi(0, 10), 8)
    assert m == gauss_moments(8)


def test_moments_from_jacobi_delta():
    m = moments_from_jacobi(mu_c_jacobi(-1, 6), 8)
    assert m == [1] + [0] * 8


def test_moments_from_jacobi_semicircle():
    params = JacobiParams(tuple(F(0) for _ in range(8)), tuple(F(1) for _ in range(8)))
    assert moments_from_jacobi(params, 10) == catalan_moments(10)


def test_moments_from_jacobi_bound():
    with pytest.raises(BoundExceededError):
        moments_from_jacobi(mu_c_jacobi(0, 3), 8)


def test_moments_round_trip_c1():
    params = mu_c_jacobi(1, 12)
    m = moments_from_jacobi(params, 24)
    assert m[2] == 2
    fit = jacobi_from_moments(m)
    assert fit.breakdown_index is None
    assert fit.beta == [c + 1 for c in range(1, 13)]
    assert all(a == 0 for a in fit.alpha)


def test_jacobi_from_moments_gaussian_depth_40():
    m = moments_from_jacobi(mu_c_jacobi(0, 41), 80)
    fit = jacobi_from_moments(m, 40)
    assert fit.breakdown_index is None
    assert fit.beta == list(range(1, 41))


def test_jacobi_from_moments_semicircle():
    m = catalan_moments(80)
    fit = jacobi_from_moments(m, 40)
    assert fit.breakdown_index is None
    assert fit.beta == [1] * 40
    assert all(a == 0 for a in fit.alpha)


def test_jacobi_round_trip_asymmetric():
    alpha = (F(1, 2), F(-1, 3), F(2), F(0), F(5, 7))
    beta = (F(3), F(1, 2), F(7, 3), F(4), F(1))
    params = JacobiParams(alpha, beta)
    m = moments_from_jacobi(params, 10)
    fit = jacobi_from_moments(m, 5)
    assert fit.breakdown_index is None
    assert tuple(fit.beta) == beta
    assert tuple(fit.alpha) == alpha


def test_jacobi_round_trip_asymmetric_deep():
    import random

    rng = random.Random(5)
    alpha = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(12))
    beta = tuple(F(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(12))
    m = moments_from_jacobi(JacobiParams(alpha, beta), 24)
    fit = jacobi_from_moments(m, 12)
    assert fit.breakdown_index is None
    assert tuple(fit.alpha) == alpha
    assert tuple(fit.beta) == beta


def test_jacobi_breakdown_reported_not_raised():
    # moments of a signed "measure": positivity fails somewhere
    s = [F(x) for x in gaussian_shifted_sequence(12)]
    s[8] = -s[8]
    fit = jacobi_from_moments(s)
    assert fit.breakdown_index is not None
    assert fit.breakdown_sign in (-1, 0)


def test_jacobi_zero_pivot_breakdown():
    # point mass at 1: m_k = 1, Hankel determinants vanish from k = 1 on
    fit = jacobi_from_moments([F(1)] * 9)
    assert fit.breakdown_index == 1
    assert fit.breakdown_sign == 0


def test_hankel_sign_examples():
    s = gaussian_shifted_sequence(24)
    assert hankel_sign(s, 0) == 1
    assert hankel_sign(s, 3) == 1
    assert hankel_sign([-2, 1, 1], 0) == -1
    for k in range(0, 9):
        assert hankel_sign(s, k) == 1


def test_hankel_sign_matches_pivot_prediction():
    sequences = [
        [F(x) for x in gaussian_shifted_sequence(24)],
        shifted_sequence_of_mu_c(F(9, 10), 24),
        catalan_moments(24),
    ]
    for seq in sequences:
        fit = jacobi_from_moments(seq)
        for k in range(0, 11):
            assert hankel_sign(seq, k) == hankel_sign_from_pivots(fit, k) == 1


def test_hankel_sign_detects_negative():
    s = [F(x) for x in gaussian_shifted_sequence(12)]
    s[6] = -s[6]
    fit = jacobi_from_moments(s)
    k = fit.breakdown_index
    assert fit.breakdown_sign == -1
    assert hankel_sign(s, k) == -1
    assert hankel_sign_from_pivots(fit, k) == -1


def test_hankel_bound():
    with pytest.raises(BoundExceededError):
        hankel_sign([1] * 100, 30)


def _sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize(
    "c", [F(9, 10), F(1), F(3, 4), F(3, 2), F(2), F(3), F(0), F(-1, 2)], ids=str
)
def test_pivot_signs_match_exact_scan(c):
    s = shifted_sequence_of_mu_c(c, 200)
    fit = jacobi_from_moments(s, 100)
    scan = pivot_signs(s, 100)
    assert scan.signs == tuple(_sign(p) for p in fit.pivots)
    assert scan.breakdown_index == fit.breakdown_index
    assert scan.precision is not None


def test_pivot_signs_exact_zero_pivot_takes_fallback():
    # symmetric two-point measure at +-1/3: m_{2n} = 9^-n, H_2 = 0; 1/9 has no
    # finite decimal expansion, so no interval certifies that zero and the
    # exact scan decides it
    m = [F(1, 9 ** (n // 2)) if n % 2 == 0 else F(0) for n in range(9)]
    scan = pivot_signs(m, 4)
    assert scan.breakdown_index == 2
    assert scan.signs == (1, 1, 0)
    assert scan.precision is None


def test_pivot_signs_certify_exact_interval_zero():
    # point mass at 1: the integer moments stay exact, so [0, 0] certifies H_1 = 0
    scan = pivot_signs([F(1)] * 9, 4)
    assert scan.breakdown_index == 1
    assert scan.signs == (1, 0)
    assert scan.precision is not None


def test_pivot_signs_leave_global_precision_alone():
    import decimal

    import mpmath

    def state():
        ctx = decimal.getcontext()
        return ctx.prec, ctx.rounding, ctx.Emax, mpmath.mp.prec, mpmath.iv.prec

    before = state()
    pivot_signs(shifted_sequence_of_mu_c(F(9, 10), 60), 30)
    assert state() == before


def test_interval_operations_match_the_oracle_interval():
    # every sign pattern: negative, touching 0, straddling 0, exactly [0, 0],
    # positive, and degenerate; the ends have no finite decimal expansion
    points = [F(-5, 3), F(-1, 7), F(0), F(2, 9), F(7, 3)]
    ctx = Interval.exact(0, 30).ctx
    intervals = [
        Interval(Interval.exact(a, 30).lo, Interval.exact(b, 30).hi, ctx)
        for i, a in enumerate(points)
        for b in points[i:]
    ]
    arithmetic = jacobi._interval_arithmetic(*ctx)
    for x in intervals:
        for b in intervals:
            assert arithmetic.subtract(tuple(x), tuple(b)) == tuple(x - b)
            if b.lo > 0:
                assert arithmetic.divide(tuple(x), tuple(b)) == tuple(x / b)
            for o in intervals:
                assert arithmetic.submul(tuple(x), tuple(b), tuple(o)) == tuple(x - b * o)


def _oracle_sequences():
    """About 400 seeded moment sequences, half of them symmetric, with
    breakdowns at k = 0, k = 1 and mid-table, exact zero pivots with and
    without a finite decimal expansion, and asymmetric Jacobi data."""
    import random

    rng = random.Random(2024)

    def ratio(lo, hi, den=6):
        return F(rng.randint(lo, hi), rng.randint(1, den))

    def jacobi_moments(symmetric, depth):
        alpha = tuple(F(0) if symmetric else ratio(-6, 6) for _ in range(depth))
        beta = tuple(ratio(1, 30) for _ in range(depth))
        return moments_from_jacobi(JacobiParams(alpha, beta), 2 * depth)

    def atomic_moments(symmetric, atoms, order):
        points = [ratio(1, 9, 4) for _ in range(atoms)]
        weights = [F(rng.randint(1, 5)) for _ in points]
        if symmetric:
            points, weights = points + [-x for x in points], weights * 2
        else:
            points = [x * rng.choice((1, -1)) for x in points]
        return [sum(w * x**n for w, x in zip(weights, points)) for n in range(order + 1)]

    cases = [
        ([F(1)] * 9, 4),  # point mass at 1: H_1 = [0, 0] exactly
        ([F(1, 9 ** (n // 2)) if n % 2 == 0 else F(0) for n in range(9)], 4),  # +-1/3
    ]
    for i in range(398):
        symmetric = i % 2 == 0
        kind = (i // 2) % 7
        depth = rng.randint(1, 12)
        if kind <= 2:
            m = jacobi_moments(symmetric, depth)
            if kind == 1:  # breakdown mid-table
                n = 2 * rng.randint(1, depth)
                m[n] = m[n] * ratio(-3, 3, 2) if rng.random() < 0.5 else -m[n]
        elif kind == 3:  # exact zero pivots beyond the support
            m = atomic_moments(symmetric, rng.randint(1, 4), 2 * depth)
        elif kind == 4:  # breakdown at k = 0
            m = jacobi_moments(symmetric, depth)
            m[0] = F(rng.randint(-3, 0))
        elif kind == 5:  # breakdown at k = 1: m_0 m_2 - m_1^2 <= 0
            m = jacobi_moments(symmetric, depth)
            m[2] = (m[1] ** 2 - rng.randint(0, 2)) / m[0]
        else:  # random small entries
            m = [F(1)] + [ratio(-4, 9) for _ in range(2 * depth)]
            if symmetric:
                m[1::2] = [F(0)] * depth
        cases.append((m, depth))
    return cases


def test_online_scan_matches_full_width_oracle(monkeypatch):
    cases = _oracle_sequences()
    assert sum(not any(m[1::2]) for m, _ in cases) >= len(cases) // 2
    breakdowns = set()
    for m, depth in cases:
        fit = jacobi_from_moments(m, depth)
        want = full_width_sigma_scan(list(m), depth, _sign)
        for got_list, want_list in ((fit.alpha, want.alpha), (fit.beta, want.beta), (fit.pivots, want.pivots)):
            assert got_list == want_list
            assert [type(x) for x in got_list] == [type(x) for x in want_list]
        assert (fit.breakdown_index, fit.breakdown_sign) == (want.breakdown_index, want.breakdown_sign)
        breakdowns.add(fit.breakdown_index)
    assert {None, 0, 1} <= breakdowns and len(breakdowns) > 5

    # at the start precision the interval tables agree endpoint for endpoint
    # (a zero endpoint may differ in the sign of the zero); an undecided
    # pivot is undecided in both
    def oracle_scan(exact, depth, symmetric, precision):
        return full_width_sigma_scan([Interval.exact(x, precision) for x in exact], depth, jacobi._interval_sign)

    for m, depth in cases:
        exact, precision = [F(x) for x in m], jacobi._start_precision(depth)
        fits = []
        for scan in (jacobi._interval_scan, oracle_scan):
            try:
                fit = scan(exact, depth, not any(exact[1::2]), precision)
            except jacobi._Undecided:
                fits.append(None)
                continue
            ends = [[tuple(x) for x in xs] for xs in (fit.alpha, fit.beta, fit.pivots)]
            fits.append((ends, fit.breakdown_index, fit.breakdown_sign))
        assert fits[0] == fits[1]

    got = [pivot_signs(m, depth) for m, depth in cases]
    monkeypatch.setattr(jacobi, "_interval_scan", oracle_scan)
    want = [pivot_signs(m, depth) for m, depth in cases]
    assert [(p.signs, p.breakdown_index, p.precision) for p in got] == [
        (p.signs, p.breakdown_index, p.precision) for p in want
    ]
    # both exact [0, 0] interval pivots and the exact fallback occur
    assert got[0].precision is not None and got[1].precision is None
    assert any(p.precision is None for p in got[2:])


# the c values of the benchmark's and the golden corpus's fid runs
FID_C = ["9/10", "1", "3/2", "2", "3", "0", "-1/2", "-3/4", "-1", "1/2", "-1/4", "1/4", "3/5", "3/4"]


@pytest.mark.parametrize("c", FID_C)
def test_pivot_signs_need_no_rerun_at_the_start_precision(c):
    s = shifted_sequence_of_mu_c(F(c), 400)
    for order in (120, 200, 400):
        depth = order // 2
        assert pivot_signs(s[: order + 1], depth).precision == jacobi._start_precision(depth)


@pytest.mark.parametrize("start, certified", [(100, 200), (10, None)])
def test_pivot_signs_rerun_from_a_too_low_start_precision(monkeypatch, start, certified):
    # c = 9/10 loses about 140 digits by its breakdown at k = 97: 100 digits
    # certify after one doubling, and 10, 20 and 40 leave it to the exact scan
    s = shifted_sequence_of_mu_c(F(9, 10), 200)
    want = pivot_signs(s, 100)
    monkeypatch.setattr(jacobi, "_start_precision", lambda depth: start)
    scan = pivot_signs(s, 100)
    assert scan.precision == certified
    assert (scan.signs, scan.breakdown_index) == (want.signs, want.breakdown_index)
    assert scan.breakdown_index == 97
