import cmath
import math
from fractions import Fraction as F

import pytest

from freeprob.transforms import (
    ContinuationError,
    F_eval,
    G_eval,
    cf_eval,
    decomposition_residual,
    density_eval,
    dilation_residual,
    f_trajectory,
    jacobi_from_moments,
    moments_from_jacobi,
    mu_c_jacobi,
    riccati_residual,
    shifted_sequence_of_mu_c,
    voiculescu_phi,
)
from freeprob.errors import InputError
from freeprob.transforms import analytic
from oracles import cf_approximant

# the fixed 25-point upper-half-plane grid used by the acceptance suite
GRID = [complex(x, y) for x in (-2, -1, 0, 1, 2) for y in (0.6, 1.0, 1.6, 2.2, 3.0)]
C_VALUES = (F(-9, 10), F(-1, 2), F(0), F(1, 2))


def test_g_maps_upper_to_lower_half_plane():
    for c in C_VALUES:
        for z in GRID:
            assert G_eval(c, z).imag < 0


def test_g_series_agrees_with_continued_fraction():
    points = [2j, 1 + 2j, -1 + 1.5j, 0.5 + 1j, 3j, -2 + 2.5j, 1.5 + 0.8j, 2 + 2j, -0.5 + 3j, 1j]
    for c in (F(-1, 2), F(1, 2), F(0), F(-9, 10)):
        for z in points:
            gap = abs(G_eval(c, z) - cf_eval(c, z, tol=1e-14))
            assert gap < 1e-10, (c, z, gap)


def test_g_large_z_total_mass():
    # the deviation is m_2/|z|^2 = (c+1)/|z|^2, so |z| = 1500 sits safely
    # inside the 1e-6 target for every c here
    for c in (F(0), F(1, 2), F(-1, 2)):
        for z in (1500j, 1000 + 1100j, -1300 + 700j):
            assert abs(z * G_eval(c, z) - 1) < 1e-6


def test_g_delta_zero():
    for z in (2j, 1 + 1j):
        assert G_eval(-1, z) == 1 / z
        assert cf_eval(-1, z) == 1 / z


def test_g_c0_limit_consistency():
    # small-c series branch approaches the dedicated c = 0 branch
    for z in (2j, 1 + 1j):
        assert abs(G_eval(F(1, 1000), z) - G_eval(0, z)) < 1e-2
        assert abs(G_eval(F(1, 1000000), z) - G_eval(0, z)) < 1e-4


def test_cf_matches_moment_asymptotics():
    # at large |z| the transform matches the truncated moment expansion;
    # at z = 10i the first omitted term m_12/z^13 is ~1e-9 for these c
    z = 10j
    for c in (F(0), F(1, 2)):
        m = moments_from_jacobi(mu_c_jacobi(c, 6), 10)
        asymptotic = sum(float(m[n]) / z ** (n + 1) for n in range(11))
        assert abs(cf_eval(c, z) - asymptotic) < 1e-8


def test_cf_even_odd_depths_bracket_on_imaginary_axis():
    # numerical observation for c = 0: even-depth approximants approach the
    # limit from below (in Im), odd-depth ones from above
    z = 2.5j
    limit = cf_eval(0, z, tol=1e-15).imag
    for d in (8, 16, 32, 64):
        assert cf_approximant(0, z, d).imag < limit
        assert cf_approximant(0, z, d + 1).imag > limit


def test_riccati_residuals_on_grid():
    for c in C_VALUES:
        for z in GRID:
            res = riccati_residual(c, z, step=1e-5)
            assert res.g_form < 1e-6, (c, z, res)
            assert res.f_form < 1e-6, (c, z, res)


def test_riccati_residual_scales_quadratically():
    # central differences: halving the step should shrink the truncation
    # error by about 4; allow slack for rounding noise
    c, z = F(1, 2), 1 + 2j
    coarse = riccati_residual(c, z, step=1e-3).g_form
    fine = riccati_residual(c, z, step=5e-4).g_form
    assert fine < coarse / 2.5


@pytest.mark.parametrize(
    "z, step, dps",
    [(1 + 1j, 0.0, None), (1 + 1j, 1e-17, None), (1 + 1j, -1e-17, None), (1e6 + 1j, 1e-11, 30)],
)
def test_riccati_refuses_a_step_that_leaves_z_unchanged(z, step, dps):
    # with z + step == z the difference quotient would read as 0
    with pytest.raises(InputError, match="does not change z"):
        riccati_residual(F(1, 2), z, step=step, dps=dps)


@pytest.mark.parametrize(
    "z, step, dps",
    [(1 + 1j, 1.2e-16, None), (1 + 1j, -3e-16, None), (8 + 1j, 1e-13, 30), (1e6 + 1j, 1e-9, None)],
)
def test_riccati_refuses_a_step_below_the_float_spacing(z, step, dps):
    # z + step and z - step round to points 2 * step (1 + r) apart with r up
    # to 0.39 here, so a quotient over 2 * step would be off by as much
    assert z + step != z != z - step
    with pytest.raises(InputError, match="too fine"):
        riccati_residual(F(1, 2), z, step=step, dps=dps)


def _no_evaluation(*args, **kwargs):
    raise AssertionError("evaluated before the argument check")


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_riccati_refuses_a_step_that_is_not_finite(monkeypatch, step):
    # z + nan is no point, and z + inf sends the continued fraction to its
    # depth bound
    monkeypatch.setattr(analytic, "_routed", _no_evaluation)
    with pytest.raises(InputError, match="not finite"):
        riccati_residual(F(1, 2), 1 + 1j, step=step)


def test_phi_refuses_a_nan_tol(monkeypatch):
    # no residual is within a NaN tol, so no stage could converge
    monkeypatch.setattr(analytic, "_routed", _no_evaluation)
    with pytest.raises(InputError, match="tol must be nonnegative"):
        voiculescu_phi(F(1, 2), 0.5 + 1j, tol=math.nan)


@pytest.mark.parametrize("dps", [None, 30])
def test_cf_refuses_a_negative_tol(dps):
    # no approximant can agree within a negative tol, so doubling would run
    # to the depth bound
    with pytest.raises(InputError, match="tol must be nonnegative"):
        cf_eval(F(1, 2), 1j, tol=-1, dps=dps)


def test_phi_refuses_an_infinite_tol(monkeypatch):
    # every residual is within an infinite tol, so the continuation would
    # have no stage and phi would read 0
    monkeypatch.setattr(analytic, "_routed", _no_evaluation)
    with pytest.raises(InputError, match="tol must be finite"):
        voiculescu_phi(F(-1, 2), 0.3 + 1j, tol=math.inf)


@pytest.mark.parametrize("z, tol", [(1 - 1j, 1e-11), (2 + 0j, 1e-11), (1 + 1j, -1), (1 + 1j, math.inf)])
def test_phi_at_the_point_mass_checks_z_and_tol(z, tol):
    # phi is 0 at c = -1, but only on the upper half-plane and for a usable tol
    with pytest.raises(InputError):
        voiculescu_phi(-1, z, tol=tol)
    assert voiculescu_phi(-1, 1 + 1j) == 0


@pytest.mark.parametrize("dps", [None, 30])
def test_cf_refuses_an_infinite_tol(dps):
    # the first two approximants agree within an infinite tol at any depth,
    # so the shallowest one (-1.02-2.13i where G is 0.73-1.66i) would return
    with pytest.raises(InputError, match="tol must be finite"):
        cf_eval(F(-1, 2), 0.3 + 0.05j, tol=math.inf, dps=dps)


def test_riccati_gaussian_linear_form():
    # at c = 0 the equation degenerates to G' = -zG + 1
    z = 2j
    h = 1e-5
    gp = (G_eval(0, z + h) - G_eval(0, z - h)) / (2 * h)
    g = G_eval(0, z)
    assert abs(gp - (-z * g + 1)) < 1e-6


def test_decomposition_residuals():
    for c in C_VALUES:
        for z in GRID:
            assert decomposition_residual(c, z) < 1e-8, (c, z)
    assert decomposition_residual(F(-1), 2j) < 1e-8


def test_dilation_identity():
    for c in (F(0), F(-1, 2), F(1, 2)):
        for z in (2j, 1 + 1j, -1 + 2j):
            assert dilation_residual(c, z) < 1e-9


def test_density_gaussian_values():
    for u in (0.0, 1.0, -1.0, 2.0, -2.0):
        d = density_eval(0, u, eps=1e-6)
        assert abs(d - math.exp(-u * u / 2) / math.sqrt(2 * math.pi)) < 1e-4


def test_density_symmetry_and_positivity():
    for c in (F(-1, 2), F(1, 2), F(0)):
        for u in (0.3, 0.9, 1.7, 2.4):
            left = density_eval(c, -u, eps=1e-5)
            right = density_eval(c, u, eps=1e-5)
            assert abs(left - right) < 1e-10
            assert right > 0


def test_density_integrates_to_exact_moments():
    # trapezoid integration of the boundary-value density reproduces the
    # exact mass and variance; the |u| > 5 tails run at extended precision
    # (binary64 cancellation ends around there; the error message directs
    # users to dps)
    for c in (F(-1, 2), F(0), F(1, 2)):
        h = 0.02
        xs = [round(-5 + h * i, 9) for i in range(int(10 / h) + 1)]
        ds = [density_eval(c, x, eps=1e-7) for x in xs]
        mass = h * (sum(ds) - 0.5 * (ds[0] + ds[-1]))
        m2 = h * (sum(d * x * x for x, d in zip(xs, ds)) - 0.5 * 25 * (ds[0] + ds[-1]))
        ht = 0.05
        ts = [round(5 + ht * i, 9) for i in range(int(3.5 / ht) + 1)]
        tds = [density_eval(c, t, eps=1e-7, dps=30) for t in ts]
        mass += 2 * ht * (sum(tds) - 0.5 * (tds[0] + tds[-1]))
        m2 += 2 * ht * (
            sum(d * t * t for t, d in zip(ts, tds)) - 0.5 * (tds[0] * 25 + tds[-1] * 72.25)
        )
        assert abs(mass - 1) < 1e-6
        assert abs(m2 - (float(c) + 1)) < 1e-5


def test_density_tail_requires_extended_precision():
    import pytest as _pytest

    from freeprob.transforms import PrecisionError

    with _pytest.raises(PrecisionError):
        density_eval(F(-1, 2), 8.0, eps=1e-7)
    assert density_eval(F(-1, 2), 8.0, eps=1e-7, dps=30) > 0


def test_density_richardson_refines():
    d_plain = density_eval(0, 0.0, eps=1e-2)
    d_rich = density_eval(0, 0.0, eps=1e-2, richardson=True)
    exact = 1 / math.sqrt(2 * math.pi)
    assert abs(d_rich - exact) < abs(d_plain - exact)


def test_voiculescu_delta_zero():
    assert voiculescu_phi(-1, 1 + 1j) == 0


def test_voiculescu_gaussian_grid():
    # the Gaussian is freely infinitely divisible, so phi maps upward to down
    for x in (-5, -2, 0, 2, 5):
        for y in (0.2, 1.0, 5.0):
            phi = voiculescu_phi(0, complex(x, y))
            assert phi.imag <= 1e-8, (x, y, phi)


def test_voiculescu_interval_c_grid():
    for c in (F(-3, 4), F(-1, 4)):
        for z in (1 + 0.5j, -2 + 1j, 3j):
            phi = voiculescu_phi(c, z)
            assert phi.imag <= 1e-8, (c, z, phi)


def test_voiculescu_defines_inverse():
    # w = z + phi(z) must satisfy F(w) = z
    for c in (F(0), F(-1, 2), F(1, 2)):
        for z in (1 + 1j, 2j):
            w = z + voiculescu_phi(c, z)
            assert abs(F_eval(c, w) - z) < 1e-9


@pytest.mark.parametrize("c", [F(-3, 4), F(-1, 2), F(-1, 10), F(0)], ids=str)
def test_voiculescu_is_the_cauchy_transform_of_the_fid_sequence(c):
    # phi_c(z) = sum_n s_n z^{-(n+1)}: the shifted sequence that `fid` scans
    # is the moment sequence of the free Levy measure, and phi_c its Cauchy
    # transform s_0 / (z - a_0 - b_1 / (z - a_1 - ...)); the depth-80 fraction
    # limits the agreement (near 1e-7 at z = 1 + i, 1e-11 higher up)
    s = shifted_sequence_of_mu_c(c, 162)
    fit = jacobi_from_moments(s, 80)
    alpha, beta = [float(a) for a in fit.alpha], [float(b) for b in fit.beta]
    for z, tol in ((1 + 1j, 1e-6), (2j, 1e-9), (-0.5 + 1.5j, 1e-9)):
        tail = 0j
        for k in range(len(alpha) - 1, 0, -1):
            tail = beta[k - 1] / (z - alpha[k] - tail)  # beta[k - 1] = b_k
        levy = float(s[0]) / (z - alpha[0] - tail)
        assert abs(levy - voiculescu_phi(c, z)) < tol, z


def test_voiculescu_low_altitude_negative_c():
    # for -1 < c < 0 the continuation legitimately dips below the real axis;
    # the inverse property and the downward mapping must survive there
    for c in (F(-3, 4), F(-1, 4), F(-9, 10)):
        for z in (0.5 + 0.05j, -3 + 0.05j, 0.02j, 4 + 0.1j):
            phi = voiculescu_phi(c, z)
            assert phi.imag <= 1e-8
            assert abs(F_eval(c, z + phi) - z) < 1e-9


def test_voiculescu_positive_c_exploration():
    # for c > 0 the map may leak into the upper half-plane; just record that
    # the minimum margin is finite (failure of divisibility is certified by
    # the exact Hankel route, not by this scan)
    margins = []
    for z in (0.5 + 0.4j, 1 + 0.5j, 2 + 0.3j):
        phi = voiculescu_phi(F(1, 2), z, tol=1e-10)
        margins.append(phi.imag)
    assert all(math.isfinite(m) for m in margins)


def _counting(monkeypatch, name, points):
    """Replace analytic.<name>(c, z, ...) by a wrapper appending each (c, z)."""
    inner = getattr(analytic, name)

    def counted(c, z, *args, **kwargs):
        points.append((c, z))
        return inner(c, z, *args, **kwargs)

    monkeypatch.setattr(analytic, name, counted)


def test_voiculescu_evaluates_f_once_per_point(monkeypatch):
    # F depends on the point alone: a stage's start and an accepted trial
    # reuse the value already computed there
    points = []
    routed = analytic._routed

    def counted(c, z, dps, reciprocal):
        if reciprocal:
            points.append((c, z))
        return routed(c, z, dps, reciprocal)

    monkeypatch.setattr(analytic, "_routed", counted)
    for c in (F(-1, 2), F(1, 2), F(0)):
        for z in (0.3 + 1j, -1 + 0.5j, 2 + 0.2j):
            voiculescu_phi(c, z)
    assert len(points) > 100
    assert len(points) == len(set(points))


def test_f_eval_fallback_sums_the_series_once(monkeypatch):
    # at this point -c phi / phi' loses too many digits, so F_eval falls back
    # to 1/G, which must reuse the series F_eval has already summed
    c, w = F(-1, 2), 20 + 10j
    analytic._phi_mixture_ratio(c, None)  # the z = 10i calibration, summed apart
    sums, fractions = [], []
    _counting(monkeypatch, "_phi_pair", sums)
    _counting(monkeypatch, "cf_eval", fractions)
    value = F_eval(c, w)
    assert [z for _, z in fractions] == [w]  # the fallback route was taken
    assert [z for _, z in sums] == [w]
    assert abs(value * cf_eval(c, w) - 1) < 1e-12


@pytest.mark.parametrize("evaluate", [G_eval, F_eval])
@pytest.mark.parametrize("c", [F(-1, 2), F(0), F(1, 2), F(3)])
def test_one_call_sums_the_series_at_most_once(monkeypatch, evaluate, c):
    # points on every route: the trusted series, F's own quotient, the
    # continued fraction after an untrusted series, and past the overflow guard
    points = [0.5 + 1j, -1 - 0.5j, 2 + 0.01j, 20 + 10j, 3j, 35 + 0.5j]
    analytic._phi_mixture_ratio(c, None)  # the z = 10i calibration, summed apart
    sums = []
    _counting(monkeypatch, "_phi_pair", sums)
    for z in points:
        before = len(sums)
        evaluate(c, z)
        assert len(sums) - before <= 1, (c, z)
    assert len(sums) == (0 if c == 0 else len(points) - 1)


# a zero of phi at c = 1/2: G is about -2e10 at 1e-10 from it
PHI_ZERO = complex(-2.26704924216108, -2.11085150158275)


def test_g_refuses_a_pole_of_the_series_branch():
    with pytest.raises(analytic.PoleError) as refused:
        G_eval(F(1, 2), PHI_ZERO, dps=30)
    assert refused.value.args == ("evaluation too close to a pole of G",)
    # in binary64 the series keeps too few digits there to tell
    with pytest.raises(analytic.PrecisionError, match="cancellation too severe"):
        G_eval(F(1, 2), PHI_ZERO)


def test_voiculescu_refuses_a_failed_continuation():
    with pytest.raises(ContinuationError) as refused:
        voiculescu_phi(F(3), 0.5 + 0.3j)
    assert refused.value.args == ("Newton stage failed at target (0.5+0.4236793116784789j)",)


def test_voiculescu_pinned_values():
    # recorded before F values were reused: the reuse must not move a bit
    pins = {
        (F(-1, 2), 0.3 + 1j): "(0.05653348330196273-0.3290169566171539j)",
        (F(-1, 2), 2 + 0.2j): "(0.2744207104424303-0.10567601132465322j)",
        (F(1, 2), -1 + 0.5j): "(-0.7639628840568224-0.8220648120078223j)",
        (F(0), 1j): "-0.6973691592884277j",
        (F(-3, 4), 2 + 0.2j): "(0.1400992495423803-0.053475347216512675j)",
    }
    for (c, z), expected in pins.items():
        assert repr(voiculescu_phi(c, z)) == expected, (c, z)
    assert repr(voiculescu_phi(F(1, 2), 2 + 0.2j, tol=1e-8)) == (
        "(0.7731114786579178-0.3013630532515589j)"
    )
    # at dps=30 every step of the call runs at 30 digits (the real part
    # agrees with the tol=1e-22 value 0.0565334833019617714); the pin
    # 0.056533483301961784 recorded a Newton loop that ran at 53 bits.  The
    # value keeps its 30-digit context, so its repr shows every digit
    assert repr(voiculescu_phi(F(-1, 2), 0.3 + 1j, dps=30)) == (
        "mpc(real='0.0565334833019617714077684860389969', imag='-0.329016956617156131451433187412556')"
    )


def test_dps_holds_through_the_whole_call():
    import mpmath

    # dps is keyword-only: a positional one is refused, not ignored
    with pytest.raises(TypeError):
        cf_eval(F(1, 2), 1 + 1j, 1e-25, None, 30)
    # phi's own Newton steps run at dps too, so a tolerance below binary64 is reached
    z = 0.5 + 1j
    phi = voiculescu_phi(F(-1, 2), z, tol=1e-22, dps=30)
    with mpmath.workdps(40):
        assert abs(F_eval(F(-1, 2), z + phi, dps=40) - z) < mpmath.mpf("1e-28")


def test_f_trajectory_shape_checks():
    for c in (F(-9, 10), F(-1, 2), F(-1, 10)):
        report = f_trajectory(c)
        assert report.all_ok, report.failures
        assert report.q0 is not None and report.q0 < 0
        assert report.s_crit < -2 * math.sqrt(-float(c))
        assert report.f_at_scrit < 0


def test_f_trajectory_q0_moves_toward_zero_as_c_to_minus_one():
    # at c = -1 the reciprocal transform is the identity, whose axis flow
    # vanishes at 0; q0 is monotone in c and tends to 0 from below
    q = {c: f_trajectory(F(c)).q0 for c in (F(-9, 10), F(-1, 2), F(-1, 10))}
    assert q[F(-9, 10)] > q[F(-1, 2)] > q[F(-1, 10)]
    assert q[F(-9, 10)] > -0.2


def test_f_trajectory_regression_baselines():
    # frozen after computing once; the series-route bisection agrees to ~1e-5
    baselines = {
        F(-9, 10): (-0.1294099, -1.913417),
        F(-1, 2): (-0.7649509, -1.986346),
        F(-1, 10): (-1.9836547, -2.921603),
    }
    for c, (q0, s_crit) in baselines.items():
        report = f_trajectory(c)
        assert abs(report.q0 - q0) < 1e-3
        assert abs(report.s_crit - s_crit) < 1e-3


def test_f_trajectory_matches_series_route():
    c = F(-1, 2)
    report = f_trajectory(c)
    for r, fv, _ in report.samples:
        if abs(r - round(r)) < 1e-12 and abs(r) <= 3:
            series = complex(F_eval(c, complex(0, r)) / 1j).real
            assert abs(series - fv) < 1e-8


def test_f_trajectory_tail_asymptotics():
    # f(r) ~ r + (c+1)/r at the top of the integration range
    for c in (F(-1, 2), F(-1, 10)):
        report = f_trajectory(c)
        r, fv, _ = report.samples[0]
        assert abs(fv - r - (float(c) + 1) / r) < 1e-3


def test_f_trajectory_requires_open_interval():
    with pytest.raises(ValueError):
        f_trajectory(F(0))
    with pytest.raises(ValueError):
        f_trajectory(F(-1))


def test_dps_calls_leave_the_global_precision_alone(monkeypatch):
    import mpmath

    # each dps call computes on a private context: the evaluators it reaches
    # see mpmath's global precision as the caller left it
    seen = []
    for name in ("cf_eval", "G_eval", "F_eval", "_routed"):
        inner = getattr(analytic, name)

        def spy(*args, inner=inner, **kwargs):
            seen.append(mpmath.mp.prec)
            return inner(*args, **kwargs)

        monkeypatch.setattr(analytic, name, spy)
    # contexts made afresh, so making one is watched too
    analytic._mp.cache_clear()
    c, z = F(1, 2), 1 + 1j
    with mpmath.workprec(60):
        decomposition_residual(c, z, dps=30)
        dilation_residual(c, z, dps=30)
        riccati_residual(c, z, dps=30)
        density_eval(c, 0.5, eps=0.1, dps=30)
        voiculescu_phi(F(-1, 2), z, dps=30)
        assert mpmath.mp.prec == 60
    assert len(seen) > 5 and set(seen) == {60}


def test_dps_values_keep_their_precision():
    # arithmetic on a returned value runs at its own context's precision,
    # so adding 0 does not round it to binary64
    g = G_eval(F(1, 2), 1 + 1j, dps=50)
    assert g + 0 == g
    assert g.context.prec > 53


def test_dps_values_do_not_depend_on_the_caller_precision():
    import mpmath

    def bits():
        c, z = F(1, 2), 1 + 1j
        return [
            G_eval(c, z, dps=30)._mpc_,
            F_eval(c, 2 - 0.5j, dps=30)._mpc_,
            cf_eval(c, z, dps=30)._mpc_,
            voiculescu_phi(F(-1, 2), z, dps=30)._mpc_,
            density_eval(c, 0.5, eps=0.1, dps=30),
        ]

    plain = bits()
    for dps in (80, 5):
        # a fresh block and mixture cache, so nothing is served from the first run
        analytic._series_block.cache_clear()
        analytic._phi_mixture_ratio.cache_clear()
        with mpmath.workdps(dps):
            assert bits() == plain, dps


def test_extended_precision_route():
    import mpmath

    g64 = G_eval(F(1, 2), 1 + 2j)
    g30 = G_eval(F(1, 2), 1 + 2j, dps=30)
    assert abs(complex(g30) - g64) < 1e-12
    with mpmath.workdps(30):
        gap = abs(g30 - cf_eval(F(1, 2), 1 + 2j, tol=1e-25, dps=30))
        assert gap < mpmath.mpf("1e-20")


def test_transforms_all_is_the_union_of_its_modules():
    import freeprob.transforms as transforms
    from freeprob.transforms import fid, jacobi

    names = transforms.__all__
    modules = (analytic, fid, jacobi)
    assert len(names) == len(set(names)) == sum(len(m.__all__) for m in modules)
    assert set(names) == set().union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(transforms, name) is getattr(module, name)
    star: dict = {}
    exec("from freeprob.transforms import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def test_floating_routes_bound_c():
    from freeprob.errors import BoundExceededError, InputError
    from freeprob.transforms import mu_c_parameter
    from freeprob.transforms.jacobi import MAX_FLOAT_C

    assert mu_c_parameter(MAX_FLOAT_C, binary64=True) == MAX_FLOAT_C
    assert mu_c_parameter(10**6) == 10**6  # the exact routes have their own budget
    with pytest.raises(InputError, match="binary64"):
        mu_c_parameter("1e400", binary64=True)
    for evaluate in (G_eval, F_eval):
        with pytest.raises(BoundExceededError, match=f"c <= {MAX_FLOAT_C}"):
            evaluate(F(MAX_FLOAT_C * 10 + 1, 10), 1j)
    assert G_eval(MAX_FLOAT_C, 1j).imag < 0


OVERFLOW_POINTS = [20 + 0.5j, 25 + 1j, 29 + 3j]


@pytest.mark.parametrize("z", OVERFLOW_POINTS + [20 + 1e-6j])
def test_overflowed_series_stops_at_its_block(monkeypatch, z):
    # at c = 1000 the sums overflow within 320 terms here; they are handed back
    # untrusted at the end of that block instead of running to SERIES_MAX_TERMS
    blocks = []
    _counting(monkeypatch, "_series_block", blocks)
    assert analytic._phi_pair(F(1000), z)[4] == math.inf
    assert len(blocks) <= 8


@pytest.mark.parametrize("z", OVERFLOW_POINTS)
def test_overflowed_series_routes_to_the_continued_fraction(z):
    g = cf_eval(1000, z)
    assert G_eval(1000, z) == g
    assert F_eval(1000, z) == 1 / g
    if z == OVERFLOW_POINTS[0]:
        assert g == 0.00991386813254158 - 0.02974291115285378j


def test_overflowed_series_refuses_below_the_continued_fraction():
    # Im z = 1e-6 is out of the continued fraction's reach: a fast refusal
    with pytest.raises(analytic.PrecisionError, match="cancellation too severe"):
        density_eval(1000, 20.0)
