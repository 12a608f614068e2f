"""Floating-point evaluators for the Askey-Wimp-Kerov Cauchy transforms.

Two independent evaluation routes are kept throughout:

* a continued-fraction route (cf_eval) with numerators c+1, c+2, ...,
  evaluated backward with adaptive depth; valid in the open upper half-plane
  and for large |z|;
* an entire-series route (G_eval / F_eval): for c != 0 the transform is
  G = -phi'/(c phi) where phi solves phi'' + z phi' + c phi = 0, evaluated
  from its power series with the physical solution selected by a one-time
  Moebius calibration against the continued fraction at z = 10i; for c = 0
  the linear equation G' = -zG + 1 gives the closed form
  G(z) = exp(-z^2/2) (-i sqrt(pi/2) + integral_0^z exp(t^2/2) dt)
  with the integral summed as an entire series.

The series route analytically continues across the real axis (needed on the
negative imaginary axis); the continued fraction does not.  The series
suffers cancellation that grows with min(|Re z|, |Im z|), so every series
evaluation tracks its own cancellation ratio and G_eval falls back to the
continued fraction (or demands extended precision) when too many digits are
lost.  Default precision is binary64; pass the keyword dps = N to run every
step of one public call on mpmath at N digits.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..errors import BoundExceededError, FreeprobError, InputError
from .jacobi import mu_c_parameter

__all__ = [
    "PrecisionError",
    "PoleError",
    "ContinuationError",
    "RiccatiResiduals",
    "FTrajectoryReport",
    "cf_eval",
    "G_eval",
    "F_eval",
    "riccati_residual",
    "decomposition_residual",
    "dilation_residual",
    "density_eval",
    "voiculescu_phi",
    "f_trajectory",
    "check_steps",
]


class PrecisionError(FreeprobError, ArithmeticError):
    """Requested accuracy is not reachable with the current settings."""


class PoleError(FreeprobError, ArithmeticError):
    """Evaluation too close to a pole of G."""


class ContinuationError(FreeprobError, ArithmeticError):
    """A Newton continuation stage of the inverse transform failed."""


def _scoped(fn):
    """Run the wrapped function inside mpmath.workdps(dps) when dps is set.

    Each public evaluator carries it and takes dps by keyword only, so the
    precision is entered once per call and holds for all of its arithmetic.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        dps = kwargs.get("dps")
        if dps is None:
            return fn(*args, **kwargs)
        import mpmath

        with mpmath.workdps(dps):
            return fn(*args, **kwargs)

    return wrapper


def _mp(dps: Optional[int]):
    if dps is None:
        return None
    import mpmath

    return mpmath


def _lift(z, mp_mod):
    return complex(z) if mp_mod is None else mp_mod.mpc(z)


def _real(value, mp_mod):
    if mp_mod is None:
        return float(value)
    if isinstance(value, Fraction):
        return mp_mod.mpf(value.numerator) / mp_mod.mpf(value.denominator)
    return mp_mod.mpf(value)


def _im(z) -> float:
    return float(z.imag)


# digits available at the working precision
def _digits(dps: Optional[int]) -> float:
    return 15.6 if dps is None else float(dps)


# ------------------------------------------------------------ continued fraction

CF_MIN_IM = 0.02
CF_MAX_DEPTH = 1 << 17


@_scoped
def cf_eval(c, z, tol: float = 1e-13, *, dps: Optional[int] = None):
    """Backward-evaluated continued fraction for G with numerators c+k.

    The depth doubles until two successive approximants agree within tol.
    Requires Im z > 0 (convergence slows like (1/Im z)^2 near the axis) or
    |z| >= 40; below the real axis the fraction would converge to the
    reflected Cauchy transform, not the analytic continuation, and is
    rejected.
    """
    c = mu_c_parameter(c, binary64=True)
    mp_mod = _mp(dps)
    w = _lift(z, mp_mod)
    if not (_im(w) > 0 or abs(w) >= 40):
        raise InputError("continued fraction needs Im z > 0 or |z| >= 40")
    if c == -1:
        return 1 / w
    cval = _real(c, mp_mod)

    def approximant(d: int):
        g = 0 * w
        for k in range(d, 0, -1):
            g = (cval + k) / (w - g)
        return 1 / (w - g)

    if _im(w) > 0 and _im(w) < CF_MIN_IM and abs(w) < 40:
        raise PrecisionError(
            f"continued fraction too slow at Im z = {_im(w)}; use the series route"
        )
    d = 32
    prev = approximant(d)
    gap = None
    while d <= CF_MAX_DEPTH:
        d *= 2
        cur = approximant(d)
        gap = abs(cur - prev)
        if gap <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise PrecisionError(
        f"continued fraction did not converge by depth {CF_MAX_DEPTH} (residual {gap})"
    )


# ------------------------------------------------------------ entire series

SERIES_MAX_TERMS = 200_000
SERIES_BLOCK = 64  # divides SERIES_MAX_TERMS


# a block holds 14 KB in binary64 and 37 KB at dps 30; one pass of the
# tree_transform benchmark fills 15 blocks
@functools.lru_cache(maxsize=64)
def _series_block(c, prec: Optional[int], start: int) -> tuple:
    """Coefficients of terms start+1 .. start+SERIES_BLOCK of _phi_pair at
    binary precision prec (None for binary64), one tuple per term k:
    (even ratio, odd ratio, 2k, 2k + 1, k).  The ratios are the recursion's
    own expressions, so a cached term multiplies exactly as a fresh one."""
    cval = _real(c, _mp(prec))
    return tuple(
        (
            -(cval + 2 * k) / ((2 * k + 1) * (2 * k + 2)),
            -(cval + 2 * k + 1) / ((2 * k + 2) * (2 * k + 3)),
            2 * k + 2,
            2 * k + 3,
            k + 1,
        )
        for k in range(start, start + SERIES_BLOCK)
    )


def _phi_pair(c, z, dps: Optional[int] = None):
    """(phi_e, phi_e', phi_o, phi_o', scale) for the even/odd solutions of
    phi'' + z phi' + c phi = 0 with phi_e(0) = 1, phi_o'(0) = 1.

    `scale` is the largest accumulator/term magnitude met while summing; the
    achieved accuracy is roughly eps * scale in absolute terms.  A sum that
    stops being finite never settles and can never be trusted: it is returned
    at the end of its block with scale inf, which every caller refuses.
    """
    mp_mod = _mp(dps)
    w = _lift(z, mp_mod)
    one = 1 + 0 * w
    if abs(w) == 0:
        return one, 0 * w, 0 * w, one, 1.0
    # key the blocks on the binary precision their arithmetic runs at, which
    # dps alone does not fix (a caller may be outside mpmath.workdps(dps))
    prec = None if mp_mod is None else mp_mod.mp.prec
    eps = 10.0 ** (-(_digits(dps) + 3))
    w2 = w * w
    even_term = one  # e_k z^{2k}
    odd_term = w  # o_k z^{2k+1}
    pe, po = even_term, odd_term
    dpe, dpo = 0 * w, one
    scale = max(abs(pe), abs(po))
    hump = float(abs(w2)) / 2
    quiet = 0
    for start in range(0, SERIES_MAX_TERMS, SERIES_BLOCK):
        for even_ratio, odd_ratio, even_power, odd_power, k in _series_block(c, prec, start):
            even_term = even_term * w2 * even_ratio
            odd_term = odd_term * w2 * odd_ratio
            pe += even_term
            po += odd_term
            dpe += even_power * even_term / w
            dpo += odd_power * odd_term / w
            even_abs, odd_abs = abs(even_term), abs(odd_term)
            # max(scale, |pe|, |po|, even_abs, odd_abs), compared in max's order
            size = abs(pe)
            if size > scale:
                scale = size
            size = abs(po)
            if size > scale:
                scale = size
            if even_abs > scale:
                scale = even_abs
            if odd_abs > scale:
                scale = odd_abs
            if even_abs + odd_abs < eps * scale and k > hump:
                quiet += 1
                if quiet >= 3:
                    return pe, dpe, po, dpo, float(scale)
            else:
                quiet = 0
        if not all(x < math.inf for x in (scale, abs(pe), abs(po), abs(dpe), abs(dpo))):
            return pe, dpe, po, dpo, math.inf
    raise PrecisionError(f"series for phi did not settle in {SERIES_MAX_TERMS} terms at z={z}")


@functools.lru_cache(maxsize=256)
def _phi_mixture_ratio(c: Fraction, dps: Optional[int]):
    """Ratio rho with phi = phi_e + rho * phi_o the physical (decaying) branch,
    pinned by matching -phi'/(c phi) to the continued fraction at z = 10i."""
    mp_mod = _mp(dps)
    z0 = 10j
    g0 = cf_eval(c, z0, tol=10.0 ** (-(_digits(dps) - 1)), dps=dps)
    pe, dpe, po, dpo, _ = _phi_pair(c, z0, dps=dps)
    cval = _real(c, mp_mod)
    return -(dpe + cval * g0 * pe) / (dpo + cval * g0 * po)


def _gauss_G(z, dps: Optional[int] = None):
    """(G(z), cancellation ratio) for the Gaussian closed form
    exp(-z^2/2) (-i sqrt(pi/2) + E(z)), E(z) = sum z^{2k+1}/((2k+1) 2^k k!)."""
    mp_mod = _mp(dps)
    w = _lift(z, mp_mod)
    if mp_mod is None:
        const = -1j * math.sqrt(math.pi / 2)
        expf = cmath.exp
    else:
        const = -1j * mp_mod.sqrt(mp_mod.pi / 2)
        expf = mp_mod.exp
    eps = 10.0 ** (-(_digits(dps) + 3))
    if abs(w) == 0:
        return const, 1.0
    w2 = w * w
    term = w
    total = term
    scale = abs(total)
    hump = float(abs(w2)) / 2
    k = 0
    while k < SERIES_MAX_TERMS:
        # z^{2k+3}/((2k+3) 2^{k+1} (k+1)!) from z^{2k+1}/((2k+1) 2^k k!)
        term = term * w2 * (2 * k + 1) / ((2 * k + 3) * 2 * (k + 1))
        k += 1
        total += term
        scale = max(scale, abs(term), abs(total))
        if abs(term) < eps * scale and k > hump:
            break
    else:
        raise PrecisionError(f"Gaussian series did not settle in {SERIES_MAX_TERMS} terms at z={z}")
    bracket = const + total
    cancel = float(scale / abs(bracket)) if abs(bracket) > 0 else math.inf
    return expf(-w2 / 2) * bracket, cancel


# prefer the series while it retains this many digits; accept down to the
# floor only where the continued fraction is not applicable (near or below
# the real axis, where ~10 digits of G still beat having no value at all)
_SERIES_PREF_DIGITS = 13.0
_SERIES_FLOOR_DIGITS = 10.0


def _cf_applies(w) -> bool:
    return _im(w) >= CF_MIN_IM or abs(w) >= 40


def _series_trusted(cancel: float, w, dps: Optional[int]) -> bool:
    """Whether a series value with this cancellation ratio may be returned."""
    prefer = 10.0 ** (_digits(dps) - _SERIES_PREF_DIGITS)
    floor = 10.0 ** (_digits(dps) - _SERIES_FLOOR_DIGITS)
    return cancel <= prefer or (cancel <= floor and not _cf_applies(w))


@_scoped
def G_eval(c, z, *, dps: Optional[int] = None):
    """Cauchy transform of the measure with Jacobi numerators c+1, c+2, ...

    Uses the entire-series branch while its measured cancellation leaves
    enough digits (this includes the whole neighbourhood of the real axis
    and the lower half-plane, where the series is the analytic
    continuation), otherwise the continued fraction in the upper half-plane.
    c = -1 returns 1/z.
    """
    return _routed(mu_c_parameter(c, binary64=True), z, dps, reciprocal=False)


@_scoped
def F_eval(c, z, *, dps: Optional[int] = None):
    """Reciprocal transform F = 1/G, via -c phi / phi' on the series branch;
    where that quotient loses too many digits, 1/G by G_eval's routes."""
    return _routed(mu_c_parameter(c, binary64=True), z, dps, reciprocal=True)


def _routed(c: Fraction, z, dps: Optional[int], reciprocal: bool):
    """G (F = 1/G when reciprocal) at z on a checked c, the one place a route
    is chosen.  The series is summed at most once: for c != 0 it gives the
    physical branch phi = phi_e + rho phi_o, and F first tries its own
    quotient -c phi / phi'.  A series G is returned where its cancellation
    ratio is trusted; for c != 0 its only singularities are the zeros of
    phi, so a huge trusted value is a genuine pole (c = 0 has none: its
    continuation merely grows below the axis).  Otherwise the continued
    fraction serves where it applies, and nothing does elsewhere."""
    mp_mod = _mp(dps)
    w = _lift(z, mp_mod)
    if c == -1:
        if reciprocal:
            return w
        if w == 0:
            raise PoleError("G of the point mass at 0 has its pole at z = 0")
        return 1 / w
    # series overflow guard in binary64 (worst term ~ exp(|z|^2 / 2))
    if dps is not None or abs(w) <= 30.0:
        if c == 0:
            value, cancel = _gauss_G(w, dps=dps)
        else:
            pe, dpe, po, dpo, scale = _phi_pair(c, w, dps=dps)
            rho = _phi_mixture_ratio(c, dps)
            phi = pe + rho * po
            dphi = dpe + rho * dpo
            # bounds the magnitudes summed, so it measures cancellation
            mix_scale = max(float(scale), float(abs(rho) * scale))
            cval = _real(c, mp_mod)
            if reciprocal and abs(dphi) > 0 and _series_trusted(mix_scale / float(abs(dphi)), w, dps):
                return 0 * w if abs(phi) == 0 else -cval * phi / dphi
            if abs(phi) == 0:
                value, cancel = None, math.inf
            else:
                value, cancel = -dphi / (cval * phi), mix_scale / float(abs(phi))
        if _series_trusted(cancel, w, dps):
            if c != 0 and abs(value) > 1e12:
                raise PoleError("evaluation too close to a pole of G")
            return 1 / value if reciprocal else value
    if _cf_applies(w):
        value = cf_eval(c, w, dps=dps)
        return 1 / value if reciprocal else value
    raise PrecisionError(
        f"series cancellation too severe at z={z} and the continued fraction "
        "does not apply there; retry with a higher dps"
    )


# ------------------------------------------------------------ residual checks


@dataclass
class RiccatiResiduals:
    g_form: float  # |G' - (c G^2 - z G + 1)|
    f_form: float  # |F' - (-F^2 + z F - c)|


@_scoped
def riccati_residual(c, z, step: float = 1e-5, *, dps: Optional[int] = None) -> RiccatiResiduals:
    """Central-difference residuals of the Riccati equations for G and F."""
    c = mu_c_parameter(c, binary64=True)
    if step == 0:
        raise InputError("difference step must be nonzero")
    h = step
    gp = (G_eval(c, z + h, dps=dps) - G_eval(c, z - h, dps=dps)) / (2 * h)
    g = G_eval(c, z, dps=dps)
    g_res = abs(gp - (float(c) * g * g - z * g + 1))
    fp = (F_eval(c, z + h, dps=dps) - F_eval(c, z - h, dps=dps)) / (2 * h)
    f = F_eval(c, z, dps=dps)
    f_res = abs(fp - (-f * f + z * f - float(c)))
    return RiccatiResiduals(float(g_res), float(f_res))


@_scoped
def decomposition_residual(c, z, *, dps: Optional[int] = None) -> float:
    """|G_{c+1}(z) - (z - F_c(z)) / (c+1)| with the two sides evaluated by
    independent routes (continued fraction vs entire series).

    At c = -1 the identity degenerates (F is the identity map); the returned
    number is then the Gaussian cross-route gap |G_cf - G_series| at z.
    """
    c = mu_c_parameter(c, binary64=True)
    if c == -1:
        series, _ = _gauss_G(z, dps=dps)
        return float(abs(cf_eval(0, z, dps=dps) - series))
    lhs = cf_eval(c + 1, z, dps=dps)
    rhs = (z - F_eval(c, z, dps=dps)) / (float(c) + 1)
    return float(abs(lhs - rhs))


@_scoped
def dilation_residual(c, z, *, dps: Optional[int] = None) -> float:
    """Residual of the variance-one dilation identity
    F_c(z sqrt(c+1)) / sqrt(c+1) = z - sqrt(c+1) G_{c+1}(z sqrt(c+1))."""
    c = mu_c_parameter(c, binary64=True)
    if c == -1:
        raise InputError("dilation identity needs c > -1")
    root = math.sqrt(float(c) + 1)
    lhs = F_eval(c, z * root, dps=dps) / root
    rhs = z - root * cf_eval(c + 1, z * root, dps=dps)
    return float(abs(lhs - rhs))


@_scoped
def density_eval(c, u: float, eps: float = 1e-6, richardson: bool = False, *,
                 dps: Optional[int] = None) -> float:
    """Density at u via the boundary value -(1/pi) Im G(u + i eps).

    With richardson=True the order-eps Poisson bias is removed by evaluating
    at eps and eps/2 and extrapolating.
    """
    if not eps > 0:
        raise InputError("eps must be positive")

    def one(e: float) -> float:
        return -float(G_eval(c, complex(u, e), dps=dps).imag) / math.pi

    if not richardson:
        return one(eps)
    d1, d2 = one(eps), one(eps / 2)
    return 2 * d2 - d1


# ------------------------------------------------------------ inverse transform


@_scoped
def voiculescu_phi(c, z, tol: float = 1e-11, *, dps: Optional[int] = None):
    """phi(z) = F^{-1}(z) - z by damped Newton with downward continuation.

    Continuation targets z + i T, T = 10 (1 + |z|) halving until it drops
    below tol; Newton uses the exact derivative F' = -F^2 + wF - c.  Raises
    ContinuationError if a stage fails.
    """
    c = mu_c_parameter(c, binary64=True)
    if c == -1:
        return 0j
    z = complex(z)
    if z.imag <= 0:
        raise InputError("the inverse transform is defined on the upper half-plane")
    if tol < 0:
        raise InputError("tol must be nonnegative")
    t = 10.0 * (1.0 + abs(z))
    targets = []
    while t > tol:
        targets.append(z + 1j * t)
        t /= 2
    targets.append(z)
    w = targets[0]  # F(w) ~ w high up
    # F depends on w alone, so fw = F(w) is carried from stage to stage and
    # from each accepted trial: F is evaluated once per point visited
    fw = F_eval(c, w, dps=dps)
    for target in targets:
        converged = False
        for _ in range(100):
            residual = abs(fw - target)
            if residual <= tol * (1 + abs(target)):
                converged = True
                break
            derivative = -fw * fw + w * fw - float(c)
            if abs(derivative) < 1e-30:
                break
            full = (fw - target) / derivative
            step_scale = 1.0
            for _ in range(50):
                trial = w - step_scale * full
                f_trial = F_eval(c, trial, dps=dps)
                if abs(f_trial - target) < residual:
                    w, fw = trial, f_trial
                    break
                step_scale /= 2
            else:
                break
        if not converged:
            raise ContinuationError(f"Newton stage failed at target {target}")
    return w - z


# ------------------------------------------------------------ imaginary-axis flow


@dataclass
class FTrajectoryReport:
    """Diagnostics of the real flow f' = f^2 - r f - c on the imaginary axis
    (f(r) = F(ir)/i), integrated downward from r_hi.

    q0 is the unique zero of f, s_crit the unique critical point; the flags
    record f > r, f' < 1, uniqueness of both sign changes and the bound
    s_crit < -2 sqrt(-c).
    """

    c: float
    r_lo: float
    r_hi: float
    samples: list  # (r, f, f') triples, r decreasing
    q0: Optional[float] = None
    s_crit: Optional[float] = None
    f_at_scrit: Optional[float] = None
    f_above_diagonal: bool = False
    fprime_below_one: bool = False
    unique_zero: bool = False
    unique_critical_point: bool = False
    scrit_below_bound: bool = False
    failures: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return not self.failures


def _rk4_step(r: float, f: float, h: float, c: float) -> float:
    def deriv(rr, ff):
        return ff * ff - rr * ff - c

    k1 = deriv(r, f)
    k2 = deriv(r + h / 2, f + h * k1 / 2)
    k3 = deriv(r + h / 2, f + h * k2 / 2)
    k4 = deriv(r + h, f + h * k3)
    return f + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6


TRAJECTORY_STEP = 0.005
# 10,000 density points with Richardson extrapolation at the default eps
# take 13 s near u = 30 (c = 0, the slowest found); a trajectory step is
# far cheaper
MAX_SAMPLES = 10_000
# density points that may run the continued fraction (eps >= CF_MIN_IM):
# over |u| <= 30 and c in {-1/2, 3, 100, 1000} the slowest point that
# returned took 0.11 s (Richardson at eps = 2 CF_MIN_IM) and the slowest
# that raised, which ends the walk, 0.67 s, so 250 points take under 30 s
# (2-core machine)
MAX_CF_SAMPLES = 250


def check_steps(lo: float, hi: float, step: float, limit: int = MAX_SAMPLES) -> None:
    """Reject a walk between lo and hi in steps of size step that would never
    end (step below the float spacing there) or take over limit samples."""
    if lo + step == lo or hi + step == hi:
        raise InputError(f"step {step} does not change the values between {lo} and {hi}")
    if (hi - lo) / step >= limit:
        raise BoundExceededError(f"sample bound is {limit} points per walk")


def f_trajectory(c, r_lo: float = -16.0, r_hi: float = 12.0) -> FTrajectoryReport:
    """Integrate the imaginary-axis flow downward and verify its shape.

    Requires -1 < c < 0.  The initial value comes from the binary64
    continued fraction at i r_hi; RK4 steps of TRAJECTORY_STEP follow.  Assertion failures are collected in the report
    (a finding, not an exception).
    """
    cfrac = mu_c_parameter(c)
    if not -1 < cfrac < 0:
        raise InputError("the trajectory verifier needs -1 < c < 0")
    cf = float(cfrac)
    if r_lo >= r_hi:
        raise InputError("need r_lo < r_hi")
    check_steps(r_lo, r_hi, TRAJECTORY_STEP)
    f = complex(1 / cf_eval(cfrac, complex(0.0, r_hi)) / 1j).real
    samples = [(r_hi, f, f * f - r_hi * f - cf)]
    r = r_hi
    while r > r_lo + 1e-12:
        h = max(-TRAJECTORY_STEP, r_lo - r)
        f = _rk4_step(r, f, h, cf)
        r = r + h
        samples.append((r, f, f * f - r * f - cf))
    report = FTrajectoryReport(c=cf, r_lo=r_lo, r_hi=r_hi, samples=samples)

    def interpolate(r1, v1, r2, v2):
        return r1 - v1 * (r2 - r1) / (v2 - v1)

    zero_crossings = []
    crit_crossings = []
    for (r1, f1, g1), (r2, f2, g2) in zip(samples, samples[1:]):
        if f1 == 0 or (f1 > 0) != (f2 > 0):
            zero_crossings.append(interpolate(r1, f1, r2, f2))
        if g1 == 0 or (g1 > 0) != (g2 > 0):
            crit_crossings.append(interpolate(r1, g1, r2, g2))

    report.unique_zero = len(zero_crossings) == 1
    report.unique_critical_point = len(crit_crossings) == 1
    if zero_crossings:
        report.q0 = zero_crossings[0]
    if crit_crossings:
        report.s_crit = crit_crossings[0]
        report.f_at_scrit = min(
            (fv for rv, fv, _ in samples if abs(rv - report.s_crit) < 5 * TRAJECTORY_STEP),
            default=None,
        )
    report.f_above_diagonal = all(fv > rv for rv, fv, _ in samples)
    report.fprime_below_one = all(gv < 1 for _, _, gv in samples)
    bound = -2 * math.sqrt(-cf)
    report.scrit_below_bound = report.s_crit is not None and report.s_crit < bound

    if not report.unique_zero:
        report.failures.append(f"expected exactly one zero of f, found {len(zero_crossings)}")
    elif not (report.q0 < 0):
        report.failures.append(f"zero of f is not negative: {report.q0}")
    if not report.unique_critical_point:
        report.failures.append(
            f"expected exactly one critical point, found {len(crit_crossings)}"
        )
    if not report.scrit_below_bound:
        report.failures.append(f"critical point {report.s_crit} not below {bound}")
    if not report.f_above_diagonal:
        report.failures.append("f(r) > r violated")
    if not report.fprime_below_one:
        report.failures.append("f'(r) < 1 violated")
    return report
