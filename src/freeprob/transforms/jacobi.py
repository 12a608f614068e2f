"""Exact three-term-recurrence data: moments from Jacobi parameters and back.

Conventions: G(z) = 1/(z - alpha_0 - beta_1/(z - alpha_1 - beta_2/(...))),
so beta_k is the k-th continued-fraction numerator.  A positive measure has
all beta_k > 0; the family with alpha = 0 and beta_k = c + k (the
Askey-Wimp-Kerov measures) specializes to the standard Gaussian at c = 0 and
to the point mass at 0 for c = -1.

jacobi_from_moments is the modified-Chebyshev / quotient-difference scheme
on the inner-product table sigma[k][l] = <P_k, x^l>; its diagonal pivots are
ratios of consecutive Hankel determinants, so the first nonpositive pivot
locates the first nonpositive Hankel determinant exactly.  One online scan
fills the table by anti-diagonal and stops at that pivot; when every odd
moment is 0 it fills only the even anti-diagonals.  pivot_signs runs the
same scan in outward-rounded decimal interval arithmetic when only the
signs are wanted, and falls back to the exact scan when an interval cannot
decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from typing import Optional, Sequence

from ..errors import BoundExceededError, InputError

__all__ = [
    "JacobiParams",
    "JacobiFit",
    "mu_c_jacobi",
    "mu_c_parameter",
    "moments_from_jacobi",
    "jacobi_from_moments",
    "PivotSigns",
    "pivot_signs",
]


@dataclass(frozen=True)
class JacobiParams:
    """alpha[k] = alpha_k (k = 0..N-1) and beta[k-1] = beta_k (k = 1..N)."""

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise InputError("alpha and beta must have equal length")

    @property
    def depth(self) -> int:
        return len(self.beta)


# The floating-point routes slow down as c grows.  At c = 1000 the slowest
# point met on |Re z| <= 8, 0.2 <= Im z <= 3 took 4.8 s (riccati at --dps
# 30), below the 5.4 s of phi at c = 2, and the 400-point binary64 and
# 25-point --dps 30 grids that set the grid bounds took at most 7.8 s (2-core
# machine).  At c = 1e4 every binary64 op but cf ends in a PrecisionError.
MAX_FLOAT_C = 1000


def mu_c_parameter(c, binary64: bool = False) -> Fraction:
    """The parameter c of mu_c as a Fraction; c may be a number or a string
    such as "9/10".

    Raises InputError unless c is a rational c >= -1 (beta_1 = c + 1 must
    not be negative), and with binary64=True, as the floating-point routes
    need, also unless c has a binary64 value, and BoundExceededError unless
    c <= MAX_FLOAT_C there.
    """
    try:
        c = Fraction(c)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"parameter c must be a rational number, not {c!r}") from None
    if c < -1:
        raise InputError("parameter must satisfy c >= -1")
    if binary64:
        try:
            float(c)
        except OverflowError:
            raise InputError("parameter c is beyond the binary64 range") from None
        if c > MAX_FLOAT_C:
            raise BoundExceededError(f"floating-point routes bound is c <= {MAX_FLOAT_C}")
    return c


def mu_c_jacobi(c, depth: int) -> JacobiParams:
    """Jacobi data of the Askey-Wimp-Kerov measure: alpha = 0, beta_k = c + k.

    Requires c >= -1; at c = -1 every beta is set to 0 (point mass at 0).
    """
    c = mu_c_parameter(c)
    if depth < 1:
        raise InputError("depth must be positive")
    if c == -1:
        beta = tuple(Fraction(0) for _ in range(depth))
    else:
        beta = tuple(c + k for k in range(1, depth + 1))
    alpha = tuple(Fraction(0) for _ in range(depth))
    return JacobiParams(alpha, beta)


def moments_from_jacobi(params: JacobiParams, order: int) -> list[Fraction]:
    """Exact moments m_0..m_order of the measure with the given recurrence data.

    m_k is the (0,0) entry of the k-th power of the tridiagonal recurrence
    matrix (superdiagonal 1, diagonal alpha, subdiagonal beta).  Needs
    depth >= ceil(order / 2).
    """
    if order < 0:
        raise InputError("order must be nonnegative")
    if order > 2 * params.depth:
        raise BoundExceededError(
            f"order {order} needs at least {(order + 1) // 2} recurrence levels, "
            f"have {params.depth}"
        )
    # amplitudes above this level cannot return to level 0 within `order` steps
    levels = min(order // 2 + 1, params.depth)
    v = [Fraction(0)] * (levels + 1)
    v[0] = Fraction(1)
    moments = [Fraction(1)]
    alpha, beta = params.alpha, params.beta
    for _ in range(order):
        w = [Fraction(0)] * (levels + 1)
        for i in range(levels):
            amount = v[i]
            if amount == 0:
                continue
            if alpha[i] != 0:
                w[i] += alpha[i] * amount
            w[i + 1] += beta[i] * amount
            if i > 0:
                w[i - 1] += amount
        # the top retained level only feeds back down
        if v[levels] != 0:
            w[levels - 1] += v[levels]
        v = w
        moments.append(v[0])
    return moments


@dataclass
class JacobiFit:
    """Result of jacobi_from_moments.

    pivots[k] = sigma_{k,k} = H_k / H_{k-1} with H_k = det of the
    (k+1) x (k+1) Hankel matrix of the input; alpha/beta are filled as far
    as the pivots stay positive.  breakdown_index is the first k whose pivot
    is <= 0 (None when all requested pivots are positive), and
    breakdown_sign is that pivot's sign.
    """

    alpha: list[Fraction]
    beta: list[Fraction]
    pivots: list[Fraction]
    breakdown_index: Optional[int]
    breakdown_sign: Optional[int]


def jacobi_from_moments(moments: Sequence, depth: Optional[int] = None) -> JacobiFit:
    """Recurrence coefficients from exact moments, with breakdown reporting.

    Runs the sigma-table recursion
    sigma[k][l] = sigma[k-1][l+1] - alpha_{k-1} sigma[k-1][l] - beta_{k-1} sigma[k-2][l];
    alpha_k = sigma[k][k+1]/sigma[k][k] - sigma[k-1][k]/sigma[k-1][k-1];
    beta_k = sigma[k][k]/sigma[k-1][k-1].
    Stops at the first nonpositive diagonal pivot instead of raising.
    """
    values = [Fraction(x) for x in moments]
    return _sigma_scan(values, depth, _sign, not any(values[1::2]))


@dataclass(frozen=True)
class PivotSigns:
    """Result of pivot_signs: signs[k] is the sign of the pivot H_k / H_{k-1}
    (signs[0] that of H_0), as far as jacobi_from_moments would compute them;
    breakdown_index is the first k whose pivot is <= 0 (None when all are
    positive).  precision is the interval precision in decimal digits that
    certified every sign, or None when the exact Fraction route ran."""

    signs: tuple[int, ...]
    breakdown_index: Optional[int]
    precision: Optional[int]


# interval reruns at doubled precision before the exact route takes over
_INTERVAL_DOUBLINGS = 2


def pivot_signs(moments: Sequence, depth: int) -> PivotSigns:
    """The pivot signs and breakdown index of jacobi_from_moments(moments,
    depth), each sign certified, never guessed.

    The moments are converted once to outward-rounded decimal intervals and
    the same online sigma-table scan runs on them at 2 * depth + 20 digits
    (about 6.6 bits per level); whether it fills only the even half is
    decided on the exact moments.  A pivot's sign counts only when its
    interval lies strictly on one side of 0 or is exactly [0, 0].  If some
    pivot's interval straddles 0, the scan reruns at doubled precision, up
    to _INTERVAL_DOUBLINGS times, and then falls back to the exact Fraction
    scan.
    """
    exact = [Fraction(x) for x in moments]
    symmetric = not any(exact[1::2])
    precision = 2 * depth + 20
    for _ in range(_INTERVAL_DOUBLINGS + 1):
        # private round-down and round-up contexts: the thread's decimal
        # context is never touched, and the exponent range never binds
        ctx = tuple(
            Context(prec=precision, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)
            for rounding in (ROUND_FLOOR, ROUND_CEILING)
        )
        try:
            intervals = [_Interval.exact(x, ctx) for x in exact]
            fit = _sigma_scan(intervals, depth, _interval_sign, symmetric)
        except _Undecided:
            precision *= 2
            continue
        return PivotSigns(tuple(map(_interval_sign, fit.pivots)), fit.breakdown_index, precision)
    fit = jacobi_from_moments(exact, depth)
    return PivotSigns(tuple(map(_sign, fit.pivots)), fit.breakdown_index, None)


class _Interval:
    """A closed interval [lo, hi] of Decimals.  Each operation rounds its
    lower end down and its upper end up (decimal arithmetic is correctly
    rounded), so the result contains every exact value it stands for."""

    __slots__ = ("lo", "hi", "ctx")

    def __init__(self, lo: Decimal, hi: Decimal, ctx: tuple[Context, Context]):
        self.lo, self.hi, self.ctx = lo, hi, ctx

    @classmethod
    def exact(cls, x, ctx) -> "_Interval":
        x = Fraction(x)
        p, q = Decimal(x.numerator), Decimal(x.denominator)
        return cls(ctx[0].divide(p, q), ctx[1].divide(p, q), ctx)

    def _lift(self, other) -> "_Interval":
        return other if isinstance(other, _Interval) else _Interval.exact(other, self.ctx)

    def __sub__(self, other):
        o, (down, up) = self._lift(other), self.ctx
        return _Interval(down.subtract(self.lo, o.hi), up.subtract(self.hi, o.lo), self.ctx)

    def __mul__(self, other):
        o, (down, up) = self._lift(other), self.ctx
        if self.lo >= 0 and o.lo >= 0:
            return _Interval(down.multiply(self.lo, o.lo), up.multiply(self.hi, o.hi), self.ctx)
        ends = [(x, y) for x in (self.lo, self.hi) for y in (o.lo, o.hi)]
        lo = min(down.multiply(x, y) for x, y in ends)
        hi = max(up.multiply(x, y) for x, y in ends)
        return _Interval(lo, hi, self.ctx)

    def __truediv__(self, other):
        o, (down, up) = self._lift(other), self.ctx
        if o.lo <= 0:
            # the scan divides only by pivots already certified positive
            raise ZeroDivisionError("interval divisor is not positive")
        lo = down.divide(self.lo, o.hi if self.lo >= 0 else o.lo)
        hi = up.divide(self.hi, o.lo if self.hi >= 0 else o.hi)
        return _Interval(lo, hi, self.ctx)


class _Undecided(Exception):
    """An interval pivot contains 0 without being exactly [0, 0]."""


def _interval_sign(x: _Interval) -> int:
    if x.lo > 0:
        return 1
    if x.hi < 0:
        return -1
    if x.lo == 0 and x.hi == 0:
        return 0
    raise _Undecided


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sigma_scan(values: list, depth: Optional[int], sign, symmetric: bool) -> JacobiFit:
    """The sigma-table recursion of jacobi_from_moments over `values`, in
    whatever arithmetic they carry; `sign` maps a pivot to -1, 0 or 1.
    One online pass fills the table by anti-diagonal m = k + l, keeping only
    m - 1 and m - 2, and stops at the first nonpositive pivot.  `symmetric`
    (every odd moment is exactly 0) makes alpha and each sigma[k][l] with
    k + l odd exactly 0, so only even anti-diagonals are filled."""
    if not values:
        raise InputError("moment list is empty")
    top = len(values) - 1
    if depth is None:
        depth = top // 2
    if 2 * depth > top:
        raise BoundExceededError(f"depth {depth} needs {2 * depth + 1} moments, have {top + 1}")

    pivots = [values[0]]
    alpha: list = []
    beta: list = []
    if (s := sign(values[0])) <= 0:
        return JacobiFit(alpha, beta, pivots, 0, s)
    if top >= 1:
        alpha.append(values[1] / values[0])
    # anti-diagonals m - 2 and m - 1, indexed by k: old[k] = sigma[k][m - 1 - k]
    older, old = [values[0]], values[1:2]
    for m in range(2, 2 * depth + 1):
        k = m // 2
        if symmetric and m % 2:
            alpha.append(values[m])  # alpha_k = 0, in the arithmetic of values
            older, old = old, []
            continue
        diag = [values[m]]
        for j in range(1, k + 1):
            x = diag[j - 1] if symmetric else diag[j - 1] - alpha[j - 1] * old[j - 1]
            diag.append(x - beta[j - 2] * older[j - 2] if j > 1 else x)
        if m % 2:
            alpha.append(diag[k] / pivots[k] - older[k - 1] / pivots[k - 1])
        else:
            pivots.append(diag[k])
            if (s := sign(diag[k])) <= 0:
                return JacobiFit(alpha[: len(beta)], beta, pivots, k, s)
            beta.append(diag[k] / pivots[k - 1])
        older, old = old, diag
    # drop the alpha entries beyond the computed beta depth
    return JacobiFit(alpha[: len(beta)], beta, pivots, None, None)
