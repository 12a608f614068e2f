"""Moment/cumulant conversions for classical, free and boolean independence.

All sequences are lists of exact rationals indexed from 0; index 0 of a
moment sequence is the total mass (required to be 1) and index 0 of a
cumulant sequence is unused (kept 0).  Every conversion exists in two
independent implementations:

* one triangular series solve on integers scaled by powers of a common
  denominator, with one Fraction per output: classical via the exponential
  generating function relation F = exp(K), boolean via M = 1/(1 - H)
  (bound: order <= 700), free via M(z) = C(z M(z)) (bound: order <= 240);
* a lattice sum over enumerated partitions (Moebius inversion evaluated by
  subtraction of multiplicative terms), used as the small-order oracle.

The connected and irreducible partition sums compose two series solves
(the literal lattice sums are a test oracle).  Free and boolean additive
convolution are the coordinatewise sums of free and boolean cumulants.
Also here: the Gaussian specialisations (connected-pairing cumulants, the
Riordan recursion for the shifted sequence), weighted pairing sums and the
noncrossing inner-point sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul
from typing import Iterable, Sequence

from .errors import BoundExceededError, InputError
from .partitions import (
    LatticeKind,
    enumerate_pairings,
    enumerate_partitions,
    _moebius_value,
    statistics,
    top_partition,
)

__all__ = [
    "WeightKind",
    "WeightSpec",
    "classical_from_moments",
    "moments_from_classical",
    "free_from_moments",
    "moments_from_free",
    "boolean_from_moments",
    "moments_from_boolean",
    "cumulants_via_lattice",
    "moments_via_lattice",
    "cumulant_via_moebius_weights",
    "free_from_classical",
    "boolean_from_free",
    "gaussian_shifted_sequence",
    "gaussian_free_cumulants",
    "weighted_pairing_moment",
    "nc_innerpoint_sum",
]

MAX_LATTICE_ORDER = 11
# The series conversions run on the integers D^j x_j, D a common scale that
# divides the lcm of the given denominators (see _triangular_solve).
# MAX_SERIES_BITS bounds D by 32 bits and each D^j x_j by 32*j bits, so every
# integer of the recursion, D^d [z^d] M(z)^i included, has about 32 bits per
# degree.  Inputs at that edge take 9-16 s for the free conversions at order
# 240 and 13-19 s for the classical ones at order 700 (boolean: under 14 s
# there), in a fresh process on a 2-core machine.
MAX_FREE_SERIES_ORDER = 240
MAX_SERIES_ORDER = 700  # classical and boolean
MAX_SERIES_BITS = 32
_BITS_BOUND = (
    f"series conversion bound is a common scale D of at most {MAX_SERIES_BITS} bits "
    f"and entries x_j with D^j x_j of at most {MAX_SERIES_BITS}*j bits"
)

_KIND_FOR_CUMULANT = {
    "classical": LatticeKind.ALL,
    "free": LatticeKind.NONCROSSING,
    "boolean": LatticeKind.INTERVAL,
}


def _fracs(seq: Iterable) -> list[Fraction]:
    return [Fraction(x) for x in seq]


def _require_moments(m: Sequence[Fraction]) -> None:
    if not m or m[0] != 1:
        raise InputError("a moment sequence must start with m_0 = 1")


def _require_order(seq: Sequence[Fraction], order: int) -> None:
    if not 1 <= order < len(seq):
        raise InputError(f"order must be between 1 and {len(seq) - 1}, the last index of the sequence")


def _triangular_solve(seq: Sequence, kind: str, to_moments: bool) -> list[Fraction]:
    """Solve m_j = k_j + sum_{i<j} k_i w(i, j), j = 1..n, for the unknown side.

    The weight is C(j-1, i-1) m_{j-i} (classical, F = exp(K)), m_{j-i}
    (boolean, M = 1/(1 - H)) or [z^{j-i}] M(z)^i (free, M(z) = C(z M(z))).
    Step j reads only m_0..m_{j-1}, so one pass serves both directions; for
    the free weight, step j first extends the power table by its
    anti-diagonal i + d = j, which needs only those moments.

    Every weight is homogeneous of degree j - i in the moments, so with D^j
    times each given entry x_j an integer the pass runs on the integers
    D^j m_j, D^j k_j and D^d [z^d] M(z)^i, and each output is one
    Fraction(X_j, D^j).  D grows by the part of each denominator that D^j
    does not yet cover, so moments with denominators q^j get D = q, not q^n.
    """
    given = _fracs(seq)
    if not given:
        raise InputError("the sequence must not be empty")
    n = len(given) - 1
    bound = MAX_FREE_SERIES_ORDER if kind == "free" else MAX_SERIES_ORDER
    if n > bound:
        raise BoundExceededError(f"{kind} series conversion bound is order <= {bound}")
    if not to_moments:
        _require_moments(given)
    scale = 1  # D: each step keeps D^j x_j integral, and D divides the lcm of the denominators
    for j, x in enumerate(given[1:], 1):
        scale *= x.denominator // gcd(x.denominator, scale**j)
        if scale.bit_length() > MAX_SERIES_BITS:
            raise BoundExceededError(_BITS_BOUND)
    scale_powers = [scale**j for j in range(n + 1)]
    scaled = [1] + [x.numerator * (p // x.denominator) for x, p in zip(given[1:], scale_powers[1:])]
    if any(x.bit_length() > j * MAX_SERIES_BITS for j, x in enumerate(scaled) if j):
        raise BoundExceededError(_BITS_BOUND)
    if to_moments:
        k, m = scaled, [1] + [0] * n
    else:
        k, m = [0] * (n + 1), scaled
    powers = [[1] + [0] * n]  # powers[i][d] = D^d [z^d] M(z)^i
    pascal = [1]  # row j - 1 of Pascal's triangle: the classical C(j-1, i-1)
    for j in range(1, n + 1):
        if kind == "free":
            for i in range(1, j):
                d = j - i
                powers[i].append(sum(map(mul, m[: d + 1], powers[i - 1][d::-1])))
            powers.append([1])
            w = [powers[i][j - i] for i in range(1, j)]
        elif kind == "classical":
            w = list(map(mul, pascal, m[j - 1 : 0 : -1]))
            pascal = [1, *map(add, pascal, pascal[1:]), 1]
        else:
            w = m[j - 1 : 0 : -1]
        acc = sum(map(mul, k[1:j], w))
        if to_moments:
            m[j] = k[j] + acc
        else:
            k[j] = m[j] - acc
    return [Fraction(x, p) for x, p in zip(m if to_moments else k, scale_powers)]


def classical_from_moments(moments: Sequence) -> list[Fraction]:
    """Classical cumulants k_1..k_N from moments via m_n = sum C(n-1,i-1) k_i m_{n-i}."""
    return _triangular_solve(moments, "classical", to_moments=False)


def moments_from_classical(cumulants: Sequence) -> list[Fraction]:
    return _triangular_solve(cumulants, "classical", to_moments=True)


def free_from_moments(moments: Sequence) -> list[Fraction]:
    """Free cumulants from moments via the functional equation M(z) = C(z M(z))."""
    return _triangular_solve(moments, "free", to_moments=False)


def moments_from_free(cumulants: Sequence) -> list[Fraction]:
    return _triangular_solve(cumulants, "free", to_moments=True)


def boolean_from_moments(moments: Sequence) -> list[Fraction]:
    """Boolean cumulants from moments via M(z) = 1/(1 - H(z))."""
    return _triangular_solve(moments, "boolean", to_moments=False)


def moments_from_boolean(cumulants: Sequence) -> list[Fraction]:
    return _triangular_solve(cumulants, "boolean", to_moments=True)


def _partition_weight(seq: Sequence[Fraction], p) -> Fraction:
    out = Fraction(1)
    for block in p.blocks:
        out *= seq[len(block)]
    return out


@lru_cache(maxsize=len(_KIND_FOR_CUMULANT) * MAX_LATTICE_ORDER)  # one entry per (kind, n) admitted
def _block_type_census(kind: LatticeKind, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Multiset of block sizes -> multiplicity, over all lattice partitions of {1..n}."""
    census: dict[tuple[int, ...], int] = {}
    for p in enumerate_partitions(n, kind):
        sizes = tuple(sorted(len(b) for b in p.blocks))
        census[sizes] = census.get(sizes, 0) + 1
    return tuple(sorted(census.items()))


def _census_sum(seq: Sequence[Fraction], kind: LatticeKind, n: int, proper: bool) -> Fraction:
    total = Fraction(0)
    for sizes, count in _block_type_census(kind, n):
        if proper and len(sizes) == 1:
            continue
        prod = Fraction(count)
        for size in sizes:
            prod *= seq[size]
        total += prod
    return total


def cumulants_via_lattice(moments: Sequence, flavour: str) -> list[Fraction]:
    """Small-order oracle: cumulants by Moebius inversion over the enumerated lattice.

    Solves m_n = sum over lattice partitions of prod_B k_{|B|} for k_n, order
    by order; mathematically identical to the weighted Moebius sum but needs
    only a single enumeration per order (partitions are aggregated into a
    block-size census).  Bound: order <= 11.
    """
    m = _fracs(moments)
    _require_moments(m)
    kind = _KIND_FOR_CUMULANT[flavour]
    n = len(m) - 1
    if n > MAX_LATTICE_ORDER:
        raise BoundExceededError(f"lattice oracle bound is order <= {MAX_LATTICE_ORDER}")
    k = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        k[j] = m[j] - _census_sum(k, kind, j, proper=True)
    return k


def moments_via_lattice(cumulants: Sequence, flavour: str) -> list[Fraction]:
    """Small-order oracle: m_n = sum over lattice partitions of prod_B k_{|B|}."""
    k = _fracs(cumulants)
    kind = _KIND_FOR_CUMULANT[flavour]
    n = len(k) - 1
    if n > MAX_LATTICE_ORDER:
        raise BoundExceededError(f"lattice oracle bound is order <= {MAX_LATTICE_ORDER}")
    m = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        m[j] = _census_sum(k, kind, j, proper=False)
    return m


def cumulant_via_moebius_weights(moments: Sequence, flavour: str, order: int) -> Fraction:
    """Literal Moebius-weighted inversion k_n = sum_sigma m_sigma mu(sigma, 1-hat).

    Slower than cumulants_via_lattice (it weights every lattice partition by
    its Moebius value, from the product formula); a cross-check.  Bound:
    order <= 11.
    """
    m = _fracs(moments)
    _require_moments(m)
    kind = _KIND_FOR_CUMULANT[flavour]
    if order > MAX_LATTICE_ORDER:
        raise BoundExceededError(f"Moebius-weighted oracle bound is order <= {MAX_LATTICE_ORDER}")
    _require_order(m, order)
    top = top_partition(order)
    weights = (_partition_weight(m, s) * _moebius_value(kind, s, top) for s in enumerate_partitions(order, kind))
    return sum(weights, Fraction(0))


def free_from_classical(classical: Sequence, order: int) -> Fraction:
    """fc_n, the sum of prod_B k_{|B|} over connected partitions of {1..n},
    through the moments of k_1..k_n.  Bounds: the series ones (order <= 240)."""
    _require_order(classical, order)
    return free_from_moments(moments_from_classical(classical[: order + 1]))[order]


def boolean_from_free(free: Sequence, order: int) -> Fraction:
    """bc_n, the sum of prod_B fc_{|B|} over irreducible noncrossing partitions
    of {1..n}, through the moments of fc_1..fc_n.  Bounds: the series ones (order <= 240)."""
    _require_order(free, order)
    return boolean_from_moments(moments_from_free(free[: order + 1]))[order]


MAX_RIORDAN_ORDER = 600


def gaussian_shifted_sequence(count: int) -> list[int]:
    """s_0..s_count with s_{2n} = n * sum_{i<n} s_{2i} s_{2(n-i-1)} and odd terms 0.

    This is the Riordan recursion for the connected-pairing counts shifted by
    two: s_n equals the number of connected pairings of n+2 points.
    Bound: count <= 600.
    """
    if count < 0:
        raise InputError("count must be nonnegative")
    if count > MAX_RIORDAN_ORDER:
        raise BoundExceededError(f"shifted-sequence bound is count <= {MAX_RIORDAN_ORDER}")
    s = [0] * (count + 1)
    s[0] = 1
    for two_n in range(2, count + 1, 2):
        n = two_n // 2
        s[two_n] = n * sum(s[2 * i] * s[two_n - 2 - 2 * i] for i in range(n))
    return s


def gaussian_free_cumulants(order: int) -> list[int]:
    """Free cumulants of the standard Gaussian: fc_{2k} counts connected pairings.

    Values 1, 1, 4, 27, 248, 2830, ... at orders 2, 4, 6, 8, 10, 12; odd
    orders vanish.  Computed through the Riordan recursion on the shifted
    sequence.  Bound: order <= 602.
    """
    if order < 2:
        raise InputError("order must be at least 2")
    if order > MAX_RIORDAN_ORDER + 2:
        raise BoundExceededError(f"Riordan recursion bound is order <= {MAX_RIORDAN_ORDER + 2}")
    s = gaussian_shifted_sequence(max(order - 2, 0))
    fc = [0] * (order + 1)
    for k in range(2, order + 1, 2):
        fc[k] = s[k - 2]
    return fc


class WeightKind(Enum):
    CC_POWER = "cc_power"  # weight parameter ** (number of crossing components)
    CR_POWER = "cr_power"  # weight parameter ** (number of crossings)
    BDJ = "bdj"  # parameter ** (n - h), pairings of 2n points


@dataclass(frozen=True)
class WeightSpec:
    kind: WeightKind
    parameter: Fraction

    def weight(self, pairing_size: int, stats) -> Fraction:
        q = Fraction(self.parameter)
        if self.kind is WeightKind.CC_POWER:
            return q**stats.cc
        if self.kind is WeightKind.CR_POWER:
            return q**stats.cr
        exponent = pairing_size // 2 - stats.h
        return q**exponent


def weighted_pairing_moment(n: int, spec: WeightSpec) -> Fraction:
    """Sum of the chosen weight over all pairings of {1..n} (n even).

    CC_POWER with parameter s gives the moments of the s-fold free additive
    convolution power of the standard Gaussian; CR_POWER is the q-Gaussian
    moment; BDJ interpolates Gaussian (b=1) and semicircle (b=0) moments.
    """
    if n == 0:
        return Fraction(1)
    if n % 2:
        return Fraction(0)
    total = Fraction(0)
    for p in enumerate_pairings(n):
        total += spec.weight(n, statistics(p))
    return total


def nc_innerpoint_sum(two_n: int) -> int:
    """Sum over noncrossing pairings of prod_blocks (inner points + 1).

    Equals the shifted connected-pairing number s_{two_n}.
    """
    if two_n == 0:
        return 1
    if two_n % 2:
        raise InputError("two_n must be even")
    total = 0
    for p in enumerate_pairings(two_n, LatticeKind.NONCROSSING):
        prod = 1
        for a, b in p.blocks:
            prod *= b - a  # the b - a - 1 inner points of the pair, plus one
        total += prod
    return total

