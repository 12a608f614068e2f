"""Independent cross-checks that only the tests call.

Fraction-free (Bareiss) elimination keeps every intermediate entry an exact
integer (each is a minor of the input up to sign); `_forward_eliminate`
runs it over rows that `clear_denominators` scaled to integers, and two
oracles are built on it.  The direct Hankel determinant checks the pivot
scan of `jacobi_from_moments`, and `stationary_by_elimination`, the
normalized null vector of (P^T - I) from `nullspace_vector`, checks the
closed-form law 1/w! of `chains.stationary`.  `block_index`
serves the partition oracles, `partitions_by_rgs` checks the level-by-level
generation of `enumerate_partitions`, `moebius_by_zeta_sweep` checks the
product formula behind `partitions.moebius`, `series_in_fractions` checks the
integer triangular solve behind the six series conversions of
`freeprob.cumulants`, `flagged_partition_sum` checks the connected and
irreducible sums that `free_from_classical` and `boolean_from_free` compose
from two of those conversions, `communicating_classes_by_reach` checks the
classes that `freeprob.chains.stationary` reads as forward reach sets,
`bf_coproduct_by_subtraction` checks the one-rule
charge coproduct of `freeprob.hopf`, `phi_pair_by_terms` checks the
block-cached series kernel `_phi_pair` of `freeprob.transforms.analytic`,
`cf_approximant` is one fixed-depth approximant of the continued fraction
that `cf_eval` deepens until it settles, and `g_by_parabolic_cylinder` is G
in closed form, which checks `G_eval`, `F_eval` and `cf_eval`.
`mu_by_last_factor` keeps the defining recursion of mu and nu, split at the
last factor by `split_last_factor`, and checks the one stack walk over the
prime factors that `freeprob.trees` unrolls it into.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath

from freeprob.chains import Distribution, StochasticMatrix
from freeprob.errors import BoundExceededError
from freeprob.hopf import LabeledTree, bf_over_labeled
from freeprob.partitions import LatticeKind, Partition, classify, enumerate_partitions
from freeprob.transforms import JacobiFit
from freeprob.transforms.analytic import SERIES_MAX_TERMS, PrecisionError, _digits, _lift, _mp, _real

MAX_HANKEL_DIRECT = 24


def _forward_eliminate(a: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """In-place fraction-free elimination; returns (pivot (row, col) list, swap sign)."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[tuple[int, int]] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        for i in range(r + 1, nrows):
            row_i, row_r = a[i], a[r]
            head = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (row_r[c] * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = a[r][c]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots, sign


def clear_denominators(rows: list[list[Fraction]]) -> list[list[int]]:
    """Scale each row by the (positive) lcm of its denominators."""
    out = []
    for row in rows:
        scale = math.lcm(*(f.denominator for f in row)) if row else 1
        out.append([int(f * scale) for f in row])
    return out


def nullspace_vector(matrix: list[list[Fraction]]) -> list[Fraction]:
    """A nonzero rational solution of M x = 0 for a matrix of nullity one.

    Rows are scaled to integers, eliminated fraction-free, and the single
    free coordinate is set to 1 before exact back-substitution.
    """
    a = clear_denominators(matrix)
    ncols = len(a[0])
    pivots, _ = _forward_eliminate(a)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    if len(free_cols) != 1:
        raise AssertionError(f"expected nullity 1, found {len(free_cols)}")
    x = [Fraction(0)] * ncols
    x[free_cols[0]] = Fraction(1)
    for r, c in reversed(pivots):
        acc = Fraction(0)
        for j in range(c + 1, ncols):
            if a[r][j]:
                acc += a[r][j] * x[j]
        x[c] = -acc / a[r][c]
    return x


def stationary_by_elimination(p: StochasticMatrix) -> Distribution:
    """The stationary law of an irreducible chain: the null vector of
    (P^T - I), normalized to sum 1 (which also fixes its sign)."""
    n = len(p.states)
    x = nullspace_vector([[p.rows[j].get(i, 0) - (i == j) for j in range(n)] for i in range(n)])
    total = sum(x)
    return Distribution({s: v / total for s, v in zip(p.states, x)})


def communicating_classes_by_reach(p: StochasticMatrix) -> list[list[str]]:
    """Classes of mutual reachability in the positive-transition digraph: the
    states that v reaches and that reach v back, sorted by their smallest
    index.  One reach set per state, so quadratic in the states or worse."""
    n = len(p.states)
    succ = [[j for j in range(n) if p.rows[i].get(j, 0) > 0] for i in range(n)]
    reach = []
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    classes = {tuple(sorted(w for w in reach[v] if v in reach[w])) for v in range(n)}
    return [[p.states[i] for i in comp] for comp in sorted(classes)]


def bareiss_det_sign(matrix: list[list[int]]) -> int:
    """Sign (-1, 0, +1) of the determinant of a square integer matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    a = [list(row) for row in matrix]
    pivots, sign = _forward_eliminate(a)
    if len(pivots) < n:
        return 0
    last = a[pivots[-1][0]][pivots[-1][1]]
    return sign * ((last > 0) - (last < 0))


def hankel_sign(seq: Sequence, k: int) -> int:
    """Sign of det [seq_{i+j}]_{i,j=0..k} by fraction-free (Bareiss) elimination.

    Bound: k <= 24 for the direct determinant route.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > MAX_HANKEL_DIRECT:
        raise BoundExceededError(f"direct Hankel determinant bound is k <= {MAX_HANKEL_DIRECT}")
    values = [Fraction(x) for x in seq]
    if 2 * k + 1 > len(values):
        raise BoundExceededError(f"need {2 * k + 1} sequence entries, have {len(values)}")
    rows = [[values[i + j] for j in range(k + 1)] for i in range(k + 1)]
    return bareiss_det_sign(clear_denominators(rows))


def hankel_sign_from_pivots(fit: JacobiFit, k: int) -> int:
    """Sign of the k-th Hankel determinant predicted from the pivot table:
    H_k = prod of the first k+1 diagonal pivots."""
    if k + 1 > len(fit.pivots):
        raise BoundExceededError(f"pivot table only covers k <= {len(fit.pivots) - 1}")
    return math.prod((pivot > 0) - (pivot < 0) for pivot in fit.pivots[: k + 1])


def block_index(p) -> dict[int, int]:
    """Map element -> index of its block in the canonical order of partition p."""
    return {x: i for i, block in enumerate(p.blocks) for x in block}


def partitions_by_rgs(n: int, kind: LatticeKind) -> list[Partition]:
    """The partitions of {1..n} of the given kind, depth first through their
    restricted-growth strings in lexicographic order, each built from its
    string.

    The open-block stack holds the blocks the next element may still join;
    it may always open a new block instead.  No block ever closes for ALL,
    opening a block closes every earlier one for INTERVAL, and joining a
    block closes every block above it on the stack for NONCROSSING.
    """
    assignment = [0] * n
    out = []

    def rec(i: int, opened: int, stack: tuple[int, ...]):
        if i == n:
            blocks = [[] for _ in range(opened)]
            for x, b in enumerate(assignment, 1):
                blocks[b].append(x)
            out.append(Partition._canonical(n, tuple(map(tuple, blocks))))
            return
        for pos, b in enumerate(stack):
            assignment[i] = b
            rec(i + 1, opened, stack[: pos + 1] if kind is LatticeKind.NONCROSSING else stack)
        assignment[i] = opened
        rec(i + 1, opened + 1, (opened,) if kind is LatticeKind.INTERVAL else stack + (opened,))

    rec(1, 1, (0,))
    return out


def _bitmasks(p: Partition) -> tuple[list[tuple[int, int]], list[int]]:
    """(least element - 1, bitmask) of each block of p, and the block mask of each element."""
    blocks = [(b[0] - 1, sum(1 << (x - 1) for x in b)) for b in p.blocks]
    cover = [0] * p.n
    for b, (_, mask) in zip(p.blocks, blocks):
        for x in b:
            cover[x - 1] = mask
    return blocks, cover


def _below(blocks: list[tuple[int, int]], cover: list[int]) -> bool:
    """Bitmask refinement test: each block lies in the block holding its least element."""
    return all(cover[low] & mask == mask for low, mask in blocks)


@lru_cache(maxsize=8)
def _lattice_by_block_count(kind: LatticeKind, n: int) -> tuple:
    """(tau, block masks, element masks) over the `kind` lattice, fewest blocks first."""
    ordered = sorted(partitions_by_rgs(n, kind), key=lambda p: len(p.blocks))
    return tuple((tau, *_bitmasks(tau)) for tau in ordered)


def moebius_by_zeta_sweep(kind: LatticeKind, pi: Partition) -> dict[Partition, int]:
    """mu(tau, pi) for every tau <= pi in the `kind` lattice, by one top-down
    zeta sweep over the lattice from `partitions_by_rgs`.

    Elements come fewest blocks first, so pi leads and every rho with
    tau < rho <= pi precedes tau; then mu(tau, pi) is minus the sum of
    mu(rho, pi) over those rho.  (Equal block counts are comparable only
    when equal, so no rank test is needed.)
    """
    pi_cover = _bitmasks(pi)[1]
    column: dict[Partition, int] = {}
    above: list[tuple[list[int], int]] = []
    for tau, blocks, cover in _lattice_by_block_count(kind, pi.n):
        if not _below(blocks, pi_cover):
            continue
        mu = 1 if tau == pi else -sum(m for rho_cover, m in above if _below(blocks, rho_cover))
        column[tau] = mu
        above.append((cover, mu))
    return column


def series_in_fractions(seq: Sequence, kind: str, to_moments: bool) -> list[Fraction]:
    """The six series conversions as a Fraction loop, with no bound.

    Solves m_j = k_j + sum_{i<j} k_i w(i, j) for the unknown side, with
    weight C(j-1, i-1) m_{j-i} (classical), m_{j-i} (boolean) or
    [z^{j-i}] M(z)^i (free), normalising every term as it goes.
    """
    given = [Fraction(x) for x in seq]
    n = len(given) - 1
    if to_moments:
        k, m = given, [Fraction(1)] + [Fraction(0)] * n
    else:
        k, m = [Fraction(0)] * (n + 1), given
    powers = [[Fraction(1)] + [Fraction(0)] * n]  # powers[i][d] = [z^d] M(z)^i
    for j in range(1, n + 1):
        if kind == "free":
            for i in range(1, j):
                d = j - i
                powers[i].append(sum((m[e] * powers[i - 1][d - e] for e in range(d + 1)), Fraction(0)))
            powers.append([Fraction(1)])
            w = [powers[i][j - i] for i in range(1, j)]
        elif kind == "classical":
            w = [math.comb(j - 1, i - 1) * m[j - i] for i in range(1, j)]
        else:
            w = [m[j - i] for i in range(1, j)]
        acc = sum((k_i * w_i for k_i, w_i in zip(k[1:j], w)), Fraction(0))
        if to_moments:
            m[j] = k[j] + acc
        else:
            k[j] = m[j] - acc
    return m if to_moments else k


@lru_cache(maxsize=16)
def _flagged_block_sizes(kind: LatticeKind, n: int, flag: str) -> tuple[tuple[int, ...], ...]:
    """Block sizes of each partition of {1..n} in the `kind` lattice whose
    PartitionFlags field `flag` holds."""
    return tuple(
        tuple(len(b) for b in p.blocks) for p in enumerate_partitions(n, kind) if getattr(classify(p), flag)
    )


def flagged_partition_sum(seq: Sequence, order: int, kind: LatticeKind, flag: str) -> Fraction:
    """The sum of prod_B seq_{|B|} over the partitions of {1..order} in the
    `kind` lattice whose `flag` holds: free cumulants from classical ones over
    connected partitions (ALL, "connected"), boolean from free over
    irreducible noncrossing ones (NONCROSSING, "irreducible"), boolean from
    classical over irreducible ones (ALL, "irreducible")."""
    values = [Fraction(x) for x in seq]
    return sum((math.prod(values[size] for size in sizes) for sizes in _flagged_block_sizes(kind, order, flag)), Fraction(0))


def bf_coproduct_by_subtraction(t) -> Counter:
    """Charge coproduct on labeled trees, with the generator term subtracted.

    On a generator V_k(w) = graft(empty, k, w) with w = graft(s, l, t'):
    Delta(V_k(w)) = V_k(w) x empty
                  + (id x V_k)( Delta(s) / (Delta(V_l(t')) - V_l(t') x empty) ),
    where / acts on tensors componentwise; on a general tree it is
    multiplicative along the decomposition graft(s, k, w) = s / V_k(w).
    """
    if t is None:
        return Counter({(None, None): 1})
    if t.left is None:
        k, w = t.label, t.right
        out: Counter = Counter({(t, None): 1})
        if w is None:
            out[(None, t)] += 1
            return out
        a_terms = bf_coproduct_by_subtraction(w.left)
        generator = LabeledTree(w.label, None, w.right)
        b_terms = bf_coproduct_by_subtraction(generator)
        del b_terms[(generator, None)]  # the subtracted term; its coefficient is 1
        for (a1, a2), ca in a_terms.items():
            for (b1, b2), cb in b_terms.items():
                left = bf_over_labeled(a1, b1)
                right = LabeledTree(k, None, bf_over_labeled(a2, b2))
                out[(left, right)] += ca * cb
        return out
    a_terms = bf_coproduct_by_subtraction(t.left)
    b_terms = bf_coproduct_by_subtraction(LabeledTree(t.label, None, t.right))
    out = Counter()
    for (a1, a2), ca in a_terms.items():
        for (b1, b2), cb in b_terms.items():
            out[(bf_over_labeled(a1, b1), bf_over_labeled(a2, b2))] += ca * cb
    return out


def phi_pair_by_terms(c, z, dps=None):
    """(phi_e, phi_e', phi_o, phi_o', scale) of phi'' + z phi' + c phi = 0,
    each term's ratios and powers computed afresh as the term is summed.
    """
    mp_mod = _mp(dps)
    w = _lift(z, mp_mod)
    one = 1 + 0 * w
    if abs(w) == 0:
        return one, 0 * w, 0 * w, one, 1.0
    cval = _real(c, mp_mod)
    eps = 10.0 ** (-(_digits(dps) + 3))
    w2 = w * w
    even_term = one  # e_k z^{2k}
    odd_term = w  # o_k z^{2k+1}
    pe, po = even_term, odd_term
    dpe, dpo = 0 * w, one
    scale = max(abs(pe), abs(po))
    hump = float(abs(w2)) / 2
    quiet = 0
    k = 0
    while k < SERIES_MAX_TERMS:
        even_term = even_term * w2 * (-(cval + 2 * k) / ((2 * k + 1) * (2 * k + 2)))
        odd_term = odd_term * w2 * (-(cval + 2 * k + 1) / ((2 * k + 2) * (2 * k + 3)))
        k += 1
        pe += even_term
        po += odd_term
        dpe += (2 * k) * even_term / w
        dpo += (2 * k + 1) * odd_term / w
        even_abs, odd_abs = abs(even_term), abs(odd_term)
        scale = max(scale, abs(pe), abs(po), even_abs, odd_abs)
        if even_abs + odd_abs < eps * scale and k > hump:
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        raise PrecisionError(f"series for phi did not settle in {SERIES_MAX_TERMS} terms at z={z}")
    return pe, dpe, po, dpo, float(scale)


def cf_approximant(c: float, z: complex, depth: int) -> complex:
    """The depth-d approximant 1/(z - (c+1)/(z - (c+2)/(z - ... (c+d)/z)))
    of G in binary64, evaluated backward as `cf_eval` does."""
    g = 0j
    for k in range(depth, 0, -1):
        g = (c + k) / (z - g)
    return 1 / (z - g)


def split_last_factor(word: str) -> tuple[str, str]:
    """Split a nonempty Dyck word as u + 'U' + v + 'D' where the final letter
    is matched with the opener after the last return to the axis."""
    depth = 0
    last_zero = 0
    for i, ch in enumerate(word[:-1]):
        depth += 1 if ch == "U" else -1
        if depth == 0:
            last_zero = i + 1
    return word[:last_zero], word[last_zero + 1 : -1]


def _nu_by_last_factor(word: str) -> Counter:
    if not word:
        return Counter()
    u, v = split_last_factor(word)
    right = "U" + v + "D"
    acc: Counter = Counter()
    for term, coef in _nu_by_last_factor(u).items():
        acc[term[:-1] + right + "D"] += coef  # term owedge right
    for term, coef in mu_by_last_factor(v).items():
        acc[term + "U" + u + "D"] += coef
    return acc


def mu_by_last_factor(word: str) -> Counter:
    """mu(w) = w + nu(w) by the defining recursion
    nu(uUvD) = nu(u) owedge (UvD) + mu(v) UuD, split at the last factor.
    It recurses one level per factor, up to two frames a level."""
    acc = _nu_by_last_factor(word)
    acc[word] += 1
    return acc


def g_by_parabolic_cylinder(c, z, dps: int):
    """G of mu_c in closed form, -i D_{-c-1}(-iz) / D_{-c}(-iz) at dps digits,
    with D_nu the parabolic cylinder function `mpmath.pcfd`.

    phi(z) = exp(-z^2/4) D_{-c}(-iz) is the solution of
    phi'' + z phi' + c phi = 0 that decays in the upper half-plane, and
    D_nu'(x) = nu D_{nu-1}(x) - (x/2) D_nu(x) gives
    phi' = i c exp(-z^2/4) D_{-c-1}(-iz), so G = -phi'/(c phi) is the
    quotient above (Askey and Wimp, Proc. Roy. Soc. Edinburgh 96A (1984)).
    D_nu is entire, so the quotient continues G below the real axis.
    """
    c = Fraction(c)
    with mpmath.workdps(dps):
        x = -1j * mpmath.mpc(z)
        nu = -mpmath.mpf(c.numerator) / c.denominator
        return -1j * mpmath.pcfd(nu - 1, x) / mpmath.pcfd(nu, x)


def density_by_parabolic_cylinder(c, u, dps: int):
    """Density of mu_c at real u in closed form,
    1 / (sqrt(2 pi) Gamma(c+1) |D_{-c}(iu)|^2) at dps digits, for c > -1.

    It is the boundary value -(1/pi) Im G(u + i0) of the quotient in
    `g_by_parabolic_cylinder` (Askey and Wimp, as above); at c = 0 it is the
    standard Gaussian density.
    """
    c = Fraction(c)
    with mpmath.workdps(dps):
        cval = mpmath.mpf(c.numerator) / c.denominator
        return 1 / (mpmath.sqrt(2 * mpmath.pi) * mpmath.gamma(cval + 1) * abs(mpmath.pcfd(-cval, 1j * u)) ** 2)
