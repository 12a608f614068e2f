"""Reference values for the benchmark's output checks.

Nothing here imports freeprob.  Every value comes from a definition, a
closed form or a recurrence written for this file, so a check compares the
program with code it does not share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb


# ------------------------------------------------------------ integer sequences


def a000699(count: int) -> list[int]:
    """a[1..count] of OEIS A000699 (connected chord diagrams); a[0] = 0.

    a(1) = 1 and a(n) = (n - 1) * sum_{k=1}^{n-1} a(k) a(n - k).
    """
    a = [0] * (count + 1)
    if count >= 1:
        a[1] = 1
    for n in range(2, count + 1):
        a[n] = (n - 1) * sum(a[k] * a[n - k] for k in range(1, n))
    return a


def bell(n: int) -> int:
    """Bell number B_n from the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def double_factorial_odd(n: int) -> int:
    """(n - 1)!! for even n >= 0, the number of pairings of n points."""
    return math.prod(range(n - 1, 0, -2))


# ------------------------------------------------ Askey-Wimp-Kerov measures


def mu_c_moments(c: Fraction, order: int) -> list[Fraction]:
    """Moments m_0..m_order of the measure with alpha = 0, beta_k = c + k.

    Path counting: a walk on the levels 0, 1, 2, ... steps up with weight 1
    and down from level h with weight beta_h; m_n is the total weight of the
    walks of n steps from level 0 back to level 0.
    """
    weight = {0: Fraction(1)}
    moments = [Fraction(1)]
    for _ in range(order):
        nxt: dict[int, Fraction] = {}
        for h, w in weight.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + w
            if h > 0:
                nxt[h - 1] = nxt.get(h - 1, 0) + (c + h) * w
        weight = {h: w for h, w in nxt.items() if w}
        moments.append(weight.get(0, Fraction(0)))
    return moments


def free_cumulants_from_moments(moments: list[Fraction]) -> list[Fraction]:
    """Free cumulants k_0..k_n from m_0 = 1, m_1..m_n.

    Inverts M(z) = 1 + sum_s k_s z^s M(z)^s coefficient by coefficient:
    k_n = m_n - sum_{s<n} k_s [z^{n-s}] M(z)^s, with the powers of M built
    by repeated truncated multiplication.
    """
    n = len(moments) - 1
    m = [Fraction(x) for x in moments]
    powers = [[Fraction(1)] + [Fraction(0)] * n]  # M^0
    for _ in range(n):
        last = powers[-1]
        powers.append(
            [sum((last[i] * m[j - i] for i in range(j + 1)), Fraction(0)) for j in range(n + 1)]
        )
    k = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        k[j] = m[j] - sum((k[s] * powers[s][j - s] for s in range(1, j)), Fraction(0))
    return k


def moments_from_free_cumulants(k: list[Fraction]) -> list[Fraction]:
    """Moments m_0..m_n from free cumulants k_0..k_n (same functional equation)."""
    n = len(k) - 1
    m = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        # [z^{j-s}] M^s only needs m_0..m_{j-1}
        total = Fraction(0)
        for s in range(1, j + 1):
            poly = [Fraction(1)] + [Fraction(0)] * (j - s)
            for _ in range(s):
                poly = [
                    sum((poly[i] * m[d - i] for i in range(d + 1)), Fraction(0))
                    for d in range(j - s + 1)
                ]
            total += k[s] * poly[j - s]
        m[j] = total
    return m


def mu_c_free_cumulants(c: Fraction, order: int) -> list[Fraction]:
    """Free cumulants k_0..k_order of mu_c from the Riccati equation.

    G' = c G^2 - z G + 1 holds for the Cauchy transform; at z = K(w) with
    K(w) = 1/w + sum_{n>=2} k_n w^{n-1} it becomes
    (c w^2 - w K + 1) K' = 1, whose coefficient of w^m (m >= 1) reads
    k_{m+2} = -c (m - 1) k_m + sum_{a+b=m+2; a,b>=2} (b - 1) k_a k_b,
    with k_2 = c + 1 and k_1 = 0.
    """
    c = Fraction(c)
    k = [Fraction(0)] * (max(order, 2) + 1)
    k[2] = c + 1
    for m in range(1, order - 1):
        acc = -c * (m - 1) * k[m]
        for a in range(2, m + 1):
            acc += (m + 1 - a) * k[a] * k[m + 2 - a]
        k[m + 2] = acc
    return k[: order + 1]


def leading_hankel_minor_signs(seq: list[Fraction], k: int) -> list[int]:
    """Signs of H_0..H_j, H_i = det [seq_{a+b}]_{a,b=0..i}, stopping at the
    first H_j <= 0 or at j = k.

    One fraction-free (Bareiss) sweep without pivoting over the Hankel
    matrix scaled to integers by one positive common denominator: after
    step i the diagonal entry a[i][i] is the leading minor H_i times a
    positive factor.
    """
    size = k + 1
    scale = math.lcm(*(Fraction(x).denominator for x in seq[: 2 * k + 1]))
    a = [[int(Fraction(seq[i + j]) * scale) for j in range(size)] for i in range(size)]
    signs = []
    prev = 1
    for i in range(size):
        pivot = a[i][i]
        signs.append((pivot > 0) - (pivot < 0))
        if pivot <= 0:
            break
        row_i = a[i]
        for r in range(i + 1, size):
            row_r = a[r]
            head = row_r[i]
            for col in range(i + 1, size):
                row_r[col] = (pivot * row_r[col] - head * row_i[col]) // prev
        prev = pivot
    return signs


# --------------------------------------------------------- cumulant closed forms


def gaussian_moments(order: int) -> list[int]:
    return [double_factorial_odd(n) if n % 2 == 0 else 0 for n in range(order + 1)]


def semicircle_moments(order: int) -> list[int]:
    return [catalan(n // 2) if n % 2 == 0 else 0 for n in range(order + 1)]


def bernoulli_moments(order: int) -> list[int]:
    """Symmetric Bernoulli law on {-1, +1}."""
    return [1 if n % 2 == 0 else 0 for n in range(order + 1)]


def q_gaussian_moment(two_n: int, q: Fraction) -> Fraction:
    """Sum over pairings of {1..two_n} of q^(crossings), q != 1.

    Touchard-Riordan formula:
    (1 - q)^(-n) sum_{k=0}^{n} (-1)^k q^(k(k+1)/2) (C(2n, n-k) - C(2n, n-k-1)).
    """
    n = two_n // 2
    q = Fraction(q)
    total = Fraction(0)
    for k in range(n + 1):
        ballot = comb(2 * n, n - k) - (comb(2 * n, n - k - 1) if n - k - 1 >= 0 else 0)
        total += (-1) ** k * q ** (k * (k + 1) // 2) * ballot
    return total / (1 - q) ** n


# ---------------------------------------------------------------------- trees


def size(t) -> int:
    """Vertices of a tree given as objects with .left/.right (None = empty)."""
    return 0 if t is None else 1 + size(t.left) + size(t.right)


def tree_factorial(t) -> int:
    """Product over vertices of the size of the subtree rooted there."""
    if t is None:
        return 1
    return size(t) * tree_factorial(t.left) * tree_factorial(t.right)


def dyck_factorial(word: str) -> int:
    """w! for a Dyck word over U/D: the empty word gives 1, and a word
    u U v D, whose last D closes the U after u, gives n * u! * v! with n the
    number of U steps in the word."""
    if not word:
        return 1
    depth = 0
    for i in range(len(word) - 1, -1, -1):
        depth += 1 if word[i] == "D" else -1
        if depth == 0:
            return (len(word) // 2) * dyck_factorial(word[:i]) * dyck_factorial(word[i + 1 : -1])
    raise ValueError(f"not a Dyck word: {word}")


# ------------------------------------------------------------------- analytic


def cauchy_cf(c: Fraction, z: complex, tol: float = 1e-14) -> complex:
    """G(z) = 1/(z - b_1/(z - b_2/(...))), b_k = c + k, evaluated backward
    with the depth doubled until two approximants agree within tol."""
    cval = float(c)

    def approximant(depth: int) -> complex:
        g = 0j
        for k in range(depth, 0, -1):
            g = (cval + k) / (z - g)
        return 1 / (z - g)

    depth = 64
    prev = approximant(depth)
    while depth < 1 << 20:
        depth *= 2
        cur = approximant(depth)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise ArithmeticError(f"reference continued fraction did not settle at z={z}")


def gaussian_pdf(u: float) -> float:
    return math.exp(-u * u / 2) / math.sqrt(2 * math.pi)
