"""Output checks.  Each function returns a list of failure messages, empty
when the output is right.

Expected values come from reference.py or from properties the output must
have; none is a stored copy of earlier program output.  Nothing here
imports freeprob: the one law that needs the program's own product and
coproduct (the antipode law) receives them as arguments.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from math import comb

import reference as ref

PUBLISHED_ORDINALS = {Fraction(9, 10): 97}


def equal(label: str, got, expected) -> list[str]:
    """Exact equality, naming the first differing index for sequences."""
    if got == expected:
        return []
    if isinstance(got, (list, tuple)) and isinstance(expected, (list, tuple)):
        if len(got) != len(expected):
            return [f"{label}: length {len(got)}, expected {len(expected)}"]
        i = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        return [f"{label}: entry {i} is {got[i]}, expected {expected[i]}"]
    return [f"{label}: got {got}, expected {expected}"]


# ------------------------------------------------------------------------ FID


def fid_report(c: Fraction, code: int, report: dict) -> list[str]:
    """One `fid` result: exit code, verdict and sign list agree with each
    other, c in [-1, 0] passes (the theorem), and the published ordinal."""
    label = f"fid c={c}"
    errors = []
    verdict, ordinal, signs = report["verdict"], report["ordinal"], report["beta_signs"]
    if (verdict, code) not in (("PASS", 0), ("FAIL", 2)):
        errors.append(f"{label}: verdict {verdict} with exit code {code}")
    if verdict == "PASS":
        if ordinal is not None or any(s != 1 for s in signs):
            errors.append(f"{label}: PASS with ordinal {ordinal} or a nonpositive pivot")
        if c != -1 and len(signs) != report["depth"]:
            errors.append(f"{label}: PASS after {len(signs)} of {report['depth']} pivots")
    elif verdict == "FAIL":
        if not isinstance(ordinal, int) or len(signs) != ordinal:
            errors.append(f"{label}: ordinal {ordinal} with {len(signs)} pivot signs")
        elif signs[-1] == 1 or any(s != 1 for s in signs[:-1]):
            errors.append(f"{label}: pivot signs do not end at the first nonpositive one")
    if -1 <= c <= 0 and verdict != "PASS":
        errors.append(f"{label}: {verdict}, but every c in [-1, 0] passes")
    if c in PUBLISHED_ORDINALS and ordinal != PUBLISHED_ORDINALS[c]:
        errors.append(f"{label}: ordinal {ordinal}, published {PUBLISHED_ORDINALS[c]}")
    return errors


def fid_certificate(c: Fraction, ordinal, minor_signs: list[int]) -> list[str]:
    """The ordinal equals k where H_0..H_{k-1} > 0 and H_k < 0, the signs
    coming from the benchmark's own Bareiss sweep."""
    k = len(minor_signs) - 1
    if minor_signs[-1] >= 0 or any(s != 1 for s in minor_signs[:-1]):
        return [f"fid c={c}: reference sweep found no negative minor by k={k}"]
    return equal(f"fid c={c} ordinal", ordinal, k)


def fid_run(summary: dict, max_k: int = 100) -> list[str]:
    """Checks made once per run on facts every pass reported alike: the free
    cumulants of each mu_c, and each failing ordinal k confirmed with this
    benchmark's own sequence and Bareiss sweep (H_j > 0 for j < k, H_k < 0)."""
    errors = []
    for c, fc in summary.get("cumulants", {}).items():
        errors += mu_c_cumulants(Fraction(c), [Fraction(x) for x in fc])
    for c, k in summary.get("ordinals", {}).items():
        if not isinstance(k, int) or not 0 < k <= max_k:
            errors.append(f"fid c={c}: ordinal {k} cannot be confirmed")
            continue
        seq = ref.mu_c_free_cumulants(Fraction(c), 2 * k + 2)[2:]
        errors += fid_certificate(c, k, ref.leading_hankel_minor_signs(seq, k))
    return errors


def gaussian_shifted(s: list[Fraction]) -> list[str]:
    """s_n = fc_{n+2} at c = 0: s_{2j} = A000699(j + 1), odd entries 0."""
    a = ref.a000699(len(s) // 2 + 1)
    expected = [Fraction(a[n // 2 + 1]) if n % 2 == 0 else Fraction(0) for n in range(len(s))]
    return equal("shifted sequence c=0", s, expected)


def mu_c_cumulants(c: Fraction, fc: list[Fraction]) -> list[str]:
    """Free cumulants of mu_c against path-counted moments, inverted here."""
    expected = ref.free_cumulants_from_moments(ref.mu_c_moments(c, len(fc) - 1))
    return equal(f"free cumulants c={c}", fc, expected)


# ------------------------------------------------------------------ lattices


def _crossing(b1, b2) -> bool:
    """Two blocks cross unless one lies inside a single gap of the other
    (the gaps of a block are the stretches between, before and after its
    elements, the before and after stretches counting as one)."""

    def in_one_gap(inner, outer):
        gaps = {bisect.bisect(outer, x) % len(outer) for x in inner}
        return len(gaps) == 1

    return not (in_one_gap(b1, b2) or in_one_gap(b2, b1))


def lattice(kind: str, n: int, blocks_list: list) -> list[str]:
    """Count (Bell, Catalan, 2^(n-1)), distinctness, and membership."""
    expected = {"all": ref.bell(n), "noncrossing": ref.catalan(n), "interval": 2 ** (n - 1)}[kind]
    errors = equal(f"{kind} partitions of {n}", len(blocks_list), expected)
    if len(set(map(tuple, blocks_list))) != len(blocks_list):
        errors.append(f"{kind} partitions of {n}: repeated partitions")
    for blocks in blocks_list:
        if sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
            errors.append(f"{kind} partitions of {n}: {blocks} is not a partition")
            break
        if kind == "interval" and any(b[-1] - b[0] + 1 != len(b) for b in blocks):
            errors.append(f"interval partitions of {n}: {blocks} has a gap")
            break
        if kind == "noncrossing" and any(
            _crossing(b1, b2) for i, b1 in enumerate(blocks) for b2 in blocks[i + 1 :]
        ):
            errors.append(f"noncrossing partitions of {n}: {blocks} crosses")
            break
    return errors


def moebius_bottom_top(kind: str, n: int, value: int) -> list[str]:
    """mu(0, 1) is (-1)^(n-1) (n-1)!, (-1)^(n-1) Cat(n-1) and (-1)^(n-1)."""
    magnitude = {
        "all": math.factorial(n - 1),
        "noncrossing": ref.catalan(n - 1),
        "interval": 1,
    }[kind]
    return equal(f"mu(0, 1) on {kind} partitions of {n}", value, (-1) ** (n - 1) * magnitude)


# ----------------------------------------------------------------- cumulants


def classical_cumulants(m: list[Fraction]) -> list[Fraction]:
    """Classical cumulants from moments, through the logarithm of the
    exponential generating function: k_n = m_n - sum C(n-1, i) k_{n-i} m_i."""
    n = len(m) - 1
    k = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        k[j] = m[j] - sum((comb(j - 1, i) * k[j - i] * m[i] for i in range(1, j)), Fraction(0))
    return k


def boolean_cumulants(m: list[Fraction]) -> list[Fraction]:
    """Boolean cumulants from 1 - 1/M(z): b_n = m_n - sum_{i<n} b_i m_{n-i}."""
    n = len(m) - 1
    b = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        b[j] = m[j] - sum((b[i] * m[j - i] for i in range(1, j)), Fraction(0))
    return b


def cumulants_of(kind: str, m: list[Fraction]) -> list[Fraction]:
    if kind == "classical":
        return classical_cumulants(m)
    if kind == "boolean":
        return boolean_cumulants(m)
    return ref.free_cumulants_from_moments(m)


def conversion(kind: str, direction: str, given: list, got: list, terms: int) -> list[str]:
    """A series conversion of `given`, checked on its first `terms` entries:
    from-moments against this file's cumulants, to-moments by converting
    the output back."""
    given = [Fraction(x) for x in given[: terms + 1]]
    got = [Fraction(x) for x in got[: terms + 1]]
    label = f"{kind} {direction}"
    if direction == "from-moments":
        return equal(label, got, cumulants_of(kind, given))
    return equal(f"{label} (converted back)", cumulants_of(kind, got)[1:], given[1:])


def law_cumulants() -> dict:
    """(kind, moments, cumulants) of laws with closed-form cumulants, order 24."""
    n = 24
    unit2 = [Fraction(1) if j == 2 else Fraction(0) for j in range(n + 1)]
    ones = [Fraction(0)] + [Fraction(1)] * n
    return {
        "gaussian": ("classical", ref.gaussian_moments(n), unit2),
        "semicircle": ("free", ref.semicircle_moments(n), unit2),
        "bernoulli": ("boolean", ref.bernoulli_moments(n), unit2),
        "poisson": ("classical", [ref.bell(j) for j in range(n + 1)], ones),
        "free_poisson": ("free", [ref.catalan(j) for j in range(n + 1)], ones),
    }


def free_gaussian_power_moment(two_n: int, s: Fraction) -> Fraction:
    """Moment of the s-fold free convolution power of the Gaussian, whose
    free cumulants are s * A000699."""
    a = ref.a000699(two_n // 2)
    fc = [s * a[j // 2] if j % 2 == 0 and j > 0 else Fraction(0) for j in range(two_n + 1)]
    return ref.moments_from_free_cumulants(fc)[two_n]


# --------------------------------------------------------------- trees, hopf


def nested_size(t) -> int:
    """Vertices of a nested-list tree: None, [label] or [label, left, right]."""
    if t is None:
        return 0
    return 1 + (0 if len(t) == 1 else nested_size(t[1]) + nested_size(t[2]))


def _spine(t, side: int) -> int:
    n = 0
    while t is not None:
        n += 1
        t = t[side] if len(t) == 3 else None
    return n


def hilbert(dims: list[int]) -> list[str]:
    """Degree-n dimension of the ordered-tree algebra is A000699(n + 1)."""
    a = ref.a000699(len(dims))
    return equal("Hilbert dimensions", dims, a[1:])


def product(s, t, terms: list) -> list[str]:
    """Sizes add in every term (tree, coefficient) of s * t, and the
    coefficients sum to C(a + b, a): a = right spine of s, b = left spine of t."""
    errors = [
        f"product {s} * {t}: term {term} has the wrong size"
        for term, _ in terms
        if nested_size(term) != nested_size(s) + nested_size(t)
    ]
    a, b = _spine(s, 2), _spine(t, 1)
    total = sum(coef for _, coef in terms)
    return errors + equal(f"product {s} * {t} coefficient sum", total, comb(a + b, a))


def coproduct(t, terms: list, counit: bool) -> list[str]:
    """Sizes add in every term ((left, right), coefficient); with counit,
    t (x) 1 and 1 (x) t appear with coefficient 1."""
    n = nested_size(t)
    errors = [
        f"coproduct of {t}: term {pair} has the wrong sizes"
        for pair, _ in terms
        if nested_size(pair[0]) + nested_size(pair[1]) != n
    ]
    if counit:
        for unit_term in ([t, None], [None, t]):
            coef = sum(c for pair, c in terms if list(pair) == unit_term)
            if coef != 1:
                errors.append(f"coproduct of {t}: coefficient of {unit_term} is {coef}")
    return errors


def antipode(t, terms: list, law: dict) -> list[str]:
    """Every term of S(t) has the size of t, and m (S x id) Delta (t) = 0,
    given as the nonzero part of that sum."""
    errors = [f"antipode of {t}: term {k} has the wrong size" for k, _ in terms
              if nested_size(k) != nested_size(t)]
    if law:
        errors.append(f"antipode of {t}: m(S x id)Delta leaves {len(law)} terms")
    return errors


def labelings(tree, count: int) -> list[str]:
    return equal(f"labelings of a {ref.size(tree)}-vertex tree", count, ref.tree_factorial(tree))


def adjacency(n: int, words: list[str], matrix: list[list[int]]) -> list[str]:
    """Dyck words of length 2n, Catalan(n) of them, mu rows summing to n + 1."""
    errors = equal(f"Dyck words of semilength {n}", len(words), ref.catalan(n))
    sums = {sum(row) for row in matrix}
    if sums != {n + 1}:
        errors.append(f"mu rows at n={n} sum to {sorted(sums)}, expected {n + 1}")
    return errors


def stationary(n: int, weights: dict) -> list[str]:
    """Stationary weight of the word w is 1/w!, on all Catalan(n) states."""
    errors = equal(f"stationary states at n={n}", len(weights), ref.catalan(n))
    for word, weight in weights.items():
        if Fraction(weight) != Fraction(1, ref.dyck_factorial(word)):
            errors.append(f"stationary weight of {word}: {weight}, expected 1/{ref.dyck_factorial(word)}")
            break
    return errors


def simulation(n: int, frequencies: dict, bound: float = 0.1) -> list[str]:
    """Frequencies form a distribution on Dyck words near the 1/w! law."""
    freqs = {w: Fraction(f) for w, f in frequencies.items()}
    errors = equal("simulated frequencies total", sum(freqs.values()), Fraction(1))
    gap = sum(abs(f - Fraction(1, ref.dyck_factorial(w))) for w, f in freqs.items())
    words_total = sum(Fraction(1, ref.dyck_factorial(w)) for w in freqs)
    tv = (gap + (1 - words_total)) / 2
    if tv > bound:
        errors.append(f"simulated law is {float(tv):.3f} from 1/w! in total variation")
    return errors


# ------------------------------------------------------------------ analytic


def gaussian_density(rows: list[dict], tol: float = 1e-4) -> list[str]:
    worst = max(rows, key=lambda r: abs(r["density"] - ref.gaussian_pdf(r["u"])))
    if abs(worst["density"] - ref.gaussian_pdf(worst["u"])) > tol:
        return [f"density c=0 at u={worst['u']}: {worst['density']}, expected Gaussian"]
    return []


def density_shape(c: Fraction, rows: list[dict]) -> list[str]:
    """Nonnegative and even in u (the measures are symmetric)."""
    by_u = {round(r["u"], 9): r["density"] for r in rows}
    for u, d in by_u.items():
        mirror = by_u.get(round(-u, 9) + 0.0)
        if d < 0 or (mirror is not None and abs(d - mirror) > 1e-9):
            return [f"density c={c} at u={u}: {d} is negative or not even"]
    return []


def cauchy_grid(c: Fraction, rows: list[dict], tol: float = 1e-9) -> list[str]:
    """G at each point against this file's backward continued fraction."""
    for r in rows:
        z = complex(r["re_z"], r["im_z"])
        g = complex(r["re_g"], r["im_g"])
        expected = ref.cauchy_cf(c, z)
        if abs(g - expected) > tol * max(1.0, abs(expected)) or g.imag >= 0:
            return [f"G c={c} at z={z}: {g}, expected {expected}"]
    return []


def residual_grid(label: str, rows: list[dict], keys: tuple, tol: float) -> list[str]:
    for r in rows:
        for key in keys:
            if not r[key] <= tol:
                return [f"{label} at z={complex(r['re_z'], r['im_z'])}: {key} {r[key]} > {tol}"]
    return []


def voiculescu(c: Fraction, rows: list[dict], tol: float = 1e-8) -> list[str]:
    """For c <= 0, Im phi <= 1e-8; and F(z + phi(z)) = z with F = 1/G from
    the reference continued fraction, which gives F only where z + phi(z)
    lies above the real axis (the grids keep it there)."""
    for r in rows:
        z = complex(r["re_z"], r["im_z"])
        phi = complex(r["re_phi"], r["im_phi"])
        if c <= 0 and phi.imag > 1e-8:
            return [f"phi c={c} at z={z}: Im phi = {phi.imag} > 1e-8"]
        back = 1 / ref.cauchy_cf(c, z + phi)
        if abs(back - z) > tol * (1 + abs(z)):
            return [f"phi c={c} at z={z}: F(z + phi) = {back}"]
    return []


def precision_twin(rows_hi: list[dict], rows_64: list[dict], tol: float = 1e-12) -> list[str]:
    """dps-30 values agree with the binary64 values at the same points."""
    errors = equal("dps-30 grid points", len(rows_hi), len(rows_64))
    for a, b in zip(rows_hi, rows_64):
        if abs(complex(a["re_g"], a["im_g"]) - complex(b["re_g"], b["im_g"])) > tol:
            return [f"dps 30 and binary64 differ at z={complex(a['re_z'], a['im_z'])}"]
    return errors


def grid_error_surface(code: int, out: str, err: str, points: int) -> list[str]:
    """A grid with a point no route covers ends either with a structured
    error (exit 1, JSON error object) or with one record per point."""
    import json

    if code == 1:
        try:
            return [] if "error" in json.loads(err) else ["grid error is not structured"]
        except ValueError:
            return ["grid error is not JSON"]
    try:
        records = json.loads(out)["result"]
    except (ValueError, KeyError):
        return [f"grid ended with exit {code} and no JSON result"]
    return equal("grid records", len(records), points)

