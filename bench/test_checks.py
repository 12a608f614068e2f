"""Each output check accepts a right value and rejects a wrong one.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import cmath
import json
import math
from collections import namedtuple
from fractions import Fraction as F

import checks
import reference as ref

Node = namedtuple("Node", "left right")


# ------------------------------------------------------------------------ FID


def fid_json(verdict, ordinal, signs, depth=100):
    return {"verdict": verdict, "ordinal": ordinal, "beta_signs": signs, "depth": depth}


def test_fid_report_published_ordinal():
    right = fid_json("FAIL", 97, [1] * 96 + [-1])
    assert checks.fid_report(F(9, 10), 2, right) == []
    assert checks.fid_report(F(9, 10), 2, fid_json("FAIL", 96, [1] * 95 + [-1]))


def test_fid_report_theorem_and_consistency():
    assert checks.fid_report(F(0), 0, fid_json("PASS", None, [1] * 100)) == []
    assert checks.fid_report(F(-1), 0, fid_json("PASS", None, [])) == []
    assert checks.fid_report(F(-1, 2), 2, fid_json("FAIL", 40, [1] * 39 + [-1]))
    assert checks.fid_report(F(0), 0, fid_json("PASS", None, [1] * 99))
    assert checks.fid_report(F(2), 0, fid_json("FAIL", 33, [1] * 32 + [-1]))
    assert checks.fid_report(F(2), 2, fid_json("FAIL", 33, [1] * 33 + [-1]))


def test_fid_certificate_rejects_neighbouring_ordinals():
    seq = ref.mu_c_free_cumulants(F(3), 2 * 23 + 2)[2:]
    signs = ref.leading_hankel_minor_signs(seq, 23)
    assert checks.fid_certificate(F(3), 23, signs) == []
    assert checks.fid_certificate(F(3), 22, signs)
    assert checks.fid_run({"ordinals": {"3": 23}, "cumulants": {}}) == []
    assert checks.fid_run({"ordinals": {"3": 24}, "cumulants": {}})
    assert checks.fid_run({"ordinals": {"3": None}, "cumulants": {}})


def test_gaussian_shifted_sequence():
    a = ref.a000699(12)
    s = [F(a[n // 2 + 1]) if n % 2 == 0 else F(0) for n in range(21)]
    assert checks.gaussian_shifted(s) == []
    s[10] += 1
    assert checks.gaussian_shifted(s)


def test_free_cumulants_of_mu_c_one_perturbed():
    for c in (F(9, 10), F(-1, 2), F(3)):
        fc = ref.mu_c_free_cumulants(c, 30)
        assert checks.mu_c_cumulants(c, fc) == []
        fc[12] += F(1, 10**6)
        assert checks.mu_c_cumulants(c, fc)
        summary = {"ordinals": {}, "cumulants": {str(c): [str(x) for x in fc]}}
        assert checks.fid_run(summary)


# ------------------------------------------------------------------ lattices


def all_partitions(n):
    """Every partition of {1..n} as a tuple of blocks, adding 1, 2, ..., n in turn."""
    partials = [[]]
    for x in range(1, n + 1):
        partials = [p[:i] + [p[i] + [x]] + p[i + 1 :] for p in partials for i in range(len(p))] + [
            p + [[x]] for p in partials
        ]
    return [tuple(tuple(b) for b in sorted(p)) for p in partials]


def test_lattice_counts_and_membership():
    n = 5
    every = all_partitions(n)
    noncrossing = [p for p in every if not any(
        checks._crossing(a, b) for i, a in enumerate(p) for b in p[i + 1 :])]
    interval = [p for p in every if all(b[-1] - b[0] + 1 == len(b) for b in p)]
    assert checks.lattice("all", n, every) == []
    assert checks.lattice("noncrossing", n, noncrossing) == []
    assert checks.lattice("interval", n, interval) == []
    assert checks.lattice("all", n, every[:-1])
    assert checks.lattice("all", n, every[:-1] + every[:1])
    crossing = ((1, 3), (2, 4), (5,))
    assert checks.lattice("noncrossing", n, noncrossing[:-1] + [crossing])
    assert checks.lattice("interval", n, interval[:-1] + [((1, 3), (2,), (4, 5))])


def test_moebius_bottom_top():
    assert checks.moebius_bottom_top("all", 6, -120) == []
    assert checks.moebius_bottom_top("noncrossing", 6, -42) == []
    assert checks.moebius_bottom_top("interval", 6, -1) == []
    assert checks.moebius_bottom_top("all", 6, 120)
    assert checks.moebius_bottom_top("noncrossing", 6, -41)


# ----------------------------------------------------------------- cumulants


def test_law_references_are_consistent():
    for kind, moments, cumulants in checks.law_cumulants().values():
        assert checks.cumulants_of(kind, [F(m) for m in moments]) == cumulants


def test_conversion_one_perturbed_cumulant():
    kind, moments, cumulants = checks.law_cumulants()["poisson"]
    assert checks.conversion(kind, "from-moments", moments, cumulants, 24) == []
    assert checks.conversion(kind, "to-moments", cumulants, moments, 24) == []
    wrong = list(cumulants)
    wrong[7] += F(1, 3)
    assert checks.conversion(kind, "from-moments", moments, wrong, 24)
    wrong_moments = list(moments)
    wrong_moments[9] += 1
    assert checks.conversion(kind, "to-moments", cumulants, wrong_moments, 24)


def test_series_references_agree_on_random_moments():
    import random

    rng = random.Random(7)
    m = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
    k = checks.cumulants_of("free", m)
    assert ref.moments_from_free_cumulants(k) == m


def test_pairing_references():
    assert checks.free_gaussian_power_moment(12, F(1)) == ref.double_factorial_odd(12)
    assert ref.q_gaussian_moment(10, F(0)) == ref.catalan(5)
    assert ref.q_gaussian_moment(4, F(1, 3)) == 2 + F(1, 3)
    assert checks.equal("pairings", F(10395), checks.free_gaussian_power_moment(12, F(1))) == []
    assert checks.equal("pairings", F(10396), checks.free_gaussian_power_moment(12, F(1)))


# --------------------------------------------------------------- trees, hopf


def test_hilbert_dimensions():
    assert checks.hilbert([1, 1, 4, 27, 248, 2830, 38232]) == []
    assert checks.hilbert([1, 1, 4, 27, 248, 2831, 38232])


def test_product_sizes_and_coefficient_sum():
    s, t = [1], [1]
    right = [([1, None, [2]], 1), ([2, [1], None], 1)]
    assert checks.product(s, t, right) == []
    assert checks.product(s, t, right[:1])
    assert checks.product(s, t, [([1, None, [2]], 1), ([2], 1)])


def test_coproduct_sizes_and_counit():
    t = [2, [1], None]
    right = [((t, None), 1), ((None, t), 1), (([1], [1]), 1)]
    assert checks.coproduct(t, right, counit=True) == []
    assert checks.coproduct(t, right[1:], counit=True)
    assert checks.coproduct(t, right[:2] + [(([1], None), 1)], counit=False)


def test_antipode_sizes_and_law():
    t = [1]
    assert checks.antipode(t, [([1], -1)], {}) == []
    assert checks.antipode(t, [([1], -1), ([2, [1], None], 1)], {})
    assert checks.antipode(t, [([1], -1)], {"leftover": 1})


def test_labelings_equal_tree_factorial():
    leaf = Node(None, None)
    tree = Node(Node(leaf, None), leaf)  # sizes 4, 2, 1, 1
    assert checks.labelings(tree, 8) == []
    assert checks.labelings(tree, 9)


def test_adjacency_rows():
    assert checks.adjacency(2, ["UDUD", "UUDD"], [[1, 2], [1, 2]]) == []
    assert checks.adjacency(2, ["UDUD", "UUDD"], [[1, 2], [1, 1]])
    assert checks.adjacency(2, ["UDUD"], [[1, 2]])


def test_stationary_weights_and_dyck_factorial():
    assert ref.dyck_factorial("UUDUDD") == 3 * 2 * 1
    weights = {w: f"1/{ref.dyck_factorial(w)}" for w in ("UDUDUD", "UDUUDD", "UUDDUD", "UUDUDD", "UUUDDD")}
    assert sum(F(w) for w in weights.values()) == 1
    assert checks.stationary(3, weights) == []
    weights["UUUDDD"] = "1/5"
    assert checks.stationary(3, weights)


def test_simulation_distance():
    law = {w: F(1, ref.dyck_factorial(w)) for w in ("UDUD", "UUDD")}
    assert checks.simulation(2, law) == []
    assert checks.simulation(2, {"UDUD": F(1, 10), "UUDD": F(9, 10)})
    assert checks.simulation(2, {"UDUD": F(1, 2), "UUDD": F(1, 4)})


# ------------------------------------------------------------------ analytic


def test_gaussian_density():
    rows = [{"u": u / 10, "density": ref.gaussian_pdf(u / 10)} for u in range(-40, 41)]
    assert checks.gaussian_density(rows) == []
    rows[50]["density"] += 2e-4
    assert checks.gaussian_density(rows)


def test_density_shape():
    rows = [{"u": u / 10, "density": math.exp(-(u / 10) ** 2)} for u in range(-40, 41)]
    assert checks.density_shape(F(1, 2), rows) == []
    rows[10]["density"] += 1e-6
    assert checks.density_shape(F(1, 2), rows)


def grid_rows(c, points):
    return [{"re_z": z.real, "im_z": z.imag, "re_g": ref.cauchy_cf(c, z).real,
             "im_g": ref.cauchy_cf(c, z).imag} for z in points]


def test_cauchy_grid_off_by_1e6():
    rows = grid_rows(F(1, 2), [complex(x, y) for x in (-1.0, 0.5) for y in (0.6, 2.0)])
    assert checks.cauchy_grid(F(1, 2), rows) == []
    rows[2]["re_g"] += 1e-6
    assert checks.cauchy_grid(F(1, 2), rows)


def test_residual_grid():
    rows = [{"re_z": 0.0, "im_z": 1.0, "g_residual": 1e-9, "f_residual": 2e-9}]
    assert checks.residual_grid("riccati", rows, ("g_residual", "f_residual"), 1e-6) == []
    rows[0]["f_residual"] = 2e-6
    assert checks.residual_grid("riccati", rows, ("g_residual", "f_residual"), 1e-6)


def phi_by_newton(c, z):
    w = z
    for _ in range(60):
        f = 1 / ref.cauchy_cf(c, w)
        h = 1e-7
        derivative = (1 / ref.cauchy_cf(c, w + h) - f) / h
        w -= (f - z) / derivative
    return w - z


def test_voiculescu_inverse_and_sign():
    c = F(-1, 2)
    points = (1 + 1j, -0.5 + 2j)
    rows = []
    for z in points:
        phi = phi_by_newton(c, z)
        rows.append({"re_z": z.real, "im_z": z.imag, "re_phi": phi.real, "im_phi": phi.imag})
    assert checks.voiculescu(c, rows) == []
    shifted = [dict(r) for r in rows]
    shifted[0]["re_phi"] += 1e-6
    assert checks.voiculescu(c, shifted)
    upward = [dict(r) for r in rows]
    upward[1]["im_phi"] = abs(upward[1]["im_phi"]) + 1e-7
    assert checks.voiculescu(c, upward)


def test_precision_twin():
    rows = grid_rows(F(1, 2), [1 + 2j, -1 + 1j])
    assert checks.precision_twin(rows, [dict(r) for r in rows]) == []
    off = [dict(r) for r in rows]
    off[1]["im_g"] += 1e-11
    assert checks.precision_twin(rows, off)


def test_grid_error_surface():
    structured = json.dumps({"error": {"type": "PrecisionError", "message": "no route"}})
    assert checks.grid_error_surface(1, "", structured, 81) == []
    records = json.dumps({"result": [{"re_z": 0.0}] * 81})
    assert checks.grid_error_surface(2, records, "", 81) == []
    assert checks.grid_error_surface(1, "", "Traceback (most recent call last):", 81)
    assert checks.grid_error_surface(0, json.dumps({"result": [{"re_z": 0.0}] * 80}), "", 81)


def test_cauchy_reference_matches_closed_form_at_c_minus_one():
    z = 0.3 + 0.7j
    assert cmath.isclose(ref.cauchy_cf(F(-1), z), 1 / z, rel_tol=1e-14)
