"""The series gives up once its own bound rules it out, and changes no value.

On and above the real axis the physical branch phi = phi_e + rho phi_o of
phi'' + z phi' + c phi = 0 obeys |phi'| <= |rho| and |phi| <= 1 + |rho| |z|
(|phi| <= 1 for c > 0), so a sum whose scale passes the router's limit can
end in no trusted ratio.  These tests check the bounds themselves, that
every sum that gave up would have been refused in full, that an untrusted
sum stops in its first block, and that G, F and phi are repr-identical with
the limit forced to infinity.
"""

import cmath
import math
import random
from fractions import Fraction as F

import pytest

from freeprob.errors import FreeprobError
from freeprob.transforms import F_eval, G_eval, analytic, cf_eval, voiculescu_phi


@pytest.mark.parametrize("c", [F(-99, 100), F(-1, 2), F(1, 1000), F(1, 2), F(3), F(10)])
def test_physical_branch_obeys_the_give_up_bounds(c):
    dps = 40
    rho = analytic._phi_mixture_ratio(c, dps)
    tiny = rho.context.mpf(10) ** -30
    for x in (-6, -3, -1, 0, 0.5, 2, 5):
        for y in (0, 0.01, 0.5, 2, 6):
            z = complex(x, y)
            pe, dpe, po, dpo, scale = analytic._phi_pair(c, z, dps)
            # the rounding of a 40-digit sum, far below either bound
            slack = scale * max(1, abs(rho)) * tiny
            bound = 1 if c > 0 else 1 + abs(rho) * abs(z)
            assert abs(pe + rho * po) <= bound + slack, z
            assert abs(dpe + rho * dpo) <= abs(rho) + slack, z
    # both bounds are met at z = 0
    pe, dpe, po, dpo, _ = analytic._phi_pair(c, 0j, dps)
    assert abs(pe + rho * po) == 1 and abs(dpe + rho * dpo) == abs(rho)


class _Stop(Exception):
    pass


def _spy_sums(monkeypatch, stop=False):
    """Record (c, w, dps, limit, scale) for every _phi_pair call; with stop,
    end the call after a sum at a point (the calibration at 10i goes on)."""
    full = analytic._phi_pair
    sums = []

    def spy(c, z, dps=None, limit=math.inf):
        result = full(c, z, dps, limit)
        sums.append((c, z, dps, limit, result[4]))
        if stop and z != 10j:
            raise _Stop
        return result

    monkeypatch.setattr(analytic, "_phi_pair", spy)
    return full, sums


# c across [-999/1000, 1000]: a few values, so few calibrations
SOUNDNESS_CS = [F(-999, 1000), F(-1, 2), F(-1, 100), F(1, 1000), F(1, 2), F(3), F(47, 3), F(100), F(1000)]


def test_a_sum_gives_up_only_where_the_full_sum_is_refused(monkeypatch):
    full, sums = _spy_sums(monkeypatch, stop=True)
    rng = random.Random(30)
    dps_cycle = [None, 1, 5, 15, 30]
    for i in range(450):
        c = SOUNDNESS_CS[i % len(SOUNDNESS_CS)]
        dps = dps_cycle[i % len(dps_cycle)]
        radius = rng.uniform(0, 30 if dps is None else 20)
        z = cmath.rect(radius, rng.uniform(0, math.pi))
        try:
            (G_eval if i % 2 else F_eval)(c, z, dps=dps)
        except (_Stop, FreeprobError):
            pass
    gave_up = 0
    for c, w, dps, limit, scale in sums:
        if limit == math.inf or scale < math.inf:
            continue
        gave_up += 1
        pe, dpe, po, dpo, full_scale = full(c, w, dps)
        rho = analytic._phi_mixture_ratio(c, dps)
        # the router's own ratios on the full sum (an inf scale is refused)
        mix_scale = max(float(full_scale), float(abs(rho) * full_scale))
        for size in (abs(pe + rho * po), abs(dpe + rho * dpo)):
            if size > 0:
                assert not analytic._series_trusted(mix_scale / float(size), w, dps), (c, w, dps)
    assert gave_up > 250


def test_an_untrusted_sum_gives_up_in_its_first_block(monkeypatch):
    c, w = F(-1, 2), 20 + 10j
    analytic._phi_mixture_ratio(c, None)  # the z = 10i calibration, summed apart
    full, sums = _spy_sums(monkeypatch)
    starts = []
    block = analytic._series_block

    def counted(c, dps, start):
        starts.append(start)
        return block(c, dps, start)

    monkeypatch.setattr(analytic, "_series_block", counted)
    assert F_eval(c, w) == 1 / cf_eval(c, w)
    assert [(limit < math.inf, scale) for *_, limit, scale in sums] == [(True, math.inf)]
    assert starts == [0]
    # the full sum reads past its hump at |w|^2 / 2 = 250 terms
    full(c, w)
    assert starts[-1] >= 4 * analytic.SERIES_BLOCK


def _seeded_points():
    rng = random.Random(29)
    cs = [F(rng.randint(-999, 1_000_000), 1000) for _ in range(8)] + [F(-1, 2), F(0), F(1, 2)]
    points = []
    for i in range(150):
        c = cs[i % len(cs)]
        dps = (None, None, None, 1, 5, 15)[i % 6]
        radius = rng.uniform(0, 30 if dps is None else 14)
        z = cmath.rect(radius, rng.uniform(-math.pi / 4, 5 * math.pi / 4))
        points.append((G_eval if i % 2 else F_eval, c, z, dps))
    for i in range(12):
        c = F(rng.randint(-999, 5000), 1000)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2))
        points.append((voiculescu_phi, c, z, 15 if i % 6 == 0 else None))
    # near c = -1, |rho| is large (800 at c = -999/1000) and phi grows like
    # rho z: on these rings G is trusted with scale over 4 times the trust
    # bound (4.2 times at c = -9/10, z = 1.875 + 4.527i), so a limit
    # without the factor 1 + |rho| |z| would give up there
    for c in (F(-9, 10), F(-99, 100), F(-999, 1000)):
        for radius in (4.6, 4.9, 5.2):
            points += [(G_eval, c, cmath.rect(radius, math.pi * a / 24), None) for a in range(1, 24)]
    # no limit near the axis, where the continued fraction does not apply
    # and a series G is trusted down to the floor
    for c in (F(-1, 2), F(1, 2), F(3)):
        points += [(G_eval, c, complex(x / 2, y), None) for x in range(2, 25) for y in (0, 0.005, 0.015)]
    # the calibration itself refuses here, before any sum at the point
    points += [(G_eval, F(-999, 1000), 1 + 1j, 1), (F_eval, F(-999, 1000), 25 + 5j, 1)]
    return points


def _evaluate(points) -> list:
    results = []
    for evaluate, c, z, dps in points:
        try:
            results.append(repr(evaluate(c, z, dps=dps)))
        except FreeprobError as exc:
            results.append((type(exc).__name__, str(exc)))
    return results


def test_the_give_up_changes_no_value(monkeypatch):
    points = _seeded_points()
    full, sums = _spy_sums(monkeypatch)
    shipped = _evaluate(points)
    assert sum(scale == math.inf for *_, limit, scale in sums if limit < math.inf) > 30
    sums.clear()
    monkeypatch.setattr(analytic, "_GIVE_UP_MARGIN", math.inf)
    assert _evaluate(points) == shipped
    assert {limit for *_, limit, _ in sums} == {math.inf}
    assert sum(isinstance(r, tuple) for r in shipped) > 10
    # rho is read before the sum: wherever the calibration refuses, the
    # sum at the point would not have refused first
    refused = 0
    for evaluate, c, z, dps in points:
        if evaluate is voiculescu_phi or c in (0, -1):
            continue
        try:
            analytic._phi_mixture_ratio(c, dps)
        except FreeprobError:
            refused += 1
            full(c, z, dps)
    assert refused >= 2
