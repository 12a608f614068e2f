"""The series kernel `_phi_pair` against the term-by-term loop in `oracles`.

`_phi_pair` reads each term's ratios and powers from cached blocks of
`SERIES_BLOCK` terms; the oracle computes them afresh.  Both must give
repr-equal (phi_e, phi_e', phi_o, phi_o', scale) in binary64 and at dps 30.
The values of c and the two precisions alternate call by call, so a block
served at the wrong c or precision would show.
"""

import cmath
import math
import random
from fractions import Fraction as F

from freeprob.transforms import analytic
from oracles import phi_pair_by_terms

CS = [F(-3, 4), F(-1, 2), F(-1, 10), F(0), F(1, 3), F(1, 2), F(9, 10), F(3)]
POINTS = 512
DPS = 30


def test_kernel_matches_the_term_by_term_loop(monkeypatch):
    analytic._series_block.cache_clear()
    blocks = []
    cached = analytic._series_block

    def spy(c, dps, start):
        blocks.append((dps, start))
        return cached(c, dps, start)

    monkeypatch.setattr(analytic, "_series_block", spy)
    rng = random.Random(18)
    for i in range(POINTS):
        c = CS[i % len(CS)]
        dps = DPS if i % 7 == 0 else None
        # |z| <= 30 in binary64; the dps route costs ~100x more per term
        radius = rng.uniform(0, 12 if dps else 30)
        z = cmath.rect(radius, rng.uniform(-math.pi, math.pi))
        got = repr(analytic._phi_pair(c, z, dps=dps))
        want = repr(phi_pair_by_terms(c, z, dps=dps))
        assert got == want, (c, z, dps)
    # both precisions summed past the first block
    assert {d for d, start in blocks if start > 0} == {None, DPS}
