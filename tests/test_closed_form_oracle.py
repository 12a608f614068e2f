"""G, F and the continued fraction against the closed form in `oracles`.

`g_by_parabolic_cylinder` writes G through parabolic cylinder functions,
a route that shares nothing with the series, the continued fraction or
their routing.  G_eval and 1/F_eval must agree with it to 1e-12 relative in
binary64 and to 1e-24 at dps 30, near the real axis and below it, where
only the series applies; cf_eval must agree with it in binary64 where it
applies, at Im z >= 0.1.
"""

from fractions import Fraction as F

import mpmath
import pytest

from freeprob.transforms import F_eval, G_eval, cf_eval
from oracles import g_by_parabolic_cylinder

CS = [F(-9, 10), F(-1, 2), F(0), F(1, 2), F(1), F(3)]
POINTS = [0.5 + 1j, -3 + 2j, 0.1j, 0.5 + 0.1j, -1 + 0.2j, 2 + 0.1j, 2 - 0.5j, 0.5 - 0.3j]
DPS = 30
REFERENCE_DPS = 40


def _relative_errors(values, reference) -> list:
    # mpc arithmetic runs at the context precision, so each reciprocal and
    # difference is taken inside workdps
    with mpmath.workdps(REFERENCE_DPS):
        return [float(abs(v - reference) / abs(reference)) for v in values]


@pytest.mark.parametrize("c", CS, ids=str)
def test_routes_match_the_closed_form(c):
    for z in POINTS:
        reference = g_by_parabolic_cylinder(c, z, REFERENCE_DPS)
        binary64 = [G_eval(c, z), 1 / F_eval(c, z)]
        if z.imag >= 0.1:
            binary64.append(cf_eval(c, z))
        assert max(_relative_errors(binary64, reference)) < 1e-12, z
        with mpmath.workdps(DPS):
            extended = [G_eval(c, z, dps=DPS), 1 / F_eval(c, z, dps=DPS)]
        assert max(_relative_errors(extended, reference)) < 1e-24, z
