"""G, F and the continued fraction against the closed form in `oracles`.

`g_by_parabolic_cylinder` writes G through parabolic cylinder functions,
a route that shares nothing with the series, the continued fraction or
their routing.  G_eval and 1/F_eval must agree with it to 1e-12 relative in
binary64 and to 1e-24 at dps 30, near the real axis and below it, where
only the series applies; cf_eval must agree with it in binary64 where it
applies, at Im z >= 0.1.  The density and the inverse transform are checked
against the same closed form: density_eval against the density
`density_by_parabolic_cylinder`, and voiculescu_phi through F(z + phi) = z
with F the reciprocal of the quotient.
"""

from fractions import Fraction as F

import mpmath
import pytest

from freeprob.transforms import F_eval, G_eval, cf_eval, density_eval, voiculescu_phi
from oracles import density_by_parabolic_cylinder, g_by_parabolic_cylinder

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


# c from -9/10 to 2 for the density and phi checks
DENSITY_CS = [F(-9, 10), F(-1, 2), F(0), F(1, 2), F(2)]
DENSITY_US = [-3.5, -2.5, -1.5, -0.7, 0.0, 0.3, 1.0, 2.0, 3.0, 3.5]
# largest relative error measured on this grid, times about 3; the error is
# the Poisson bias of the boundary value at Im z = eps, not the evaluation:
# - Richardson at eps = 1e-3 leaves an O(eps^2) bias: 3.0e-5 measured, at
#   c = -9/10, u = 0, where the density peaks at 2.7;
# - the default eps = 1e-6 leaves an O(eps) bias of about 3e-8 absolute,
#   which at c = -9/10, |u| = 3.5, where the density is 9.7e-6, is 2.8e-3
#   relative;
# - Richardson at the default eps removes that: 3.0e-11 measured.
DENSITY_RTOL = [
    ({"eps": 1e-3, "richardson": True}, 1e-4),
    ({}, 1e-2),
    ({"richardson": True}, 1e-10),
]


@pytest.mark.parametrize("c", DENSITY_CS, ids=str)
def test_density_matches_the_closed_form(c):
    for u in DENSITY_US:
        reference = float(density_by_parabolic_cylinder(c, u, DPS))
        for options, rtol in DENSITY_RTOL:
            assert abs(density_eval(c, u, **options) - reference) < rtol * reference, (u, options)


PHI_POINTS = [complex(x, y) for x in (-2, 0.3, 1.5, 3) for y in (0.5, 1.0, 2.5)]


@pytest.mark.parametrize("c", DENSITY_CS, ids=str)
def test_phi_inverts_the_closed_form(c):
    # Newton stops once the binary64 F is within tol (1 + |z|) of z, at the
    # default tol = 1e-11; the closed-form F at z + phi measured 5.0e-12
    # (1 + |z|) off at worst (c = 1/2, z = 3 + 0.5i), so twice tol holds F's
    # own error too
    for z in PHI_POINTS:
        phi = voiculescu_phi(c, z)
        g = g_by_parabolic_cylinder(c, z + phi, REFERENCE_DPS)
        with mpmath.workdps(REFERENCE_DPS):
            residual = float(abs(1 / g - z))
        assert residual < 2e-11 * (1 + abs(z)), z
