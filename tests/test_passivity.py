"""Passivity oracle: the ladder is a positive form of Im G.

For real moments (mu, Lambda) the ladder gamma0 + gamma1 + gamma2 is
the 2 x 2 block, in the dipole and the first moment, of the emitter's
form <s|Im G|s>. A passive medium makes Im G positive semidefinite, so
gamma1^2 <= 4 gamma0 gamma2 at every point, for both geometries and
every moment ratio. No reference values enter.

The printed gamma2 is scattered only: it omits the homogeneous
Lambda-Lambda rate (2/5)(k1 lambda)^2, where lambda is the moment
ratio. The test adds that term back, derived here from the
small-separation series of Im G0 and checked against a finite
difference of the closed-form G0.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mesoqed.core import GAAS, PAPER_LAMBDA0_NM, SILVER, Material, paper_moments
from mesoqed.halfspace import InterfaceGeometry, interface_point, interface_sweep, paper_interface
from mesoqed.nanowire import AXIAL, RADIAL, paper_wire, plasmon_rates, quasistatic_background

MOMENTS = paper_moments()
# Im G0 at separation R = u/k is (k/4pi) * f(u) with
# f(u) = A sin(u)/u + B cos(u)/u^2 + C sin(u)/u^3, the imaginary part of
# e^{iu} (A + iB/u + C/u^2)/u. (A, B, C) of a component whose axis
# stands across the separation, and of one along it:
ACROSS = (1, 1, -1)
ALONG = (0, -2, 2)
MIN_MARGIN = -1e-12


def _series(abc, power: int) -> Fraction:
    """Coefficient of u^power (even, >= -2) in the series of f(u)."""
    a, b, c = abc
    j = power // 2
    sign = Fraction((-1) ** (j + 1))
    coef = b * sign / math.factorial(2 * j + 2) + c * sign / math.factorial(2 * j + 3)
    if j >= 0:
        coef += a * -sign / math.factorial(2 * j + 1)
    return coef


def _homogeneous_term(abc) -> Fraction:
    """Im d_x d_x' G0 at the source over Im G0_xx there, in units of k^2.

    f is even, so d_x d_x' of f(k(x - x')) at x = x' is -f''(0) k^2:
    -2 c_2 k^2 over the source value c_0, with c_n f's coefficients.
    """
    return -2 * _series(abc, 2) / _series(abc, 0)


def _closed_form(abc, u: float) -> float:
    a, b, c = abc
    return (np.exp(1j * u) * (a + 1j * b / u + c / u**2) / u).imag


def test_homogeneous_term_from_the_series_of_im_g0():
    for abc in (ACROSS, ALONG):
        # no 1/u^2 pole, and the source value is Im G0_xx = k/(6 pi)
        assert _series(abc, -2) == 0 and _series(abc, 0) == Fraction(2, 3)
    # Im G0(R) = (k/6pi)(1 - k^2 R^2/5) across the axis, (1 - k^2 R^2/10) along it
    assert _series(ACROSS, 2) / _series(ACROSS, 0) == Fraction(-1, 5)
    assert _series(ALONG, 2) / _series(ALONG, 0) == Fraction(-1, 10)
    # gamma2's dd_g_zz differentiates across z: 2/5; along the axis it is 1/5
    assert _homogeneous_term(ACROSS) == Fraction(2, 5)
    assert _homogeneous_term(ALONG) == Fraction(1, 5)
    # the closed form's second difference at u and 2u gives c_2
    for abc in (ACROSS, ALONG):
        u = 0.02
        c2 = (_closed_form(abc, 2.0 * u) - _closed_form(abc, u)) / (3.0 * u * u)
        assert c2 == pytest.approx(float(_series(abc, 2)), rel=1e-3)


def _margin(g0: float, g1: float, g2: float) -> float:
    """Normalized passivity margin (4 g0 g2 - g1^2)/(4|g0 g2| + g1^2)."""
    return (4.0 * g0 * g2 - g1 * g1) / (4.0 * abs(g0 * g2) + g1 * g1)


def _homogeneous_gamma2(k1: float) -> float:
    return float(_homogeneous_term(ACROSS)) * (k1 * MOMENTS.lambda_over_mu) ** 2


@pytest.mark.parametrize("n", [SILVER.n, 7j, 1.5 + 0.3j, 1e6j, 0.1 + 3.6j])
def test_interface_ladder_is_passive(n):
    heights = np.geomspace(10.5, 1000.0, 60).tolist()
    geom = InterfaceGeometry(upper=GAAS, lower=Material("metal", n), h=heights[0],
                             lambda0=PAPER_LAMBDA0_NM)
    margins = []
    for point in interface_sweep(geom, heights, MOMENTS):
        lad = point.ladder
        margins.append(_margin(lad.gamma0, lad.gamma1, lad.gamma2 + _homogeneous_gamma2(point.k1)))
    assert min(margins) >= MIN_MARGIN, (n, heights[int(np.argmin(margins))], min(margins))


def test_printed_ladder_alone_is_not_passive():
    # without the homogeneous term the oracle fails: on silver at
    # h = 117.2 nm the scattered gamma2 is negative
    point = interface_point(paper_interface(117.2), MOMENTS)
    lad = point.ladder
    assert lad.gamma2 < 0.0 and _margin(lad.gamma0, lad.gamma1, lad.gamma2) < 0.0
    assert _margin(lad.gamma0, lad.gamma1, lad.gamma2 + _homogeneous_gamma2(point.k1)) > 0.0


@pytest.mark.filterwarnings("ignore:wire background at d=:RuntimeWarning")
@pytest.mark.parametrize("orientation", [AXIAL, RADIAL])
def test_wire_ladder_is_passive(orientation):
    # gamma0 takes the background, whose 1 is the homogeneous rate
    wire = paper_wire()
    extra = _homogeneous_gamma2(wire.k_host)
    margins = []
    for d in np.arange(10.0, 300.0, 5.0).tolist():
        lad = plasmon_rates(wire, d, MOMENTS, orientation)
        bg = quasistatic_background(wire, d, orientation)
        margins.append(_margin(bg + lad.gamma0, lad.gamma1, lad.gamma2 + extra))
    assert len(margins) == 58
    assert min(margins) >= MIN_MARGIN, (orientation, min(margins))
