"""Length-scale invariance: the rates are dimensionless.

Scaling every length together (the wavelength, the wire radius, the
emitter's distance or height, L_qd and lambda/mu) by a power of two
scales every intermediate quantity exactly, so every printed rung and
background keeps its bits. A factor of 3 rounds, and moves some
values through different quadrature decisions; it is not tested.
"""

import warnings

import pytest

from mesoqed.core import (GAAS, PAPER_L_QD_NM, PAPER_LAMBDA0_NM, PAPER_RATIO_NM,
                          PAPER_WIRE_RADIUS_NM, SILVER, EmitterMoments)
from mesoqed.halfspace import InterfaceGeometry, interface_point
from mesoqed.nanowire import AXIAL, RADIAL, WireGeometry, plasmon_rates, quasistatic_background

SCALES = (2.0, 0.5)


def moments(scale: float) -> EmitterMoments:
    return EmitterMoments(lambda_over_mu=PAPER_RATIO_NM * scale, l_qd=PAPER_L_QD_NM * scale)


def hexes(*values) -> list:
    return [float(v).hex() for v in values]


def wire_values(scale: float, d: float, orientation: str) -> list:
    geom = WireGeometry(rho=PAPER_WIRE_RADIUS_NM * scale, metal=SILVER, host=GAAS,
                        lambda0=PAPER_LAMBDA0_NM * scale)
    ladder = plasmon_rates(geom, d * scale, moments(scale), orientation)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        background = quasistatic_background(geom, d * scale, orientation)
    # a warning names d in nm; what follows it must not move
    said = [str(w.message).split(": ", 1)[1] for w in caught]
    return hexes(ladder.gamma0, ladder.gamma1, ladder.gamma2, background) + said


def interface_values(scale: float, h: float) -> list:
    geom = InterfaceGeometry(upper=GAAS, lower=SILVER, h=h * scale,
                             lambda0=PAPER_LAMBDA0_NM * scale)
    ladder = interface_point(geom, moments(scale)).ladder
    return hexes(ladder.gamma0, ladder.gamma1, ladder.gamma2)


@pytest.mark.parametrize("orientation", [AXIAL, RADIAL])
@pytest.mark.parametrize("d", [15.0, 20.0, 55.5, 155.0])
def test_wire_rungs_and_background_keep_their_bits(d, orientation):
    want = wire_values(1.0, d, orientation)
    for scale in SCALES:
        assert wire_values(scale, d, orientation) == want, scale


@pytest.mark.parametrize("h", [20.0, 100.0, 317.3, 884.8])
def test_interface_rungs_keep_their_bits(h):
    want = interface_values(1.0, h)
    for scale in SCALES:
        assert interface_values(scale, h) == want, scale
