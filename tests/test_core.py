"""Materials, emitter moments, and the scalar figures of merit."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesoqed import (
    GAAS,
    SILVER,
    EmitterMoments,
    InterfaceGeometry,
    Material,
    ParameterError,
    WireGeometry,
    figures_of_merit,
    homogeneous_im_gxx,
    paper_moments,
    wavevector,
)
from mesoqed.core import check_host


def test_reference_materials():
    assert GAAS.n == pytest.approx(3.42)
    assert SILVER.n == pytest.approx(0.2 + 7.0j)
    assert GAAS.eps == pytest.approx(3.42**2)
    assert SILVER.eps == pytest.approx((0.2 + 7.0j) ** 2)


def test_material_validation():
    with pytest.raises(ParameterError):
        Material("gain", 1.0 - 0.5j)
    with pytest.raises(ParameterError):
        Material("nan", complex(float("nan"), 0.0))
    Material("lossless", 2.0)
    Material("lossy", 0.1 + 3.0j)


def test_wavevector_host():
    k1 = wavevector(GAAS, 1000.0)
    assert k1 == pytest.approx(3.42 * 2.0 * math.pi / 1000.0, rel=1e-15)
    with pytest.raises(ParameterError):
        wavevector(GAAS, 0.0)
    with pytest.raises(ParameterError):
        wavevector(GAAS, -5.0)


def test_homogeneous_im_gxx_value():
    # Im G_xx in a uniform medium is n k0 / (6 pi); this constant sets
    # the normalization of every rate in the package. For n = 3.42 and
    # lambda0 = 1000 nm it reduces to exactly 3.42 / 3000.
    val = homogeneous_im_gxx(GAAS, 1000.0)
    assert val == pytest.approx(0.00114, rel=1e-12)
    with pytest.raises(ParameterError):
        homogeneous_im_gxx(SILVER, 1000.0)


@pytest.mark.parametrize("n", [3.42 + 0.1j, 0.0, -3.42])
def test_every_host_needs_a_real_positive_index(n):
    # one check serves the normalization and both geometries
    host = Material("host", n)
    with pytest.raises(ParameterError, match="Re n > 0"):
        check_host(host)
    with pytest.raises(ParameterError, match="Re n > 0"):
        homogeneous_im_gxx(host, 1000.0)
    with pytest.raises(ParameterError, match="Re n > 0"):
        InterfaceGeometry(upper=host, lower=SILVER, h=20.0, lambda0=1000.0)
    with pytest.raises(ParameterError, match="Re n > 0"):
        WireGeometry(rho=30.0, metal=SILVER, host=host, lambda0=1000.0)


def test_emitter_moments_flip():
    # the sign of the ratio is the mounting: flipping negates it exactly
    m = EmitterMoments(lambda_over_mu=10.0, l_qd=20.0)
    f = m.flipped()
    assert f.lambda_over_mu == -10.0
    assert f.l_qd == 20.0
    assert f.flipped() == m


def test_paper_moments_defaults():
    m = paper_moments()
    assert m.lambda_over_mu == pytest.approx(10.0)
    assert m.l_qd == pytest.approx(20.0)
    assert paper_moments().flipped().lambda_over_mu == pytest.approx(-10.0)


def test_figures_of_merit_scalars():
    k = wavevector(GAAS, 1000.0).real
    fom = figures_of_merit(k, paper_moments())
    # 2 k |ratio| and (k |ratio|)^2 for k = 3.42 k0, ratio 10 nm
    assert fom.g1 == pytest.approx(2.0 * k * 10.0, rel=1e-15)
    assert fom.g2 == pytest.approx((k * 10.0) ** 2, rel=1e-15)
    assert 0.42 <= fom.g1 <= 0.44
    assert 0.044 <= fom.g2 <= 0.050


@given(ratio=st.floats(-50.0, 50.0, allow_nan=False))
def test_figures_of_merit_use_magnitude(ratio):
    k = wavevector(GAAS, 1000.0).real
    m = EmitterMoments(lambda_over_mu=ratio)
    fom = figures_of_merit(k, m)
    assert fom.g1 == pytest.approx(2.0 * k * abs(ratio), abs=1e-18)
    assert fom.g2 >= 0.0


def test_figures_of_merit_validation():
    with pytest.raises(ParameterError):
        figures_of_merit(0.0, paper_moments())
    with pytest.raises(ParameterError):
        figures_of_merit(-1.0, paper_moments())


def test_emitter_moments_validation():
    with pytest.raises(ParameterError):
        EmitterMoments(lambda_over_mu=float("inf"))
    with pytest.raises(ParameterError):
        EmitterMoments(lambda_over_mu=1.0, l_qd=-3.0)
