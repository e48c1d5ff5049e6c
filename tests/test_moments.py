"""Parity selection rules and envelope-overlap moment estimates."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesoqed.errors import ParameterError
from mesoqed.moments import (
    LENS_SHAPED_TABLE,
    GaussianEnvelopes,
    OmegaCheck,
    ParityTable,
    allowed_moments,
    lambda_zx_estimate,
    lambda_zx_significance,
    omega_negligibility,
)


# ------------------------------------------------------- selection rules


def test_lens_shaped_pattern():
    pattern = allowed_moments(LENS_SHAPED_TABLE)
    assert pattern.allowed_mu_axes() == ("x",)
    assert set(pattern.allowed_lambda_entries()) == {("x", "z"), ("z", "x")}


def test_atom_like_symmetric_envelopes():
    # Fully symmetric envelopes: even everywhere. The dipole along x
    # survives (odd u_g * odd operator * even psi products), every
    # first-moment entry carries one extra odd factor and dies.
    table = ParityTable(
        u_g=(-1, 1, 1), psi_g=(1, 1, 1), u_e=(1, 1, 1), psi_e=(1, 1, 1)
    )
    pattern = allowed_moments(table)
    assert pattern.allowed_mu_axes() == ("x",)
    assert pattern.allowed_lambda_entries() == ()


def test_unknown_parity_blocks_nothing():
    table = ParityTable(
        u_g=(0, 0, 0), psi_g=(0, 0, 0), u_e=(0, 0, 0), psi_e=(0, 0, 0)
    )
    pattern = allowed_moments(table)
    assert pattern.allowed_mu_axes() == ("x", "y", "z")
    assert len(pattern.allowed_lambda_entries()) == 9


def test_y_parity_flip_is_a_symmetry():
    # Flipping the y parity of both envelope factors together cannot
    # change which entries survive: every matrix element contains the
    # product of the two.
    base = LENS_SHAPED_TABLE
    flipped = ParityTable(
        u_g=base.u_g,
        psi_g=(base.psi_g[0], -base.psi_g[1], base.psi_g[2]),
        u_e=base.u_e,
        psi_e=(base.psi_e[0], -base.psi_e[1], base.psi_e[2]),
    )
    a = allowed_moments(base)
    b = allowed_moments(flipped)
    assert a.allowed_mu_axes() == b.allowed_mu_axes()
    assert a.allowed_lambda_entries() == b.allowed_lambda_entries()


def test_parity_table_validation():
    with pytest.raises(ParameterError):
        ParityTable(u_g=(2, 1, 1), psi_g=(1, 1, 1), u_e=(1, 1, 1), psi_e=(1, 1, 1))
    with pytest.raises(ParameterError):
        ParityTable(u_g=(1, 1), psi_g=(1, 1, 1), u_e=(1, 1, 1), psi_e=(1, 1, 1))


def test_full_parity_products():
    t = LENS_SHAPED_TABLE
    assert t.full_g == (-1, 1, 0)
    assert t.full_e == (1, 1, 0)


# ------------------------------------------- envelope-overlap estimates


def test_lambda_zx_estimate_cancels_identically():
    # Both weighting schemes (exciton centroid, electron center of
    # mass) reduce to the same effective coordinate for Gaussian
    # envelopes, so the difference the estimate is built on vanishes.
    env = GaussianEnvelopes(sigma_e=2.0, mass_ratio=5.0, shift=2.5)
    assert abs(lambda_zx_estimate(env)) < 1e-12


@given(
    sigma=st.floats(0.5, 8.0),
    ratio=st.floats(1.0, 20.0),
    shift=st.floats(-10.0, 10.0),
)
def test_lambda_zx_cancellation_is_structural(sigma, ratio, shift):
    env = GaussianEnvelopes(sigma_e=sigma, mass_ratio=ratio, shift=shift)
    est = lambda_zx_estimate(env)
    assert abs(est) < 1e-10 * max(1.0, abs(shift))


def test_lambda_zx_zero_shift_and_equal_masses():
    assert lambda_zx_estimate(GaussianEnvelopes(2.0, 5.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert lambda_zx_estimate(GaussianEnvelopes(2.0, 1.0, 3.0)) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_envelope_properties():
    env = GaussianEnvelopes(sigma_e=2.0, mass_ratio=4.0, shift=1.0)
    assert env.sigma_h == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        GaussianEnvelopes(sigma_e=-1.0, mass_ratio=5.0, shift=0.0)
    with pytest.raises(ParameterError):
        GaussianEnvelopes(sigma_e=2.0, mass_ratio=0.0, shift=0.0)


def test_overlap_guard():
    with pytest.raises(ParameterError):
        lambda_zx_estimate(GaussianEnvelopes(sigma_e=0.5, mass_ratio=2.0, shift=500.0))


def test_widths_that_square_outside_double_range():
    # sigma**2 overflows (every weight 1/sigma**2 is 0) or underflows
    # (the variance sum is 0): a ParameterError, not a ZeroDivisionError
    for sigma_e, mass_ratio in ((1e300, 5.0), (1e-300, 5.0), (1e-160, 1.0), (2.0, 1e-310)):
        with pytest.raises(ParameterError, match="leave double range"):
            lambda_zx_estimate(GaussianEnvelopes(sigma_e, mass_ratio, 2.5))
    # the widest and narrowest widths inside range still give the tie's 0
    for sigma_e in (1e150, 1e-150):
        assert abs(lambda_zx_estimate(GaussianEnvelopes(sigma_e, 5.0, 0.0))) == 0.0


def test_significance_scale():
    k_host = 3.42 * 2.0 * math.pi / 1000.0
    val = lambda_zx_significance(0.1, k_host)
    assert 0.001 <= val <= 0.005
    assert val == pytest.approx(2.0 * k_host * 0.1, rel=1e-15)
    # a 10 nm moment would sit at the design point of the rate ladder
    assert lambda_zx_significance(10.0, k_host) == pytest.approx(0.4297698750110837, rel=1e-12)
    with pytest.raises(ParameterError):
        lambda_zx_significance(-1.0, k_host)
    with pytest.raises(ParameterError):
        lambda_zx_significance(0.1, 0.0)


# ------------------------------------------------- size-parameter check


def test_omega_negligibility_values():
    chk = omega_negligibility(0.3 / 20.0, 20.0)
    assert isinstance(chk, OmegaCheck)
    assert chk.value == pytest.approx(0.09, rel=1e-12)
    assert chk.negligible is True


def test_omega_vacuum_wavevector_case():
    k_vac = 2.0 * math.pi / 1000.0
    chk = omega_negligibility(k_vac, 20.0)
    assert chk.value == pytest.approx(0.015791367041742974, rel=1e-12)
    assert chk.negligible is True


def test_omega_host_wavevector_case():
    k_host = 3.42 * 2.0 * math.pi / 1000.0
    chk = omega_negligibility(k_host, 20.0)
    assert chk.value == pytest.approx(0.1847, rel=1e-3)
    assert chk.negligible is False


def test_omega_threshold():
    big = omega_negligibility(0.02, 20.0)
    assert big.value == pytest.approx(0.16, rel=1e-12)
    assert big.negligible is False
    small = omega_negligibility(0.01, 20.0)
    assert small.value == pytest.approx(0.04, rel=1e-12)
    assert small.negligible is True


@pytest.mark.parametrize("k, l_qd", [
    (0.02, -20.0), (-0.02, 20.0), (0.0, 20.0), (0.02, 0.0),
    (math.nan, 20.0), (0.02, math.inf),
])
def test_omega_refuses_a_wavevector_or_extent_that_is_not_positive(k, l_qd):
    # (k*l_qd)**2 would read a sign flip or a zero as a valid check
    with pytest.raises(ParameterError, match="must be finite and > 0"):
        omega_negligibility(k, l_qd)
