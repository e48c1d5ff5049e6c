"""Cylinder-function wrappers: values, identities, domain guards.

Values are checked two ways: against hand-rolled power series / an
integral representation (oracles module) and through the Wronskian
identities, which the wrapped backend does not enforce by
construction. The J/H1 pair is test-only (tests/companions.py); the
library wraps just the modified pair I/K.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ive, kve

import oracles
from companions import bessel_j, hankel1
from mesoqed import OutOfDomainError, ParameterError
from mesoqed.specfun import bessel_ik, bessel_ik_scaled, bessel_k_scaled


# ---------------------------------------------------------- spot values


@pytest.mark.parametrize("z", [0.7 + 0.3j, 3.0 - 1.2j, 8.0 + 2.0j])
@pytest.mark.parametrize("order", [0, 1])
def test_bessel_j_against_series(order, z):
    ref = oracles.bessel_j_series(order, z)
    got = bessel_j(order, z)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("z", [0.5 + 0.2j, 4.0 + 1.0j, 12.0 - 3.0j])
@pytest.mark.parametrize("order", [0, 1])
def test_bessel_i_against_series(order, z):
    ref = oracles.bessel_i_series(order, z)
    got = bessel_ik(order, z)[0]
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("z", [0.8 + 0.1j, 3.0 + 1.5j, 10.0 - 2.0j])
@pytest.mark.parametrize("order", [0, 1])
def test_bessel_k_against_integral(order, z):
    ref = oracles.bessel_k_integral(order, z)
    got = bessel_ik(order, z)[1]
    assert got == pytest.approx(ref, rel=1e-11)


def test_hankel_real_part_is_j_on_real_axis():
    # On the positive real axis H1 = J + iY with J, Y both real, so
    # Re H1 must reproduce J exactly. Couples the two wrappers without
    # needing a separate Y binding.
    for x in (0.6, 3.4, 12.0, 27.5):
        for order in (0, 1):
            assert complex(hankel1(order, x)).real == pytest.approx(
                complex(bessel_j(order, x)).real, rel=1e-12, abs=1e-15
            )
            assert abs(complex(bessel_j(order, x)).imag) < 1e-15


# ----------------------------------------------------------- Wronskians


def _jh_points(n=1000):
    rng = np.random.default_rng(20260816)
    mag = np.exp(rng.uniform(np.log(0.1), np.log(30.0), n))
    arg = rng.uniform(0.0, np.pi, n)
    return mag * np.exp(1j * arg)


def test_wronskian_j_hankel():
    # With J0' = -J1 and H0' = -H1 the cross product reduces to
    # J1 H0 - J0 H1 = +2i / (pi z); checked over the upper half plane
    # where the outgoing-wave guard admits arguments.
    worst = 0.0
    for z in _jh_points():
        z = complex(z)
        w = bessel_j(1, z) * hankel1(0, z) - bessel_j(0, z) * hankel1(1, z)
        target = 2j / (math.pi * z)
        worst = max(worst, abs(w - target) / abs(target))
    assert worst < 1e-9


def test_wronskian_i_k():
    # I0 K1 + I1 K0 = 1/z over the right half plane.
    rng = np.random.default_rng(77)
    mag = np.exp(rng.uniform(np.log(0.1), np.log(300.0), 1000))
    arg = rng.uniform(-0.98 * np.pi / 2, 0.98 * np.pi / 2, 1000)
    zs = mag * np.exp(1j * arg)
    zs = zs[np.abs(zs.real) < 600]
    worst = 0.0
    for z in zs:
        z = complex(z)
        i0, k0 = bessel_ik(0, z)
        i1, k1 = bessel_ik(1, z)
        worst = max(worst, abs(i0 * k1 + i1 * k0 - 1.0 / z) * abs(z))
    assert worst < 1e-9


def test_scaled_pair_consistent_with_plain():
    for z in (0.5 + 0.1j, 30.0 + 4.0j, 200.0 - 15.0j):
        for order in (0, 1):
            i_plain, k_plain = bessel_ik(order, z)
            i_scaled, k_scaled = bessel_ik_scaled(order, z)
            assert i_scaled == pytest.approx(
                i_plain * math.exp(-abs(z.real)), rel=1e-12
            )
            assert k_scaled == pytest.approx(k_plain * np.exp(z), rel=1e-12)


def test_scaled_pair_takes_order_arrays():
    orders = np.array([0, 1, 2, 7, 30, 59])
    zs = np.array([0.3, 2.0 + 1.0j, 15.0, 40.0 - 3.0j, 7.5, 120.0 + 0.5j])
    i_arr, k_arr = bessel_ik_scaled(orders, zs)
    for order, z, i_val, k_val in zip(orders, zs, i_arr, k_arr):
        assert (i_val, k_val) == bessel_ik_scaled(int(order), complex(z))
    # a column of orders broadcasts against a row of arguments
    i_grid, k_grid = bessel_ik_scaled(orders[:, None], zs[None, :])
    assert i_grid.shape == k_grid.shape == (orders.size, zs.size)
    for r, order in enumerate(orders):
        assert np.array_equal(i_grid[r], bessel_ik_scaled(int(order), zs)[0])
        assert np.array_equal(k_grid[r], bessel_ik_scaled(int(order), zs)[1])


def test_scaled_pair_survives_huge_arguments():
    # The plain pair overflows here; the scaled pair must not.
    i_s, k_s = bessel_ik_scaled(0, 5000.0 + 100.0j)
    assert np.isfinite(i_s) and np.isfinite(k_s)
    assert abs(i_s) > 0.0 and abs(k_s) > 0.0
    # asymptotically both scaled moduli approach sqrt(1/(2 pi z)) forms
    assert abs(i_s) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 5000.0), rel=1e-2)


# --------------------------------------------------------- domain guards


def test_order_validation():
    for fn in (lambda o: bessel_j(o, 1.0), lambda o: hankel1(o, 1.0),
               lambda o: bessel_ik(o, 1.0), lambda o: bessel_ik_scaled(o, 1.0),
               lambda o: bessel_k_scaled(o, 1.0)):
        with pytest.raises(ParameterError):
            fn(-1)
        with pytest.raises(ParameterError):
            fn(1.5)
    for bad in ([-1], [1.5], np.array([0, 2, -3]), np.array([1.0, 2.0])):
        for fn in (bessel_ik_scaled, bessel_k_scaled):
            with pytest.raises(ParameterError):
                fn(bad, np.ones(len(bad)))


def test_bessel_j_rejects_huge_imaginary_part():
    with pytest.raises(OutOfDomainError):
        bessel_j(0, 1.0 + 800.0j)
    with pytest.raises(OutOfDomainError):
        bessel_j(0, 1.0 - 800.0j)
    bessel_j(0, 1.0 + 600.0j)


def test_hankel_rejects_deep_lower_half_plane():
    with pytest.raises(OutOfDomainError):
        hankel1(0, 1.0 - 800.0j)
    with pytest.raises(OutOfDomainError):
        hankel1(0, 0.0)
    hankel1(0, 1.0 - 10.0j)


def test_bessel_ik_domain():
    with pytest.raises(OutOfDomainError):
        bessel_ik(0, -1.0 + 0.5j)
    with pytest.raises(OutOfDomainError):
        bessel_ik(0, 800.0)
    bessel_ik(0, 600.0)
    i_s, k_s = bessel_ik_scaled(0, 800.0)
    assert np.isfinite(i_s) and np.isfinite(k_s)
    for fn in (bessel_ik_scaled, bessel_k_scaled):
        for z in (-2.0, 0.0, 3.0j, np.array([1.0, -0.5 + 1.0j])):
            with pytest.raises(OutOfDomainError):
                fn(0, z)


@given(
    mag=st.floats(0.2, 50.0),
    phase=st.floats(-1.4, 1.4),
)
def test_i_k_product_positive_real_axis_behavior(mag, phase):
    # I_0 K_0 is analytic and nonzero on the right half plane; its
    # product times z stays bounded (between the small- and large-z
    # asymptotes) over the sampled domain.
    z = complex(mag * math.cos(phase), mag * math.sin(phase))
    i0, k0 = bessel_ik(0, z)
    prod = i0 * k0
    assert np.isfinite(prod)
    assert abs(prod) > 0.0


# ------------------------------------------------- K alone, derivatives


def test_k_scaled_is_the_k_half_of_the_pair():
    for z in (0.3, 2.0 + 1.0j, 40.0 - 3.0j, 800.0):
        for order in (0, 1, 7, 59):
            got = bessel_k_scaled(order, z)
            assert isinstance(got, complex)
            assert got == bessel_ik_scaled(order, z)[1]
    orders = np.array([0, 1, 2, 7, 30, 59])
    zs = np.array([0.3, 2.0 + 1.0j, 15.0, 40.0 - 3.0j, 7.5, 120.0 + 0.5j])
    assert np.array_equal(bessel_k_scaled(3, zs), bessel_ik_scaled(3, zs)[1])
    assert np.array_equal(bessel_k_scaled(orders, zs), bessel_ik_scaled(orders, zs)[1])
    grid = bessel_k_scaled(np.stack((orders, orders + 1)), zs)
    assert grid.shape == (2, zs.size)
    assert np.array_equal(grid, bessel_ik_scaled(np.stack((orders, orders + 1)), zs)[1])


def test_derivative_identities_match_the_two_sided_recurrence():
    # I'_m = I_{m-1} - (m/x) I_m and K'_m = -K_{m-1} - (m/x) K_m against
    # the symmetric forms (I_{m-1} + I_{m+1})/2 and -(K_{m-1} + K_{m+1})/2,
    # scaled functions, wherever every value is a normal double. K adds
    # terms of one sign. I subtracts terms that stand at most 2:1, and the
    # backend's own I_m is off by up to about 1.6e-13 at orders near 80
    # and x near 0.03 (against mpmath), so the I bound is 3e-13.
    m = np.arange(81)[:, None]
    x = np.geomspace(1e-3, 600.0, 401)[None, :]
    below, above = np.abs(m - 1), m + 1
    with np.errstate(all="ignore"):
        i_m, i_lo, i_hi = ive(m, x), ive(below, x), ive(above, x)
        k_m, k_lo, k_hi = kve(m, x), kve(below, x), kve(above, x)
        pairs = ((i_lo - (m / x) * i_m, 0.5 * (i_lo + i_hi), (i_m, i_lo, i_hi), 3e-13),
                 (-k_lo - (m / x) * k_m, -0.5 * (k_lo + k_hi), (k_m, k_lo, k_hi), 1e-14))
    for got, ref, parts, bound in pairs:
        ok = np.all([np.isfinite(p) & (np.abs(p) > 1e-280) & (np.abs(p) < 1e280)
                     for p in parts], axis=0)
        assert ok.sum() > 0.8 * ok.size
        rel = np.abs(got[ok] - ref[ok]) / np.abs(ref[ok])
        assert rel.max() < bound


@pytest.mark.parametrize("m, x", [(0, 1e-3), (1, 0.5), (5, 1e-3), (30, 2.0), (30, 600.0),
                                  (66, 0.0206), (78, 0.0278)])
def test_i_derivative_identity_against_mpmath(m, x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        exact = 0.5 * (mp.besseli(abs(m - 1), x) + mp.besseli(m + 1, x)) * mp.exp(-x)
        i_m, i_lo = ive(m, x), ive(abs(m - 1), x)
        assert abs((i_lo - (m / x) * i_m - exact) / exact) < 3e-13
