"""Cylinder-function wrappers: values, identities, domain guards.

Values are checked two ways: against hand-rolled power series / an
integral representation (oracles module) and through the Wronskian
identities, which the wrapped backend does not enforce by
construction. The J/H1 pair is test-only (tests/companions.py); the
library wraps just the modified pair I/K.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import i1e, iv, ive, k0e, k1e, kve

import oracles
from companions import bessel_j, hankel1
from mesoqed.errors import OutOfDomainError, ParameterError
from mesoqed.specfun import (_background_node, bessel_i, bessel_ik, bessel_ik_scaled, bessel_k,
                             bessel_k_scaled)


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
               lambda o: bessel_k(o, 1.0), lambda o: bessel_k_scaled(o, 1.0)):
        with pytest.raises(ParameterError):
            fn(-1)
        with pytest.raises(ParameterError):
            fn(1.5)
    for bad in ([-1], [1.5], np.array([0, 2, -3]), np.array([[2], [-3]], dtype=np.int32),
                np.array([1.0, 2.0]), [True], np.array([False])):
        for fn in (bessel_ik_scaled, bessel_k_scaled):
            with pytest.raises(ParameterError):
                fn(bad, np.ones(len(bad)))
    # bool is an int to isinstance, but True is no order 1 (nor False 0)
    for fn in (bessel_ik, bessel_ik_scaled, bessel_k, bessel_k_scaled):
        for bad in (True, False, np.True_):
            with pytest.raises(ParameterError, match="order must be a non-negative integer"):
                fn(bad, 1.0)
    for fn in (bessel_j, hankel1):
        for bad in (True, False, np.True_):
            with pytest.raises(ParameterError, match="order must be 0 or 1"):
                fn(bad, 1.0)


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
    for fn in (bessel_ik_scaled, bessel_k, bessel_k_scaled):
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


def test_k_is_the_k_half_of_the_plain_pair():
    for z in (0.3, 2.0 + 1.0j, 40.0 - 3.0j, 600.0):
        for order in (0, 1, 7):
            got = bessel_k(order, z)
            assert isinstance(got, complex)
            assert got == bessel_ik(order, z)[1]
    zs = np.array([0.3, 2.0 + 1.0j, 15.0, 40.0 - 3.0j])
    assert np.array_equal(bessel_k(1, zs), bessel_ik(1, zs)[1])
    # past the pair's I overflow, K alone goes on and underflows to 0
    assert bessel_k(0, 700.0) == pytest.approx(bessel_k_scaled(0, 700.0) * math.exp(-700.0),
                                               rel=1e-12)
    assert bessel_k(1, 800.0 + 5.0j) == 0.0


def test_i_is_the_i_half_of_the_plain_pair():
    for z in (0.3, 2.0 + 1.0j, 40.0 - 3.0j, 600.0):
        for order in (0, 1, 7):
            got = bessel_i(order, z)
            assert isinstance(got, complex)
            assert got == iv(order, complex(z)) == bessel_ik(order, z)[0]
    orders = np.array([[0], [1]])
    zs = np.array([0.3, 2.0 + 1.0j, 15.0, 40.0 - 3.0j])
    assert np.array_equal(bessel_i(orders, zs), iv(orders, zs.astype(complex)))
    # near z = 0, K_1 overflows and the pair raises, but I alone is finite
    with pytest.raises(OutOfDomainError, match="bessel_k"):
        bessel_ik(1, 1e-309)
    assert bessel_i(0, 1e-309) == 1.0 and bessel_i(1, 1e-309).real < 1e-308
    for z in (-2.0, 0.0, 3.0j, 800.0):
        with pytest.raises(OutOfDomainError, match="bessel_i"):
            bessel_i(0, z)
    for bad in (-1, 1.5, True):
        with pytest.raises(ParameterError):
            bessel_i(bad, 1.0)


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


# ------------------------------------ the wire background's real values


def _node(m, x, y=None):
    """_background_node on fresh arrays, with y = x unless given."""
    m, x = np.array(m, dtype=np.int64, ndmin=1), np.array(x, dtype=float, ndmin=1)
    return _background_node(m, x, x.copy() if y is None else np.array(y, dtype=float, ndmin=1))


def test_k_ladder_matches_kve():
    # wherever kve keeps K_m and K_|m-1| finite, orders 0-250 and real z
    # from 1e-3 to 1200. Up to order 30 the two agree to about 1.1e-14;
    # above, kve (AMOS) is itself off by up to 2.2e-13 against mpmath
    # (order 165 at z = 1.79, say) while the ladder stays within 3e-15
    # (test_k_ladder_against_mpmath), so the bound there is 3e-13.
    m = np.arange(251)[:, None]
    z = np.geomspace(1e-3, 1200.0, 300)[None, :]
    with np.errstate(over="ignore"):
        k_m, k_l = kve(m, z), kve(np.abs(m - 1), z)
    ok = np.isfinite(k_m) & np.isfinite(k_l)
    assert ok.sum() > 0.6 * ok.size
    orders, zs = np.broadcast_to(m, ok.shape)[ok], np.broadcast_to(z, ok.shape)[ok]
    _, got_m, got_l, got_ym, got_yl, _ = _background_node(orders, zs, zs.copy())
    # a node's K at y has the bits of the same node's K at x
    assert np.array_equal(got_ym, got_m) and np.array_equal(got_yl, got_l)
    rel = np.maximum(np.abs(got_m / k_m[ok] - 1.0), np.abs(got_l / k_l[ok] - 1.0))
    assert rel[orders <= 30].max() < 2e-14
    assert rel.max() < 3e-13


@pytest.mark.parametrize("m, z", [(0, 1e-3), (1, 0.5), (7, 2.0), (30, 1e-3), (142, 1.97),
                                  (165, 1.79), (245, 32.6), (250, 1200.0)])
def test_k_ladder_against_mpmath(m, z):
    mp = pytest.importorskip("mpmath")
    _, got_m, got_l, got_ym, got_yl, _ = _node(m, z, 2.0 * z)
    with mp.workdps(40):
        for got, order, at in ((got_m, m, z), (got_l, abs(m - 1), z),
                               (got_ym, m, 2.0 * z), (got_yl, abs(m - 1), 2.0 * z)):
            exact = mp.besselk(order, at) * mp.exp(at)
            assert abs((got[0] - exact) / exact) < 1e-14


def test_k_ladder_seeds_and_shapes():
    z = np.array([1e-3, 0.7, 30.0, 1200.0])
    _, k0, k1, *_ = _node(np.zeros(4), z)
    assert np.array_equal(k0, k0e(z)) and np.array_equal(k1, k1e(z))
    _, k1_, k0_, *_ = _node(np.ones(4), z)
    assert np.array_equal(k1_, k1e(z)) and np.array_equal(k0_, k0e(z))
    # orders 0-3 at every argument: K_2 of the order-2 and order-3 nodes
    # agree, and so do K_1 of the orders 1 and 2
    _, grid_m, grid_l, *_ = _node(np.repeat(np.arange(4), z.size), np.tile(z, 4))
    grid_m, grid_l = grid_m.reshape(4, z.size), grid_l.reshape(4, z.size)
    assert np.array_equal(grid_m[2], grid_l[3])
    assert np.array_equal(grid_m[1], k1) and np.array_equal(grid_l[2], k1)


def test_k_ladder_node_does_not_depend_on_its_batch():
    rng = np.random.default_rng(21)
    orders = rng.integers(0, 61, 400)
    xs = np.exp(rng.uniform(math.log(0.05), math.log(500.0), 400))
    ys = xs * rng.uniform(1.0, 10.0, 400)
    i_m, *ks, i_1 = _background_node(orders, xs, ys)
    zero = orders == 0
    assert i_1.size == np.count_nonzero(zero) > 0
    for i in range(0, 400, 7):
        one = _background_node(orders[i:i + 1], xs[i:i + 1], ys[i:i + 1])
        assert [v[0] for v in one[:5]] == [i_m[i], *(k[i] for k in ks)]
        assert list(one[5]) == ([i_1[np.count_nonzero(zero[:i])]] if zero[i] else [])
    # a batch reordered or cut gives each node the same bits
    perm = rng.permutation(400)
    assert np.array_equal(_background_node(orders[perm], xs[perm], ys[perm])[1], ks[0][perm])
    assert np.array_equal(_background_node(orders[:57], xs[:57], ys[:57])[2], ks[1][:57])


def test_k_ladder_paths_give_per_element_bits():
    # one climb for every batch: nodes that do not climb (orders <= 1)
    # and nodes that do get the bits of a call of their own, and a node's
    # K at y the bits of the same order's K at x = y
    rng = np.random.default_rng(26)
    zs = np.exp(rng.uniform(math.log(0.05), math.log(500.0), 60))
    kept = zs.copy()
    for orders in (rng.integers(0, 2, 60), rng.integers(0, 31, 60)):
        kept_orders = orders.copy()
        got = _background_node(orders, zs, 2.0 * zs)
        at_y = _background_node(orders, 2.0 * zs, zs)
        assert np.array_equal(got[3], at_y[1]) and np.array_equal(got[4], at_y[2])
        for i in range(60):
            want = _node(orders[i], zs[i], 2.0 * zs[i])
            assert [v[i] for v in got[:5]] == [v[0] for v in want[:5]]
        assert np.array_equal(orders, kept_orders)
    low = rng.integers(0, 2, 60)
    _, k_m, k_l, *_ = _background_node(low, zs, zs)
    assert np.array_equal(k_m, np.where(low == 0, k0e(zs), k1e(zs)))
    assert np.array_equal(k_l, np.where(low == 0, k1e(zs), k0e(zs)))
    column = np.array([0, 1, 5, 30])
    _, grid_m, grid_l, *_ = _background_node(np.repeat(column, 60), np.tile(zs, 4),
                                             np.tile(zs, 4))
    for i, m in enumerate(column):
        _, row_m, row_l, *_ = _node(np.full(60, m), zs)
        assert np.array_equal(grid_m[60 * i:60 * (i + 1)], row_m)
        assert np.array_equal(grid_l[60 * i:60 * (i + 1)], row_l)
    # the routine writes to neither argument
    assert np.array_equal(zs, kept)


@pytest.mark.parametrize("times", [1, 300])
def test_k_ladder_overflow_raises_without_warning(times):
    # each overflow case, alone and repeated into a batch of 300 or 600 nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, x, y in (([250], [1e-3], [1.0]), ([3, 250], [1.0, 1e-3], [2.0, 2.0]),
                        ([250], [1200.0], [1e-3])):
            with pytest.raises(OutOfDomainError, match="double range"):
                _node(m * times, x * times, y * times)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
def test_forked_child_gets_the_parents_bits():
    # the background starts no thread, so a forked child computes a
    # 2000-node batch on its own and gets the parent's bits
    rng = np.random.default_rng(34)
    m = rng.integers(0, 31, 2000)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(100.0), 2000))
    want = [v.tobytes() for v in _background_node(m, x, 2.0 * x)]
    with warnings.catch_warnings():
        # Python 3.12 warns if the test process holds threads of its own
        warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if [v.tobytes() for v in _background_node(m, x, 2.0 * x)] == want else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not done[0]:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the forked child hung"
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_i1_scaled_is_the_order_one_i():
    z = np.geomspace(1e-4, 1200.0, 200)
    got = _node(np.zeros(200), z)[5]
    assert np.array_equal(got, i1e(z))
    assert np.abs(got / ive(1, z) - 1.0).max() < 1e-14
    # only the order-0 nodes take I_1
    orders = np.arange(200) % 3
    assert np.array_equal(_node(orders, z)[5], i1e(z[orders == 0]))


def test_real_i_scaled_is_the_real_half_of_the_pair():
    # the real-argument ive has the bits of the complex one's I, which is
    # real on the positive axis, at orders 0-60 and z from 1e-4 to 1200
    # wherever kve keeps K_m and K_|m-1| in double range (the call also
    # climbs K, and raises where K leaves it)
    rng = np.random.default_rng(22)
    m = rng.integers(0, 61, 4000)
    z = np.exp(rng.uniform(math.log(1e-4), math.log(1200.0), 4000))
    with np.errstate(over="ignore"):
        ok = np.isfinite(kve(m, z)) & np.isfinite(kve(np.abs(m - 1), z))
    assert ok.sum() > 0.99 * ok.size
    got = _background_node(m[ok], z[ok], z[ok])[0]
    assert got.dtype == np.float64
    assert np.array_equal(got, ive(m[ok], z[ok].astype(complex)).real)
