"""Planar-interface engine against classical results and frozen values.

Cross-checks are layered: closed forms (normal-incidence reflection,
surface-mode pole, image dipole, electrostatic limits), an independent
real-axis angular-spectrum quadrature of the dipole rate, finite
differences of companion integrals against in-integrand derivatives,
and snapshot values for regression locking.
"""

import math
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad_vec as scipy_quad_vec

import oracles
from companions import fresnel, gxx_vertical_offset, gzx_lateral
from mesoqed import halfspace
from mesoqed.core import GAAS, SILVER, EmitterMoments, Material, paper_moments
from mesoqed.errors import (ConvergenceError, ExpansionInvalidError, NoBoundModeError,
                            ParameterError)
from mesoqed.halfspace import InterfaceGeometry, interface_point, paper_interface, spp_pole
from mesoqed.rates import extract_fields

MOMENTS = paper_moments()


@pytest.fixture(autouse=True)
def cold_tree_memo():
    # every test starts with the tree memos of a fresh process: the
    # integrand calls and nodes of a one-height point depend on them
    for c in halfspace._CONTOURS.values():
        c.trees.clear()


# ------------------------------------------------------ reflection layer


def test_normal_incidence_reflection_magnitude():
    geom = paper_interface(100.0)
    rs, rp = fresnel(0.0, geom)
    # GaAs against silver at 1000 nm; both polarizations coincide at
    # normal incidence up to sign convention.
    assert abs(rp) == pytest.approx(0.9777244757211124, rel=1e-12)
    assert abs(rs) == pytest.approx(abs(rp), rel=1e-12)


def test_fresnel_matches_inline_formula_off_axis():
    geom = paper_interface(100.0)
    k0 = 2.0 * math.pi / 1000.0
    for kp in (0.3 * k0, 2.0 * k0, (3.9 + 0.03j) * k0):
        rs, rp = fresnel(kp, geom)
        kz1 = np.sqrt(complex(GAAS.eps * k0 * k0 - kp * kp))
        if kz1.imag < 0:
            kz1 = -kz1
        kz2 = np.sqrt(complex((0.2 + 7.0j) ** 2 * k0 * k0 - kp * kp))
        if kz2.imag < 0:
            kz2 = -kz2
        assert rs == pytest.approx((kz1 - kz2) / (kz1 + kz2), rel=1e-13)
        eps2 = (0.2 + 7.0j) ** 2
        assert rp == pytest.approx(
            (eps2 * kz1 - GAAS.eps * kz2) / (eps2 * kz1 + GAAS.eps * kz2), rel=1e-13
        )


def test_surface_mode_pole():
    geom = paper_interface(100.0)
    pole = spp_pole(geom)
    assert pole == pytest.approx(
        oracles.surface_mode_pole(1000.0, 3.42, 0.2 + 7.0j), rel=1e-14
    )
    assert pole == pytest.approx(0.024615585483861193 + 0.00021997192032532253j, rel=1e-12)
    # the pole really is a pole of the implemented r_p
    _, rp_near = fresnel(pole * (1.0 + 1.0e-6), geom)
    assert abs(rp_near) > 1.0e4


def test_no_bound_mode_for_dielectric_lower_half():
    glass = Material("glass", 1.5)
    geom = InterfaceGeometry(upper=GAAS, lower=glass, h=100.0, lambda0=1000.0)
    with pytest.raises(NoBoundModeError):
        spp_pole(geom)


def test_no_bound_mode_next_to_the_surface_resonance():
    # eps2 = -3.42000001**2 is within 1e-6 of -eps1: Re(eps1 + eps2) < 0,
    # but the closed-form pole diverges there
    geom = InterfaceGeometry(upper=GAAS, lower=Material("m", 3.42000001j), h=100.0,
                             lambda0=1000.0)
    with pytest.raises(NoBoundModeError, match="surface-mode resonance"):
        spp_pole(geom)


def test_pole_that_rounds_below_the_axis_is_refused():
    # Im(eps1*eps2/(eps1+eps2)) = Im(eps2)*eps1^2/|eps1+eps2|^2 >= 0 for a
    # passive metal, so only rounding puts the pole below the real axis: for
    # this |n| ~ 8e8 with a small Re n, Im k comes out at -3.2e-28
    metal = Material("m", 0.07099120226225493 + 829672707.1712525j)
    geom = InterfaceGeometry(upper=GAAS, lower=metal, h=100.0, lambda0=1000.0)
    with pytest.raises(NoBoundModeError, match="decays backwards"):
        spp_pole(geom)
    pt = interface_point(geom, MOMENTS)
    assert pt.channels.pl == (0.0, 0.0, 0.0)
    ladder = pt.ladder
    assert all(map(math.isfinite, (ladder.gamma0, ladder.gamma1, ladder.gamma2,
                                   *pt.channels.rad, *pt.channels.ls)))


# ------------------------------------------------- dipole-rate oracle


@pytest.mark.parametrize("h", [40.0, 80.0, 150.0, 300.0, 700.0])
def test_gamma0_against_classical_quadrature(h):
    # Independent real-axis angular-spectrum integral of the parallel
    # dipole rate; the engine integrates a deformed contour. Agreement
    # rules out contour and residue bookkeeping errors.
    ref = oracles.parallel_dipole_rate(h, 1000.0, 3.42, 0.2 + 7.0j)
    got = interface_point(paper_interface(h), MOMENTS).ladder.gamma0
    assert got == pytest.approx(ref, rel=1e-10)


def test_mirror_limit_against_image_dipole():
    # A huge imaginary index is a numerical mirror; the closed-form
    # image-dipole rate then pins all the oscillatory structure.
    k1 = 3.42 * 2.0 * math.pi / 1000.0
    mirror = Material("mirror", 1.0e4j)
    for h in np.geomspace(30.0, 2000.0, 8):
        geom = InterfaceGeometry(upper=GAAS, lower=mirror, h=float(h), lambda0=1000.0)
        got = interface_point(geom, MOMENTS).ladder.gamma0
        assert got == pytest.approx(oracles.mirror_image_rate(float(h), k1), rel=5e-3)


def _mirror_deviations(n: complex) -> np.ndarray:
    # relative distance of every scattered entry, rung and half of the
    # split from its image form, height by height
    k1 = 3.42 * 2.0 * math.pi / 1000.0
    out = []
    for h in (12.0, 30.0, 100.0, 400.0, 1500.0):
        geom = InterfaceGeometry(upper=GAAS, lower=Material("mirror", n), h=h, lambda0=1000.0)
        pt = interface_point(geom, MOMENTS, rel_tol=1e-10)
        b = pt.bundle
        got = (b.g_xx - pt.norm, b.d_g_zx, b.dd_g_zz, b.dz_g_xx, pt.ladder.gamma0,
               pt.ladder.gamma1, pt.ladder.gamma2, pt.split.gamma1_md, pt.split.gamma1_eq)
        bundle = oracles.mirror_bundle(h, k1)
        want = (*bundle, *oracles.mirror_rates(bundle, k1, MOMENTS.lambda_over_mu))
        out += [abs(g - w) / abs(w) for g, w in zip(got, want)]
    return np.array(out)


def test_every_rung_and_the_split_approach_the_image_mirror():
    # a metal of index n is a perfect mirror up to terms of order 1/|n|:
    # each deviation is below 1e3/|n| at n = 1e6j and grows a hundredfold
    # at 1e4j, so what is left is the finite index, not the quadrature
    near = _mirror_deviations(1.0e6j)
    far = _mirror_deviations(1.0e4j)
    assert near.max() < 1.0e3 / 1.0e6
    assert far / near == pytest.approx(np.full(near.size, 100.0), rel=0.05)


def test_quasi_static_gradient_limit():
    # At h far below the wavelength the lateral gradient entry
    # approaches the electrostatic image result; a dot of L_qd = 5 nm
    # admits h = 3 nm (L_qd < 2h)
    h = 3.0
    bundle = interface_point(paper_interface(h), EmitterMoments(0.0, l_qd=5.0)).bundle
    ref = oracles.quasistatic_gzx_gradient(h, 1000.0, 3.42, 0.2 + 7.0j)
    assert bundle.d_g_zx / ref == pytest.approx(1.0, abs=0.05)


def test_lossy_surface_channel_is_small_at_working_heights():
    pt = interface_point(paper_interface(200.0), MOMENTS)
    ls_total = sum(pt.channels.ls)
    assert abs(ls_total) / abs(pt.ladder.total) < 0.05


# ------------------------------------------------ derivative consistency


@pytest.mark.parametrize("h", [30.0, 60.0, 100.0, 200.0, 500.0])
def test_gradients_against_finite_differences(h):
    geom = paper_interface(h)
    bundle = interface_point(geom, MOMENTS).bundle
    step = 0.01

    fd_zx = (gzx_lateral(geom, step) - gzx_lateral(geom, -step)) / (2.0 * step)
    assert fd_zx.imag == pytest.approx(bundle.d_g_zx, rel=1e-4)

    fd_z = (gxx_vertical_offset(geom, step) - gxx_vertical_offset(geom, -step)) / (2.0 * step)
    assert fd_z.imag == pytest.approx(bundle.dz_g_xx, rel=1e-4)


def test_bundle_gradient_combinations_reassemble():
    bundle = interface_point(paper_interface(100.0), MOMENTS).bundle
    assert bundle.b_yx + bundle.q_xz == pytest.approx(2.0 * bundle.d_g_zx, rel=1e-12)


# ------------------------------------------------------- snapshot values


def test_height_100_snapshot():
    pt = interface_point(paper_interface(100.0), MOMENTS)
    assert pt.bundle.g_xx == pytest.approx(0.0014225658418440825, rel=1e-12)
    assert pt.bundle.d_g_zx == pytest.approx(-1.589447872988088e-06, rel=1e-12)
    assert pt.bundle.dd_g_zz == pytest.approx(4.28681692964795e-08, rel=1e-12)
    assert pt.ladder.gamma0 == pytest.approx(1.2478647735474409, rel=1e-12)
    assert pt.ladder.gamma1 == pytest.approx(-0.027885050403299787, rel=1e-12)
    assert pt.ladder.gamma2 == pytest.approx(0.0037603657277613597, rel=1e-12)
    assert pt.norm == pytest.approx(0.00114, rel=1e-12)
    assert sum(pt.channels.rad) == pytest.approx(1.20455438808, rel=1e-9)
    assert sum(pt.channels.pl) == pytest.approx(0.0388624260599, rel=1e-9)
    assert sum(pt.channels.ls) == pytest.approx(-0.0196767252705, rel=1e-9)


def test_channel_partition_matches_ladder():
    for h in (50.0, 100.0, 200.0, 400.0):
        pt = interface_point(paper_interface(h), MOMENTS)
        rungs = (pt.ladder.gamma0, pt.ladder.gamma1, pt.ladder.gamma2)
        ch = pt.channels
        for order in range(3):
            assert ch.rad[order] + ch.pl[order] + ch.ls[order] == pytest.approx(
                rungs[order], abs=1e-6, rel=1e-6
            )


def test_flip_identities_at_interface():
    for h in (50.0, 146.0, 400.0):
        up = interface_point(paper_interface(h), MOMENTS).ladder
        down = interface_point(paper_interface(h), MOMENTS.flipped()).ladder
        assert up.total - down.total == pytest.approx(2.0 * up.gamma1, abs=1e-12)
        assert up.total + down.total == pytest.approx(
            2.0 * (up.gamma0 + up.gamma2), abs=1e-12
        )
        ldos, grad = extract_fields(up.total, down.total)
        assert ldos == pytest.approx(up.gamma0 + up.gamma2, abs=1e-12)
        assert grad == pytest.approx(up.gamma1, abs=1e-12)


def test_identical_half_spaces_reduce_to_bulk():
    # reflection coefficients vanish only up to the last ulp (the
    # contour uses analytic kz1 but numeric kz2), so the ladder returns
    # to (1, 0, 0) at the 1e-10 level rather than bitwise
    geom = InterfaceGeometry(upper=GAAS, lower=GAAS, h=100.0, lambda0=1000.0)
    pt = interface_point(geom, MOMENTS)
    norm = pt.norm
    assert abs(pt.bundle.g_xx - norm) < 1e-10 * norm
    assert abs(pt.bundle.d_g_zx) < 1e-10 * norm
    assert abs(pt.bundle.dd_g_zz) < 1e-10 * norm
    assert pt.ladder.gamma0 == pytest.approx(1.0, abs=1e-10)
    assert pt.ladder.gamma1 == pytest.approx(0.0, abs=1e-10)
    assert pt.ladder.gamma2 == pytest.approx(0.0, abs=1e-10)


def test_far_field_returns_to_bulk():
    pt = interface_point(paper_interface(2000.0), MOMENTS)
    assert abs(pt.ladder.total - 1.0) < 0.025
    assert abs(pt.ladder.gamma0 - 1.0) < 0.025


def test_self_convergence_under_tolerance_halving():
    for h in (40.0, 100.0, 300.0):
        geom = paper_interface(h)
        a = interface_point(geom, MOMENTS, rel_tol=1.0e-8).bundle
        b = interface_point(geom, MOMENTS, rel_tol=5.0e-9).bundle
        norm = 0.00114
        k1 = 3.42 * 2.0 * math.pi / 1000.0
        drift = max(
            abs(a.g_xx - b.g_xx) / norm,
            abs(a.d_g_zx - b.d_g_zx) / (norm * k1),
            abs(a.dd_g_zz - b.dd_g_zz) / (norm * k1 * k1),
        )
        assert drift < 1e-6


def test_expansion_validity_guard(monkeypatch):
    # k1 = 0.02149 rad/nm in GaAs at 1000 nm, so k1*L_qd crosses 1
    # between 46 and 47 nm; L_qd = 20 nm refuses a sweep's 5 nm height.
    # Every height is checked before any quadrature
    geom = paper_interface(100.0)
    interface_point(geom, EmitterMoments(lambda_over_mu=10.0, l_qd=46.0))

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the expansion check")

    monkeypatch.setattr(halfspace, "quad_vec", no_quadrature)
    with pytest.raises(ExpansionInvalidError):
        interface_point(geom, EmitterMoments(lambda_over_mu=10.0, l_qd=47.0))
    with pytest.raises(ExpansionInvalidError, match=r"^k\*L_qd = 2\.000 >= 1"):
        next(halfspace.interface_sweep(geom, [100.0, 50.0, 5.0], MOMENTS))


@pytest.mark.parametrize("l_qd, admitted, refused", [(20.0, 10.5, 10.0), (5.0, 3.0, 2.5)])
def test_expansion_needs_dot_below_twice_the_height(l_qd, admitted, refused):
    # the reflected near field's Taylor series in the source and field
    # offsets converges only while L_qd < 2h: k_eff = max(k1, 1/(2h))
    moments = EmitterMoments(10.0, l_qd=l_qd)
    interface_point(paper_interface(admitted), moments)
    with pytest.raises(ExpansionInvalidError, match=r"^k\*L_qd = 1\.000 >= 1"):
        interface_point(paper_interface(refused), moments)


@pytest.mark.parametrize("lower", [SILVER, Material("glass", 1.5)])
def test_one_contour_and_one_pole_per_height(monkeypatch, lower):
    # the glass interface has no bound pole; spp_pole is still asked once,
    # when the geometry's contour is built, and never again while it is kept
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    calls = {"spp_pole": 0, "_contour": 0}
    for name in calls:
        original = getattr(halfspace, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(halfspace, name, counted)
    geom = InterfaceGeometry(upper=GAAS, lower=lower, h=100.0, lambda0=1000.0)
    interface_point(geom, MOMENTS)
    assert calls == {"spp_pole": 1, "_contour": 1}
    interface_point(InterfaceGeometry(upper=GAAS, lower=lower, h=50.0, lambda0=1000.0), MOMENTS)
    assert calls == {"spp_pole": 1, "_contour": 2}


def test_geometry_validation():
    with pytest.raises(ParameterError):
        InterfaceGeometry(upper=GAAS, lower=GAAS, h=0.0, lambda0=1000.0)
    with pytest.raises(ParameterError):
        InterfaceGeometry(upper=GAAS, lower=GAAS, h=100.0, lambda0=-1.0)
    lossy = Material("lossy", 3.42 + 0.1j)
    with pytest.raises(ParameterError):
        InterfaceGeometry(upper=lossy, lower=GAAS, h=100.0, lambda0=1000.0)


@pytest.mark.parametrize("rel_tol", [math.nan, 0.0, -1e-8, math.inf, "1e-8"])
def test_tolerance_validation(rel_tol):
    # checked before any integration: a NaN tolerance used to reach the
    # quadrature and fail there as a ConvergenceError ("wanted nan relative")
    with pytest.raises(ParameterError, match="rel_tol must be finite and > 0"):
        interface_point(paper_interface(50.0), MOMENTS, rel_tol=rel_tol)
    with pytest.raises(ParameterError, match="rel_tol must be finite and > 0"):
        next(halfspace.interface_sweep(paper_interface(50.0), [50.0, 80.0], MOMENTS, rel_tol))


def test_gamma2_can_go_negative_for_scattered_fields():
    # The second rung is a scattered-field quantity and may dip below
    # zero as long as the total stays physical.
    pt = interface_point(paper_interface(150.0), MOMENTS)
    assert pt.ladder.gamma2 < 0.0
    assert pt.ladder.total > 0.0


# ------------------------------------- in-package quadrature against scipy

LOWER = {
    "Ag": SILVER,
    "glass": Material("glass", 1.5),
    "0.18+7.2j": Material("m", 0.18 + 7.2j),
    "0.25+6j": Material("m", 0.25 + 6.0j),
    "1e4j": Material("mirror", 1.0e4j),
}


def point_bits(pt):
    """Every InterfacePoint value as its exact bits, sign of zero included."""
    b, ladder, split, ch = pt.bundle, pt.ladder, pt.split, pt.channels
    values = (b.g_xx, b.d_g_zx, b.dd_g_zz, b.dz_g_xx, ladder.gamma0, ladder.gamma1,
              ladder.gamma2, split.gamma1_md, split.gamma1_eq, *ch.rad, *ch.pl, *ch.ls,
              pt.norm, pt.k1)
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-13])
@pytest.mark.parametrize("lower", sorted(LOWER))
def test_interface_point_equals_scipy_quad_vec_bitwise(monkeypatch, lower, rel_tol):
    # the moment ratio cycles through 10, -3 and 0; ratio 0 multiplies
    # negative channel parts by zero, so -0.0 must come out as -0.0
    n = 3 if rel_tol == 1e-13 else 6
    heights = oracles.geometric_heights(10.5, 3000.0, n)
    cases = [(InterfaceGeometry(upper=GAAS, lower=LOWER[lower], h=float(h), lambda0=1000.0),
              EmitterMoments((10.0, -3.0, 0.0)[i % 3])) for i, h in enumerate(heights)]
    got = [point_bits(interface_point(g, m, rel_tol=rel_tol)) for g, m in cases]
    want = []
    for g, m in cases:
        c = halfspace._contour(g)
        ref = oracles.scalar_ladder_integrand(c.k0, c.k1, c.eps1, c.eps2, c.k_b, c.delta, g.h)

        def scalar_quad_vec(f, bounds, epsabs, epsrel, trees=None, ref=ref):
            # scipy on the scalar reference: interval k of one height is
            # segment k; the look-ahead moves no value, so it is ignored,
            # and no tree is reported
            return [scipy_quad_vec(lambda x, k=k: ref(x, k), a, b, epsabs=epsabs,
                                   epsrel=epsrel, norm="max")
                    for k, (a, b) in enumerate(bounds)], [set() for _ in bounds]

        monkeypatch.setattr(halfspace, "quad_vec", scalar_quad_vec)
        want.append(point_bits(interface_point(g, m, rel_tol=rel_tol)))
    assert got == want


@pytest.mark.parametrize("lower", ["Ag", "glass"])
def test_companion_integrals_equal_scipy_quad_vec_bitwise(monkeypatch, lower):
    # one-component integrands through the same contour quadrature
    geoms = [InterfaceGeometry(upper=GAAS, lower=LOWER[lower], h=h, lambda0=1000.0)
             for h in (12.0, 100.0, 900.0)]

    def values():
        return [(gzx_lateral(g, 0.01), gxx_vertical_offset(g, -0.01, rel_tol=1e-11))
                for g in geoms]

    got = values()
    monkeypatch.setattr(halfspace, "quad_vec", oracles.scipy_quad_vec)
    want = values()
    assert [[(z.real.hex(), z.imag.hex()) for z in row] for row in got] == \
        [[(z.real.hex(), z.imag.hex()) for z in row] for row in want]


# --------------------------------------- the array integrand and the sweep

# "budget edge" lies just inside `_mul`'s exponent budget (its edge for Re n with
# Im n = 7 is 3.3e-99) and "subnormal eps" outside it: eps = 2e-320j
BIT_PIN_LOWER = {"Ag": 0.2 + 7.0j, "glass": 1.5, "host": 3.42, "lossless metal": 7.0j,
                 "near resonance": 0.1 + 3.6j, "budget edge": 4.0e-99 + 7.0j,
                 "subnormal eps": 1.0e-160 + 1.0e-160j}


@pytest.mark.parametrize("lower", sorted(BIT_PIN_LOWER))
def test_array_integrand_matches_scalar_reference_bitwise(monkeypatch, lower):
    # every node of real quadrature runs, in the batches the sweep forms:
    # the array integrand against the scalar form it replaced, on all
    # three segments (the tail ends before the ellipse does at 1e5 nm);
    # at 0.7 nm a lower medium equal to the host takes 400 000 nodes,
    # so it starts at 3 nm; the moments do not enter the integrand, and
    # a dot of 1 nm admits every height
    heights = [0.7, 3.0, 20.0, 150.0, 1000.0, 1.0e5]
    if lower == "host":
        heights = heights[1:]
    geom = InterfaceGeometry(upper=GAAS, lower=Material("m", BIT_PIN_LOWER[lower]), h=1.0,
                             lambda0=1000.0)
    rounds = []
    quad_vec = halfspace.quad_vec

    def recording(f, bounds, **kwargs):
        def g(x, k):
            value = f(x, k)
            rounds.append((bounds, x, k, value))
            return value
        return quad_vec(g, bounds, **kwargs)

    monkeypatch.setattr(halfspace, "quad_vec", recording)
    list(halfspace.interface_sweep(geom, heights, EmitterMoments(10.0, l_qd=1.0)))
    c = halfspace._contour(geom)
    reference = [oracles.scalar_ladder_integrand(c.k0, c.k1, c.eps1, c.eps2, c.k_b, c.delta, h)
                 for h in heights]
    segments, mixed = set(), False
    for bounds, x, k, value in rounds:
        # the intervals run radiative, ellipse(, tail) height by height
        height, segment = [], []
        for a, b in bounds:
            first = (a, b) == (0.0, 0.5 * math.pi)
            height.append(height[-1] + first if height else 0)
            segment.append(0 if first else segment[-1] + 1)
        for node, interval, got in zip(x.tolist(), k.tolist(), value):
            want = reference[height[interval]](node, segment[interval])
            assert got.tobytes() == want.tobytes(), (heights[height[interval]], node)
            segments.add(segment[interval])
        mixed |= len({height[i] for i in k.tolist()}) > 1
    assert segments == {0, 1, 2} and mixed


def product_operands(seed):
    """Real operands of every kind a product meets: random magnitudes from
    subnormal to huge, signed zeros, the extreme doubles, inf and nan."""
    rng = np.random.default_rng(seed)
    rand = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-323.0, 308.0, 200)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, sys.float_info.min, 0.75,
               -1.0, 1e200, -1e-200, sys.float_info.max, -sys.float_info.max, math.inf,
               -math.inf, math.nan]
    return np.concatenate((special, rand))


def complex_of(re, im):
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def same_bits(a, b):
    """Per element, whether both parts of a and b hold the same bits; a nan matches any nan."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    same = np.ones(a.shape, dtype=bool)
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        same &= (x.view(np.uint64) == y.view(np.uint64)) | (np.isnan(x) & np.isnan(y))
    return same


def budget_parts(rng, least):
    """A double of random sign per entry of `least`, from 2^least (every seventh exactly
    that, and none below the least subnormal) up to the largest double."""
    least = np.maximum(least, -1074)
    exps, mant = rng.integers(least, 1024), rng.uniform(1.0, 2.0, least.shape)
    exps.flat[::7], mant.flat[::7] = least.flat[::7], 1.0
    return rng.choice([-1.0, 1.0], least.shape) * np.ldexp(mant, exps)


def with_zeros(rng, parts):
    """parts with about one in ten set to 0.0 or -0.0."""
    zero = rng.random(parts.shape) < 0.1
    return np.where(zero, rng.choice([0.0, -0.0], parts.shape), parts)


def real_or_imaginary(m):
    """m as each real and imaginary factor: the other part 0.0 or -0.0."""
    return [complex_of(m, 0.0), complex_of(m, -0.0), complex_of(0.0, m), complex_of(-0.0, m)]


def test_plain_products_where_the_integrand_takes_them_have_mul_bits():
    # numpy's complex product may fuse a multiply into an add. Where one
    # factor is real or imaginary, each part is one rounded product plus an
    # exact product with 0.0; fused, the rounded one keeps its sign where it
    # underflows to zero, unfused it may take the exact zero's, so only the
    # sign of a zero can differ from `_mul`. The integrand takes numpy's
    # product only where its operands rule that out, whatever CPU runs this
    x = product_operands(1)
    nonneg = x[~(np.signbit(x) | np.isnan(x))]
    positive = nonneg[np.isfinite(nonneg) & (nonneg > 0.0)]
    z = complex_of(x[:, None], x[None, :]).ravel()  # every pair of parts
    mul = halfspace._mul
    with np.errstate(all="ignore"):
        # 2i*kz1: a doubling and a product with 0.0, exact in any order
        assert same_bits(2.0j * z, mul(2.0j, z)).all()
        # kp*kp and the ladder's powers times _LEAD: kp is real, and > 0 on the real axis
        for zero in (0.0, -0.0):
            kp = complex_of(x, zero)
            assert same_bits(kp * kp, mul(kp, kp)).all()
        rows = complex_of(np.resize(np.append(nonneg, math.nan), (4, 60)), 0.0)
        assert same_bits(halfspace._LEAD * rows, mul(halfspace._LEAD, rows)).all()
        # the tail's kz1 = i*k1*sinh(t): k1 > 0 and sinh(t) > 0
        for k1 in positive.tolist():
            assert same_bits(1.0j * k1 * nonneg, mul(1.0j * k1, nonneg)).all()
        # phi's exponent: Im kz1 >= 0 makes 2i*kz1 a number whose real part is
        # <= 0 where its imaginary part is < 0, so only the sign of a real zero
        # can differ, and exp does not see it; the heights are height_of[k]
        kz1 = complex_of(x[:, None], np.append(nonneg, math.nan)[None, :]).ravel()
        two_i_kz1 = mul(2.0j, kz1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            height_of = positive[rng.integers(0, positive.size, kz1.size)]
            plain, exact = two_i_kz1 * height_of, mul(two_i_kz1, height_of)
            assert same_bits(plain.imag, exact.imag).all()
            assert same_bits(np.exp(plain), np.exp(exact)).all()
        # within `_mul`'s budget, on the real axis: a real or imaginary factor times
        # one whose nonzero parts multiply each of its own to at least 2^-1000, the
        # budget's floor (exactly that among them), or to inf or nan
        exps = rng.integers(-1000, 1024, 4000)
        m = np.append(budget_parts(rng, exps), [math.inf, -math.inf, math.nan, 1.0])
        z = complex_of(*with_zeros(rng, budget_parts(rng, np.append(-1000 - exps, [0] * 4)
                                                     * np.ones((2, 1), dtype=int))))
        z[-3:] = [complex(math.inf, 1.0), complex(1.0, math.nan), complex(-math.inf, 0.0)]
        for f in real_or_imaginary(m):
            assert same_bits(z * f, mul(z, f)).all()  # rp*kz1, then times kz1 again
            rows = np.stack((f, -f))
            assert same_bits(rows * z, mul(rows, z)).all()  # the tail's ladder rows times rp
        for least in rng.integers(-1000, 1024, (40, 2)):
            # eps2*kz1: a complex number times the nodes' kz1
            eps2 = complex(*with_zeros(rng, budget_parts(rng, least)))
            kz1 = budget_parts(rng, np.full(500, -1000 - least.min()))
            for f in real_or_imaginary(kz1):
                assert same_bits(eps2 * f, mul(eps2, f)).all()
            # eps1*kz2: a real number times the nodes' kz2
            eps1 = complex(budget_parts(rng, least[:1])[0], 0.0)
            kz2 = complex_of(*with_zeros(rng, budget_parts(rng, np.full((2, 500),
                                                                          -1000 - least[0]))))
            assert same_bits(eps1 * kz2, mul(eps1, kz2)).all()


def test_a_warm_point_calls_mul_only_in_its_ladder(monkeypatch):
    # the paper interface lies within `_mul`'s budget: its real-axis columns
    # take `_mul` only for segment 0's ladder rows, so a warm point, which
    # builds just its tail, calls it 3 times, all in `_ladder`. A lower
    # medium whose eps has a subnormal imaginary part lies outside, and
    # its real-axis columns take `_mul` for all five products
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    calls, builds = [], []
    mul, node_columns = halfspace._mul, halfspace._node_columns

    def counted_mul(a, b):
        calls.append(sys._getframe(1).f_code.co_name)
        return mul(a, b)

    def counted_columns(c, segment, x):
        before = len(calls)
        out = node_columns(c, segment, x)
        builds.append((segment, len(calls) - before))
        return out

    monkeypatch.setattr(halfspace, "_mul", counted_mul)
    monkeypatch.setattr(halfspace, "_node_columns", counted_columns)
    interface_point(paper_interface(100.0), MOMENTS)
    assert {(s, n) for s, n in builds if s != 1} == {(0, 1), (2, 0)}
    calls.clear()
    builds.clear()
    interface_point(paper_interface(100.0), MOMENTS)
    assert calls == ["_ladder"] * 3 and [s for s, _ in builds] == [2]
    builds.clear()
    interface_point(InterfaceGeometry(upper=GAAS, lower=Material("m", 1.0e-160 + 1.0e-160j),
                                      h=100.0, lambda0=1000.0), MOMENTS)
    assert {(s, n) for s, n in builds if s != 1} == {(0, 5), (2, 5)}


def test_sweep_equals_one_height_at_a_time_bitwise(monkeypatch):
    # 300 heights make ten blocks, the last one short; the single heights
    # run once on the memo the sweep filled and once from an empty one
    heights = [float(h) for h in np.geomspace(10.5, 3000.0, 300)]
    assert len(heights) > 9 * halfspace._BLOCK
    swept = [point_bits(p) for p in
             halfspace.interface_sweep(paper_interface(100.0), heights, MOMENTS)]
    assert swept == [point_bits(interface_point(paper_interface(h), MOMENTS)) for h in heights]
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    assert swept == [point_bits(interface_point(paper_interface(h), MOMENTS)) for h in heights]


@pytest.mark.parametrize("h, plain", [(20.0, (2, 273)), (317.3, (2, 231)), (884.8, (3, 399))])
def test_one_height_makes_one_integrand_call_per_split_round(monkeypatch, h, plain):
    # with a cold tree memo a point makes the calls of quadrature without
    # look-ahead: the first holds each segment's panel and both its
    # halves, 63 nodes a segment, and each later split round makes one.
    # The memo then holds the trees the segments split, so the same point
    # again evaluates the same nodes in one call
    sizes = []
    quad_vec = halfspace.quad_vec

    def counted(f, bounds, **kwargs):
        return quad_vec(lambda x, k: (sizes.append(x.size), f(x, k))[1], bounds, **kwargs)

    monkeypatch.setattr(halfspace, "quad_vec", counted)
    counts = []
    for _ in range(2):
        sizes.clear()
        interface_point(paper_interface(h), MOMENTS)
        counts.append((len(sizes), sum(sizes)))
    assert counts == [plain, (1, plain[1])]


def test_many_height_block_takes_no_look_ahead(monkeypatch):
    # a block of two heights shares each round's call, so it makes the
    # calls of quadrature without look-ahead, node for node
    heights = [20.0, 884.8]
    quad_vec = halfspace.quad_vec

    def calls(**forced):
        made = []

        def recording(f, bounds, **kwargs):
            def g(x, k):
                made.append((x.tobytes(), k.tobytes()))
                return f(x, k)
            return quad_vec(g, bounds, **{**kwargs, **forced})

        monkeypatch.setattr(halfspace, "quad_vec", recording)
        list(halfspace.interface_sweep(paper_interface(1.0), heights, MOMENTS))
        return made

    made = calls()
    assert [len(x) // 8 for x, _ in made] == [378, 210, 84]
    assert made == calls(trees=None)


def bucket_of(h, k1):
    """The bucket of a point at height h in its contour's tree memo."""
    return math.floor(8 * (math.log2(k1) + math.log2(h)))


def test_overflow_at_a_look_ahead_node_changes_no_outcome(monkeypatch):
    # a tree memo that holds left spines 40 levels deep makes the first
    # call of a point at 317.3 nm evaluate 4914 nodes that the adaptive
    # process never reaches. An integrand that overflows at those alone fails the first
    # call; quad_vec makes it again without look-ahead, and the point is
    # the one quadrature without look-ahead gives
    geom = paper_interface(317.3)
    want = point_bits(interface_point(geom, MOMENTS))
    ladder = halfspace._ladder
    quad_vec = halfspace.quad_vec
    reached = set()

    def reaching(col, phi):
        reached.update(col.kp.tolist())
        return ladder(col, phi)

    monkeypatch.setattr(halfspace, "quad_vec",
                        lambda f, bounds, **kwargs: quad_vec(f, bounds, **{**kwargs, "trees": None}))
    monkeypatch.setattr(halfspace, "_ladder", reaching)
    assert point_bits(interface_point(geom, MOMENTS)) == want
    failed = []

    def overflowing(col, phi):
        unreached = set(col.kp.tolist()) - reached
        if unreached:
            failed.append((col.kp.size, len(unreached)))
            raise OverflowError("a look-ahead node overflows")
        return ladder(col, phi)

    monkeypatch.setattr(halfspace, "quad_vec", quad_vec)
    monkeypatch.setattr(halfspace, "_ladder", overflowing)
    c = halfspace._contour(geom)
    c.trees.clear()
    c.trees[(1e-8, bucket_of(geom.h, c.k1))] = {s: {1 << level for level in range(40)}
                                                 for s in range(3)}
    assert point_bits(interface_point(geom, MOMENTS)) == want
    assert failed == [(5103, 4914)]


def test_interface_point_keeps_no_instance_dicts():
    # a retained point and everything it holds store their fields in slots
    pt = interface_point(paper_interface(100.0), MOMENTS)
    held = [getattr(pt, f.name) for f in fields(pt)]
    assert not any(hasattr(obj, "__dict__") for obj in [pt, *held])


# ------------------------------------------------ the column memo

MEMO_MOMENTS = EmitterMoments(10.0, l_qd=1.0)  # a dot of 1 nm admits every height below


def fill_memo(geom, heights, rel_tol):
    # a sweep that stops in failure has filled the memo all the same: a
    # lower medium equal to the host cannot reach 1e-13
    try:
        list(halfspace.interface_sweep(geom, heights, MEMO_MOMENTS, rel_tol=rel_tol))
    except ConvergenceError:
        assert rel_tol == 1e-13


@pytest.mark.parametrize("lower", sorted(BIT_PIN_LOWER))
def test_memo_leaves_every_bit_as_it_was(monkeypatch, lower):
    # a point from an empty memo against the same point after sweeps up,
    # down and at a tight tolerance have filled the memo (the host's to
    # its cap)
    geom = InterfaceGeometry(upper=GAAS, lower=Material("m", BIT_PIN_LOWER[lower]), h=1.0,
                             lambda0=1000.0)
    points = [(replace(geom, h=100.0), 1e-8), (replace(geom, h=37.0), 1e-10)]

    def bits():
        return [point_bits(interface_point(g, MEMO_MOMENTS, rel_tol=tol)) for g, tol in points]

    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    fresh = []
    for g, tol in points:
        halfspace._CONTOURS.clear()
        fresh.append(point_bits(interface_point(g, MEMO_MOMENTS, rel_tol=tol)))
    heights = [float(h) for h in np.geomspace(3.0, 1000.0, 12)]
    for sweep, rel_tol in ((heights, 1e-8), (heights[::-1], 1e-8), ([20.0, 150.0, 1000.0], 1e-13)):
        halfspace._CONTOURS.clear()
        fill_memo(geom, sweep, rel_tol)
        assert bits() == fresh
    stored = [len(panels) for panels in halfspace._contour(geom).panels]
    assert all(0 < n <= halfspace._MEMO_PANELS for n in stored)
    if lower == "host":
        assert stored[0] == halfspace._MEMO_PANELS


def test_memo_builds_each_shared_panel_once(monkeypatch):
    # 100 heights one at a time, as the benchmark draws them: every
    # radiative and ellipse panel has its columns built once and stored,
    # the quadrature lands on 11 and 7 of them, and no tail node is
    # stored
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    built = {0: [], 1: [], 2: []}
    node_columns = halfspace._node_columns

    def counted(c, segment, x):
        built[segment].append(x.copy())
        return node_columns(c, segment, x)

    monkeypatch.setattr(halfspace, "_node_columns", counted)
    for h in np.random.default_rng(1).uniform(20.0, 1000.0, 100).tolist():
        interface_point(paper_interface(h), MOMENTS)
    memo = halfspace._contour(paper_interface(100.0)).panels
    assert [len(panels) for panels in memo] == [11, 7]
    tail = np.concatenate(built[2])
    for segment, panels in enumerate(memo):
        nodes = np.concatenate(built[segment])
        assert np.unique(nodes).size == nodes.size
        assert b"".join(sorted(panels)) == b"".join(sorted(
            panel.tobytes() for panel in nodes.reshape(-1, halfspace.PANEL)))
        assert not np.isin(tail, np.frombuffer(b"".join(panels))).any()


def counting(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends each call's segment to calls."""
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda c, segment, x: (calls.append(segment),
                                                             fn(c, segment, x))[1])


def test_a_warm_point_builds_only_its_tail(monkeypatch):
    # after 100 seeded heights a point in a bucket seen before builds the
    # columns of its tail only: its radiative and ellipse panels are all
    # in the memo
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    rng = np.random.default_rng(1)
    k1 = halfspace._contour(paper_interface(100.0)).k1
    seen = set()
    for h in rng.uniform(20.0, 1000.0, 100).tolist():
        interface_point(paper_interface(h), MOMENTS)
        seen.add(bucket_of(h, k1))
    built = []
    counting(monkeypatch, halfspace, "_node_columns", built)
    warm = [h for h in rng.uniform(20.0, 1000.0, 200).tolist() if bucket_of(h, k1) in seen]
    for h in warm:
        built.clear()
        interface_point(paper_interface(h), MOMENTS)
        assert built == [2], h
    assert len(warm) > 150


def test_memo_stays_within_its_cap(monkeypatch):
    # 2 000 random heights from 10 nm to 30 um fill the radiative memo to
    # its cap; the CLI's 98-height sweep after them stores no radiative
    # panel. Every stored panel is an array of its own with the bits its
    # nodes' fresh columns have
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    c = halfspace._contour(paper_interface(100.0))

    def within_cap():
        for segment, panels in enumerate(c.panels):
            assert len(panels) <= halfspace._MEMO_PANELS
            for key, columns in panels.items():
                assert columns.shape == (halfspace._ROWS, halfspace.PANEL)
                assert columns.flags.c_contiguous and columns.base is None
                fresh = halfspace._node_columns(c, segment, np.frombuffer(key))
                assert columns.tobytes() == fresh.tobytes()
        return [set(panels) for panels in c.panels]

    for h in 10.0 ** np.random.default_rng(4).uniform(1.0, 4.5, 2000):
        interface_point(paper_interface(float(h)), MEMO_MOMENTS)
    before = within_cap()
    assert len(before[0]) == halfspace._MEMO_PANELS
    list(halfspace.interface_sweep(paper_interface(1.0), np.arange(20.0, 1000.0, 10.0),
                                   MEMO_MOMENTS))
    assert within_cap()[0] == before[0]


def test_a_memo_with_no_room_moves_no_bit(monkeypatch):
    # a shuffled stream that changes its lower medium every six heights
    # and its tolerance every three, one geometry kept, so that each
    # contour is dropped and built again: the same bits whether the
    # memo stores panels or has no room for any
    monkeypatch.setattr(halfspace, "_GEOMETRIES", 1)
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    heights = np.random.default_rng(7).permutation(np.geomspace(3.0, 3000.0, 72)).tolist()
    media = (SILVER, Material("glass", 1.5))
    built = []
    counting(monkeypatch, halfspace, "_node_columns", built)

    def stream():
        halfspace._CONTOURS.clear()
        built.clear()
        out = []
        for i, h in enumerate(heights):
            geom = InterfaceGeometry(upper=GAAS, lower=media[i // 6 % 2], h=h, lambda0=1000.0)
            rel_tol = (1e-8, 1e-10)[i // 3 % 2]
            out.append(point_bits(interface_point(geom, MEMO_MOMENTS, rel_tol=rel_tol)))
        return out, len(built) - built.count(2)

    kept, kept_builds = stream()
    monkeypatch.setattr(halfspace, "_MEMO_PANELS", 0)  # no panel is stored
    bits, builds = stream()
    assert bits == kept
    assert kept_builds < builds  # the memo spared some shared builds


@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy first", "panels first"])
def test_one_node_and_whole_panel_calls_share_a_memo(monkeypatch, scipy_first):
    # scipy's quad_vec (`oracles.scipy_quad_vec`) calls the integrand one
    # node at a time, `quad_vec` with whole panels: on one contour, in
    # either order, both give the bits of a fresh contour, and the memo,
    # which keys a one-node call per node, stays within its cap (64 here,
    # which the one-node calls fill on the ellipse)
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    monkeypatch.setattr(halfspace, "_MEMO_PANELS", 64)
    geoms = [paper_interface(h) for h in (37.0, 300.0)]
    want = []
    for g in geoms:
        halfspace._CONTOURS.clear()
        want.append(point_bits(interface_point(g, MOMENTS)))
    halfspace._CONTOURS.clear()
    quad_vec = halfspace.quad_vec
    for one_node in (scipy_first, not scipy_first):
        monkeypatch.setattr(halfspace, "quad_vec", oracles.scipy_quad_vec if one_node else quad_vec)
        assert [point_bits(interface_point(g, MOMENTS)) for g in geoms] == want
        memo = halfspace._contour(geoms[0]).panels
        assert all(len(panels) <= 64 for panels in memo)
    assert len(memo[1]) == 64
    assert {len(key) for key in memo[0]} == {8, 8 * halfspace.PANEL}


LOOK_AHEAD_HEIGHTS = (0.7, 3.0, 20.0, 150.0, 1000.0, 1.0e5)


def foreign_trees(c, geom, rel_tol):
    """Fill c's tree memo with trees of other heights and another tolerance.

    The trees of points 3.7 times as high at the other tolerance are
    filed under the buckets of `LOOK_AHEAD_HEIGHTS` at rel_tol.
    """
    c.trees.clear()
    other = 1e-12 if rel_tol != 1e-12 else 1e-9
    for h in LOOK_AHEAD_HEIGHTS:
        try:
            interface_point(replace(geom, h=3.7 * h), MEMO_MOMENTS, rel_tol=other)
        except ConvergenceError:
            pass
    shift = math.floor(8 * math.log2(3.7))
    memo = {(rel_tol, b - shift): trees for (_, b), trees in c.trees.items()}
    c.trees.clear()
    c.trees.update(memo)


def deep_spines(c, rel_tol):
    """A tree memo of c in which every segment's tree is a left spine 40 levels deep."""
    c.trees.clear()
    for h in LOOK_AHEAD_HEIGHTS:
        c.trees[(rel_tol, bucket_of(h, c.k1))] = {s: {1 << level for level in range(40)}
                                                  for s in range(3)}


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-13])
@pytest.mark.parametrize("lower", sorted(BIT_PIN_LOWER))
def test_interface_look_ahead_changes_no_outcome(monkeypatch, lower, rel_tol):
    # the first call of a one-height point evaluates the halves of every
    # panel in its bucket's trees, nodes that the adaptive process may
    # never reach. Bitwise every value, error and warning of quadrature
    # without look-ahead at heights from 0.7 nm to 1e5 nm, with a cold
    # tree memo (each height borrows the trees of the heights before),
    # the same memo warm, a memo of foreign trees and one of left spines
    # 40 levels deep. A lower medium equal to the host takes 400 000
    # nodes at 0.7 nm, so it starts at 3 nm; at 1e-13 its radiative
    # segment splits to the 10 000 panel limit and fails at every height,
    # 0.4 s each, so it keeps the two ends
    geom = InterfaceGeometry(upper=GAAS, lower=Material("m", BIT_PIN_LOWER[lower]), h=1.0,
                             lambda0=1000.0)
    heights = LOOK_AHEAD_HEIGHTS[lower == "host":]
    if lower == "host" and rel_tol == 1e-13:
        heights = heights[::len(heights) - 1]
    c = halfspace._contour(geom)

    def outcomes():
        out = []
        for h in heights:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    value = point_bits(interface_point(replace(geom, h=h), MEMO_MOMENTS,
                                                       rel_tol=rel_tol))
                except ConvergenceError as exc:
                    value = str(exc)
            out.append((h, value, [str(w.message) for w in caught]))
        return out

    c.trees.clear()
    cold = outcomes()
    warm = outcomes()
    foreign_trees(c, geom, rel_tol)
    foreign = outcomes()
    deep_spines(c, rel_tol)
    deep = outcomes()
    quad_vec = halfspace.quad_vec
    monkeypatch.setattr(halfspace, "quad_vec",
                        lambda f, bounds, **kwargs: quad_vec(f, bounds, **{**kwargs, "trees": None}))
    assert cold == warm == foreign == deep == outcomes()


def test_contour_cache_keeps_the_latest_geometries(monkeypatch):
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    geoms = [InterfaceGeometry(upper=GAAS, lower=SILVER, h=100.0, lambda0=lam)
             for lam in np.linspace(900.0, 1100.0, halfspace._GEOMETRIES + 2).tolist()]
    contours = [halfspace._contour(g) for g in geoms]
    assert len(halfspace._CONTOURS) == halfspace._GEOMETRIES
    assert halfspace._contour(geoms[-1]) is contours[-1]
    assert halfspace._contour(geoms[0]) is not contours[0]
    # a use renews a geometry: the second one is now the oldest
    halfspace._contour(geoms[3])
    halfspace._contour(InterfaceGeometry(upper=GAAS, lower=GAAS, h=1.0, lambda0=1000.0))
    assert halfspace._contour(geoms[3]) is contours[3]
    # 1.5+0j and 1.5-0j are equal numbers with different bits
    glass = [InterfaceGeometry(upper=GAAS, lower=Material("glass", complex(1.5, zero)), h=1.0,
                               lambda0=1000.0) for zero in (0.0, -0.0)]
    assert halfspace._contour(glass[0]) is not halfspace._contour(glass[1])


def test_sweep_raises_a_failure_at_its_height():
    # the contour tail at 1e-300 nm overflows: the sweep yields the
    # height before it, then raises that height's own error; a dot of
    # 1e-300 nm admits every height
    heights = [20.0, 1.0e-300, 30.0]
    moments = EmitterMoments(10.0, l_qd=1.0e-300)
    sweep = halfspace.interface_sweep(paper_interface(20.0), heights, moments)
    assert point_bits(next(sweep)) == point_bits(interface_point(paper_interface(20.0), moments))
    with pytest.raises(ConvergenceError) as swept:
        next(sweep)
    with pytest.raises(ConvergenceError) as alone:
        interface_point(paper_interface(1.0e-300), moments)
    assert str(swept.value) == str(alone.value) == "k_par integrand overflows at h = 1e-300 nm"
