"""Planar-interface engine against classical results and frozen values.

Cross-checks are layered: closed forms (normal-incidence reflection,
surface-mode pole, image dipole, electrostatic limits), an independent
real-axis angular-spectrum quadrature of the dipole rate, finite
differences of companion integrals against in-integrand derivatives,
and snapshot values for regression locking.
"""

import math
from dataclasses import replace

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

        def scalar_quad_vec(f, bounds, epsabs, epsrel, ref=ref):
            # scipy on the scalar reference: interval k of one height is segment k
            return [scipy_quad_vec(lambda x, k=k: ref(x, k), a, b, epsabs=epsabs,
                                   epsrel=epsrel, norm="max")
                    for k, (a, b) in enumerate(bounds)]

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

BIT_PIN_LOWER = {"Ag": 0.2 + 7.0j, "glass": 1.5, "host": 3.42, "lossless metal": 7.0j,
                 "near resonance": 0.1 + 3.6j}


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


# ------------------------------------------------ the node memo

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
    memos = halfspace._contour(geom).memos
    assert all(0 < len(memo) <= halfspace._MEMO_NODES for memo in memos)
    if lower == "host":
        assert len(memos[0]) == halfspace._MEMO_NODES


def test_memo_builds_each_shared_node_once(monkeypatch):
    # 100 heights one at a time, as the benchmark draws them: every
    # radiative and ellipse node has its columns built once and stored,
    # and no tail node is stored
    monkeypatch.setattr(halfspace, "_CONTOURS", {})
    built = {0: [], 1: [], 2: []}
    node_columns = halfspace._node_columns

    def counted(c, segment, x):
        built[segment].append(x.copy())
        return node_columns(c, segment, x)

    monkeypatch.setattr(halfspace, "_node_columns", counted)
    for h in np.random.default_rng(1).uniform(20.0, 1000.0, 100).tolist():
        interface_point(paper_interface(h), MOMENTS)
    memos = halfspace._contour(paper_interface(100.0)).memos
    assert len(memos) == 2
    tail = np.concatenate(built[2])
    for segment, memo in enumerate(memos):
        nodes = np.concatenate(built[segment])
        assert len(memo) < halfspace._MEMO_NODES  # it had room throughout
        assert np.unique(nodes).size == nodes.size
        assert np.array_equal(memo.keys[:-1], np.sort(nodes))
        assert not np.isin(tail, memo.keys).any()


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
