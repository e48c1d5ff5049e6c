"""Planar-interface engine against classical results and frozen values.

Cross-checks are layered: closed forms (normal-incidence reflection,
surface-mode pole, image dipole, electrostatic limits), an independent
real-axis angular-spectrum quadrature of the dipole rate, finite
differences of companion integrals against in-integrand derivatives,
and snapshot values for regression locking.
"""

import math

import numpy as np
import pytest

import oracles
from companions import fresnel, gxx_vertical_offset, gzx_lateral
from mesoqed import (
    GAAS,
    EmitterMoments,
    ExpansionInvalidError,
    InterfaceGeometry,
    Material,
    NoBoundModeError,
    ParameterError,
    SILVER,
    extract_fields,
    halfspace,
    interface_point,
    paper_interface,
    paper_moments,
    spp_pole,
)

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
    # approaches the electrostatic image result.
    h = 3.0
    with pytest.warns(RuntimeWarning):
        bundle = interface_point(paper_interface(h), EmitterMoments(0.0)).bundle
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
    # between 46 and 47 nm; the check runs before any quadrature
    geom = paper_interface(100.0)
    interface_point(geom, EmitterMoments(lambda_over_mu=10.0, l_qd=46.0))
    passes = []
    monkeypatch.setattr(halfspace, "_integrate_contour",
                        lambda *args, **kwargs: passes.append(args))
    with pytest.raises(ExpansionInvalidError):
        interface_point(geom, EmitterMoments(lambda_over_mu=10.0, l_qd=47.0))
    assert passes == []


@pytest.mark.parametrize("lower", [SILVER, Material("glass", 1.5)])
def test_one_contour_and_one_pole_per_height(monkeypatch, lower):
    # the glass interface has no bound pole; spp_pole is still asked once
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
    monkeypatch.setattr(halfspace, "quad_vec", oracles.scipy_quad_vec)
    want = [point_bits(interface_point(g, m, rel_tol=rel_tol)) for g, m in cases]
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
