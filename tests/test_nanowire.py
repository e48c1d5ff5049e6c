"""Wire guided mode, plasmon-channel rates, electrostatic background.

The dispersion root is cross-checked with an arbitrary-precision
re-solve of the mode condition and, over radii, wavelengths and metals,
with a scan for every guided root; the electrostatic background is checked
against one scalar QUADPACK integral per harmonic and against the
flat-surface closed form in the large-radius limit.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ive, kve

import oracles
from mesoqed import nanowire, specfun
from mesoqed.core import GAAS, SILVER, Material, figures_of_merit, homogeneous_im_gxx, paper_moments
from mesoqed.core import SPEED_OF_LIGHT_NM_PER_FS as C0
from mesoqed.errors import (
    ContractViolationError,
    ConvergenceError,
    ExpansionInvalidError,
    MesoqedError,
    NoBoundModeError,
    OutOfDomainError,
    ParameterError,
)
from mesoqed.halfspace import paper_interface, spp_pole
from mesoqed.nanowire import (
    AXIAL,
    RADIAL,
    FieldWindow,
    WireGeometry,
    field_map,
    paper_wire,
    plasmon_bundle,
    plasmon_rates,
    quasistatic_background,
    solve_dispersion,
)
from mesoqed.rates import extract_fields, md_eq_split, rate_ladder

GEOM = paper_wire()
MOMENTS = paper_moments()
EPS_METAL = (0.2 + 7.0j) ** 2
EPS_HOST = 3.42**2


@pytest.fixture(autouse=True)
def cold_tree_memo():
    # every test starts with the background's tree memo of a fresh process:
    # the integrand calls and nodes a background takes depend on it
    nanowire._QS_TREES.clear()


# ------------------------------------------------------------ mode solve


def test_mode_snapshot():
    mode = solve_dispersion(GEOM)
    assert mode.k_sp == pytest.approx(
        0.037691717145877095 + 0.0010984436595126495j, rel=1e-12
    )
    assert mode.kappa_in == pytest.approx(
        0.05789973794244799 - 0.00023950983931657482j, rel=1e-12
    )
    assert mode.kappa_out == pytest.approx(
        0.03097563744754524 + 0.0013366061565365447j, rel=1e-12
    )
    assert mode.residual < 1e-10
    assert mode.a_in == pytest.approx(0.2438197315 - 0.0131350274j, rel=1e-6)
    n_eff = mode.k_sp / GEOM.k0
    assert n_eff == pytest.approx(5.998823 + 0.174823j, rel=1e-6)


def test_mode_against_arbitrary_precision_resolve():
    mode = solve_dispersion(GEOM)
    value, scale = oracles.wire_characteristic(
        mode.k_sp, 30.0, 1000.0, EPS_METAL, EPS_HOST
    )
    assert abs(complex(value)) / float(scale) < 1e-12
    root = oracles.wire_mode_polish(mode.k_sp, 30.0, 1000.0, EPS_METAL, EPS_HOST, dps=25)
    assert abs(root - mode.k_sp) / abs(mode.k_sp) < 1e-10


def test_mode_normalization_closes():
    mode = solve_dispersion(GEOM)
    assert mode.normalization_check() == pytest.approx(1.0, rel=1e-9)
    assert mode.norm == pytest.approx(0.01004234, rel=1e-5)


@pytest.mark.parametrize("geom", [
    GEOM,
    paper_wire(rho=2.0),
    paper_wire(rho=100.0),
    paper_wire(rho=1000.0),
    WireGeometry(rho=30.0, metal=Material("m", 0.3 + 5.0j), host=GAAS, lambda0=700.0),
    WireGeometry(rho=10.0, metal=Material("m", 0.1 + 3.6j), host=GAAS, lambda0=1000.0),
], ids=["paper", "R2", "R100", "R1000", "n0.3+5j-700nm", "n0.1+3.6j-R10"])
def test_mode_norm_against_lommel_oracle(geom):
    # normalization_check re-runs the library's own integral; this one
    # sums the closed-form Lommel integrals of the same fields instead
    mode = solve_dispersion(geom)
    total = oracles.wire_norm_integral(geom.rho, mode.k_sp, mode.kappa_in, mode.kappa_out,
                                       mode.a_in, geom.metal.eps, geom.host.eps)
    assert abs(mode.norm**2 * total - 1.0) < 1e-12


def test_transverse_constants_tie_to_root():
    mode = solve_dispersion(GEOM)
    k0 = GEOM.k0
    assert mode.kappa_in**2 == pytest.approx(mode.k_sp**2 - EPS_METAL * k0 * k0, rel=1e-12)
    assert mode.kappa_out**2 == pytest.approx(mode.k_sp**2 - EPS_HOST * k0 * k0, rel=1e-12)
    assert mode.kappa_out.real > 0.0  # bound outside


def test_group_velocity():
    mode = solve_dispersion(GEOM)
    assert 0.0 < mode.v_g < C0
    assert mode.v_g == pytest.approx(96.995429, rel=1e-6)
    assert nanowire._group_velocity_at(GEOM, mode.k_sp, 1e-3) == mode.v_g
    halved = nanowire._group_velocity_at(GEOM, mode.k_sp, 5e-4)
    assert abs(halved - mode.v_g) < 1e-5 * mode.v_g


def test_dispersion_is_geometrically_anomalous():
    # Re(n_eff) grows with wavelength for this radius, so the group
    # velocity exceeds the phase velocity; both follow from the same
    # dispersion data, so this ties v_g to the n_eff trend.
    n_eff = {}
    for lam in (950.0, 1000.0, 1050.0):
        g = paper_wire(lambda0=lam)
        n_eff[lam] = solve_dispersion(g).k_sp.real / g.k0
    assert n_eff[950.0] < n_eff[1000.0] < n_eff[1050.0]
    mode = solve_dispersion(GEOM)
    v_phase = C0 / (mode.k_sp.real / GEOM.k0)
    assert mode.v_g > v_phase


def test_wire_figures_of_merit():
    mode = solve_dispersion(GEOM)
    fom = figures_of_merit(mode.k_sp.real, MOMENTS)
    assert fom.g1 == pytest.approx(0.7538343429175419, rel=1e-12)
    assert fom.g2 == pytest.approx(0.14206655414048056, rel=1e-12)


def test_thin_wire_mode():
    # k_sp ~ x0/rho lies beyond ten host wavevectors at R = 2 nm
    mode = solve_dispersion(paper_wire(rho=2.0))
    assert mode.residual < 1e-12
    assert mode.normalization_check() == pytest.approx(1.0, abs=1e-8)
    root = oracles.wire_mode_root(2.0, 1000.0, EPS_METAL, EPS_HOST)
    assert abs(mode.k_sp - root) < 1e-10 * abs(root)
    assert mode.k_sp == pytest.approx(0.39337335206 + 0.01912115586j, rel=1e-10)


# Known failures, kept visible as strict xfails:
# * near resonance with loss, Newton from the real electrostatic seed
#   lands on an overdamped root (Im k > Re k) on the thinnest wires, and
#   solve_dispersion raises, although the scan finds a guided root there
#   with Im k ~ 0.53 Re k;
# * on a thick wire at short wavelength, |I0(kappa_in r)|^2 in the mode
#   normalization leaves double range (Re kappa_in rho ~ 380).
_KNOWN_FAILURES = {
    **{(0.1 + 3.6j, rho, lam): NoBoundModeError
       for rho in (0.5, 1.0) for lam in (600.0, 1000.0, 1400.0)},
    (0.1 + 3.6j, 2.0, 1400.0): NoBoundModeError,
    (0.2 + 7.0j, 5000.0, 600.0): ContractViolationError,
    (0.1 + 3.6j, 5000.0, 600.0): ContractViolationError,
}


def _scan_case(n_metal, rho, lambda0):
    raises = _KNOWN_FAILURES.get((n_metal, rho, lambda0))
    marks = [pytest.mark.xfail(raises=raises)] if raises else []
    return pytest.param(n_metal, rho, lambda0, marks=marks)


@pytest.mark.parametrize("n_metal, rho, lambda0", [
    # Re eps_metal below -eps_host (silver, and lossy near resonance), then above
    _scan_case(n, rho, lam)
    for n in (0.2 + 7.0j, 0.1 + 3.6j, 0.1 + 3.3j)
    for rho in (0.5, 1.0, 2.0, 3.0, 30.0, 5000.0)
    for lam in (600.0, 1000.0, 1400.0)
])
def test_mode_is_the_unique_scanned_root(n_metal, rho, lambda0):
    geom = WireGeometry(rho=rho, metal=Material("m", n_metal), host=GAAS, lambda0=lambda0)
    roots = oracles.wire_mode_scan(rho, lambda0, geom.metal.eps, geom.host.eps)
    assert len(roots) <= 1
    if not roots:
        with pytest.raises(NoBoundModeError):
            solve_dispersion(geom)
        return
    k_sp = solve_dispersion(geom).k_sp
    assert abs(k_sp - roots[0]) < 1e-10 * abs(roots[0])


def test_solve_validation():
    same = WireGeometry(rho=30.0, metal=GAAS, host=GAAS, lambda0=1000.0)
    with pytest.raises(ParameterError):
        solve_dispersion(same)
    dielectric = WireGeometry(
        rho=30.0, metal=Material("diel", 1.5), host=GAAS, lambda0=1000.0
    )
    with pytest.raises(NoBoundModeError):
        solve_dispersion(dielectric)


# what solve_dispersion says of the paper wire when Newton finds no root
NEWTON_MISS = re.escape(
    "Newton from the electrostatic seed found no guided root for the wire of radius 30 nm, "
    "metal n = 0.2+7j and host n = 3.42+0j at lambda0 = 1000 nm")


def test_newton_stops_where_the_derivative_vanishes(monkeypatch):
    # a constant characteristic function: its difference quotient is 0
    monkeypatch.setattr(nanowire, "_characteristic", lambda k, geom: (1.0, 1.0))
    assert nanowire._newton(GEOM, 0.05) is None
    with pytest.raises(NoBoundModeError, match=NEWTON_MISS):
        nanowire.solve_dispersion.__wrapped__(GEOM)


def test_newton_gives_up_after_sixty_steps(monkeypatch):
    # k*k + 1 has its roots at +-i, which Newton from a real seed never
    # reaches; from the paper wire's seed no step is small enough to stop
    # early and no difference quotient is 0, so all 60 steps run
    calls = []

    def characteristic(k, geom):
        calls.append(k)
        return k * k + 1, 1.0

    monkeypatch.setattr(nanowire, "_characteristic", characteristic)
    assert nanowire._newton(GEOM, nanowire._seed(GEOM)) is None
    assert all(k.imag == 0.0 for k in calls)
    # a step starts with the value at k, then the difference at k + 1e-6*|k|
    assert sum(b == a + 1e-6 * abs(a) for a, b in zip(calls, calls[1:])) == 60
    with pytest.raises(NoBoundModeError, match=NEWTON_MISS):
        nanowire.solve_dispersion.__wrapped__(GEOM)


def test_a_root_that_is_not_guided_is_named(monkeypatch):
    # Newton converged, but on a root no guided mode has
    monkeypatch.setattr(nanowire, "_newton", lambda geom, seed: (-0.05 + 0.01j, 0.0))
    with pytest.raises(NoBoundModeError, match=re.escape("found no guided root: (-0.05+0.01j)")):
        nanowire.solve_dispersion.__wrapped__(GEOM)


def _triple_root_at(seed, residual):
    # a characteristic function with a triple root 1e-9 |seed| below the
    # seed, scaled so that the residual at the seed is `residual`; there
    # the difference quotient is about h^2, so the first Newton step is
    # a few units of the last place of k, below 1e-14 |k|
    root = seed - 1e-9 * abs(seed)
    scale = abs(seed - root) ** 3 / residual
    calls = []

    def characteristic(k, geom):
        calls.append(k)
        return (k - root) ** 3, scale

    return characteristic, calls


def test_newton_stops_on_a_stalled_step_at_a_root(monkeypatch):
    # the stalled step takes the residual from just above 1e-12 to just
    # below it: the step's end is the root
    seed = nanowire._seed(GEOM)
    characteristic, calls = _triple_root_at(seed, 1e-12 * (1.0 + 1e-6))
    monkeypatch.setattr(nanowire, "_characteristic", characteristic)
    k, residual = nanowire._newton(GEOM, seed)
    # value, two differences and a damping trial at the seed, then the end
    assert len(calls) == 5 and calls[-1] == k != seed
    assert 0.0 < seed.real - k.real < 1e-14 * abs(seed)
    assert residual < 1e-12


def test_newton_stops_on_a_stalled_step_short_of_a_root(monkeypatch):
    seed = nanowire._seed(GEOM)
    characteristic, calls = _triple_root_at(seed, 1e-11)
    monkeypatch.setattr(nanowire, "_characteristic", characteristic)
    assert nanowire._newton(GEOM, seed) is None
    assert len(calls) == 5
    with pytest.raises(NoBoundModeError, match=NEWTON_MISS):
        nanowire.solve_dispersion.__wrapped__(GEOM)


def test_group_velocity_fails_where_an_offset_solve_fails(monkeypatch):
    # the root solves; the first frequency offset's solve does not
    newton = nanowire._newton
    monkeypatch.setattr(nanowire, "_newton", lambda geom, seed: (
        newton(geom, seed) if geom.lambda0 == GEOM.lambda0 else None))
    with pytest.raises(NoBoundModeError, match=r"frequency offset \+0\.001"):
        nanowire.solve_dispersion.__wrapped__(GEOM)


def _characteristic_four_calls(k, geom):
    # the characteristic function with one scalar Bessel pair per value
    k0 = geom.k0
    kap_in = nanowire._transverse(k, geom.metal.eps, k0)
    kap_out = nanowire._transverse(k, geom.host.eps, k0)
    i0, _ = specfun.bessel_ik_scaled(0, kap_in * geom.rho)
    i1, _ = specfun.bessel_ik_scaled(1, kap_in * geom.rho)
    _, q0 = specfun.bessel_ik_scaled(0, kap_out * geom.rho)
    _, q1 = specfun.bessel_ik_scaled(1, kap_out * geom.rho)
    t_in = (geom.metal.eps / kap_in) * (i1 / i0)
    t_out = (geom.host.eps / kap_out) * (q1 / q0)
    return t_in + t_out, abs(t_in) + abs(t_out)


def _cold_solve(geom):
    try:
        mode = nanowire.solve_dispersion.__wrapped__(geom)
    except MesoqedError as exc:
        return type(exc), str(exc)
    return mode.k_sp, mode.v_g, mode.norm


_COLD_GEOMS = [WireGeometry(rho=rho, metal=Material("m", n), host=GAAS, lambda0=lam)
               for n in (0.2 + 7.0j, 0.1 + 3.6j, 0.3 + 5.0j)
               for rho in (0.5, 1.0, 2.0, 5.0, 30.0, 100.0, 500.0, 1500.0, 3000.0)
               for lam in (700.0, 1000.0, 1400.0)]


def test_cold_solve_matches_scalar_bessel_calls_bitwise(monkeypatch):
    # the characteristic function takes its four Bessel values from two
    # order-array calls; every solve must equal the scalar-call one bit
    # for bit (k_sp, v_g and norm), or fail the same way
    arrays = [_cold_solve(g) for g in _COLD_GEOMS]
    monkeypatch.setattr(nanowire, "_characteristic", _characteristic_four_calls)
    scalars = [_cold_solve(g) for g in _COLD_GEOMS]
    assert sum(isinstance(a[0], complex) for a in arrays) > 60
    assert arrays == scalars


# the mode's field with one scalar Bessel call per order: the forms that
# GuidedMode.raw, GuidedMode.exterior and the norm density replace


def _raw_exterior(mode, r):
    kv0 = specfun.bessel_k(0, mode.kappa_out * r)
    kv1 = specfun.bessel_k(1, mode.kappa_out * r)
    return 1j * (mode.k_sp / mode.kappa_out) * kv1, kv0


def _raw_interior(mode, r):
    if r == 0.0:
        return 0.0j, complex(mode.a_in)
    iv0, _ = specfun.bessel_ik(0, mode.kappa_in * r)
    iv1, _ = specfun.bessel_ik(1, mode.kappa_in * r)
    return -1j * (mode.k_sp / mode.kappa_in) * mode.a_in * iv1, mode.a_in * iv0


def _d_ez_mag_dr_per_order(mode, r):
    kv0 = specfun.bessel_k(0, mode.kappa_out * r)
    kv1 = specfun.bessel_k(1, mode.kappa_out * r)
    if kv0 == 0.0:
        raise OutOfDomainError("K0 underflows to 0")
    return -mode.norm * (mode.kappa_out * kv1 * kv0.conjugate()).real / abs(kv0)


def _exterior_per_order(mode, r):
    e_r, e_z = _raw_exterior(mode, r)
    return mode.norm * abs(e_r), mode.norm * abs(e_z), _d_ez_mag_dr_per_order(mode, r)


def _profile(mode, r):
    """Magnitudes (E_r, E_z) of the normalized mode, inside or outside the wire."""
    e_r, e_z = mode.raw(r)
    return mode.norm * abs(e_r), mode.norm * abs(e_z)


def _norm_integral_per_order(geom, k_sp, kap_in, kap_out, a_in):
    ratio_in = abs(k_sp / kap_in) ** 2
    ratio_out = abs(k_sp / kap_out) ** 2
    a2 = abs(a_in) ** 2

    def density(r, row):
        inner = row == 0
        out = np.empty_like(r)
        r_in, r_out = r[inner], r[~inner]
        iv0, _ = specfun.bessel_ik(0, kap_in * r_in)
        iv1, _ = specfun.bessel_ik(1, kap_in * r_in)
        dens = a2 * (np.abs(iv0) ** 2 + ratio_in * np.abs(iv1) ** 2)
        out[inner] = geom.metal.eps.real * dens * 2.0 * math.pi * r_in
        kv0 = specfun.bessel_k(0, kap_out * r_out)
        kv1 = specfun.bessel_k(1, kap_out * r_out)
        dens = np.abs(kv0) ** 2 + ratio_out * np.abs(kv1) ** 2
        out[~inner] = geom.host.eps.real * dens * 2.0 * math.pi * r_out
        return out

    r_max = geom.rho + nanowire._NORM_TAIL / kap_out.real
    with np.errstate(over="ignore", invalid="ignore"):
        (w_in, w_out), _ = nanowire.quad(density, np.array([0.0, geom.rho]),
                                         np.array([geom.rho, r_max]), 1e-11)
    return float(w_in + w_out)


def _cold_mode(geom):
    try:
        return nanowire.solve_dispersion.__wrapped__(geom)
    except MesoqedError as exc:
        return type(exc)


def _bits(value):
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    z = complex(value)
    return z.real.hex(), z.imag.hex()


def _outcome(fn, *args):
    # the value's bits, or the type of the error it raised
    try:
        return _bits(fn(*args))
    except MesoqedError as exc:
        return type(exc)


def test_mode_fields_match_per_order_bessel_calls_bitwise(monkeypatch):
    # raw, exterior and the norm density take each radial Bessel pair
    # (I0, I1 or K0, K1) from one order-array call; each must equal the
    # per-order scalar calls bit for bit, or fail the same way
    modes = [_cold_mode(g) for g in _COLD_GEOMS]
    monkeypatch.setattr(nanowire.GuidedMode, "_norm_integral", lambda m: _norm_integral_per_order(
        m.geometry, m.k_sp, m.kappa_in, m.kappa_out, m.a_in))
    per_order = [_cold_mode(g) for g in _COLD_GEOMS]
    # a norm is positive and finite, so == compares its bits
    assert [getattr(m, "norm", m) for m in modes] == [getattr(m, "norm", m) for m in per_order]
    modes = [m for m in modes if isinstance(m, nanowire.GuidedMode)]
    assert len(modes) > 60
    for mode in modes:
        rho = mode.geometry.rho
        for r in (0.0, rho / 2.0, rho * (1.0 - 1e-9)):
            assert _outcome(mode.raw, r) == _outcome(_raw_interior, mode, r)
        for r in (rho, rho + 20.0, rho + 300.0):
            assert _outcome(mode.raw, r) == _outcome(_raw_exterior, mode, r)
            assert _outcome(mode.exterior, r) == _outcome(_exterior_per_order, mode, r)


def test_constructor_rebuilds_the_solved_mode_bitwise():
    # the mode derives kappa_in, kappa_out, a_in and norm from its root, so
    # rebuilding it from (k_sp, v_g, residual, geometry) gives every bit back
    modes = [m for m in map(_cold_mode, _COLD_GEOMS) if isinstance(m, nanowire.GuidedMode)]
    assert len(modes) > 60
    for mode in modes:
        again = nanowire.GuidedMode(mode.k_sp, mode.v_g, mode.residual, mode.geometry)
        assert again.geometry == mode.geometry
        for f in dataclasses.fields(mode):
            if f.name != "geometry":
                assert _bits(getattr(again, f.name)) == _bits(getattr(mode, f.name)), f.name


def test_unnormalizable_mode_raises_in_the_solve():
    # |I0(kappa_in r)|^2 overflows the norm integral of a 5 um wire at 600 nm:
    # the solve itself refuses the mode, not a later use of its norm
    with pytest.raises(ContractViolationError, match="normalization integral"):
        nanowire.solve_dispersion.__wrapped__(paper_wire(lambda0=600.0, rho=5000.0))


def test_geometry_validation():
    with pytest.raises(ParameterError):
        WireGeometry(rho=0.0, metal=GAAS, host=GAAS, lambda0=1000.0)
    with pytest.raises(ParameterError):
        WireGeometry(rho=30.0, metal=GAAS, host=GAAS, lambda0=-1.0)
    for rho, lambda0 in ((math.inf, 1000.0), (30.0, math.inf)):
        with pytest.raises(ParameterError, match="must be finite and > 0, got inf"):
            WireGeometry(rho=rho, metal=SILVER, host=GAAS, lambda0=lambda0)
    with pytest.raises(ParameterError, match="d must be finite and > 0, got inf"):
        plasmon_rates(GEOM, math.inf, MOMENTS, AXIAL)
    with pytest.raises(ParameterError, match="d must be finite and > 0, got inf"):
        quasistatic_background(GEOM, math.inf, AXIAL)
    lossy = Material("lossy", 3.42 + 0.1j)
    with pytest.raises(ParameterError):
        WireGeometry(rho=30.0, metal=Material("m", 7.0j), host=lossy, lambda0=1000.0)


def test_large_radius_approaches_planar_mode():
    big = paper_wire(rho=5000.0)
    k_wire = solve_dispersion(big).k_sp
    k_flat = spp_pole(paper_interface(100.0))
    assert abs(k_wire.real - k_flat.real) / k_flat.real < 0.01


# --------------------------------------------------------- plasmon rates


def test_axial_rates_snapshot():
    ladder = plasmon_rates(GEOM, 20.0, MOMENTS, AXIAL)
    assert ladder.gamma0 == pytest.approx(0.876078377555, rel=1e-9)
    assert ladder.gamma1 == pytest.approx(-1.03482185622, rel=1e-9)
    assert ladder.gamma2 == pytest.approx(0.305841858801, rel=1e-9)


def test_radial_rates_snapshot():
    ladder = plasmon_rates(GEOM, 20.0, MOMENTS, RADIAL)
    assert ladder.gamma0 == pytest.approx(2.15098006723, rel=1e-9)
    assert ladder.gamma1 == 0.0
    assert ladder.gamma2 == pytest.approx(0.139624874136, rel=1e-9)


def test_radial_gamma1_vanishes_everywhere():
    # the counter-propagating mode pair cancels the gradient rung
    # exactly for a radial dipole, independent of distance and mounting;
    # the zero is +0.0 either way (a -0.0 would print as "-0")
    for d in (5.0, 20.0, 77.0, 300.0):
        for moments in (MOMENTS, MOMENTS.flipped()):
            gamma1 = plasmon_rates(GEOM, d, moments, RADIAL).gamma1
            assert gamma1 == 0.0
            assert math.copysign(1.0, gamma1) > 0


def test_wire_expansion_bound():
    # Re(k_sp) L_qd = 1.66 at R = 10 nm (0.754 on the paper wire)
    with pytest.raises(ExpansionInvalidError, match="1.661 >= 1"):
        plasmon_rates(paper_wire(rho=10.0), 20.0, MOMENTS, AXIAL)


def test_axial_first_rung_ratios():
    expected = {20.0: 1.1812, 40.0: 1.1104, 60.0: 1.0698, 80.0: 1.0433, 100.0: 1.0247}
    for d, ref in expected.items():
        ladder = plasmon_rates(GEOM, d, MOMENTS, AXIAL)
        ratio = abs(ladder.gamma1) / ladder.gamma0
        assert ratio == pytest.approx(ref, abs=2e-4)
        assert ratio < 1.2


def test_second_rung_strength_axial():
    ladder = plasmon_rates(GEOM, 20.0, MOMENTS, AXIAL)
    ratio = ladder.gamma2 / ladder.gamma0
    assert ratio == pytest.approx(0.3491, rel=5e-3)
    # same scale as the squared figure of merit, enhanced by the
    # transverse field shape (|k| K1 / (kappa_out K0))^2
    mode = solve_dispersion(GEOM)
    g2_scale = (mode.k_sp.real * 10.0) ** 2
    assert g2_scale / 3.0 < ratio < g2_scale * 3.0


def test_flip_identities_on_the_wire():
    for orientation in (AXIAL, RADIAL):
        for d in (20.0, 60.0, 100.0, 300.0):
            up = plasmon_rates(GEOM, d, MOMENTS, orientation)
            down = plasmon_rates(GEOM, d, MOMENTS.flipped(), orientation)
            assert up.total - down.total == pytest.approx(2.0 * up.gamma1, abs=1e-12)
            assert up.total + down.total == pytest.approx(
                2.0 * (up.gamma0 + up.gamma2), abs=1e-12
            )
            ldos, grad = extract_fields(up.total, down.total)
            assert ldos == pytest.approx(up.gamma0 + up.gamma2, abs=1e-12)
            assert grad == pytest.approx(up.gamma1, abs=1e-12)


def test_inverted_mounting_boosts_plasmon_launch():
    # the direct mounting interferes destructively with the gradient
    # channel on this side of the wire; flipping the emitter recovers it
    for d in (20.0, 60.0, 100.0):
        direct = plasmon_rates(GEOM, d, MOMENTS, AXIAL).total
        inverted = plasmon_rates(GEOM, d, MOMENTS.flipped(), AXIAL).total
        assert inverted / direct >= 5.0


def test_dipole_rung_decays_monotonically():
    ds = np.linspace(5.0, 300.0, 60)
    g0 = [plasmon_rates(GEOM, float(d), MOMENTS, AXIAL).gamma0 for d in ds]
    assert all(a > b for a, b in zip(g0, g0[1:]))


def test_rate_validation():
    with pytest.raises(ParameterError):
        plasmon_rates(GEOM, 0.0, MOMENTS, AXIAL)
    with pytest.raises(ParameterError):
        plasmon_rates(GEOM, 20.0, MOMENTS, "diagonal")
    # the point is checked before the mode solve: a wire with no bound mode
    # still reports the bad orientation, not the missing mode
    dielectric = WireGeometry(rho=30.0, metal=Material("diel", 1.5), host=GAAS, lambda0=1000.0)
    with pytest.raises(ParameterError, match="orientation"):
        plasmon_rates(dielectric, 20.0, MOMENTS, "diagonal")


# -------------------------------------- against the reduced-formula oracle


def _reduced_ladder(d, orientation):
    mode = solve_dispersion(GEOM)
    r0 = GEOM.rho + d
    e_r, e_z, dez = mode.exterior(r0)
    return oracles.wire_plasmon_ladder(
        mode.k_sp, mode.v_g, e_r, e_z, dez, GEOM.lambda0,
        GAAS.n.real, MOMENTS.lambda_over_mu, orientation == AXIAL,
    )


@pytest.mark.parametrize("orientation", [AXIAL, RADIAL])
@pytest.mark.parametrize("d", [20.0, 55.0, 100.0])
def test_bundle_route_matches_reduced_route(orientation, d):
    # plasmon_rates is the generic ladder of plasmon_bundle; the oracle
    # is the E_r*E_z magnitude form of the same ladder
    g0, g1, g2 = _reduced_ladder(d, orientation)
    ladder = plasmon_rates(GEOM, d, MOMENTS, orientation)
    assert ladder.gamma0 == pytest.approx(g0, rel=1e-12)
    assert ladder.gamma1 == pytest.approx(g1, rel=1e-12, abs=1e-15)
    assert ladder.gamma2 == pytest.approx(g2, rel=1e-12)


def _counting(calls: dict, name: str, fn):
    """fn, adding each of its calls to calls[name]."""
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


@pytest.mark.parametrize("orientation", [AXIAL, RADIAL])
def test_plasmon_rates_checks_solves_and_normalizes_once(monkeypatch, orientation):
    # one point check, one mode lookup and one host norm per point, and
    # the ladder has the bits of rate_ladder on plasmon_bundle
    calls = dict.fromkeys(("_check_point", "solve_dispersion", "homogeneous_im_gxx"), 0)

    for name in calls:
        monkeypatch.setattr(nanowire, name, _counting(calls, name, getattr(nanowire, name)))
    ladder = plasmon_rates(GEOM, 35.0, MOMENTS, orientation)
    assert calls == dict.fromkeys(calls, 1)
    norm = homogeneous_im_gxx(GEOM.host, GEOM.lambda0)
    want = rate_ladder(plasmon_bundle(GEOM, 35.0, orientation), MOMENTS, norm)
    assert (ladder.gamma0, ladder.gamma2) == (want.gamma0, want.gamma2)
    assert ladder.gamma1 == (want.gamma1 if orientation == AXIAL else 0.0)


@given(d=st.floats(10.0, 200.0))
def test_bundle_route_matches_reduced_route_generic(d):
    _, g1, g2 = _reduced_ladder(d, AXIAL)
    ladder = plasmon_rates(GEOM, d, MOMENTS, AXIAL)
    assert ladder.gamma1 == pytest.approx(g1, rel=1e-10)
    assert ladder.gamma2 == pytest.approx(g2, rel=1e-10)


def test_wire_multipole_split():
    norm = homogeneous_im_gxx(GAAS, 1000.0)
    k0 = GEOM.k0
    mode = solve_dispersion(GEOM)
    closed = abs(EPS_HOST * k0 * k0 / (2.0 * mode.k_sp**2 - EPS_HOST * k0 * k0))
    for d in (20.0, 60.0, 100.0):
        split = md_eq_split(plasmon_bundle(GEOM, d, AXIAL), MOMENTS, norm)
        ladder = plasmon_rates(GEOM, d, MOMENTS, AXIAL)
        assert split.gamma1 == pytest.approx(ladder.gamma1, rel=1e-10)
        ratio = abs(split.gamma1_md / split.gamma1_eq)
        assert ratio < 0.2
        assert abs(ratio - closed) < 5e-4


# ------------------------------------------------- electrostatic floor


def test_background_snapshot_values():
    cases = {
        (20.0, AXIAL): 1.94990359548,
        (20.0, RADIAL): 2.70601802935,
        (50.0, AXIAL): 1.113993966,
        (50.0, RADIAL): 1.172536116,
        (100.0, AXIAL): 1.00560738584,
        (100.0, RADIAL): 1.007614393,
    }
    for (d, orientation), ref in cases.items():
        got = quasistatic_background(GEOM, d, orientation)
        assert got == pytest.approx(ref, rel=1e-8)


def test_background_fades_at_distance():
    for orientation in (AXIAL, RADIAL):
        far = quasistatic_background(GEOM, 1000.0, orientation)
        assert far > 1.0
        assert far == pytest.approx(1.0, abs=1e-6)


def test_background_harmonic_cutoff_is_converged(monkeypatch):
    # at the paper's distances the stop rule, not the order cap, ends the
    # series: a higher cap moves the harmonic chunks, the sum must not notice
    for d in (20.0, 155.0):
        for orientation in (AXIAL, RADIAL):
            got, chunks = {}, {}
            for m_max in (30, 45, 60):
                monkeypatch.setattr(nanowire, "_QS_M_MAX", m_max)
                got[m_max] = quasistatic_background(GEOM, d, orientation)
                chunks[m_max] = [c[-1] for c in
                                 nanowire._harmonic_chunks(d, GEOM.rho, orientation == RADIAL)]
            assert got[30] == got[45] == got[60]
            assert chunks[30][-1] == 30 and chunks[60][-1] == 60


@pytest.mark.filterwarnings("ignore:wire background at d=:RuntimeWarning")
@pytest.mark.parametrize("d", [12.0, 20.0, 155.0])
def test_background_harmonics_do_not_depend_on_their_batch(monkeypatch, d):
    # every harmonic integrated alone must give the batched sum bit for bit
    batched = quasistatic_background(GEOM, d, RADIAL)

    def one_order_chunks(d, rho, radial):
        return [np.array([m]) for m in range(nanowire._QS_M_MAX + 1)]

    monkeypatch.setattr(nanowire, "_harmonic_chunks", one_order_chunks)
    assert quasistatic_background(GEOM, d, RADIAL) == batched


@pytest.mark.filterwarnings("ignore:wire background at d=:RuntimeWarning")
@pytest.mark.parametrize("orientation", [AXIAL, RADIAL])
@pytest.mark.parametrize("d", [10.0, 12.0, 15.0, 20.0, 30.0, 50.0, 100.0, 155.0, 300.0])
def test_background_matches_scalar_quadrature(d, orientation):
    got = quasistatic_background(GEOM, d, orientation)
    ref = oracles.quasistatic_background_scalar(
        30.0, d, 1000.0, GAAS.n, SILVER.n, orientation == RADIAL
    )
    assert got - 1.0 == pytest.approx(ref - 1.0, rel=1e-10)


def test_background_makes_one_quad_call_at_default_m_max(monkeypatch):
    # the first chunk is sized per orientation: the radial term falls
    # about one order later, and a radial chunk one order short used to
    # cost a second call of 8 more harmonics (94 of these 581 distances);
    # every row starts at k = 0
    calls = []
    real_quad = nanowire.quad

    def spy(f, lower, upper, rel_tol, *args):
        calls[-1] += 1
        assert not lower.any()
        return real_quad(f, lower, upper, rel_tol, *args)

    monkeypatch.setattr(nanowire, "quad", spy)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "wire background at d=", RuntimeWarning)
        for orientation in (AXIAL, RADIAL):
            for d in np.arange(10.0, 300.25, 0.5):
                calls.append(0)
                quasistatic_background(GEOM, float(d), orientation)
    assert len(calls) == 2 * 581 and set(calls) == {1}


def recording_quad(sizes):
    """`nanowire.quad` that records the size of every integrand call in `sizes`."""
    real_quad = nanowire.quad

    def counting(func, *args):
        return real_quad(lambda k, row: (sizes.append(k.size), func(k, row))[1], *args)

    return counting


@pytest.mark.parametrize("d, orientation, cold, warm", [
    (20.0, AXIAL, (7, 4368), (1, 4368)),
    (20.0, RADIAL, (7, 4641), (1, 4599)),
    (155.0, AXIAL, (5, 2142), (1, 2142)),
])
def test_background_integrand_calls(monkeypatch, d, orientation, cold, warm):
    # with a cold memo the first call looks ahead along each harmonic's
    # left spine, three levels down; plain bisection makes 10, 10 and 8
    # calls on 4368, 4599 and 2142 nodes, and 0, 1 and 0 pairs of spine
    # halves go unused. The memo then holds the trees the harmonics split,
    # so the same background again evaluates in one call exactly the
    # nodes of plain bisection
    sizes = []
    monkeypatch.setattr(nanowire, "quad", recording_quad(sizes))
    counts = []
    for _ in range(2):
        sizes.clear()
        quasistatic_background(GEOM, d, orientation)
        counts.append((len(sizes), sum(sizes)))
    assert counts == [cold, warm]


def test_background_borrows_the_nearest_bucket_of_its_kind(monkeypatch):
    # 20 and 22 nm lie in neighbouring 1/8-octave buckets of d/rho: the
    # empty bucket of 22 nm looks ahead along the trees of 20 nm, in 3
    # calls instead of 7, but not along those of the other orientation or
    # of another tolerance
    sizes = []
    monkeypatch.setattr(nanowire, "quad", recording_quad(sizes))

    def calls(d, orientation, rel_tol=1e-8):
        sizes.clear()
        quasistatic_background(GEOM, d, orientation, rel_tol)
        return len(sizes)

    others = [(22.0, RADIAL), (22.0, AXIAL, 1e-9)]
    cold = []
    for args in others:
        nanowire._QS_TREES.clear()
        cold.append(calls(*args))
    nanowire._QS_TREES.clear()
    assert calls(20.0, AXIAL) == 7
    assert [calls(*args) for args in others] == cold == [7, 8]
    assert calls(22.0, AXIAL) == 3
    buckets = [key[3] for key in nanowire._QS_TREES]
    assert buckets == [-5, -4, -4, -4]


def test_background_tree_memo_keys_and_bound(monkeypatch):
    # the bucket is floor(8 log2(d/rho)), taken as a difference of
    # logarithms: d/rho leaves double range at 1e300 nm from a 1e-10 nm
    # wire and at 1e-300 nm from a 1e10 nm one. The tolerance is part of
    # the key: at 300 nm the trees go 8 levels down at 1e-14 and 4 at
    # 1e-8. A sweep over 10 000 buckets keeps the 128 used last
    for rho, d in ((1e-10, 1e300), (1e10, 1e-300)):
        key = (dataclasses.replace(GEOM, rho=rho), AXIAL, 1e-8)
        try:
            quasistatic_background(key[0], d, AXIAL)
        except MesoqedError:
            pass
        bucket = math.floor(8 * (math.log2(d) - math.log2(rho)))
        assert list(nanowire._QS_TREES)[-1] == (*key, bucket)
    quasistatic_background(GEOM, 300.0, AXIAL)
    with pytest.warns(RuntimeWarning, match="stopped above the relative tolerance 1e-14"):
        quasistatic_background(GEOM, 300.0, AXIAL, 1e-14)
    *_, loose, tight = nanowire._QS_TREES.items()
    assert [key[2] for key in (loose[0], tight[0])] == [1e-8, 1e-14]
    depth = [max(max(tree, default=1) for tree in trees.values()).bit_length() - 1
             for _, trees in (loose, tight)]
    assert depth == [4, 8]

    def no_quad(f, lower, upper, rel_tol, trees):
        return np.zeros(upper.size), [set() for _ in range(upper.size)]

    monkeypatch.setattr(nanowire, "quad", no_quad)
    sweep = 2.0 ** (np.arange(-5000, 5000) / 8 + 1 / 16) * GEOM.rho
    for d in sweep.tolist():
        quasistatic_background(GEOM, d, RADIAL)
        assert len(nanowire._QS_TREES) <= nanowire._QS_TREE_ENTRIES
    assert [key[3] for key in nanowire._QS_TREES] == list(range(4872, 5000))
    # a bucket used again outlasts the ones used since: 4873 goes first
    for d in (sweep[-128], 2.0 ** (5000 / 8 + 1 / 16) * GEOM.rho):
        quasistatic_background(GEOM, float(d), RADIAL)
    assert [key[3] for key in nanowire._QS_TREES] == [*range(4874, 5000), 4872, 5000]


# Re eps = -10.9 is not below -eps_host = -11.7: no electrostatic resonance
NO_RESONANCE = Material("no resonance", 0.1 + 3.3j)


def foreign_tree_memo(geom):
    """A tree memo of geom from other distances, the other orientation and another tolerance.

    The trees of backgrounds at 1e-12 are filed under the default
    tolerance and the other orientation.
    """
    nanowire._QS_TREES.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for orientation in (AXIAL, RADIAL):
            for d in (0.5, 3.0, 40.0, 1000.0, 1e250):
                try:
                    quasistatic_background(geom, d, orientation, 1e-12)
                except MesoqedError:
                    pass
    other = {AXIAL: RADIAL, RADIAL: AXIAL}
    memo = {(g, other[o], 1e-8, b): trees for (g, o, _, b), trees in nanowire._QS_TREES.items()}
    nanowire._QS_TREES.clear()
    nanowire._QS_TREES.update(memo)


def deep_spine_memo(geom, distances):
    """A tree memo of geom in which every harmonic's tree is a left spine 40 levels deep."""
    nanowire._QS_TREES.clear()
    for orientation in (AXIAL, RADIAL):
        for d in distances:
            bucket = math.floor(8 * (math.log2(d) - math.log2(geom.rho)))
            nanowire._QS_TREES[(geom, orientation, 1e-8, bucket)] = {
                m: {1 << level for level in range(40)} for m in range(31)}


@pytest.mark.parametrize("geom, distances", [
    (GEOM, (1e-300, 1e-7, 7.25, 7.5, 10.0, 12.0, 155.0, 300.0, 1e300)),
    (dataclasses.replace(GEOM, metal=NO_RESONANCE),
     (1e-300, 1e-7, 7.25, 7.5, 10.0, 12.0, 155.0, 300.0, 1e300)),
    (dataclasses.replace(GEOM, rho=1e-6, metal=NO_RESONANCE), (1e300,)),
], ids=["paper", "no resonance", "1e-6 nm no resonance"])
def test_background_look_ahead_changes_no_outcome(monkeypatch, geom, distances):
    # the first quad call evaluates the halves of every panel in each
    # harmonic's tree, nodes that plain bisection may never reach.
    # Bitwise the value, the error and the warnings of plain bisection at
    # distances from 1e-300 to 1e300 nm, with a cold memo (the left
    # spine, then the trees of the distances before), with one of foreign
    # trees and with one of left spines 40 levels deep. At 1e300 nm, and
    # at some other distances, such a spine reaches k*rho below 1e-308,
    # where K1 overflows and `_background_node` raises; plain bisection
    # does not go there, and on the 1e-6 nm wire it returns 1.0
    def outcomes():
        out = []
        for orientation in (AXIAL, RADIAL):
            for d in distances:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        value = float.hex(quasistatic_background(geom, d, orientation))
                    except MesoqedError as exc:
                        value = (type(exc), str(exc))
                out.append((d, orientation, value, [str(w.message) for w in caught]))
        return out

    if geom.metal is NO_RESONANCE:
        with pytest.raises(NoBoundModeError):
            nanowire._electrostatic_root(geom)
    cold = outcomes()
    foreign_tree_memo(geom)
    foreign = outcomes()
    deep_spine_memo(geom, distances)
    deep = outcomes()
    monkeypatch.setattr(nanowire, "quad", oracles.bisection_quad)
    assert cold == foreign == deep == outcomes()


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": math.nan}, {"rel_tol": 0.0}, {"rel_tol": -1e-8}, {"rel_tol": math.inf},
])
def test_background_tolerance_and_order_validation(kwargs):
    # rel_tol=nan used to return 1.0334 at d = 50 nm (1.11399 is right);
    # lossless metal, which integrates nothing, checks it too
    lossless = WireGeometry(rho=30.0, metal=Material("drude", 3.5j), host=GAAS, lambda0=1000.0)
    for geom in (GEOM, lossless):
        with pytest.raises(ParameterError, match="must be"):
            quasistatic_background(geom, 50.0, AXIAL, **kwargs)


def test_background_lossless_metal_is_unity():
    lossless = WireGeometry(
        rho=30.0, metal=Material("drude", 3.5j), host=GAAS, lambda0=1000.0
    )
    assert quasistatic_background(lossless, 20.0, AXIAL) == 1.0


def test_background_validation_and_convergence_guard():
    with pytest.raises(ParameterError):
        quasistatic_background(GEOM, -5.0, AXIAL)
    with pytest.raises(ConvergenceError) as err:
        quasistatic_background(GEOM, 5.0, AXIAL)
    # the partial sums print to 6 significant digits, so a last-bit
    # change of the sum leaves the message as it is
    assert str(err.value) == ("azimuthal harmonic sum still moving at m_max=30; "
                              "last partial sums [10.3176, 10.3185, 10.3192, 10.3197]")


@pytest.mark.parametrize("orientation", [AXIAL, RADIAL])
@pytest.mark.parametrize("d", [1e-7, 1e-300])
def test_background_that_is_not_finite_raises(orientation, d):
    # so close to the wire every harmonic is NaN: the series is refused,
    # not accepted with a warning, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as err:
            quasistatic_background(GEOM, d, orientation)
    assert str(err.value) == ("azimuthal harmonic sum not finite at m_max=30; "
                              "last partial sums [nan, nan, nan, nan]")


class _CountingSpecial:
    """scipy.special stand-in that counts the elements its Bessel functions return.

    Each counted call must pass a float64 argument (and integer orders),
    so no complex promotion reaches scipy unseen.
    """

    def __init__(self, real):
        self._real = real
        self.elements = {"ive": 0, "kve": 0, "k0e": 0, "k1e": 0, "i1e": 0}

    def __getattr__(self, name):
        fn = getattr(self._real, name)
        if name not in self.elements:
            return fn

        def counted(*args):
            *orders, z = map(np.asarray, args)
            assert z.dtype == np.float64, (name, z.dtype)
            assert all(np.issubdtype(o.dtype, np.integer) for o in orders), name
            out = fn(*args)
            self.elements[name] += np.size(out)
            return out

        return counted


@pytest.mark.parametrize("orientation", [AXIAL, RADIAL])
def test_background_bessel_work_per_node(monkeypatch, orientation):
    # every quadrature node takes the formula's Bessel values, all of
    # them real: I_m at k*rho, the K0, K1 seeds of the K ladder at k*rho
    # and k*(rho+d), in either orientation, and I_1 at the order-0 nodes
    nodes = [0]
    orders = []
    real_quad, real_node = nanowire.quad, nanowire._node_bessel

    def counting_quad(func, *args):
        def integrand(k, row):
            nodes[0] += k.size
            return func(k, row)

        return real_quad(integrand, *args)

    def node_bessel(m, *args):
        orders.append(m)
        return real_node(m, *args)

    monkeypatch.setattr(nanowire, "quad", counting_quad)
    monkeypatch.setattr(nanowire, "_node_bessel", node_bessel)
    special = _CountingSpecial(specfun._special())
    monkeypatch.setattr(specfun, "_special", lambda: special)
    quasistatic_background(GEOM, 20.0, orientation)
    orders = np.concatenate(orders)
    zero = np.count_nonzero(orders == 0)
    assert orders.size == nodes[0] and 0 < zero < nodes[0]
    assert special.elements == {"ive": nodes[0], "kve": 0, "k0e": 2 * nodes[0],
                                "k1e": 2 * nodes[0], "i1e": zero}


@pytest.mark.parametrize("orientation", [AXIAL, RADIAL])
def test_background_takes_one_specfun_call_per_round(monkeypatch, orientation):
    # each quadrature round is one integrand call, and it takes every
    # node's Bessel values from one call of the background's routine;
    # no other specfun function runs (`_special` is the scipy accessor,
    # `_worker` the worker thread's)
    rounds = [0]
    real_quad = nanowire.quad

    def counting_quad(func, *args):
        def integrand(k, row):
            rounds[0] += 1
            return func(k, row)

        return real_quad(integrand, *args)

    calls = {}

    for name, fn in list(vars(specfun).items()):
        if (name not in ("_special", "_worker")
                and getattr(fn, "__module__", None) == specfun.__name__):
            calls[name] = 0
            monkeypatch.setattr(specfun, name, _counting(calls, name, fn))
    assert {"_background_node", "bessel_ik_scaled", "bessel_k"} <= calls.keys()
    monkeypatch.setattr(nanowire, "quad", counting_quad)
    quasistatic_background(GEOM, 20.0, orientation)
    assert rounds[0] > 1
    assert calls == {**dict.fromkeys(calls, 0), "_background_node": rounds[0]}


def test_mode_field_bessel_work(monkeypatch):
    # each radial pair of the solved mode's field is one order-array call:
    # K0, K1 at the emitter once for E_r, E_z and d|E_z|/dr, and one
    # pair per nonzero radius of a field map (E at r = 0 is closed form):
    # I0, I1 inside the wire, where no K is computed, and K0, K1 outside
    solve_dispersion(GEOM)
    calls = dict.fromkeys(("bessel_ik", "bessel_i", "bessel_k", "bessel_ik_scaled",
                           "bessel_k_scaled"), 0)

    for name in calls:
        monkeypatch.setattr(specfun, name, _counting(calls, name, getattr(specfun, name)))
    for orientation in (AXIAL, RADIAL):
        calls.update(dict.fromkeys(calls, 0))
        plasmon_bundle(GEOM, 20.0, orientation)
        assert calls == {"bessel_ik": 0, "bessel_i": 0, "bessel_k": 1, "bessel_ik_scaled": 0,
                         "bessel_k_scaled": 0}
    calls.update(dict.fromkeys(calls, 0))
    fm = field_map(GEOM, FieldWindow(r_min=0.0, r_max=GEOM.rho + 120.0, z_min=0.0, z_max=500.0))
    assert fm.r.size == 81
    assert calls == {"bessel_ik": 0,
                     "bessel_i": np.count_nonzero((fm.r > 0.0) & (fm.r < GEOM.rho)),
                     "bessel_k": np.count_nonzero(fm.r >= GEOM.rho), "bessel_ik_scaled": 0,
                     "bessel_k_scaled": 0}
    assert calls["bessel_i"] + calls["bessel_k"] == 80


@pytest.fixture(scope="module")
def paper_wire_nodes():
    """Every (m, x, y, radial, _node_bessel output) the paper wire's
    background integrates at d = 10, 20, 50, 155 and 300 nm, both
    orientations (x = k*rho up to about 150, orders up to 30)."""
    seen = []
    real = nanowire._node_bessel

    def spy(m, x, y, radial):
        out = real(m, x, y, radial)
        seen.append((m, x, y, radial, out))
        return out

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "wire background at d=", RuntimeWarning)
        patch.setattr(nanowire, "_node_bessel", spy)
        for d in (10.0, 20.0, 50.0, 155.0, 300.0):
            for orientation in (AXIAL, RADIAL):
                quasistatic_background(GEOM, d, orientation)
    return seen


def test_background_node_derivatives_match_the_one_sided_forms(paper_wire_nodes):
    # I'_m from the Wronskian (I_1 at m = 0), K'_m from the ladder and
    # the emitter's w against the scaled one-sided forms of scipy's ive
    # and kve
    seen = paper_wire_nodes
    worst = dict.fromkeys(("ivp", "kvp", "w"), 0.0)
    for m, x, y, radial, (_, _, ivp, kvp, w) in seen:
        lo = np.abs(m - 1)
        ref_w = -kve(lo, y) - (m / y) * kve(m, y) if radial else kve(m, y)
        for name, got, ref in (("ivp", ivp, ive(lo, x) - (m / x) * ive(m, x)),
                               ("kvp", kvp, -kve(lo, x) - (m / x) * kve(m, x)),
                               ("w", w, ref_w)):
            worst[name] = max(worst[name], np.max(np.abs(got / ref - 1.0)))
    assert {radial for *_, radial, _ in seen} == {False, True}
    assert min(x.min() for _, x, *_ in seen) < 1e-3
    assert 140.0 < max(x.max() for _, x, *_ in seen) < 150.0
    assert max(worst.values()) < 1e-13, worst


def test_background_nodes_are_real(paper_wire_nodes):
    # all five node values are float64; I_m has the bits of the complex
    # pair's I, and K_m is the ladder's, within its bound of kve at
    # orders up to 30
    for *_, out in paper_wire_nodes:
        assert all(v.dtype == np.float64 for v in out)
    m = np.concatenate([m for m, *_ in paper_wire_nodes])
    x = np.concatenate([x for _, x, *_ in paper_wire_nodes])
    i_m = np.concatenate([out[0] for *_, out in paper_wire_nodes])
    k_m = np.concatenate([out[1] for *_, out in paper_wire_nodes])
    assert m.max() == 30
    assert np.array_equal(i_m, specfun.bessel_ik_scaled(m, x)[0].real)
    assert np.abs(k_m / kve(m, x) - 1.0).max() < 2e-14


class _RecordingWorker:
    """The worker thread's executor, keeping every future it hands out."""

    def __init__(self, executor):
        self._executor = executor
        self.futures = []

    def submit(self, *args):
        future = self._executor.submit(*args)
        self.futures.append(future)
        return future


def test_background_node_bits_do_not_depend_on_the_overlap(monkeypatch, paper_wire_nodes):
    # every batch the paper wire integrates has the same six outputs
    # whether its I runs partly on the worker thread (_OVERLAP 0) or on
    # the calling thread alone (_OVERLAP above every batch), and the
    # background's own outputs are those the default threshold gave
    sizes = [m.size for m, *_ in paper_wire_nodes]
    assert min(sizes) < specfun._OVERLAP <= max(sizes)
    worker = _RecordingWorker(specfun._worker())
    monkeypatch.setattr(specfun, "_worker", lambda: worker)
    for m, x, y, radial, out in paper_wire_nodes:
        both = []
        for overlap in (0, max(sizes) + 1):
            monkeypatch.setattr(specfun, "_OVERLAP", overlap)
            both.append([v.tobytes() for v in specfun._background_node(m, x, y)])
            got = nanowire._node_bessel(m, x, y, radial)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in out]
        assert both[0] == both[1]
    # the worker took a share of each batch twice (once through
    # _node_bessel) with _OVERLAP 0, and none above, and nothing is pending
    assert len(worker.futures) == 2 * len(sizes)
    assert all(future.done() for future in worker.futures)


@pytest.mark.parametrize("m, x", [(0, 1e-4), (0, 0.3), (1, 1e-3), (27, 1e-3), (30, 0.0043),
                                  (30, 150.0)])
def test_background_node_derivatives_against_mpmath(m, x):
    # where the one-sided I' form cancels (order 0 at small x, like
    # 1/x^2) or scipy's own I_m is off (about 1e-13 at orders near 30
    # and x near 1e-3), the exact derivative decides
    mp = pytest.importorskip("mpmath")
    y = x * (GEOM.rho + 20.0) / GEOM.rho
    _, _, ivp, kvp, w = nanowire._node_bessel(np.array([m]), np.array([x]), np.array([y]), True)
    with mp.workdps(40):
        # I'_m = (I_{m-1} + I_{m+1})/2 and K'_m = -(K_{m-1} + K_{m+1})/2
        exact = {"ivp": (mp.besseli(abs(m - 1), x) + mp.besseli(m + 1, x)) / 2 * mp.exp(-x),
                 "kvp": -(mp.besselk(abs(m - 1), x) + mp.besselk(m + 1, x)) / 2 * mp.exp(x),
                 "w": -(mp.besselk(abs(m - 1), y) + mp.besselk(m + 1, y)) / 2 * mp.exp(y)}
        for name, got in (("ivp", ivp[0]), ("kvp", kvp[0]), ("w", w[0])):
            assert abs((complex(got) - exact[name]) / exact[name]) < 1e-13, name


def test_background_warns_when_it_accepts_a_stalled_series():
    # at d = 10 nm the radial series still moves at m_max = 30 (last term
    # about 1.4e-7 of the sum) and is accepted below 1e-6: it must say so
    with pytest.warns(RuntimeWarning, match=r"d=10 nm.*m_max=30.*last term 1\.\d+e-07") as rec:
        quasistatic_background(GEOM, 10.0, RADIAL)
    assert len([w for w in rec if "harmonic sum" in str(w.message)]) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quasistatic_background(GEOM, 50.0, RADIAL)


@pytest.mark.parametrize("orientation, d", [(AXIAL, 7.5), (AXIAL, 10.0), (RADIAL, 8.75),
                                            (RADIAL, 10.0)])
def test_background_stall_costs_less_than_twice_its_named_last_term(monkeypatch, orientation, d):
    # an accepted stall drops the orders past 30, all of them positive
    # terms: the error, against a converged scalar sum, is negative and
    # about q/(1-q) times the last term the warning names, with
    # q = (rho/(rho+d))^2 (1.85 times it at 7.5 nm axial)
    rows = []
    real_quad = nanowire.quad

    def spy(f, lower, upper, rel_tol, *args):
        rows.append(upper.size)
        return real_quad(f, lower, upper, rel_tol, *args)

    monkeypatch.setattr(nanowire, "quad", spy)
    with pytest.warns(RuntimeWarning, match="harmonic sum not converged") as rec:
        got = quasistatic_background(GEOM, d, orientation)
    assert sum(rows) == 31  # orders 0..30, none above
    named = float(re.search(r"last term (\S+) of the sum", str(rec[0].message)).group(1))
    converged = oracles.quasistatic_background_scalar(
        30.0, d, 1000.0, GAAS.n, SILVER.n, orientation == RADIAL,
        m_max=200, rel_tol=1e-12, series_tol=1e-15,
    )
    error = (got - converged) / (converged - 1.0)
    assert -2.0 * named < error < 0.0


def test_background_flat_surface_limit():
    # large radius, small gap: the cylinder result must approach the
    # flat-interface electrostatic rate for both dipole orientations. It
    # needs about 200 orders, past the library's 30, so the scalar
    # reference sums them; test_background_matches_scalar_quadrature
    # ties that reference to the library at every order the library sums
    d = 10.0
    for orientation, perpendicular in ((RADIAL, True), (AXIAL, False)):
        got = oracles.quasistatic_background_scalar(
            200.0, d, 1000.0, GAAS.n, SILVER.n, orientation == RADIAL, m_max=250, series_tol=1e-5
        )
        ref = 1.0 + oracles.lossy_surface_rate(
            d, 1000.0, 3.42, 0.2 + 7.0j, perpendicular=perpendicular
        )
        assert (got - 1.0) / (ref - 1.0) == pytest.approx(1.0, abs=0.1)


# ------------------------------------------------------------ field map


def test_field_map_translation_phase():
    window = FieldWindow(r_min=0.0, r_max=150.0, z_min=0.0, z_max=200.0, n_r=16, n_z=11)
    fm = field_map(GEOM, window)
    mode = solve_dispersion(GEOM)
    dz = fm.z[4] - fm.z[1]
    shift = np.exp(1j * mode.k_sp * dz)
    assert np.allclose(fm.e_z[:, 4], fm.e_z[:, 1] * shift, rtol=1e-12, atol=1e-16)
    assert np.allclose(fm.e_r[:, 4], fm.e_r[:, 1] * shift, rtol=1e-12, atol=1e-16)


def test_field_map_shapes_and_moment_independence():
    # the map takes no moments: it is the mode field alone, with the
    # magnitudes the rates use on both sides of the surface
    window = FieldWindow(r_min=0.0, r_max=100.0, z_min=-50.0, z_max=50.0, n_r=7, n_z=5)
    fm = field_map(GEOM, window)
    assert fm.e_r.shape == (7, 5)
    assert fm.e_z.shape == (7, 5)
    mode = solve_dispersion(GEOM)
    decay = np.abs(np.exp(1j * mode.k_sp * fm.z))
    for i, r in enumerate(fm.r):
        mag_r, mag_z = _profile(mode, float(r))
        assert np.allclose(np.abs(fm.e_r[i]), mag_r * decay, rtol=1e-12, atol=0.0)
        assert np.allclose(np.abs(fm.e_z[i]), mag_z * decay, rtol=1e-12, atol=0.0)


def test_field_decays_outside_the_wire():
    mode = solve_dispersion(GEOM)
    rs = np.linspace(40.0, 400.0, 19)
    ez = [mode.exterior(float(r))[1] for r in rs]
    assert all(a > b for a, b in zip(ez, ez[1:]))


def test_boundary_conditions_at_the_surface():
    mode = solve_dispersion(GEOM)
    eps_out = 1e-6
    r_in, r_out = 30.0 - eps_out, 30.0 + eps_out
    er_in, ez_in = mode.raw(r_in)
    er_out, ez_out = mode.raw(r_out)
    # tangential E and normal D continuous
    assert ez_in == pytest.approx(ez_out, rel=1e-4)
    assert EPS_METAL * er_in == pytest.approx(EPS_HOST * er_out, rel=1e-4)


def test_field_map_near_the_axis_takes_no_k():
    # K_1 of kappa_in*r overflows at r = 1e-309 nm, but the interior field
    # is a_in*(I_1, I_0) -> (0, a_in) there and needs no K
    mode = solve_dispersion(GEOM)
    e_r, e_z = mode.raw(1e-300)
    assert abs(e_r) < 1e-290 and e_z == pytest.approx(mode.a_in, rel=1e-15)
    window = FieldWindow(r_min=1e-309, r_max=10.0, z_min=0.0, z_max=500.0, n_r=2, n_z=2)
    fm = field_map(GEOM, window)
    assert np.isfinite(fm.e_r).all() and np.isfinite(fm.e_z).all()
    assert fm.e_z[0, 0] == pytest.approx(mode.norm * mode.a_in, rel=1e-15)


def test_field_map_refuses_a_window_whose_field_overflows():
    # Im k_sp > 0, so e^{i k_sp z} overflows far below z = 0
    for z_min in (-1e6, -1e300):
        window = FieldWindow(r_min=0.0, r_max=150.0, z_min=z_min, z_max=500.0, n_r=3, n_z=2)
        with pytest.raises(ParameterError, match="not finite"):
            field_map(GEOM, window)


def test_field_window_validation():
    with pytest.raises(ParameterError):
        FieldWindow(r_min=-1.0, r_max=50.0, z_min=0.0, z_max=10.0)
    with pytest.raises(ParameterError):
        FieldWindow(r_min=0.0, r_max=0.0, z_min=0.0, z_max=10.0)
    with pytest.raises(ParameterError):
        FieldWindow(r_min=0.0, r_max=50.0, z_min=10.0, z_max=10.0)
    with pytest.raises(ParameterError):
        FieldWindow(r_min=0.0, r_max=50.0, z_min=0.0, z_max=10.0, n_r=1)
    # NaN passes no comparison, and an infinite bound spaces no grid
    for bounds in ((math.nan, 50.0, 0.0, 10.0), (0.0, math.inf, 0.0, 10.0),
                   (0.0, 50.0, -math.inf, 10.0), (0.0, 50.0, 0.0, math.nan)):
        with pytest.raises(ParameterError, match="finite"):
            FieldWindow(*bounds)
    # at most 1 000 000 samples; the window itself allocates nothing
    FieldWindow(r_min=0.0, r_max=50.0, z_min=0.0, z_max=10.0, n_r=1000, n_z=1000)
    with pytest.raises(ParameterError):
        FieldWindow(r_min=0.0, r_max=50.0, z_min=0.0, z_max=10.0, n_r=1000, n_z=1001)
    with pytest.raises(ParameterError):
        FieldWindow(r_min=0.0, r_max=50.0, z_min=0.0, z_max=10.0, n_r=10**9, n_z=2)
    # sample counts are integers: numpy's included, a bool or a float not
    assert FieldWindow(0.0, 50.0, 0.0, 10.0, np.int64(3), 2).n_r == 3
    for counts in ((2.5, 3), (3, 3.0), (True, 3), (3, np.float64(4.0))):
        with pytest.raises(ParameterError, match="must be an integer >= 2"):
            FieldWindow(0.0, 100.0, 0.0, 100.0, *counts)


def test_magnitude_derivative_guard():
    mode = solve_dispersion(GEOM)
    with pytest.raises(ParameterError):
        mode.exterior(10.0)
    e_r, e_z, got = mode.exterior(50.0)
    assert (e_r, e_z) == _profile(mode, 50.0)
    step = 1e-4
    fd = (_profile(mode, 50.0 + step)[1] - _profile(mode, 50.0 - step)[1]) / (2.0 * step)
    assert got == pytest.approx(fd, rel=1e-6)
    # tens of microns out K0 underflows to 0: the field reads 0, the
    # derivative of its magnitude has no value
    assert _profile(mode, 30000.0) == (0.0, 0.0)
    with pytest.raises(OutOfDomainError):
        mode.exterior(30000.0)
