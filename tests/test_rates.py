"""Rate-ladder assembly, multipole split, and the mounting-flip algebra.

Uses synthetic field bundles throughout; the geometry modules have
their own tests. norm is an arbitrary positive scale here.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesoqed import halfspace, nanowire
from mesoqed.core import EmitterMoments, paper_moments
from mesoqed.errors import ContractViolationError, ExpansionInvalidError, ParameterError
from mesoqed.rates import GreenBundle, RateLadder, extract_fields, md_eq_split, rate_ladder

NORM = 0.00114


def make_bundle(g_xx=2.0 * NORM, d_g_zx=-3.0e-6, dd_g_zz=5.0e-8):
    # dz_g_xx = -d_g_zx/2 makes b_yx = 1.5 * d_g_zx and q_xz = 0.5 * d_g_zx
    return GreenBundle(g_xx=g_xx, d_g_zx=d_g_zx, dd_g_zz=dd_g_zz, dz_g_xx=-0.5 * d_g_zx)


def test_bundle_is_defined_beside_the_ladder():
    # the contract between the geometries and the ladder; both import it
    assert GreenBundle.__module__ == "mesoqed.rates"
    assert halfspace.GreenBundle is nanowire.GreenBundle is GreenBundle


def test_homogeneous_bundle_gives_unit_ladder():
    bundle = make_bundle(g_xx=NORM, d_g_zx=0.0, dd_g_zz=0.0)
    ladder = rate_ladder(bundle, paper_moments(), NORM)
    assert (ladder.gamma0, ladder.gamma1, ladder.gamma2) == (1.0, 0.0, 0.0)
    assert ladder.total == 1.0


def test_ladder_assembly_values():
    moments = EmitterMoments(lambda_over_mu=10.0)
    bundle = make_bundle()
    ladder = rate_ladder(bundle, moments, NORM)
    assert ladder.gamma0 == pytest.approx(2.0, rel=1e-15)
    assert ladder.gamma1 == pytest.approx(2.0 * 10.0 * (-3.0e-6) / NORM, rel=1e-15)
    assert ladder.gamma2 == pytest.approx(100.0 * 5.0e-8 / NORM, rel=1e-15)


def test_zero_ratio_keeps_only_dipole_rung():
    ladder = rate_ladder(make_bundle(), EmitterMoments(lambda_over_mu=0.0), NORM)
    assert ladder.gamma1 == 0.0
    assert ladder.gamma2 == 0.0
    assert ladder.gamma0 > 0.0


def test_flip_negates_only_gamma1():
    m = paper_moments()
    bundle = make_bundle()
    direct = rate_ladder(bundle, m, NORM)
    inverted = rate_ladder(bundle, m.flipped(), NORM)
    assert inverted.gamma0 == direct.gamma0
    assert inverted.gamma1 == -direct.gamma1
    assert inverted.gamma2 == direct.gamma2


@given(
    lam=st.floats(-5.0, 5.0),
    d=st.floats(-1e-5, 1e-5),
    dd=st.floats(0.0, 1e-6),
)
def test_ladder_scalings(lam, d, dd):
    m = EmitterMoments(lambda_over_mu=lam)
    ladder = rate_ladder(make_bundle(g_xx=5.0 * NORM, d_g_zx=d, dd_g_zz=dd), m, NORM)
    assert ladder.gamma1 == pytest.approx(2.0 * lam * d / NORM, abs=1e-18)
    assert ladder.gamma2 == pytest.approx(lam * lam * dd / NORM, abs=1e-18)
    # doubling the ratio doubles rung 1 and quadruples rung 2
    m2 = EmitterMoments(lambda_over_mu=2.0 * lam)
    ladder2 = rate_ladder(make_bundle(g_xx=5.0 * NORM, d_g_zx=d, dd_g_zz=dd), m2, NORM)
    assert ladder2.gamma1 == pytest.approx(2.0 * ladder.gamma1, abs=1e-18)
    assert ladder2.gamma2 == pytest.approx(4.0 * ladder.gamma2, abs=1e-18)


def test_ladder_invariants():
    with pytest.raises(ContractViolationError):
        RateLadder(gamma0=-0.1, gamma1=0.0, gamma2=0.0)
    with pytest.raises(ExpansionInvalidError):
        RateLadder(gamma0=1.0, gamma1=-1.5, gamma2=0.2)
    # slightly negative gamma2 is a legitimate scattered-field value
    ok = RateLadder(gamma0=1.0, gamma1=0.1, gamma2=-0.01)
    assert ok.total == pytest.approx(1.09)
    # a rung that overflowed is an error, not a printed inf
    for rungs in ((math.inf, 0.0, 0.0), (1.0, -math.inf, 0.5), (1.0, math.nan, 0.0)):
        with pytest.raises(ExpansionInvalidError):
            RateLadder(*rungs)
    with pytest.raises(ExpansionInvalidError):
        rate_ladder(make_bundle(), EmitterMoments(lambda_over_mu=1e300), NORM)


def test_norm_validation():
    with pytest.raises(ParameterError):
        rate_ladder(make_bundle(), paper_moments(), 0.0)
    with pytest.raises(ParameterError):
        md_eq_split(make_bundle(), paper_moments(), -1.0)


def test_md_eq_split_reassembles_gamma1():
    m = paper_moments()
    bundle = make_bundle()
    ladder = rate_ladder(bundle, m, NORM)
    split = md_eq_split(bundle, m, NORM)
    assert split.gamma1 == pytest.approx(ladder.gamma1, rel=1e-12)
    assert split.gamma1_md == pytest.approx(10.0 * bundle.b_yx / NORM, rel=1e-15)
    assert split.gamma1_eq == pytest.approx(10.0 * bundle.q_xz / NORM, rel=1e-15)
    assert bundle.b_yx == pytest.approx(1.5 * bundle.d_g_zx, rel=1e-15)
    assert bundle.q_xz == pytest.approx(0.5 * bundle.d_g_zx, rel=1e-15)


def test_extract_fields_half_sum_difference():
    ldos, grad = extract_fields(1.3, 0.9)
    assert ldos == pytest.approx(1.1, rel=1e-15)
    assert grad == pytest.approx(0.2, rel=1e-15)


@given(
    g0=st.floats(0.1, 3.0),
    g1=st.floats(-0.5, 0.5),
    g2=st.floats(0.0, 0.3),
)
def test_extract_fields_inverts_the_flip(g0, g1, g2):
    direct = g0 + g1 + g2
    inverted = g0 - g1 + g2
    ldos, grad = extract_fields(direct, inverted)
    assert ldos == pytest.approx(g0 + g2, rel=1e-12, abs=1e-14)
    assert grad == pytest.approx(g1, rel=1e-12, abs=1e-14)
