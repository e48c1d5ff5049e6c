"""Materials, emitter moments, and the scalar figures of merit."""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mesoqed
from mesoqed.core import (
    GAAS,
    SILVER,
    EmitterMoments,
    Material,
    check_host,
    figures_of_merit,
    homogeneous_im_gxx,
    paper_moments,
    wavevector,
)
from mesoqed.errors import ExpansionInvalidError, ParameterError
from mesoqed.halfspace import InterfaceGeometry, interface_sweep, paper_interface
from mesoqed.moments import GaussianEnvelopes, lambda_zx_significance, omega_negligibility
from mesoqed.nanowire import (AXIAL, FieldWindow, WireGeometry, paper_wire, plasmon_bundle,
                              plasmon_rates, quasistatic_background)
from mesoqed.rates import GreenBundle, md_eq_split, rate_ladder


def test_reference_materials():
    assert GAAS.n == pytest.approx(3.42)
    assert SILVER.n == pytest.approx(0.2 + 7.0j)
    assert GAAS.eps == pytest.approx(3.42**2)
    assert SILVER.eps == pytest.approx((0.2 + 7.0j) ** 2)


def test_material_validation():
    with pytest.raises(ParameterError):
        Material("gain", 1.0 - 0.5j)
    # Im n > 0, but Im eps = 2 Re n Im n < 0: eps = -48.96 - 2.8i has gain
    with pytest.raises(ParameterError, match="gain"):
        Material("gain", -0.2 + 7.0j)
    with pytest.raises(ParameterError):
        Material("nan", complex(float("nan"), 0.0))
    Material("lossless", 2.0)
    Material("lossy", 0.1 + 3.0j)
    # real eps, and a signed-zero real part, stay passive
    assert Material("negative", -1.5).eps == 2.25
    assert Material("signed zero", complex(-0.0, 7.0)).eps.imag == 0.0


def test_wavevector_host():
    k1 = wavevector(GAAS, 1000.0)
    assert k1 == pytest.approx(3.42 * 2.0 * math.pi / 1000.0, rel=1e-15)
    with pytest.raises(ParameterError):
        wavevector(GAAS, 0.0)
    with pytest.raises(ParameterError):
        wavevector(GAAS, -5.0)
    with pytest.raises(ParameterError):  # 2*pi*n/lambda0 underflows to 0
        wavevector(Material("thin", 1e-300), 1e300)


def test_a_wavevector_that_overflows_is_refused_with_its_wavelength():
    # 2*pi/1e-320 is inf: both geometries take their wavevectors when built
    with pytest.raises(ParameterError, match="double range at lambda0 = 1e-320"):
        wavevector(GAAS, 1e-320)
    with pytest.raises(ParameterError, match="of 'vacuum' .* lambda0 = 1e-320"):
        WireGeometry(rho=30.0, metal=SILVER, host=GAAS, lambda0=1e-320)
    with pytest.raises(ParameterError, match="of 'vacuum' .* lambda0 = 1e-320"):
        InterfaceGeometry(upper=GAAS, lower=SILVER, h=20.0, lambda0=1e-320)
    # a host index above 1 overflows first at a wavelength the vacuum survives
    with pytest.raises(ParameterError, match="of 'GaAs' .* lambda0 = 5e-308"):
        WireGeometry(rho=30.0, metal=SILVER, host=GAAS, lambda0=5e-308)
    geom = paper_wire()
    assert (geom.k0, geom.k_host) == (2.0 * math.pi / 1000.0, wavevector(GAAS, 1000.0).real)


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
    with pytest.raises(ExpansionInvalidError):  # (k*ratio)**2 overflows
        figures_of_merit(0.02, EmitterMoments(lambda_over_mu=1e300))


def test_emitter_moments_validation():
    with pytest.raises(ParameterError):
        EmitterMoments(lambda_over_mu=float("inf"))
    with pytest.raises(ParameterError):
        EmitterMoments(lambda_over_mu=1.0, l_qd=-3.0)


GEOM = paper_wire()
MOMENTS = paper_moments()
BUNDLE = GreenBundle(g_xx=0.002, d_g_zx=1e-5, dd_g_zz=1e-7, dz_g_xx=2e-5)

# every entry point the parameter rule guards: (entry, name in the refusal,
# what the value must be, the call with the value in that place)
GUARDED = [
    ("EmitterMoments", "ratio", "finite", lambda v: EmitterMoments(v)),
    ("EmitterMoments", "lqd", "positive", lambda v: EmitterMoments(10.0, l_qd=v)),
    ("InterfaceGeometry", "h", "positive", lambda v: InterfaceGeometry(GAAS, SILVER, v, 1000.0)),
    ("InterfaceGeometry", "lambda0", "positive",
     lambda v: InterfaceGeometry(GAAS, SILVER, 20.0, v)),
    ("WireGeometry", "radius", "positive", lambda v: WireGeometry(v, SILVER, GAAS, 1000.0)),
    ("WireGeometry", "lambda0", "positive", lambda v: WireGeometry(30.0, SILVER, GAAS, v)),
    ("FieldWindow", "rmin", "finite", lambda v: FieldWindow(v, 50.0, 0.0, 10.0)),
    ("FieldWindow", "rmax", "finite", lambda v: FieldWindow(0.0, v, 0.0, 10.0)),
    ("FieldWindow", "zmin", "finite", lambda v: FieldWindow(0.0, 50.0, v, 10.0)),
    ("FieldWindow", "zmax", "finite", lambda v: FieldWindow(0.0, 50.0, 0.0, v)),
    ("FieldWindow", "nr", "count", lambda v: FieldWindow(0.0, 50.0, 0.0, 10.0, n_r=v)),
    ("FieldWindow", "nz", "count", lambda v: FieldWindow(0.0, 50.0, 0.0, 10.0, n_z=v)),
    ("GaussianEnvelopes", "sigma_e", "positive", lambda v: GaussianEnvelopes(v, 5.0, 2.5)),
    ("GaussianEnvelopes", "mass_ratio", "positive", lambda v: GaussianEnvelopes(2.0, v, 2.5)),
    ("GaussianEnvelopes", "shift", "finite", lambda v: GaussianEnvelopes(2.0, 5.0, v)),
    ("wavevector", "lambda0", "positive", lambda v: wavevector(GAAS, v)),
    ("figures_of_merit", "k", "positive", lambda v: figures_of_merit(v, MOMENTS)),
    ("omega_negligibility", "k", "positive", lambda v: omega_negligibility(v, 20.0)),
    ("omega_negligibility", "lqd", "positive", lambda v: omega_negligibility(0.02, v)),
    ("lambda_zx_significance", "k", "positive", lambda v: lambda_zx_significance(0.1, v)),
    ("lambda_zx_significance", "estimate", "finite", lambda v: lambda_zx_significance(v, 0.02)),
    ("plasmon_rates", "d", "positive", lambda v: plasmon_rates(GEOM, v, MOMENTS, AXIAL)),
    ("plasmon_bundle", "d", "positive", lambda v: plasmon_bundle(GEOM, v, AXIAL)),
    ("quasistatic_background", "d", "positive", lambda v: quasistatic_background(GEOM, v, AXIAL)),
    ("quasistatic_background", "rel_tol", "positive",
     lambda v: quasistatic_background(GEOM, 50.0, AXIAL, rel_tol=v)),
    ("quasistatic_background", "series_tol", "positive",
     lambda v: quasistatic_background(GEOM, 50.0, AXIAL, series_tol=v)),
    ("quasistatic_background", "m_max", "count",
     lambda v: quasistatic_background(GEOM, 50.0, AXIAL, m_max=v)),
    ("interface_sweep", "h", "positive",
     lambda v: next(interface_sweep(paper_interface(50.0), [50.0, v], MOMENTS))),
    ("interface_sweep", "rel_tol", "positive",
     lambda v: next(interface_sweep(paper_interface(50.0), [50.0], MOMENTS, rel_tol=v))),
    ("rate_ladder", "norm", "positive", lambda v: rate_ladder(BUNDLE, MOMENTS, v)),
    ("md_eq_split", "norm", "positive", lambda v: md_eq_split(BUNDLE, MOMENTS, v)),
]
BAD_VALUES = [math.nan, math.inf, 0, -1, True, "5", 1 + 1j]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{entry}-{name}-{value!r}")
    for entry, name, rule, call in GUARDED for value in BAD_VALUES
    if not (rule == "finite" and value in (0, -1))])
def test_every_guarded_parameter_refuses_what_is_not_a_finite_real(call, name, value):
    # NaN, infinity, a bool, a string or a complex number, and a value
    # that is not > 0 where it must be (or < 2 where it counts): one rule,
    # one error and one form, which names the value as given
    with pytest.raises(ParameterError) as refusal:
        call(value)
    message = str(refusal.value)
    assert message.startswith(f"{name} must be ") and message.endswith(f", got {value!r}")


def test_private_definitions_have_a_library_caller():
    # a private function, class or method that only tests call belongs in
    # tests/: each one must be named somewhere in the package
    named, private = set(), set()
    for path in Path(mesoqed.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.name, node.asname))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    private.add(node.name)
    assert private
    assert sorted(private - named) == []


def test_every_import_is_used_in_its_module():
    # a name a module imports and never reads is dead weight left behind
    # by a refactor; `import a.b` binds `a`, and __future__ binds nothing
    unused = []
    for path in sorted(Path(mesoqed.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_the_parameter_rule_has_one_home():
    # a finite, positive or integer test written out again beside
    # core.check_positive, check_finite and check_count words its refusal
    # its own way; the CLI's range and step are its own policy
    phrases = ("must be positive", "must be finite", "must be an integer")
    found = []
    for path in sorted(Path(mesoqed.__file__).parent.glob("*.py")):
        if path.stem in ("core", "cli"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.JoinedStr):
                text = "".join(v.value for v in node.values if isinstance(v, ast.Constant))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {text!r}" for p in phrases if p in text]
    assert found == []
