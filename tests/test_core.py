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
from mesoqed.halfspace import InterfaceGeometry
from mesoqed.nanowire import WireGeometry


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
