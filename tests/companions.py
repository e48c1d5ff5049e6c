"""Test-only companions of the library: J/H1, Fresnel, offset Green functions.

The rate pipeline needs neither the ordinary Bessel pair, nor the
reflection coefficients on their own, nor Green functions away from the
source point. The tests use them to check the library from a second
route: the J/H1 Wronskian, the Fresnel coefficients against the inline
formula and the surface-mode pole, and finite differences of G_zx over
a lateral offset and of G_xx over a vertical offset against the
gradients the contour integrand carries in closed form. The offset
integrals run on the library's own deformed contour
(`halfspace._contour` and `halfspace._integrate_contour`), from the
same node columns and memo; only the height stage differs, fn(columns,
phi). Like the library's, it is array code whose complex products go
through `halfspace._mul`, so a node's value does not depend on the
other nodes of its quadrature round.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from mesoqed.core import wavevector
from mesoqed.errors import OutOfDomainError, ParameterError
from mesoqed.halfspace import (
    InterfaceGeometry,
    _contour,
    _fresnel_from_kz,
    _integrate_contour,
    _kz_nodes,
    _mul,
)
from mesoqed.specfun import _OVERFLOW_ARG, _finish


def _check_order(order: int) -> int:
    # bool is an int to isinstance, but True is no order 1 (nor False 0)
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) \
            or order not in (0, 1):
        raise ParameterError(f"order must be 0 or 1, got {order!r}")
    return int(order)


def bessel_j(order: int, z) -> complex:
    """Bessel J of order 0 or 1 for complex argument.

    |Im z| must stay below the overflow bound ~690; beyond it the
    function grows like exp|Im z| and leaves double range.
    """
    order = _check_order(order)
    zc = np.asarray(z, dtype=complex)
    if np.any(np.abs(zc.imag) > _OVERFLOW_ARG):
        raise OutOfDomainError(f"bessel_j: |Im z| > {_OVERFLOW_ARG} overflows")
    return _finish(_sp.jv(order, zc), "bessel_j")


def hankel1(order: int, z) -> complex:
    """Outgoing Hankel function of order 0 or 1, complex argument.

    Decays in the upper half plane; for Im z < -overflow bound it
    overflows and an error is raised instead.
    """
    order = _check_order(order)
    zc = np.asarray(z, dtype=complex)
    if np.any(zc.imag < -_OVERFLOW_ARG):
        raise OutOfDomainError(f"hankel1: Im z < -{_OVERFLOW_ARG} overflows")
    if np.any(zc == 0):
        raise OutOfDomainError("hankel1: singular at z = 0")
    return _finish(_sp.hankel1(order, zc), "hankel1")


def fresnel(k_par, geom: InterfaceGeometry):
    """Reflection coefficients (r_s, r_p) seen from the upper medium.

    Accepts complex k_par (the integration contour leaves the real
    axis); branch of both k_z follows the Im >= 0 convention.
    """
    k0 = 2.0 * math.pi / geom.lambda0
    kp2 = _mul(np.array([k_par]), np.array([k_par]))
    kz1 = _kz_nodes(geom.upper.eps * k0 * k0, kp2)[0]
    kz2 = _kz_nodes(geom.lower.eps * k0 * k0, kp2)[0]
    return _fresnel_from_kz(kz1, kz2, geom.upper.eps, geom.lower.eps, _mul)


def _integrate_single(geom: InterfaceGeometry, fn, rel_tol: float) -> complex:
    [outcome] = _integrate_contour(_contour(geom), [geom.h], fn, rel_tol=rel_tol)
    if isinstance(outcome, Exception):
        raise outcome
    rad, evan, _ = outcome
    return complex((rad + evan)[0])


def gzx_lateral(geom: InterfaceGeometry, x: float, rel_tol: float = 1.0e-8) -> complex:
    """Scattered G_zx at lateral field-point offset x, odd in x.

    Its central difference in x checks the in-integrand lateral
    derivative d_g_zx.
    """
    if x == 0.0:
        return 0.0j
    k1 = wavevector(geom.upper, geom.lambda0).real
    pref = -1.0 / (4.0 * math.pi * k1 * k1)

    def fn(col, phi):
        value = _mul(_mul(_mul(pref * col.kp, col.kp), bessel_j(1, x * col.kp)), col.rp)
        return _mul(_mul(value, phi), col.dkp_du)[:, None]

    return _integrate_single(geom, fn, rel_tol)


def gxx_vertical_offset(geom: InterfaceGeometry, dz: float, rel_tol: float = 1.0e-8) -> complex:
    """Scattered G_xx with the field point lifted by dz above the source.

    The reflected path length becomes 2h + dz; its central difference
    in dz checks the in-integrand vertical derivative dz_g_xx.
    """
    pref = 1.0j / (8.0 * math.pi)

    def fn(col, phi):
        extra = np.exp(_mul(1.0j * dz, col.kz1))
        value = _mul(_mul(_mul(pref, col.kp), col.r_xx), phi)
        return _mul(_mul(value, extra), col.inv_term)[:, None]

    return _integrate_single(geom, fn, rel_tol)
