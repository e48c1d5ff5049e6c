"""Scattered dyadic Green function above a planar half-space.

Angular-spectrum representation for source and field point both at
height h in the upper medium, with all lateral offsets taken to zero
analytically: the in-plane azimuth integral is done in closed form, so
each tensor component reduces to a single k_par integral. Spatial
derivatives act inside the integrand (a lateral derivative inserts a
wavevector factor, a vertical one a k_z factor); the integral is never
differentiated numerically. The homogeneous part of Im G_xx is added in
closed form, n1*k0/(6*pi).

Conventions fixed here and relied on everywhere:

* k_z,i = sqrt(eps_i*k0^2 - k_par^2) with Im k_z >= 0 pointwise.
* The k_par path runs 0 -> k1 on the real axis parametrized as
  k1*sin(t) (which cancels the 1/k_z1 edge singularity exactly), then
  dips below the real axis on a half-ellipse spanning [k1, k_b], then
  returns to the real axis as k1*cosh(t) up to the exponential cutoff
  of exp(2i*k_z1*h). Reflection coefficients of passive media are
  analytic between this path and the real axis (the surface-plasmon
  pole of r_p lies above the axis), so the detour changes no value,
  only the conditioning near the pole.
* The plasmon channel of each component is defined as the imaginary
  projection of 2*pi*i times that component's residue at the r_p pole;
  the lossy-surface channel is the evanescent-path remainder.

The four component integrands, written per unit dk_par with
phi = exp(2i*k_z1*h) and all lengths in nm:

    G_xx:              (i/8pi) * (kp/kz1) * (rs - rp*kz1^2/k1^2) * phi
    d/dx G_zx:        -(1/8pi) * kp^3/k1^2 * rp * phi
    d/dx d/dx' G_zz:   (i/8pi) * kp^5/(kz1*k1^2) * rp * phi
    d/dz G_xx:        -(1/8pi) * kp * (rs - rp*kz1^2/k1^2) * phi
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rates as _rates
from .core import GAAS, PAPER_LAMBDA0_NM, SILVER, EmitterMoments, Material
from .core import check_host, homogeneous_im_gxx, wavevector
from .errors import ConvergenceError, NoBoundModeError, ParameterError
from .quadrature import quad_vec
from .rates import GreenBundle

_TAIL_EXPONENT = 80.0  # exp(-80) truncation of the evanescent tail
_MIN_SAFE_HEIGHT = 10.0


@dataclass(frozen=True)
class InterfaceGeometry:
    """Emitter in the upper half-space at height h above the interface."""

    upper: Material
    lower: Material
    h: float
    lambda0: float

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ParameterError(f"height must be positive, got {self.h}")
        if not (math.isfinite(self.lambda0) and self.lambda0 > 0.0):
            raise ParameterError(f"wavelength must be positive, got {self.lambda0}")
        check_host(self.upper)


@dataclass(frozen=True)
class ChannelDecomposition:
    """Per-order split into radiative, plasmon and lossy-surface parts.

    Entries are normalized rate contributions; rad[i] + pl[i] + ls[i]
    equals the order-i rung of the rate ladder.
    """

    rad: tuple
    pl: tuple
    ls: tuple


def _kz(eps: complex, k0: float, kp: complex) -> complex:
    """Vertical wavevector with Im >= 0 pointwise."""
    w = np.sqrt(complex(eps * k0 * k0 - kp * kp))
    if w.imag < 0.0:
        w = -w
    return w


def _fresnel_from_kz(kz1, kz2, eps1, eps2):
    rs = (kz1 - kz2) / (kz1 + kz2)
    rp = (eps2 * kz1 - eps1 * kz2) / (eps2 * kz1 + eps1 * kz2)
    return rs, rp


def spp_pole(geom: InterfaceGeometry) -> complex:
    """Bound surface-plasmon pole of r_p, k0*sqrt(eps1*eps2/(eps1+eps2)).

    Exists only for Re(eps1 + eps2) < 0; near eps2 = -eps1 the closed
    form diverges and the mode is not bound either way.
    """
    eps1 = geom.upper.eps
    eps2 = geom.lower.eps
    s = eps1 + eps2
    if s.real >= 0.0:
        raise NoBoundModeError(
            f"no bound surface mode: Re(eps1 + eps2) = {s.real:.6g} >= 0"
        )
    if abs(s) < 1.0e-6 * (abs(eps1) + abs(eps2)):
        raise NoBoundModeError("surface-mode resonance: eps2 too close to -eps1")
    k0 = 2.0 * math.pi / geom.lambda0
    k = k0 * np.sqrt(complex(eps1 * eps2 / s))
    if k.real < 0.0:
        k = -k
    if k.imag < 0.0:
        raise NoBoundModeError(f"pole {k!r} decays backwards; not a bound mode")
    return complex(k)


@dataclass(frozen=True)
class _Contour:
    k0: float
    k1: float
    h: float
    eps1: complex
    eps2: complex
    pole: complex | None  # r_p pole, None when no bound surface mode exists
    k_b: float
    delta: float
    t_b: float
    t_max: float


def _contour(geom: InterfaceGeometry) -> _Contour:
    k0 = 2.0 * math.pi / geom.lambda0
    k1 = wavevector(geom.upper, geom.lambda0).real
    try:
        pole = spp_pole(geom)
    except NoBoundModeError:
        pole = None
    k_b = 1.5 * k1 if pole is None else max(2.0 * pole.real - k1, 1.5 * k1)
    delta = 0.25 * (k_b - k1)
    t_b = math.acosh(k_b / k1)
    t_max = math.asinh(_TAIL_EXPONENT / (2.0 * k1 * geom.h))
    return _Contour(
        k0=k0, k1=k1, h=geom.h, eps1=geom.upper.eps, eps2=geom.lower.eps,
        pole=pole, k_b=k_b, delta=delta, t_b=t_b, t_max=t_max,
    )


def _integrate_contour(c: _Contour, fn, rel_tol: float, abs_scale: float):
    """Integrate a component vector along the deformed k_par path.

    fn(kp, kz1, rs, rp, phi, dkp_du, inv_term) -> complex vector, where
    dkp_du is the parametrization Jacobian and inv_term = dkp_du/kz1 is
    supplied in analytically cancelled form on the segments where kz1
    vanishes at an endpoint. Returns (radiative part, evanescent part,
    accumulated error estimate).
    """
    if c.h < _MIN_SAFE_HEIGHT:
        warnings.warn(
            f"h = {c.h} nm is below {_MIN_SAFE_HEIGHT} nm; the quasi-static tail "
            "dominates and quadrature gets expensive",
            RuntimeWarning,
            stacklevel=3,
        )
    eps1, eps2, k0, k1, h = c.eps1, c.eps2, c.k0, c.k1, c.h

    def eval_at(kp, kz1, dkp_du, inv_term):
        kz2 = _kz(eps2, k0, kp)
        rs, rp = _fresnel_from_kz(kz1, kz2, eps1, eps2)
        phi = np.exp(2.0j * kz1 * h)
        return fn(kp, kz1, rs, rp, phi, dkp_du, inv_term)

    def seg_radiative(t):
        kp = k1 * math.sin(t)
        kz1 = k1 * math.cos(t)
        return eval_at(kp, kz1, kz1, 1.0)

    m_c = 0.5 * (c.k_b + k1)
    half = 0.5 * (c.k_b - k1)

    def seg_ellipse(sigma):
        # quadrature nodes lie strictly inside a panel, so sigma > 0
        theta = math.pi * sigma * sigma
        kp = m_c - half * math.cos(theta) - 1.0j * c.delta * math.sin(theta)
        dkp_du = (half * math.sin(theta) - 1.0j * c.delta * math.cos(theta)) * (
            2.0 * math.pi * sigma
        )
        kz1 = _kz(eps1, k0, kp)
        return eval_at(kp, kz1, dkp_du, dkp_du / kz1)

    def seg_tail(t):
        kp = k1 * math.cosh(t)
        kz1 = 1.0j * k1 * math.sinh(t)
        dkp_du = k1 * math.sinh(t)
        # dkp_du / kz1 = 1/i exactly on this segment
        return eval_at(kp, kz1, dkp_du, -1.0j)

    segments = [seg_radiative, seg_ellipse]
    bounds = [(0.0, 0.5 * math.pi), (0.0, 1.0)]
    if c.t_max > c.t_b:
        segments.append(seg_tail)
        bounds.append((c.t_b, c.t_max))

    def integrand(x, k):
        return segments[k](x)

    eps_abs = rel_tol * abs_scale
    try:
        (rad, err), (evan, err_b), *tail = quad_vec(integrand, bounds, epsabs=eps_abs,
                                                    epsrel=rel_tol)
    except (OverflowError, ZeroDivisionError) as exc:  # a power of k1 may underflow to 0
        raise ConvergenceError(f"k_par integrand overflows at h = {c.h:g} nm") from exc
    err += err_b
    for part, err_c in tail:
        evan = evan + part
        err += err_c

    scale = max(abs_scale, float(np.max(np.abs(rad))), float(np.max(np.abs(evan))))
    if not err <= 50.0 * max(eps_abs, rel_tol * scale):
        raise ConvergenceError(
            f"k_par quadrature reached {err:.3e}, wanted {rel_tol:.1e} relative "
            f"(scale {scale:.3e})"
        )
    return rad, evan, err


def _ladder_vector(k1: float):
    """Component integrand for the four rate-ladder quantities.

    Gradient components are pre-scaled by 1/k1 per derivative so all
    four share units of 1/nm and one max-norm tolerance controls them
    evenly; callers undo the scaling via _unscale.
    """
    pref = 1.0 / (8.0 * math.pi)

    def fn(kp, kz1, rs, rp, phi, dkp_du, inv_term):
        common = (rs - rp * kz1 * kz1 / (k1 * k1)) * phi
        f0 = 1.0j * pref * kp * common * inv_term
        f1 = -pref * (kp ** 3 / (k1 ** 3)) * rp * phi * dkp_du
        f2 = 1.0j * pref * (kp ** 5 / (k1 ** 4)) * rp * phi * inv_term
        f3 = -pref * (kp / k1) * common * dkp_du
        return np.array([f0, f1, f2, f3], dtype=complex)

    return fn


def _unscale(vec, k1: float):
    return np.array([vec[0], vec[1] * k1, vec[2] * k1 * k1, vec[3] * k1], dtype=complex)


def _pole_vector(c: _Contour) -> np.ndarray:
    """2*pi*i times the r_p-pole residue of each ladder component.

    Scaled like _ladder_vector. Zero when no bound pole exists.
    """
    if c.pole is None:
        return np.zeros(4, dtype=complex)
    ks = c.pole
    kz1p = _kz(c.eps1, c.k0, ks)
    kz2p = _kz(c.eps2, c.k0, ks)
    dprime = -ks * (c.eps2 / kz1p + c.eps1 / kz2p)
    rtilde = 2.0 * c.eps2 * kz1p / dprime
    phip = np.exp(2.0j * kz1p * c.h)
    pref = rtilde * phip / (8.0 * math.pi)
    k1 = c.k1
    res = np.array(
        [
            -1.0j * pref * ks * kz1p / (k1 * k1),
            -pref * ks ** 3 / (k1 ** 3),
            1.0j * pref * ks ** 5 / (kz1p * k1 ** 4),
            pref * ks * kz1p ** 2 / (k1 ** 3),
        ],
        dtype=complex,
    )
    return 2.0j * math.pi * res


@dataclass(frozen=True)
class InterfacePoint:
    """Everything the sweep needs at one height, from one quadrature pass."""

    bundle: GreenBundle
    ladder: "_rates.RateLadder"
    split: "_rates.MultipoleSplit"
    channels: ChannelDecomposition
    norm: float
    k1: float


def interface_point(geom: InterfaceGeometry, moments: EmitterMoments,
                    rel_tol: float = 1.0e-8) -> InterfacePoint:
    """Bundle, ladder, multipole split and channels from one contour pass.

    The homogeneous part enters g_xx and the order-zero radiative
    channel; the moment expansion needs k1*L_qd < 1.
    """
    c = _contour(geom)
    k1 = c.k1
    _rates.check_expansion(k1, moments)
    norm = homogeneous_im_gxx(geom.upper, geom.lambda0)
    rad, evan, _ = _integrate_contour(c, _ladder_vector(k1), rel_tol=rel_tol, abs_scale=norm)
    j = _unscale(rad + evan, k1)
    bundle = GreenBundle(g_xx=norm + j[0].imag, d_g_zx=j[1].imag, dd_g_zz=j[2].imag,
                         dz_g_xx=j[3].imag)
    ladder = _rates.rate_ladder(bundle, moments, norm)
    split = _rates.md_eq_split(bundle, moments, norm)

    lam = moments.lambda_over_mu
    f = np.array([1.0, 2.0 * lam, lam * lam]) / norm
    pole = _unscale(_pole_vector(c), k1)[:3].imag
    rad_ch = f * _unscale(rad, k1)[:3].imag
    rad_ch[0] += 1.0  # the homogeneous rate is purely radiative
    channels = ChannelDecomposition(rad=tuple(rad_ch), pl=tuple(f * pole),
                                    ls=tuple(f * (_unscale(evan, k1)[:3].imag - pole)))
    return InterfacePoint(bundle=bundle, ladder=ladder, split=split,
                          channels=channels, norm=norm, k1=k1)


def paper_interface(h: float) -> InterfaceGeometry:
    return InterfaceGeometry(upper=GAAS, lower=SILVER, h=h, lambda0=PAPER_LAMBDA0_NM)
