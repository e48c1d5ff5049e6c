"""Guided plasmon of a metal nanowire and the emitter rates it carries.

The wire (radius rho, metal eps2) sits in a lossless dielectric host
(eps1).  Only the azimuthally symmetric TM mode is treated; it is the
single bound mode of a thin wire.  With fields ~ e^{i k_sp z} and
transverse constants kappa_i^2 = k_sp^2 - eps_i k0^2 the mode satisfies

    (eps_in/kappa_in)  I1/I0 (kappa_in rho)
  + (eps_out/kappa_out) K1/K0 (kappa_out rho) = 0.

The characteristic function is even in the kappa_in branch choice;
Re kappa_out > 0 is enforced so the exterior field is bound.

One damped Newton solve finds the root, from the larger of two limits
of kappa_out: the thin wire's x0/rho (Takahara et al., Opt. Lett. 22,
475 (1997)) and the flat surface plasmon's.  A guided root has
0 <= Im k < Re k.  Mode conventions: Chang et al., PRB 76, 035420 (2007).

Conventions fixed here and used by the rate formulas:
  * profile(r) returns real positive magnitudes (E_r(r), E_z(r)); the
    physical field is (-E_r, 0, i E_z) e^{i k_sp z}.  Rates built from
    these magnitudes; the raw complex solution (needed for boundary
    matching) is exposed separately.
  * normalization: integral of Re[eps(r)] |e|^2 over the cross-section
    equals 1.  Re makes the norm a positive real number for lossy metal.
  * per-photon prefactor C = 3 pi c0 / (n_host k0^2 v_g), vacuum
    permittivity set to 1.  Dividing by the bulk-host rate is then
    already folded in; plasmon_bundle scales the mode's field products
    by C times the bulk-host Im G_xx, so the generic ladder code turns
    it into normalized rates.
  * group velocity from a symmetric frequency difference with material
    eps frozen at its lambda0 value.

The quasi-static background treats the emitter as a point dipole next
to an electrostatic cylinder: azimuthal harmonic sum over reflection
coefficients built from modified Bessel functions.  It returns the
radiative-plus-lossy floor (normalized), with the radiative part taken
as the homogeneous host rate.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import rates as _rates
from . import specfun
from .core import GAAS, PAPER_LAMBDA0_NM, PAPER_WIRE_RADIUS_NM, SILVER, SPEED_OF_LIGHT_NM_PER_FS
from .core import MAX_POINTS, EmitterMoments, Material, check_host, homogeneous_im_gxx, wavevector
from .errors import (
    ConvergenceError,
    ContractViolationError,
    NoBoundModeError,
    ParameterError,
)
from .quadrature import quad
from .rates import GreenBundle

_ROOT_RESIDUAL = 1e-12
_NORM_TAIL = 40.0  # exterior cutoff: exp(-2*40) tail below double precision


@dataclass(frozen=True)
class WireGeometry:
    """Cylindrical wire of `metal` embedded in lossless `host`."""

    rho: float
    metal: Material
    host: Material
    lambda0: float

    def __post_init__(self):
        if not (self.rho > 0.0):
            raise ParameterError(f"wire radius must be positive, got {self.rho}")
        if not (self.lambda0 > 0.0):
            raise ParameterError(f"wavelength must be positive, got {self.lambda0}")
        check_host(self.host)

    @property
    def k0(self) -> float:
        return 2.0 * math.pi / self.lambda0

    @property
    def k_host(self) -> float:
        # check_host makes the host lossless, so the wavevector is real
        return wavevector(self.host, self.lambda0).real


def _transverse(k: complex, eps: complex, k0: float, bound: bool) -> complex:
    kap = cmath.sqrt(k * k - eps * k0 * k0)
    if bound and kap.real < 0.0:
        kap = -kap
    return kap


def _characteristic(k: complex, geom: WireGeometry) -> tuple[complex, float]:
    """Characteristic function and its two-term magnitude scale."""
    k0 = geom.k0
    kap_in = _transverse(k, geom.metal.eps, k0, bound=False)
    kap_out = _transverse(k, geom.host.eps, k0, bound=True)
    # Python complex scalars: numpy's complex arithmetic can round differently
    (i0, i1), _ = specfun.bessel_ik_scaled(np.arange(2), kap_in * geom.rho)
    q0, q1 = specfun.bessel_k_scaled(np.arange(2), kap_out * geom.rho)
    i0, i1, q0, q1 = map(complex, (i0, i1, q0, q1))
    t_in = (geom.metal.eps / kap_in) * (i1 / i0)
    t_out = (geom.host.eps / kap_out) * (q1 / q0)
    value = t_in + t_out
    scale = abs(t_in) + abs(t_out)
    return value, scale


def _newton(geom: WireGeometry, seed: complex) -> complex | None:
    k = complex(seed)
    for _ in range(60):
        value, scale = _characteristic(k, geom)
        if abs(value) / scale < _ROOT_RESIDUAL:
            return k
        h = 1e-6 * abs(k)
        vp, _ = _characteristic(k + h, geom)
        vm, _ = _characteristic(k - h, geom)
        deriv = (vp - vm) / (2.0 * h)
        if deriv == 0:
            return None
        step = -value / deriv
        # damp: do not accept a step that grows the residual
        for _ in range(8):
            trial, tscale = _characteristic(k + step, geom)
            if abs(trial) / tscale <= abs(value) / scale:
                break
            step *= 0.5
        k = k + step
        if abs(step) < 1e-14 * abs(k):
            value, scale = _characteristic(k, geom)
            if abs(value) / scale < _ROOT_RESIDUAL:
                return k
            return None
    return None


def _electrostatic_root(geom: WireGeometry) -> float:
    """Real root x0 of Re(eps_metal) I1/I0(x) + eps_host K1/K0(x) = 0 (kappa = k).

    The left side falls strictly from +inf to Re(eps_metal) + eps_host,
    so x0 exists, and is unique, exactly when Re(eps_metal) < -eps_host.
    """
    eps_m = geom.metal.eps.real
    eps_h = geom.host.eps.real
    if not eps_m < -eps_h:
        raise NoBoundModeError(
            f"Re eps_metal = {eps_m:.6g} is not below -eps_host = {-eps_h:.6g}: "
            "the wire carries no bound plasmon"
        )

    def side(x: float) -> float:
        (i0, i1), (k0, k1) = specfun.bessel_ik_scaled(np.arange(2), x)
        return (eps_m * i1 / i0 + eps_h * k1 / k0).real

    lo, hi = 0.0, 1.0
    while side(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if side(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _seed(geom: WireGeometry) -> complex:
    """k_sp from kappa_out = max(x0/rho, Re[k0 eps_host / sqrt(-(eps_metal + eps_host))])."""
    x0 = _electrostatic_root(geom)
    k0 = geom.k0
    eps_h = geom.host.eps.real
    kappa_flat = (k0 * eps_h / cmath.sqrt(-(geom.metal.eps + eps_h))).real
    kappa = max(x0 / geom.rho, kappa_flat)
    return complex(math.sqrt(kappa * kappa + eps_h * k0 * k0))


@dataclass(frozen=True)
class GuidedMode:
    """Solved fundamental TM mode, mode fields and bookkeeping.

    `norm` scales the raw exterior solution (unit K0 amplitude) so the
    cross-section integral of Re[eps]|e|^2 is 1.  `a_in` is the interior
    amplitude relative to that same unit exterior amplitude.
    """

    k_sp: complex
    kappa_in: complex
    kappa_out: complex
    norm: float
    v_g: float
    residual: float
    geometry: WireGeometry
    a_in: complex

    def raw_exterior(self, r: float) -> tuple[complex, complex]:
        """Unnormalized (e_r, e_z) for r >= rho, unit K0 amplitude."""
        iv0, kv0 = specfun.bessel_ik(0, self.kappa_out * r)
        iv1, kv1 = specfun.bessel_ik(1, self.kappa_out * r)
        e_z = kv0
        e_r = 1j * (self.k_sp / self.kappa_out) * kv1
        return e_r, e_z

    def raw_interior(self, r: float) -> tuple[complex, complex]:
        """Unnormalized (e_r, e_z) for r <= rho, same overall amplitude."""
        if r == 0.0:
            return 0.0j, complex(self.a_in)  # I0(0)=1, I1(0)=0
        iv0, _ = specfun.bessel_ik(0, self.kappa_in * r)
        iv1, _ = specfun.bessel_ik(1, self.kappa_in * r)
        e_z = self.a_in * iv0
        e_r = -1j * (self.k_sp / self.kappa_in) * self.a_in * iv1
        return e_r, e_z

    def raw(self, r: float) -> tuple[complex, complex]:
        """Unnormalized (e_r, e_z) at r, inside or outside the wire."""
        if r >= self.geometry.rho:
            return self.raw_exterior(r)
        return self.raw_interior(r)

    def profile(self, r: float) -> tuple[float, float]:
        """Real positive magnitudes (E_r, E_z) of the normalized mode."""
        e_r, e_z = self.raw(r)
        return self.norm * abs(e_r), self.norm * abs(e_z)

    def d_ez_mag_dr(self, r: float) -> float:
        """d|E_z|/dr of the normalized mode, exterior region only."""
        if r < self.geometry.rho:
            raise ParameterError("magnitude derivative implemented outside the wire only")
        _, kv0 = specfun.bessel_ik(0, self.kappa_out * r)
        _, kv1 = specfun.bessel_ik(1, self.kappa_out * r)
        num = (self.kappa_out * kv1 * kv0.conjugate()).real
        return -self.norm * num / abs(kv0)

    def normalization_check(self) -> float:
        """Recompute the cross-section normalization integral (target 1)."""
        raw = _norm_integral(self.geometry, self.k_sp, self.kappa_in, self.kappa_out, self.a_in)
        return self.norm * self.norm * raw


def _norm_integral(
    geom: WireGeometry, k_sp: complex, kap_in: complex, kap_out: complex, a_in: complex
) -> float:
    """Cross-section integral of Re[eps]|e|^2 for the unit-amplitude solution."""
    rho = geom.rho
    eps_in_re = geom.metal.eps.real
    eps_out_re = geom.host.eps.real
    ratio_in = abs(k_sp / kap_in) ** 2
    ratio_out = abs(k_sp / kap_out) ** 2
    a2 = abs(a_in) ** 2

    def density(r: np.ndarray, row: np.ndarray) -> np.ndarray:
        # row 0 is the interior [0, rho], row 1 the exterior
        inner = row == 0
        out = np.empty_like(r)
        r_in, r_out = r[inner], r[~inner]
        iv0, _ = specfun.bessel_ik(0, kap_in * r_in)
        iv1, _ = specfun.bessel_ik(1, kap_in * r_in)
        dens = a2 * (np.abs(iv0) ** 2 + ratio_in * np.abs(iv1) ** 2)
        out[inner] = eps_in_re * dens * 2.0 * math.pi * r_in
        _, kv0 = specfun.bessel_ik(0, kap_out * r_out)
        _, kv1 = specfun.bessel_ik(1, kap_out * r_out)
        dens = np.abs(kv0) ** 2 + ratio_out * np.abs(kv1) ** 2
        out[~inner] = eps_out_re * dens * 2.0 * math.pi * r_out
        return out

    r_max = rho + _NORM_TAIL / kap_out.real
    w_in, w_out = quad(density, np.array([0.0, rho]), np.array([rho, r_max]), 1e-11)
    return float(w_in + w_out)


def _build_mode(geom: WireGeometry, root: complex, v_g: float) -> GuidedMode:
    k0 = geom.k0
    kap_in = _transverse(root, geom.metal.eps, k0, bound=False)
    kap_out = _transverse(root, geom.host.eps, k0, bound=True)
    _, kv0 = specfun.bessel_ik(0, kap_out * geom.rho)
    iv0, _ = specfun.bessel_ik(0, kap_in * geom.rho)
    a_in = kv0 / iv0
    raw = _norm_integral(geom, root, kap_in, kap_out, a_in)
    if not (raw > 0.0) or not math.isfinite(raw):
        raise ContractViolationError(
            f"mode normalization integral is {raw}; cannot normalize"
        )
    value, scale = _characteristic(root, geom)
    return GuidedMode(
        k_sp=root,
        kappa_in=kap_in,
        kappa_out=kap_out,
        norm=1.0 / math.sqrt(raw),
        v_g=v_g,
        residual=abs(value) / scale,
        geometry=geom,
        a_in=a_in,
    )


@lru_cache(maxsize=64)
def solve_dispersion(geom: WireGeometry) -> GuidedMode:
    """Solve the m=0 TM dispersion and return the normalized mode.

    Raises NoBoundModeError when Re(eps_metal) >= -eps_host, or when
    Newton from `_seed` finds no guided root.
    """
    if geom.metal.n == geom.host.n:
        raise ParameterError("metal and host are identical; no guided plasmon exists")
    root = _newton(geom, _seed(geom))
    if root is None or not 0.0 <= root.imag < root.real:
        raise NoBoundModeError(f"Newton from the electrostatic seed found no guided root: {root}")
    v_g = _group_velocity_at(geom, root, 1e-3)
    return _build_mode(geom, root, v_g)


def _group_velocity_at(geom: WireGeometry, center_root: complex, delta: float) -> float:
    c0 = SPEED_OF_LIGHT_NM_PER_FS
    omega0 = 2.0 * math.pi * c0 / geom.lambda0
    res = []
    for sgn in (+1.0, -1.0):
        omega = omega0 * (1.0 + sgn * delta)
        lam = 2.0 * math.pi * c0 / omega
        shifted = WireGeometry(geom.rho, geom.metal, geom.host, lam)
        root = _newton(shifted, center_root)
        if root is None:
            raise NoBoundModeError(
                f"dispersion solve failed at the frequency offset {sgn * delta:+g}"
            )
        res.append((omega, root.real))
    (om_p, k_p), (om_m, k_m) = res
    if k_p == k_m:
        raise NoBoundModeError(f"Re k_sp does not move over the offsets +-{delta:g}: no v_g")
    return (om_p - om_m) / (k_p - k_m)


def _rate_prefactor(geom: WireGeometry, mode: GuidedMode) -> float:
    # per-photon factor with vacuum permittivity 1; bulk normalization folded in
    n_host = geom.host.n.real
    k0 = geom.k0
    return 3.0 * math.pi * SPEED_OF_LIGHT_NM_PER_FS / (n_host * k0 * k0 * mode.v_g)


AXIAL = "axial"
RADIAL = "radial"


def _check_point(d: float, orientation: str) -> None:
    if not (d > 0.0):
        raise ParameterError(f"emitter-surface distance must be positive, got {d}")
    if orientation not in (AXIAL, RADIAL):
        raise ParameterError(f"orientation must be '{AXIAL}' or '{RADIAL}', got {orientation!r}")


def plasmon_rates(
    geom: WireGeometry, d: float, moments: EmitterMoments, orientation: str
) -> _rates.RateLadder:
    """Plasmon-channel rate ladder at distance d from the wire surface.

    The generic ladder of plasmon_bundle: for an axial dipole
    gamma0 = C E_z^2, gamma1 = -2 C (L/mu) Re(k_sp) E_r E_z,
    gamma2 = C (L/mu)^2 |k_sp|^2 E_r^2; for a radial dipole
    gamma0 = C E_r^2, gamma1 = 0 identically (the +-k_sp pair cancels),
    gamma2 from the magnitude gradient of E_z.  All normalized to the
    bulk-host rate.  The moment expansion needs Re(k_sp) L_qd < 1.
    """
    _rates.check_expansion(solve_dispersion(geom).k_sp.real, moments)
    norm = homogeneous_im_gxx(geom.host, geom.lambda0)
    ladder = _rates.rate_ladder(plasmon_bundle(geom, d, orientation), moments, norm)
    if orientation == RADIAL:
        # 2*ratio*0.0 carries the ratio's sign; the vanishing rung is +0.0
        ladder = replace(ladder, gamma1=0.0)
    return ladder


def plasmon_bundle(geom: WireGeometry, d: float, orientation: str) -> GreenBundle:
    """Plasmon channel of the guided mode as a GreenBundle.

    The gradient entries come from the complex field products at the
    emitter: d_g_zx from Re{conj(d_z e_r) e_z} = -Re(k_sp) E_r E_z and
    dz_g_xx from d|E_z|/dr * E_z.  The bundle is scaled so that dividing
    by the homogeneous host Im G_xx gives normalized rates directly.
    """
    _check_point(d, orientation)
    mode = solve_dispersion(geom)
    scale = homogeneous_im_gxx(geom.host, geom.lambda0) * _rate_prefactor(geom, mode)
    r0 = geom.rho + d
    e_r, e_z = mode.profile(r0)
    dez = mode.d_ez_mag_dr(r0)
    if orientation == AXIAL:
        # complex fields (-E_r, 0, i E_z) e^{i k z}: conj(d_z e_r) e_z at z=0
        cross = (1j * mode.k_sp * (-e_r)).conjugate() * (1j * e_z)
        return GreenBundle(
            g_xx=scale * e_z * e_z,
            d_g_zx=scale * cross.real,
            dd_g_zz=scale * abs(mode.k_sp) ** 2 * e_r * e_r,
            dz_g_xx=scale * dez * e_z,
        )
    return GreenBundle(g_xx=scale * e_r * e_r, d_g_zx=0.0, dd_g_zz=scale * dez * dez,
                       dz_g_xx=0.0)


_QS_SERIES_TOL = 1e-10
_QS_STALL_TOL = 1e-6
_QS_CHUNK = 8  # orders per chunk after the first (see _harmonic_chunks)


def _harmonic_chunks(d: float, rho: float, m_max: int) -> list[np.ndarray]:
    """Orders 0..m_max in the chunks the background integrates together."""
    # term m falls off about as (rho/r0)^(2m) = exp(-fall * m): the first
    # chunk ends two orders past where that reaches the default series
    # tolerance (or at m_max), later chunks take _QS_CHUNK orders each
    fall = 2.0 * math.log1p(d / rho)
    orders = -math.log(_QS_SERIES_TOL)
    first = 3 + math.ceil(orders / fall) if fall * m_max > orders else m_max + 1
    starts = [0, *range(first, m_max + 1, _QS_CHUNK), m_max + 1]
    return [np.arange(start, stop) for start, stop in zip(starts, starts[1:])]


def quasistatic_background(
    geom: WireGeometry,
    d: float,
    orientation: str,
    m_max: int = 30,
    rel_tol: float = 1e-8,
    series_tol: float = _QS_SERIES_TOL,
) -> float:
    """Radiative-plus-lossy floor for a point dipole next to the wire.

    Electrostatic cylinder response, azimuthal harmonics m = 0..m_max.
    The radiative part is approximated by the homogeneous host rate, so
    the return value is 1 + Gamma_LS (normalized).  Lossless metal gives
    exactly 1.

    Harmonic m is the integral over [0, 30/d + 2m/rho] of a product of
    scaled I_m, K_m over the cylinder's resonant denominator.  The
    harmonics are integrated in chunks, all panels of a chunk at once by
    `quadrature.quad` (adaptive G10/K21 bisection with QUADPACK's error
    estimate), each harmonic to `rel_tol` on its own, so a harmonic's
    value does not depend on the chunk it shares.  After each chunk the
    series stops once two successive terms fall below `series_tol` of
    the sum.  If that has not happened at m_max (fixed, not scaled with
    rho/d), a last term above 1e-6 of the sum raises ConvergenceError
    and a smaller one is accepted with a RuntimeWarning that names d,
    m_max and the last term's share of the sum.  A harmonic that cannot
    reach `rel_tol` (roundoff, or 400 panels) is kept with a
    RuntimeWarning.

    Per quadrature node the integrand takes the scaled I and K of
    orders m and |m-1| at k*rho in one array call, and the derivatives
    from I'_m = I_{m-1} - (m/x) I_m, K'_m = -K_{m-1} - (m/x) K_m; at
    k*(rho+d) it takes K alone (order m axial, orders m and |m-1|
    radial): 2 I and 3 K values per node axial, 2 and 4 radial.
    """
    _check_point(d, orientation)
    if m_max < 2:
        raise ParameterError(f"m_max of {m_max} cannot establish series convergence")
    eps1 = geom.host.eps
    eps2 = geom.metal.eps
    if eps2.imag == 0.0:
        return 1.0  # no absorption: the lossy channel is identically zero
    rho = geom.rho
    r0 = rho + d
    k1 = geom.k_host
    radial = orientation == RADIAL

    beta_flat = (eps2 - eps1) / (eps1 + eps2)

    def switch_x(m: int) -> float:
        # below this the I,K factors of order m leave double range even
        # scaled; the product itself stays moderate, so the exact
        # small-argument limit of the m-th integrand takes over there
        # (that region carries a negligible share of the term)
        if m < 60:
            return 0.0
        x = 0.0
        for _ in range(3):
            x = 2.0 * math.exp((math.lgamma(m + 1) - 620.0 + x) / m)
        return x

    def terms_of(ms: np.ndarray) -> np.ndarray:
        x_switch = np.array([switch_x(int(m)) for m in ms])

        def integrand(k: np.ndarray, row: np.ndarray) -> np.ndarray:
            m = ms[row]
            x = k * rho
            y = k * r0
            out = np.empty_like(k)
            limit = (m >= 1) & (x < x_switch[row])
            if limit.any():
                ml, kl = m[limit], k[limit]
                lim = -beta_flat.imag * (rho / r0) ** (2 * ml) / (2.0 * ml)
                out[limit] = ml * ml / (r0 * r0) * lim if radial else kl * kl * lim
            full = ~limit
            k, m, x, y = k[full], m[full], x[full], y[full]
            # orders m and |m-1| suffice: I'_m = I_{m-1} - (m/x) I_m and
            # K'_m = -K_{m-1} - (m/x) K_m hold for the scaled functions
            # too, and at m = 0 the order |0-1| = 1 gives I'_0 = I_1,
            # K'_0 = -K_1
            orders = np.stack((m, np.abs(m - 1)))
            (im0, iml), (km0, kml) = specfun.bessel_ik_scaled(orders, x)
            ivp = iml - (m / x) * im0
            kvp = -kml - (m / x) * km0
            if radial:
                wm, wl = specfun.bessel_k_scaled(orders, y)
                w = -wl - (m / y) * wm
            else:
                w = specfun.bessel_k_scaled(m, y)
            denom = eps1 * im0 * kvp - eps2 * ivp * km0
            damp = np.exp(x - y)  # = exp(-k d); applied per bracket, squared overall
            br1 = im0 * w * damp
            br2 = ivp * w * damp
            ratio = (eps2 - eps1) * br1 * br2 / denom
            out[full] = k * k * ratio.imag
            return out

        # support of the m-th term: exp(-2kd) tail plus the bracket
        # transition at k ~ m/rho
        k_up = 30.0 / d + 2.0 * ms / rho
        weight = np.where(ms == 0, 1.0, 2.0)
        return pref * weight * quad(integrand, np.zeros(ms.size), k_up, rel_tol)

    pref = -3.0 / (math.pi * k1**3)
    total = 0.0
    terms: list[float] = []
    converged = False
    for chunk in _harmonic_chunks(d, rho, m_max):
        for m, term in zip(chunk, terms_of(chunk)):
            term = float(term)
            total += term
            terms.append(term)
            if m >= 2:
                scale = abs(total) + 1e-300
                if abs(terms[-1]) < series_tol * scale and abs(terms[-2]) < series_tol * scale:
                    converged = True
                    break
        if converged:
            break
    if not converged:
        scale = abs(total) + 1e-300
        if abs(terms[-1]) > max(_QS_STALL_TOL, series_tol) * scale:
            partial = [sum(terms[: i + 1]) for i in range(len(terms))]
            raise ConvergenceError(
                f"azimuthal harmonic sum still moving at m_max={m_max}; "
                f"last partial sums {partial[-4:]}"
            )
        warnings.warn(
            f"wire background at d={d:g} nm: harmonic sum not converged at "
            f"m_max={m_max}, last term {abs(terms[-1]) / scale:.3g} of the sum "
            f"(series_tol {series_tol:g}); accepted",
            RuntimeWarning,
            stacklevel=2,
        )
    return 1.0 + total


@dataclass(frozen=True)
class FieldWindow:
    """Rectangular (r, z) sampling window for field maps."""

    r_min: float
    r_max: float
    z_min: float
    z_max: float
    n_r: int = 81
    n_z: int = 161

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r_min, self.r_max, self.z_min, self.z_max))):
            raise ParameterError("field window bounds must be finite")
        if self.r_min < 0.0 or self.r_max <= self.r_min:
            raise ParameterError("field window needs 0 <= r_min < r_max")
        if self.z_max <= self.z_min:
            raise ParameterError("field window needs z_min < z_max")
        if self.n_r < 2 or self.n_z < 2:
            raise ParameterError("field window needs at least 2 samples per axis")
        if self.n_r * self.n_z > MAX_POINTS:
            raise ParameterError(
                f"field window has {self.n_r}x{self.n_z} samples, more than {MAX_POINTS}"
            )


@dataclass(frozen=True)
class FieldMap:
    """Complex guided-mode field sampled on a rectangular grid.

    e_r and e_z have shape (n_r, n_z).  These are the coherent complex
    fields (boundary conditions hold across the wire surface); take
    .real for a plot of the instantaneous field.
    """

    r: np.ndarray
    z: np.ndarray
    e_r: np.ndarray
    e_z: np.ndarray


def field_map(geom: WireGeometry, window: FieldWindow) -> FieldMap:
    """Sample the normalized complex mode field over an (r, z) window."""
    mode = solve_dispersion(geom)
    r_vals = np.linspace(window.r_min, window.r_max, window.n_r)
    z_vals = np.linspace(window.z_min, window.z_max, window.n_z)
    prof_r = np.empty(window.n_r, dtype=complex)
    prof_z = np.empty(window.n_r, dtype=complex)
    for i, r in enumerate(r_vals):
        e_r, e_z = mode.raw(float(r))
        prof_r[i] = mode.norm * e_r
        prof_z[i] = mode.norm * e_z
    phase = np.exp(1j * mode.k_sp * z_vals)
    return FieldMap(
        r=r_vals,
        z=z_vals,
        e_r=prof_r[:, None] * phase[None, :],
        e_z=prof_z[:, None] * phase[None, :],
    )


def paper_wire(lambda0: float = PAPER_LAMBDA0_NM,
               rho: float = PAPER_WIRE_RADIUS_NM) -> WireGeometry:
    return WireGeometry(rho=rho, metal=SILVER, host=GAAS, lambda0=lambda0)
