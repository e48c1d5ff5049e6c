"""Guided plasmon of a metal nanowire and the emitter rates it carries.

The wire (radius rho, metal eps2) sits in a lossless dielectric host
(eps1).  Only the azimuthally symmetric TM mode is treated.  A thin
wire can guide an m = 1 hybrid mode as well (n = 7i does); that mode
is not treated (ROADMAP.md, "Count each plasmon once").  With fields
~ e^{i k_sp z} and transverse constants kappa_i^2 = k_sp^2 - eps_i k0^2
the mode satisfies

    (eps_in/kappa_in)  I1/I0 (kappa_in rho)
  + (eps_out/kappa_out) K1/K0 (kappa_out rho) = 0.

The characteristic function is even in the kappa_in branch choice;
kappa_out is the principal square root, whose real part is never
negative, so the exterior field does not grow away from the wire.

One damped Newton solve finds the root, from the larger of two limits
of kappa_out: the thin wire's x0/rho (Takahara et al., Opt. Lett. 22,
475 (1997)) and the flat surface plasmon's.  A guided root has
0 <= Im k < Re k.  Mode conventions: Chang et al., PRB 76, 035420 (2007).

Conventions fixed here and used by the rate formulas:
  * exterior(r) returns real positive magnitudes (E_r(r), E_z(r)) and
    d|E_z|/dr outside the wire; the physical field is
    (-E_r, 0, i E_z) e^{i k_sp z}.  Rates are built from these;
    GuidedMode.raw(r) is the raw complex solution (boundary matching,
    field maps), inside and outside the wire.
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
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import rates as _rates
from . import specfun
from .core import GAAS, PAPER_LAMBDA0_NM, PAPER_WIRE_RADIUS_NM, SILVER, SPEED_OF_LIGHT_NM_PER_FS
from .core import MAX_POINTS, EmitterMoments, Material, check_count, check_finite
from .core import check_positive, homogeneous_im_gxx, host_wavevectors
from .errors import (
    ConvergenceError,
    ContractViolationError,
    NoBoundModeError,
    OutOfDomainError,
    ParameterError,
)
from .quadrature import merge_trees, quad, tree_entry
from .rates import GreenBundle

_ROOT_RESIDUAL = 1e-12
_NORM_TAIL = 40.0  # exterior cutoff: exp(-2*40) tail below double precision
_ORDERS = np.arange(2)  # each radial pair, orders 0 and 1, in one Bessel call


@dataclass(frozen=True)
class WireGeometry:
    """Cylindrical wire of `metal` embedded in lossless `host`."""

    rho: float
    metal: Material
    host: Material
    lambda0: float
    k0: float = field(init=False, repr=False)  # vacuum wavevector, set from lambda0
    k_host: float = field(init=False, repr=False)  # the host medium's

    def __post_init__(self):
        check_positive(radius=self.rho)
        k0, k_host = host_wavevectors(self.host, self.lambda0)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k_host", k_host)


def _transverse(k: complex, eps: complex, k0: float) -> complex:
    return cmath.sqrt(k * k - eps * k0 * k0)  # the principal root: Re kappa >= 0


def _characteristic(k: complex, geom: WireGeometry) -> tuple[complex, float]:
    """Characteristic function and its two-term magnitude scale."""
    k0 = geom.k0
    kap_in = _transverse(k, geom.metal.eps, k0)
    kap_out = _transverse(k, geom.host.eps, k0)
    # Python complex scalars: numpy's complex arithmetic can round differently
    (i0, i1), _ = specfun.bessel_ik_scaled(_ORDERS, kap_in * geom.rho)
    q0, q1 = specfun.bessel_k_scaled(_ORDERS, kap_out * geom.rho)
    i0, i1, q0, q1 = map(complex, (i0, i1, q0, q1))
    t_in = (geom.metal.eps / kap_in) * (i1 / i0)
    t_out = (geom.host.eps / kap_out) * (q1 / q0)
    value = t_in + t_out
    scale = abs(t_in) + abs(t_out)
    return value, scale


def _newton(geom: WireGeometry, seed: complex) -> tuple[complex, float] | None:
    """The root from seed and its residual |value|/scale, or None where Newton fails."""
    k = complex(seed)
    for _ in range(60):
        value, scale = _characteristic(k, geom)
        residual = abs(value) / scale
        if residual < _ROOT_RESIDUAL:
            return k, residual
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
            if abs(trial) / tscale <= residual:
                break
            step *= 0.5
        k = k + step
        if abs(step) < 1e-14 * abs(k):
            value, scale = _characteristic(k, geom)
            residual = abs(value) / scale
            return (k, residual) if residual < _ROOT_RESIDUAL else None
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
        (i0, i1), (k0, k1) = specfun.bessel_ik_scaled(_ORDERS, x)
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

    The constructor derives kappa_in, kappa_out, a_in and norm from
    k_sp.  `norm` scales the raw exterior solution (unit K0 amplitude)
    so the cross-section integral of Re[eps]|e|^2 is 1.  `a_in` is the
    interior amplitude relative to that same unit exterior amplitude.
    """

    k_sp: complex
    v_g: float
    residual: float
    geometry: WireGeometry
    kappa_in: complex = field(init=False)
    kappa_out: complex = field(init=False)
    a_in: complex = field(init=False)
    norm: float = field(init=False)

    def __post_init__(self):
        geom = self.geometry
        k0 = geom.k0
        kap_in = _transverse(self.k_sp, geom.metal.eps, k0)
        kap_out = _transverse(self.k_sp, geom.host.eps, k0)
        kv0 = specfun.bessel_k(0, kap_out * geom.rho)
        iv0 = specfun.bessel_i(0, kap_in * geom.rho)
        object.__setattr__(self, "kappa_in", kap_in)
        object.__setattr__(self, "kappa_out", kap_out)
        object.__setattr__(self, "a_in", kv0 / iv0)
        raw = self._norm_integral()
        if not (raw > 0.0) or not math.isfinite(raw):
            raise ContractViolationError(
                f"mode normalization integral is {raw}; cannot normalize"
            )
        object.__setattr__(self, "norm", 1.0 / math.sqrt(raw))

    def raw(self, r: float) -> tuple[complex, complex]:
        """Unnormalized (e_r, e_z) at r, inside or outside the wire."""
        # Python complex scalars: numpy's complex arithmetic can round differently
        if r >= self.geometry.rho:
            kv0, kv1 = map(complex, specfun.bessel_k(_ORDERS, self.kappa_out * r))
            return 1j * (self.k_sp / self.kappa_out) * kv1, kv0
        if r == 0.0:
            return 0.0j, complex(self.a_in)  # I0(0)=1, I1(0)=0
        iv0, iv1 = specfun.bessel_i(_ORDERS, self.kappa_in * r)
        iv0, iv1 = complex(iv0), complex(iv1)
        return -1j * (self.k_sp / self.kappa_in) * self.a_in * iv1, self.a_in * iv0

    def exterior(self, r: float) -> tuple[float, float, float]:
        """Magnitudes (E_r, E_z) of the normalized mode and d|E_z|/dr, outside the wire."""
        if r < self.geometry.rho:
            raise ParameterError("the exterior field is defined outside the wire only")
        kv0, kv1 = map(complex, specfun.bessel_k(_ORDERS, self.kappa_out * r))
        if kv0 == 0.0:
            raise OutOfDomainError(f"d|E_z|/dr at r = {r:g} nm: K0 underflows to 0")
        e_r = 1j * (self.k_sp / self.kappa_out) * kv1
        num = (self.kappa_out * kv1 * kv0.conjugate()).real
        return self.norm * abs(e_r), self.norm * abs(kv0), -self.norm * num / abs(kv0)

    def normalization_check(self) -> float:
        """norm^2 times a re-run of the integral that set norm: 1 to roundoff by construction."""
        return self.norm * self.norm * self._norm_integral()

    def _norm_integral(self) -> float:
        """Cross-section integral of Re[eps]|e|^2 for the unit-amplitude solution."""
        rho = self.geometry.rho
        eps_in_re = self.geometry.metal.eps.real
        eps_out_re = self.geometry.host.eps.real
        kap_in, kap_out = self.kappa_in, self.kappa_out
        ratio_in = abs(self.k_sp / kap_in) ** 2
        ratio_out = abs(self.k_sp / kap_out) ** 2
        a2 = abs(self.a_in) ** 2

        def density(r: np.ndarray, row: np.ndarray) -> np.ndarray:
            # row 0 is the interior [0, rho], row 1 the exterior
            inner = row == 0
            out = np.empty_like(r)
            r_in, r_out = r[inner], r[~inner]
            iv0, iv1 = specfun.bessel_i(_ORDERS[:, None], kap_in * r_in)
            dens = a2 * (np.abs(iv0) ** 2 + ratio_in * np.abs(iv1) ** 2)
            out[inner] = eps_in_re * dens * 2.0 * math.pi * r_in
            kv0, kv1 = specfun.bessel_k(_ORDERS[:, None], kap_out * r_out)
            dens = np.abs(kv0) ** 2 + ratio_out * np.abs(kv1) ** 2
            out[~inner] = eps_out_re * dens * 2.0 * math.pi * r_out
            return out

        r_max = rho + _NORM_TAIL / kap_out.real
        # a thick wire overflows |I0|^2; the constructor reports the non-finite total
        with np.errstate(over="ignore", invalid="ignore"):
            (w_in, w_out), _ = quad(density, np.array([0.0, rho]), np.array([rho, r_max]), 1e-11)
        return float(w_in + w_out)


@lru_cache(maxsize=64)
def solve_dispersion(geom: WireGeometry) -> GuidedMode:
    """Solve the m=0 TM dispersion and return the normalized mode.

    Raises NoBoundModeError when Re(eps_metal) >= -eps_host, or when
    Newton from `_seed` finds no guided root.
    """
    if geom.metal.n == geom.host.n:
        raise ParameterError("metal and host are identical; no guided plasmon exists")
    found = _newton(geom, _seed(geom))
    if found is None:
        raise NoBoundModeError(
            "Newton from the electrostatic seed found no guided root for the wire of radius "
            f"{geom.rho:g} nm, metal n = {geom.metal.n:g} and host n = {geom.host.n:g} "
            f"at lambda0 = {geom.lambda0:g} nm")
    root, residual = found
    if not 0.0 <= root.imag < root.real:
        raise NoBoundModeError(f"Newton from the electrostatic seed found no guided root: {root}")
    v_g = _group_velocity_at(geom, root, 1e-3)
    return GuidedMode(root, v_g, residual, geom)


def _group_velocity_at(geom: WireGeometry, center_root: complex, delta: float) -> float:
    c0 = SPEED_OF_LIGHT_NM_PER_FS
    omega0 = 2.0 * math.pi * c0 / geom.lambda0
    res = []
    for sgn in (+1.0, -1.0):
        omega = omega0 * (1.0 + sgn * delta)
        lam = 2.0 * math.pi * c0 / omega
        shifted = WireGeometry(geom.rho, geom.metal, geom.host, lam)
        found = _newton(shifted, center_root)
        if found is None:
            raise NoBoundModeError(
                f"dispersion solve failed at the frequency offset {sgn * delta:+g}"
            )
        res.append((omega, found[0].real))
    (om_p, k_p), (om_m, k_m) = res
    if k_p == k_m:
        raise NoBoundModeError(f"Re k_sp does not move over the offsets +-{delta:g}: no v_g")
    return (om_p - om_m) / (k_p - k_m)


AXIAL = "axial"
RADIAL = "radial"


def _check_point(d: float, orientation: str) -> None:
    check_positive(d=d)
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
    _check_point(d, orientation)
    mode = solve_dispersion(geom)
    _rates.check_expansion(mode.k_sp.real, moments)
    norm = homogeneous_im_gxx(geom.host, geom.lambda0)
    ladder = _rates.rate_ladder(_bundle(geom, mode, norm, d, orientation), moments, norm)
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
    return _bundle(geom, mode, homogeneous_im_gxx(geom.host, geom.lambda0), d, orientation)


def _bundle(geom: WireGeometry, mode: GuidedMode, norm: float, d: float,
            orientation: str) -> GreenBundle:
    """plasmon_bundle from geom's solved mode and the host's Im G_xx `norm`."""
    # per-photon factor C with vacuum permittivity 1; bulk normalization folded in
    k0 = geom.k0
    c_photon = 3.0 * math.pi * SPEED_OF_LIGHT_NM_PER_FS / (geom.host.n.real * k0 * k0 * mode.v_g)
    scale = norm * c_photon
    r0 = geom.rho + d
    e_r, e_z, dez = mode.exterior(r0)
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


_QS_M_MAX = 30  # the last azimuthal order summed
_QS_SERIES_TOL = 1e-10
_QS_STALL_TOL = 1e-6
_QS_BUCKETS = 8  # buckets of the tree memo per octave of d/rho
_QS_TREE_ENTRIES = 128
# (geom, orientation, rel_tol, bucket) -> {order: sorted heap codes}, oldest use first
_QS_TREES: dict = {}


def _harmonic_chunks(d: float, rho: float, radial: bool) -> list[np.ndarray]:
    """Orders 0.._QS_M_MAX in the chunks the background integrates together.

    Term m falls off about as (rho/r0)^(2m) = exp(-fall * m). The first
    chunk ends two orders past where that reaches the series tolerance,
    three for a radial dipole, whose K'_m(k r0) carries an extra m/(k r0)
    and so falls about one order later; the second holds the orders
    left, if any. On silver no background makes the second quad call:
    at radii 2, 10, 30 and 100 nm, 40 distances from 1 to 3000 nm and
    both orientations, the series stops within the first chunk in 232
    of 320 cases, and in the other 88, near the wire, the first chunk
    already holds every order. Near the cylinder's resonance the terms
    fall more slowly: on the same grid, 396 of 2240 backgrounds on
    n = 0.05+3.5i, 0.05+3.43i, 0.1+3.6i, 0.02+3.45i, 0.5+4i, 0.05+3.8i
    and 0.01+3.421i make the second call.
    """
    fall = 2.0 * math.log1p(d / rho)
    orders = -math.log(_QS_SERIES_TOL)
    first = 3 + radial + math.ceil(orders / fall) if fall * _QS_M_MAX > orders else _QS_M_MAX + 1
    return [chunk for chunk in np.split(np.arange(_QS_M_MAX + 1), [first]) if chunk.size]


def _node_bessel(m: np.ndarray, x: np.ndarray, y: np.ndarray, radial: bool) -> tuple:
    """Scaled I_m, K_m, I'_m, K'_m at x and the emitter's K factor w at y.

    All five in real arithmetic, from one `specfun._background_node`
    call: I_m at x, and K_m and K_|m-1| at x and y, whence
    K'_m = -K_{m-1} - (m/x) K_m (at m = 0, K_|0-1| = K_1 gives
    K'_0 = -K_1). I'_m comes from the Wronskian
    I_m K'_m - I'_m K_m = -1/x, which the scaled functions keep; its two
    terms stand at most 2:1 for m >= 1, but at m = 0 they cancel like
    1/x^2 as x -> 0, so there I'_0 = I_1 is taken directly. w is K_m(y)
    axial and K'_m(y) radial.
    """
    i_m, k_m, k_l, ky_m, ky_l, i_1 = specfun._background_node(m, x, y)
    kvp = -k_l - (m / x) * k_m
    ivp = (i_m * kvp + 1.0 / x) / k_m
    ivp[m == 0] = i_1
    w = -ky_l - (m / y) * ky_m if radial else ky_m
    return i_m, k_m, ivp, kvp, w


def quasistatic_background(
    geom: WireGeometry, d: float, orientation: str, rel_tol: float = 1e-8
) -> float:
    """Radiative-plus-lossy floor for a point dipole next to the wire.

    Electrostatic cylinder response, azimuthal harmonics m = 0..30.
    The radiative part is approximated by the homogeneous host rate, so
    the return value is 1 + Gamma_LS (normalized).  Lossless metal gives
    exactly 1.

    Harmonic m is the integral over [0, 30/d + 2m/rho] of a product of
    scaled I_m, K_m over the cylinder's resonant denominator.  The
    harmonics are integrated in chunks, all panels of a chunk at once by
    `quadrature.quad` (adaptive G10/K21 bisection with QUADPACK's error
    estimate), each harmonic to `rel_tol` on its own, so a harmonic's
    value does not depend on the chunk it shares.  The first chunk ends
    a few orders past where (rho/r0)^(2m) reaches 1e-10, one order
    later for a radial dipole, whose K'_m carries an extra m/(k r0);
    on silver that makes one quadrature call per background, near the
    cylinder's resonance often two (see `_harmonic_chunks`).  After
    each chunk the series stops at the first m >= 2 where terms m-1 and
    m both fall below 1e-10 of the partial sum through m.  If that has not happened at m = 30 (fixed,
    not scaled with rho/d), a sum that is not finite or whose last term
    is above 1e-6 of it raises ConvergenceError, and a smaller last
    term is accepted with a RuntimeWarning that names d, m_max and the
    last term's share of the sum.  A harmonic that cannot reach `rel_tol` (roundoff, or 400
    panels) is kept with a RuntimeWarning.

    The first integrand call of `quad` looks ahead along each harmonic's
    tree: the union of the panels it split at earlier distances in the
    same 1/8-octave bucket of d/rho (`_QS_TREES`, per geometry,
    orientation and `rel_tol`; an empty bucket borrows the nearest one).
    Harmonics refine alike across a bucket, so most backgrounds make one
    call, and by `quad`'s own guarantee no tree moves a bit.

    Per quadrature node the integrand takes its Bessel values in real
    arithmetic (`_node_bessel`): one `specfun` call climbs K_m and
    K_|m-1| at k*rho and k*(rho+d) from K0, K1 and gives the scaled I_m
    at k*rho, and the derivatives follow from
    K'_m = -K_{m-1} - (m/x) K_m and the Wronskian: 1 I, 2 K0 and 2 K1
    real values per node (and a real I_1 at order 0), in either
    orientation. Complex arithmetic starts where the permittivities
    enter.
    """
    _check_point(d, orientation)
    check_positive(rel_tol=rel_tol)
    eps1 = geom.host.eps
    eps2 = geom.metal.eps
    if eps2.imag == 0.0:
        return 1.0  # no absorption: the lossy channel is identically zero
    rho = geom.rho
    r0 = rho + d
    k1 = geom.k_host
    radial = orientation == RADIAL

    def terms_of(ms: np.ndarray) -> np.ndarray:
        def integrand(k: np.ndarray, row: np.ndarray) -> np.ndarray:
            x = k * rho
            y = k * r0
            im0, km0, ivp, kvp, w = _node_bessel(ms[row], x, y, radial)
            denom = eps1 * im0 * kvp - eps2 * ivp * km0
            damp = np.exp(x - y)  # = exp(-k d); applied per bracket, squared overall
            br1 = im0 * w * damp
            br2 = ivp * w * damp
            ratio = (eps2 - eps1) * br1 * br2 / denom
            return k * k * ratio.imag

        # support of the m-th term: exp(-2kd) tail plus the bracket
        # transition at k ~ m/rho
        k_up = 30.0 / d + 2.0 * ms / rho
        weight = np.where(ms == 0, 1.0, 2.0)
        orders = ms.tolist()
        # a non-finite term fails the verdict below, so numpy need not warn of it
        with np.errstate(all="ignore"):
            total, split = quad(integrand, np.zeros(ms.size), k_up, rel_tol,
                                [ahead.get(m) for m in orders])
        merge_trees(own, zip(orders, split))
        return pref * weight * total

    bucket = math.floor(_QS_BUCKETS * (math.log2(d) - math.log2(rho)))
    ahead, own = tree_entry(_QS_TREES, (geom, orientation, rel_tol, bucket), _QS_TREE_ENTRIES)
    pref = -3.0 / (math.pi * k1**3)
    terms = np.empty(0)
    for chunk in _harmonic_chunks(d, rho, radial):
        terms = np.concatenate((terms, terms_of(chunk)))
        partial = np.cumsum(terms)
        # stop at the first m >= 2 where terms m-1 and m fall below the tolerance of S_m
        tol = _QS_SERIES_TOL * (np.abs(partial[2:]) + 1e-300)
        stop = np.flatnonzero((np.abs(terms[1:-1]) < tol) & (np.abs(terms[2:]) < tol))
        if stop.size:
            return 1.0 + float(partial[stop[0] + 2])
    scale = abs(partial[-1]) + 1e-300
    finite = math.isfinite(scale)
    if not (finite and abs(terms[-1]) <= _QS_STALL_TOL * scale):
        raise ConvergenceError(
            f"azimuthal harmonic sum {'still moving' if finite else 'not finite'} "
            f"at m_max={_QS_M_MAX}; "
            f"last partial sums [{', '.join(f'{p:.6g}' for p in partial[-4:])}]"
        )
    warnings.warn(
        f"wire background at d={d:g} nm: harmonic sum not converged at "
        f"m_max={_QS_M_MAX}, last term {abs(terms[-1]) / scale:.3g} of the sum "
        f"(series_tol {_QS_SERIES_TOL:g}); accepted",
        RuntimeWarning,
        stacklevel=2,
    )
    return 1.0 + float(partial[-1])


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
        check_finite(rmin=self.r_min, rmax=self.r_max, zmin=self.z_min, zmax=self.z_max)
        check_count(nr=self.n_r, nz=self.n_z)
        if self.r_min < 0.0 or self.r_max <= self.r_min:
            raise ParameterError("field window needs 0 <= r_min < r_max")
        if self.z_max <= self.z_min:
            raise ParameterError("field window needs z_min < z_max")
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
    # Im k_sp > 0: the phase grows toward negative z and may overflow there
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(1j * mode.k_sp * z_vals)
        e_r = prof_r[:, None] * phase[None, :]
        e_z = prof_z[:, None] * phase[None, :]
    if not (np.isfinite(e_r).all() and np.isfinite(e_z).all()):
        raise ParameterError(
            f"mode field is not finite over the window: e^(i k_sp z) overflows"
            f" at z = {window.z_min:g} nm"
        )
    return FieldMap(r=r_vals, z=z_vals, e_r=e_r, e_z=e_z)


def paper_wire(lambda0: float = PAPER_LAMBDA0_NM,
               rho: float = PAPER_WIRE_RADIUS_NM) -> WireGeometry:
    return WireGeometry(rho=rho, metal=SILVER, host=GAAS, lambda0=lambda0)
