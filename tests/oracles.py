"""Independent reference formulas used to cross-check the library.

Everything here is coded directly from classical results: Fresnel
coefficients written out inline, the image-dipole mirror rate, the
electrostatic lossy-surface rates, the surface-mode pole of a single
interface, hand-rolled power series and integral representations for
the Bessel functions, an arbitrary-precision root polish of the wire
mode equation from its own electrostatic seed, a scan of the guided
wedge for every wire root, the wire's axial gradient ratio from
Gauss's law, the wire's plasmon ladder in the reduced E_r*E_z
magnitude form (fed the mode's field values as plain numbers),
finite-difference ground states of harmonically confined carriers, and
the wire's quasi-static background as one scalar adaptive quadrature
per azimuthal harmonic, and the planar contour quadrature as one scipy
`quad_vec` call per contour segment. None of it routes through the
package modules, so a library bug cannot cancel against an oracle bug.

Conventions match the package: lengths nm, wavevectors rad/nm, rates
normalized to the emitter's rate in the unbounded upper/host medium.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.linalg import eigh_tridiagonal
from scipy.special import ive, kv, kve


# ------------------------------------------------------------- planar mirror


def parallel_dipole_rate(h: float, lambda0: float, n1: float, n2: complex) -> float:
    """Normalized rate of a dipole parallel to an interface, height h.

    Real-axis angular-spectrum quadrature: radiative part via s = sin t,
    evanescent part via s = cosh t, with an integration breakpoint at
    the surface-mode position. Everything in units of the upper-medium
    wavevector k1.
    """
    k0 = 2.0 * math.pi / lambda0
    k1 = n1 * k0
    eps1 = n1 * n1
    eps2 = n2 * n2

    def refl(s: float, sz: complex):
        kz1 = k1 * sz
        kz2 = cmath.sqrt(eps2 * k0 * k0 - (s * k1) ** 2)
        if kz2.imag < 0.0:
            kz2 = -kz2
        rs = (kz1 - kz2) / (kz1 + kz2)
        rp = (eps2 * kz1 - eps1 * kz2) / (eps2 * kz1 + eps1 * kz2)
        return rs, rp

    def rad_part(t: float) -> float:
        s, sz = math.sin(t), math.cos(t)
        rs, rp = refl(s, complex(sz))
        val = s * (rs - rp * sz * sz) * cmath.exp(2j * k1 * h * sz)
        return val.real

    def evan_part(t: float) -> float:
        s = math.cosh(t)
        sz = 1j * math.sinh(t)
        rs, rp = refl(s, sz)
        val = (s / 1j) * (rs - rp * sz * sz) * cmath.exp(2j * k1 * h * sz)
        return val.real

    re1, _ = quad(rad_part, 0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-11, limit=400)
    s_max = 1.0 + 80.0 / (2.0 * k1 * h)
    t_max = math.acosh(s_max)
    s_pole = (surface_mode_pole(lambda0, n1, n2) / k1).real
    pts = [math.acosh(s_pole)] if 1.0 < s_pole < s_max else None
    re2, _ = quad(evan_part, 0.0, t_max, epsabs=1e-13, epsrel=1e-11, limit=800, points=pts)
    return 1.0 + 0.75 * (re1 + re2)


def mirror_image_rate(h: float, k1: float) -> float:
    """Closed-form rate of a dipole parallel to a perfect mirror."""
    u = 2.0 * k1 * h
    return 1.0 - 1.5 * (math.sin(u) / u + math.cos(u) / u**2 - math.sin(u) / u**3)


def surface_mode_pole(lambda0: float, n1: float, n2: complex) -> complex:
    """Bound-mode in-plane wavevector of a single flat interface."""
    k0 = 2.0 * math.pi / lambda0
    eps1 = complex(n1 * n1)
    eps2 = n2 * n2
    pole = k0 * cmath.sqrt(eps1 * eps2 / (eps1 + eps2))
    if pole.real < 0.0:
        pole = -pole
    return pole


def quasistatic_gzx_gradient(h: float, lambda0: float, n1: float, n2: complex) -> float:
    """Leading electrostatic term of the lateral gradient entry, Im part."""
    k0 = 2.0 * math.pi / lambda0
    k1 = n1 * k0
    eps1 = complex(n1 * n1)
    eps2 = n2 * n2
    beta = (eps2 - eps1) / (eps2 + eps1)
    return (-3.0 * beta / (64.0 * math.pi * k1 * k1 * h**4)).imag


def lossy_surface_rate(d: float, lambda0: float, n1: float, n2: complex,
                       perpendicular: bool) -> float:
    """Electrostatic nonradiative rate next to a flat absorbing surface.

    Normalized to the bulk rate; the parallel orientation carries half
    the perpendicular coefficient.
    """
    k0 = 2.0 * math.pi / lambda0
    k1 = n1 * k0
    eps1 = complex(n1 * n1)
    eps2 = n2 * n2
    im_beta = ((eps2 - eps1) / (eps2 + eps1)).imag
    coeff = 0.375 if perpendicular else 0.1875
    return coeff * im_beta / (k1 * d) ** 3


# ------------------------------------------------------- special functions


def bessel_j_series(order: int, z: complex, terms: int = 80) -> complex:
    """Power series for J_order at 40-digit working precision."""
    with mp.workdps(40):
        zm = mp.mpc(z)
        total = mp.mpc(0)
        for m in range(terms):
            total += (-1) ** m * (zm / 2) ** (order + 2 * m) / (
                mp.factorial(m) * mp.factorial(order + m)
            )
        return complex(total)


def bessel_i_series(order: int, z: complex, terms: int = 80) -> complex:
    """Power series for I_order at 40-digit working precision."""
    with mp.workdps(40):
        zm = mp.mpc(z)
        total = mp.mpc(0)
        for m in range(terms):
            total += (zm / 2) ** (order + 2 * m) / (
                mp.factorial(m) * mp.factorial(order + m)
            )
        return complex(total)


def bessel_k_integral(order: int, z: complex) -> complex:
    """Integral representation of K_order, valid for Re z > 0.

    The upper limit is truncated where the integrand falls below
    exp(-80) of its peak, which keeps the quadrature fast without
    touching the digits compared against.
    """
    x = complex(z).real
    if x <= 0.0:
        raise ValueError("representation needs Re z > 0")
    with mp.workdps(30):
        zm = mp.mpc(z)
        t_max = mp.acosh((80.0 + x) / x) + 1
        val = mp.quad(lambda t: mp.e ** (-zm * mp.cosh(t)) * mp.cosh(order * t), [0, t_max])
        return complex(val)


# ------------------------------------------------------------- wire mode


def wire_characteristic(k: complex, rho: float, lambda0: float,
                        eps_in: complex, eps_out: complex):
    """Mode condition of the azimuthally symmetric bound wire mode.

    Returns (value, scale); a root has |value| tiny against scale. The
    transverse constants take the Re >= 0 square-root branch.
    """
    k0 = 2 * mp.pi / mp.mpf(lambda0)
    km = mp.mpc(k)
    kappa_in = mp.sqrt(km * km - mp.mpc(eps_in) * k0 * k0)
    if mp.re(kappa_in) < 0:
        kappa_in = -kappa_in
    kappa_out = mp.sqrt(km * km - mp.mpc(eps_out) * k0 * k0)
    if mp.re(kappa_out) < 0:
        kappa_out = -kappa_out
    t_in = (mp.mpc(eps_in) / kappa_in) * mp.besseli(1, kappa_in * rho) / mp.besseli(0, kappa_in * rho)
    t_out = (mp.mpc(eps_out) / kappa_out) * mp.besselk(1, kappa_out * rho) / mp.besselk(0, kappa_out * rho)
    return t_in + t_out, abs(t_in) + abs(t_out)


def wire_mode_polish(seed: complex, rho: float, lambda0: float,
                     eps_in: complex, eps_out: complex, dps: int = 30) -> complex:
    """Arbitrary-precision root of the wire mode condition near seed (mpmath Newton)."""
    with mp.workdps(dps):
        root = mp.findroot(
            lambda k: wire_characteristic(k, rho, lambda0, eps_in, eps_out)[0],
            mp.mpc(seed), solver="newton",
        )
        return complex(root)


def wire_electrostatic_root(eps_in: complex, eps_out: complex):
    """Real root x0 of Re(eps_in) I1/I0(x) + eps_out K1/K0(x) = 0, or None.

    The electrostatic (kappa_in = kappa_out = k) limit of the mode
    condition, by mpmath's bracketing Anderson-Bjoerck solver. The left
    side falls from +inf to Re(eps_in) + eps_out, so a root exists only
    for Re(eps_in) < -eps_out.
    """
    a, b = complex(eps_in).real, complex(eps_out).real
    if not a < -b:
        return None

    def side(x):
        return a * mp.besseli(1, x) / mp.besseli(0, x) + b * mp.besselk(1, x) / mp.besselk(0, x)

    return float(mp.findroot(side, (mp.mpf("1e-4"), mp.mpf("1e4")), solver="anderson"))


def wire_mode_root(rho: float, lambda0: float, eps_in: complex, eps_out: complex) -> complex:
    """The wire root polished from the oracle's own electrostatic seed.

    The seed puts the exterior decay constant at kappa_out rho = x0, so
    the root depends on nothing the library computes. Converges for thin
    and medium wires (measured R = 2-80 nm for Ag in GaAs at 1000 nm);
    a thick wire's root sits near the flat-surface plasmon instead.
    """
    k0 = 2.0 * math.pi / lambda0
    kappa = wire_electrostatic_root(eps_in, eps_out) / rho
    seed = cmath.sqrt(kappa * kappa + eps_out * k0 * k0)
    return wire_mode_polish(seed, rho, lambda0, eps_in, eps_out)


def wire_mode_scan(rho: float, lambda0: float, eps_in: complex, eps_out: complex) -> list:
    """Every guided root of the wire mode condition that a scan turns up.

    A guided root has 0 <= Im k < Re k, Re k above the host light line.
    The scan runs along ten rays Im k = s Re k, s = 0, 0.1, ..., 0.9,
    each a geometric grid of 3000 points from just above the host light
    line to 4 max(10 k_host, x0/rho), x0 the electrostatic root (the
    thin-wire root sits near x0/rho). Each local minimum of
    |condition|/scale along a ray seeds a double-precision Newton
    iteration; roots with residual below 1e-10 in the guided wedge count
    once if they agree to 1e-6. Returns the distinct roots: a uniqueness
    oracle for the library's single seeded solve.
    """
    k0 = 2.0 * math.pi / lambda0
    k_host = math.sqrt(complex(eps_out).real) * k0
    x0 = wire_electrostatic_root(eps_in, eps_out)
    k_hi = 4.0 * max(10.0 * k_host, x0 / rho if x0 is not None else 0.0)

    def condition(k):
        kappa_in = np.sqrt(k * k - eps_in * k0 * k0)
        kappa_in = np.where(kappa_in.real < 0.0, -kappa_in, kappa_in)
        kappa_out = np.sqrt(k * k - eps_out * k0 * k0)
        kappa_out = np.where(kappa_out.real < 0.0, -kappa_out, kappa_out)
        t_in = eps_in / kappa_in * ive(1, kappa_in * rho) / ive(0, kappa_in * rho)
        t_out = eps_out / kappa_out * kve(1, kappa_out * rho) / kve(0, kappa_out * rho)
        return t_in + t_out, np.abs(t_in) + np.abs(t_out)

    ray = np.geomspace(1.0005 * k_host, k_hi, 3000)
    grid = ray[None, :] * (1.0 + 0.1j * np.arange(10))[:, None]
    with np.errstate(all="ignore"):
        value, scale = condition(grid)
        mag = np.abs(value) / scale
        k = grid[:, 1:-1][(mag[:, 1:-1] < mag[:, :-2]) & (mag[:, 1:-1] < mag[:, 2:])]
        for _ in range(60):
            h = 1e-7 * np.abs(k)
            slope = (condition(k + h)[0] - condition(k - h)[0]) / (2.0 * h)
            k = k - condition(k)[0] / slope
        value, scale = condition(k)
        good = ((np.abs(value) < 1e-10 * scale) & (k.real > k_host) & (k.real < k_hi)
                & (k.imag >= 0.0) & (k.imag < k.real))
    roots = []
    for root in k[good]:
        if all(abs(root - r) > 1e-6 * abs(r) for r in roots):
            roots.append(complex(root))
    return roots


def wire_axial_gradient_ratio(distances, rho: float, lambda0: float,
                              eps_in: complex, eps_out: complex,
                              lambda_over_mu: float):
    """|Gamma1|/Gamma0 of an axial dipole next to the wire, and its far limit.

    The ratio is 2 |L| Re(k_sp) |E_r/E_z| at r = rho + d; the mode
    normalization and the rate prefactor cancel out of it. k_sp is
    `wire_mode_root`, polished from the oracle's own electrostatic seed.
    E_z = K0(kappa_out r) comes from scipy directly, and E_r from
    Gauss's law in the host, (1/r) d(r E_r)/dr = -i k_sp E_z with
    r E_r -> 0 far out:

        E_r(r) = (i k_sp / r) * integral_r^inf r' E_z(r') dr',

    integrated numerically (no K1 identity). The far limit of the ratio
    is 2 |L| Re(k_sp) |k_sp/kappa_out|, where |E_r/E_z| -> |k_sp/kappa_out|.
    Returns (list of ratios, far limit).
    """
    k_sp = wire_mode_root(rho, lambda0, eps_in, eps_out)
    k0 = 2.0 * math.pi / lambda0
    kappa = cmath.sqrt(k_sp * k_sp - eps_out * k0 * k0)
    if kappa.real < 0.0:
        kappa = -kappa
    scale = 2.0 * abs(lambda_over_mu) * k_sp.real
    tail = 60.0 / kappa.real  # exp(-60) of the K0 decay

    def moment(part, r: float) -> float:
        # one real part of integral_r^{r+tail} t K0(kappa t) dt
        return quad(lambda t: part(t * kv(0, kappa * t)), r, r + tail,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    ratios = []
    for d in distances:
        r = rho + d
        e_z = kv(0, kappa * r)
        integral = complex(moment(np.real, r), moment(np.imag, r))
        e_r = 1j * k_sp * integral / r
        ratios.append(scale * abs(e_r) / abs(e_z))
    return ratios, scale * abs(k_sp / kappa)


def wire_plasmon_ladder(k_sp: complex, v_g: float, e_r: float, e_z: float, dez_dr: float,
                        lambda0: float, n_host: float, lambda_over_mu: float,
                        axial: bool) -> tuple:
    """Plasmon ladder (gamma0, gamma1, gamma2) of the wire in reduced magnitude form.

    Takes the mode's field magnitudes E_r, E_z and d|E_z|/dr at the
    emitter, k_sp and v_g as plain numbers. With the per-photon factor
    C = 3 pi c0 / (n_host k0^2 v_g), an axial dipole gives
    C E_z^2, -2 C L Re(k_sp) E_r E_z, C L^2 |k_sp|^2 E_r^2, and a radial
    one C E_r^2, 0, C L^2 (d|E_z|/dr)^2, normalized to the bulk-host rate.
    """
    k0 = 2.0 * math.pi / lambda0
    c = 3.0 * math.pi * 299.792458 / (n_host * k0 * k0 * v_g)
    lam = lambda_over_mu
    if axial:
        return (c * e_z * e_z, -2.0 * c * lam * k_sp.real * e_r * e_z,
                c * lam * lam * abs(k_sp) ** 2 * e_r * e_r)
    return c * e_r * e_r, 0.0, c * lam * lam * dez_dr * dez_dr


def quasistatic_background_scalar(rho: float, d: float, lambda0: float,
                                  n_host: complex, n_metal: complex, radial: bool,
                                  m_max: int = 30, rel_tol: float = 1e-8,
                                  series_tol: float = 1e-10) -> float:
    """Wire quasi-static background, one scalar `quad` per harmonic.

    The harmonic-by-harmonic reference for the library's batched
    background: the same integrand (scaled I_m, K_m products over the
    electrostatic cylinder denominator), the same per-m interval
    [0, 30/d + 2m/rho], the same small-argument limit for m >= 60 and
    the same series stop rule, each harmonic integrated on its own by
    QUADPACK at `rel_tol`. Returns 1 + Gamma_LS; raises RuntimeError
    where the harmonic sum is still moving at m_max.
    """
    eps1 = n_host * n_host
    eps2 = n_metal * n_metal
    if eps2.imag == 0.0:
        return 1.0
    r0 = rho + d
    k1 = (2.0 * math.pi * n_host / lambda0).real
    beta_flat = (eps2 - eps1) / (eps1 + eps2)

    def pair(m: int, z: float):
        # principal-branch scaled pair at a complex argument, as in the
        # library's guarded wrapper
        zc = complex(z)
        i_val, k_val = complex(ive(m, zc)), complex(kve(m, zc))
        if not (cmath.isfinite(i_val) and cmath.isfinite(k_val)):
            raise OverflowError(f"scaled I/K of order {m} at {z} left double range")
        return i_val, k_val

    def switch_x(m: int) -> float:
        if m < 60:
            return 0.0
        x = 0.0
        for _ in range(3):
            x = 2.0 * math.exp((math.lgamma(m + 1) - 620.0 + x) / m)
        return x

    def integrand(k: float, m: int, x_switch: float) -> float:
        x = k * rho
        y = k * r0
        if m >= 1 and x < x_switch:
            lim = -beta_flat.imag * (rho / r0) ** (2 * m) / (2.0 * m)
            if radial:
                return m * m / (r0 * r0) * lim
            return k * k * lim
        im0, km0 = pair(m, x)
        iml, kml = pair(abs(m - 1), x)
        imu, kmu = pair(m + 1, x)
        ivp = 0.5 * (iml + imu)
        kvp = -0.5 * (kml + kmu)
        if radial:
            w = -0.5 * (pair(abs(m - 1), y)[1] + pair(m + 1, y)[1])
        else:
            w = pair(m, y)[1]
        denom = eps1 * im0 * kvp - eps2 * ivp * km0
        damp = math.exp(x - y)
        ratio = (eps2 - eps1) * (im0 * w * damp) * (ivp * w * damp) / denom
        return k * k * ratio.imag

    pref = -3.0 / (math.pi * k1**3)
    total = 0.0
    terms = []
    for m in range(m_max + 1):
        weight = 1.0 if m == 0 else 2.0
        k_up = 30.0 / d + 2.0 * m / rho
        val, _ = quad(integrand, 0.0, k_up, args=(m, switch_x(m)),
                      epsabs=1e-300, epsrel=rel_tol, limit=400)
        term = pref * weight * val
        total += term
        terms.append(term)
        scale = abs(total) + 1e-300
        if m >= 2 and abs(terms[-1]) < series_tol * scale and abs(terms[-2]) < series_tol * scale:
            return 1.0 + total
    if abs(terms[-1]) > max(1e-6, series_tol) * (abs(total) + 1e-300):
        raise RuntimeError(f"harmonic sum still moving at m_max={m_max}")
    return 1.0 + total


# ------------------------------------------------------ envelope moment


def harmonic_envelope_moment(sigma_e: float, mass_ratio: float, shift: float,
                             tie: str):
    """Growth-axis first moment of harmonically confined electron and hole.

    Finite-difference ground states of two 1D oscillators (hbar = m_e = 1,
    hole mass `mass_ratio`) on one uniform 8001-point grid, three-point
    Laplacian.
    The electron oscillator is centred at `shift` and sized so that its
    density has half width at half maximum `sigma_e`; the hole sits at 0.
    `tie` fixes the hole's confinement:

      * "frequency": equal level spacing hbar*omega for both carriers;
      * "potential": one shared potential, equal spring constant.

    Returns (hole density HWHM, |<z> - z0|): <z> is the centroid of the
    overlap psi_e psi_h, z0 the mass-weighted centre of the two
    oscillator centres. Both measured on the grid, in nm.
    """
    hwhm = math.sqrt(2.0 * math.log(2.0))
    s_e = sigma_e / hwhm  # density standard deviation
    omega_e = 1.0 / (2.0 * s_e * s_e)
    if tie == "frequency":
        omega_h = omega_e
    elif tie == "potential":
        omega_h = omega_e / math.sqrt(mass_ratio)
    else:
        raise ValueError(f"unknown tie {tie!r}")
    z_e, z_h = shift, 0.0
    pad = 12.0 * s_e * max(1.0, 1.0 / math.sqrt(mass_ratio))
    z = np.linspace(min(z_e, z_h) - pad, max(z_e, z_h) + pad, 8001)
    step = z[1] - z[0]

    def ground_state(mass, omega, centre):
        diag = 1.0 / (mass * step * step) + 0.5 * mass * omega**2 * (z - centre) ** 2
        off = np.full(z.size - 1, -0.5 / (mass * step * step))
        _, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        psi = vec[:, 0]
        return psi if psi.sum() > 0.0 else -psi

    psi_e = ground_state(1.0, omega_e, z_e)
    psi_h = ground_state(mass_ratio, omega_h, z_h)
    dens_h = psi_h * psi_h / np.sum(psi_h * psi_h)
    mean_h = np.sum(z * dens_h)
    sigma_h = hwhm * math.sqrt(np.sum((z - mean_h) ** 2 * dens_h))
    overlap = psi_e * psi_h
    centroid = np.sum(z * overlap) / np.sum(overlap)
    z0 = (z_e + mass_ratio * z_h) / (1.0 + mass_ratio)
    return float(sigma_h), float(abs(centroid - z0))


# ---------------------------------------------------- contour quadrature


def scipy_quad_vec(f, bounds, epsabs: float, epsrel: float) -> list:
    """The contour quadrature by scipy: one quad_vec call per interval.

    This is how the planar interface integrated its contour segments
    before the package had its own integrator, one after the other.
    Same signature and result as `mesoqed.quadrature.quad_vec`, so a
    test can put it in place of `halfspace.quad_vec`.
    """
    return [quad_vec(lambda x, k=k: f(x, k), a, b, epsabs=epsabs, epsrel=epsrel, norm="max")
            for k, (a, b) in enumerate(bounds)]


# ------------------------------------------------------------ small helpers


def geometric_heights(lo: float, hi: float, n: int) -> np.ndarray:
    return np.geomspace(lo, hi, n)
