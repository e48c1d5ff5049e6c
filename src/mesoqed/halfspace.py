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

Every height of a sweep (`interface_sweep`) adds its contour segments
as intervals of one adaptive quadrature, so each round evaluates the
nodes of all heights in one call of an array integrand. That integrand
rounds as Python's scalar arithmetic does, operation by operation
(`_mul`, `_libm`, `_quotients`), so the numbers of a height do not depend
on the heights computed with it.

The integrand has two stages. The node columns (`_node_columns`) are
everything that depends on the node and the geometry only: kp, kz1, the
Fresnel factors, the Jacobian, the powers of kp. The height stage takes
phi = exp(2i*kz1*h) and the products that involve it. Radiative and
ellipse nodes recur from height to height, so each geometry's contour
keeps their columns in a memo (`_Memo`, up to _MEMO_NODES distinct nodes
per segment), and the last _GEOMETRIES contours are kept with their
memos (`_contour`): a sweep and every later `interface_point` of the
same materials and wavelength build each shared node once. A stored
column has the bits a fresh one would have, so the memo moves no number.

The four component integrands, written per unit dk_par with
phi = exp(2i*k_z1*h) and all lengths in nm:

    G_xx:              (i/8pi) * (kp/kz1) * (rs - rp*kz1^2/k1^2) * phi
    d/dx G_zx:        -(1/8pi) * kp^3/k1^2 * rp * phi
    d/dx d/dx' G_zz:   (i/8pi) * kp^5/(kz1*k1^2) * rp * phi
    d/dz G_xx:        -(1/8pi) * kp * (rs - rp*kz1^2/k1^2) * phi
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import rates as _rates
from .core import GAAS, PAPER_LAMBDA0_NM, SILVER, EmitterMoments, Material
from .core import check_host, homogeneous_im_gxx, wavevector
from .errors import ConvergenceError, NoBoundModeError, ParameterError
from .quadrature import quad_vec
from .rates import GreenBundle

_TAIL_EXPONENT = 80.0  # exp(-80) truncation of the evanescent tail
# heights in one quadrature at most: each keeps its intervals' panels until the block ends
_BLOCK = 32
# geometries whose contour and node memos are kept, the least recently used dropped first
_GEOMETRIES = 8
# distinct nodes whose columns a memo keeps, per segment of a geometry
_MEMO_NODES = 4096
_CONTOURS: dict = {}  # exact (n_upper, n_lower, lambda0) -> _Contour, oldest use first


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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.asarray(re, dtype=complex)  # a new array: re is real
    z.imag = im
    return z


def _mul(a, b) -> np.ndarray:
    """a * b by the real-pair formula, which Python's complex product uses.

    numpy's array product of two complex arrays may fuse a multiply into
    an add (FMA) and then rounds differently; its sum, difference,
    quotient, sqrt and exp agree with the scalar results. A real operand
    counts as complex with imaginary part 0.0, as in Python.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn of each element through Python's math: numpy's SIMD sin, cos, sinh and cosh
    differ from libm in the last bit on some arguments."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _fresnel_from_kz(kz1, kz2, eps1, eps2):
    rs = (kz1 - kz2) / (kz1 + kz2)
    e2k1 = _mul(eps2, kz1)
    e1k2 = _mul(eps1, kz2)
    rp = (e2k1 - e1k2) / (e2k1 + e1k2)
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
    """The k_par path of a geometry; only the tail's end depends on the height.

    memos holds the node columns of the radiative and ellipse segments,
    whose nodes every height shares; the tail's depend on its end.
    """

    k0: float
    k1: float
    eps1: complex
    eps2: complex
    pole: complex | None  # r_p pole, None when no bound surface mode exists
    k_b: float
    delta: float
    t_b: float
    memos: tuple = field(compare=False, repr=False)


def _new_contour(geom: InterfaceGeometry) -> _Contour:
    k0 = 2.0 * math.pi / geom.lambda0
    k1 = wavevector(geom.upper, geom.lambda0).real
    try:
        pole = spp_pole(geom)
    except NoBoundModeError:
        pole = None
    k_b = 1.5 * k1 if pole is None else max(2.0 * pole.real - k1, 1.5 * k1)
    delta = 0.25 * (k_b - k1)
    t_b = math.acosh(k_b / k1)
    return _Contour(k0=k0, k1=k1, eps1=geom.upper.eps, eps2=geom.lower.eps, pole=pole,
                    k_b=k_b, delta=delta, t_b=t_b, memos=(_Memo(0), _Memo(1)))


def _contour(geom: InterfaceGeometry) -> _Contour:
    """The contour of geom's materials and wavelength, kept in _CONTOURS with its memos."""
    # exact bits: n = 1.5+0j and 1.5-0j compare equal but do not round alike
    key = tuple(float(v).hex() for v in (geom.upper.n.real, geom.upper.n.imag,
                                         geom.lower.n.real, geom.lower.n.imag, geom.lambda0))
    c = _CONTOURS.pop(key, None)
    if c is None:
        c = _new_contour(geom)
    _CONTOURS[key] = c
    if len(_CONTOURS) > _GEOMETRIES:
        del _CONTOURS[next(iter(_CONTOURS))]  # the least recently used
    return c


class _Columns(NamedTuple):
    """Everything the integrand takes at a node that does not depend on the height."""

    kp: np.ndarray
    kz1: np.ndarray
    rp: np.ndarray
    dkp_du: np.ndarray
    inv_term: np.ndarray
    two_i_kz1: np.ndarray  # phi = exp(two_i_kz1*h)
    r_xx: np.ndarray  # rs - rp*kz1^2/k1^2
    # four rows, the ladder's factors before phi: lead*kp, lead*kp3*rp, lead*kp5*rp, lead*kp1
    ladder: np.ndarray


_ROWS = 11  # rows of the columns of a batch of nodes, the ladder's four included
_PREF = 1.0 / (8.0 * math.pi)
# the leading factor of each ladder component: 1.0j*pref, -pref, 1.0j*pref, -pref
_LEAD = np.array([1.0j * _PREF, -_PREF, 1.0j * _PREF, -_PREF])[:, None]


def _node_columns(c: _Contour, segment: int, x: np.ndarray) -> np.ndarray:
    """The columns at nodes x of one segment, an array (_ROWS, nodes).

    Segment 0 runs 0 -> k1 on the real axis as k1*sin(t), 1 is the
    half-ellipse below the axis (theta = pi*sigma^2) and 2 the tail back
    on the real axis as k1*cosh(t). dkp_du is the parametrization
    Jacobian and inv_term = dkp_du/kz1, in analytically cancelled form
    where kz1 vanishes at an endpoint. kp is real (imaginary part 0.0)
    on the real-axis segments and strictly complex on the ellipse.
    """
    k1 = c.k1
    out = np.empty((_ROWS, x.size), dtype=complex)
    kp, kz1, rp, dkp_du, inv_term, two_i_kz1, r_xx, ladder = *out[:7], out[7:]
    if segment == 0:
        kz1[:] = k1 * _libm(math.cos, x)
        kp[:], dkp_du[:], inv_term[:] = k1 * _libm(math.sin, x), kz1, 1.0
    elif segment == 1:
        m_c, half, i_delta = 0.5 * (c.k_b + k1), 0.5 * (c.k_b - k1), 1.0j * c.delta
        # quadrature nodes lie strictly inside a panel, so sigma > 0
        theta = math.pi * x * x
        sin_t, cos_t = _libm(math.sin, theta), _libm(math.cos, theta)
        kp[:] = m_c - half * cos_t - _mul(i_delta, sin_t)
        dkp_du[:] = _mul(half * sin_t - _mul(i_delta, cos_t), 2.0 * math.pi * x)
        kz1[:] = _kz_nodes(c.eps1 * c.k0 * c.k0, kp)
        inv_term[:] = dkp_du / kz1
    else:
        sinh_t = _libm(math.sinh, x)
        kp[:], kz1[:], dkp_du[:] = k1 * _libm(math.cosh, x), _mul(1.0j * k1, sinh_t), k1 * sinh_t
        inv_term[:] = -1.0j  # dkp_du / kz1 = 1/i exactly on this segment
    rs, rp[:] = _fresnel_from_kz(kz1, _kz_nodes(c.eps2 * c.k0 * c.k0, kp), c.eps1, c.eps2)
    two_i_kz1[:] = _mul(2.0j, kz1)
    r_xx[:] = rs - _mul(_mul(rp, kz1), kz1) / (k1 * k1)
    ladder[:] = _mul(_LEAD, np.concatenate((kp[None], _quotients(kp, k1))))
    ladder[1:3] = _mul(ladder[1:3], rp)
    return out


class _Memo:
    """The columns of one segment's first _MEMO_NODES distinct nodes.

    A node's columns do not depend on the other nodes of its batch, so a
    stored column has the bits a fresh one would have. keys holds the
    stored nodes sorted, then +inf, so that searchsorted gives every
    node an index and one equality test finds it, in a batch of any size.
    """

    def __init__(self, segment: int):
        self.segment = segment
        self.keys = np.array([np.inf])
        self.columns = np.zeros((_ROWS, 1), dtype=complex)

    def __len__(self) -> int:
        return self.keys.size - 1

    def __call__(self, c: _Contour, x: np.ndarray) -> np.ndarray:
        """The columns at nodes x; only nodes it does not hold are built."""
        at = np.searchsorted(self.keys, x)
        hit = self.keys[at] == x
        if hit.all():
            return self.columns[:, at]
        room = _MEMO_NODES - len(self)
        if not hit.any():
            new, first = np.unique(x, return_index=True)
            if new.size == x.size:  # all new and distinct: no copy but the stored one
                out = _node_columns(c, self.segment, x)
                self._store(new[:room], out[:, first[:room]])
                return out
        out = np.empty((_ROWS, x.size), dtype=complex)
        out[:, hit] = self.columns[:, at[hit]]
        new, inverse = np.unique(x[~hit], return_inverse=True)
        built = _node_columns(c, self.segment, new)
        self._store(new[:room], built[:, :room])
        out[:, ~hit] = built[:, inverse]
        return out

    def _store(self, new: np.ndarray, columns: np.ndarray) -> None:
        """Insert the sorted nodes new, none of them held yet, and their columns."""
        if new.size:
            at = np.searchsorted(self.keys, new)
            self.keys = np.insert(self.keys, at, new)
            self.columns = np.insert(self.columns, at, columns, axis=1)


def _integrate_contour(c: _Contour, heights: list, fn, rel_tol: float,
                       abs_scale: float) -> list:
    """Integrate a component vector along the deformed k_par path at each height.

    fn(columns, phi) takes the _Columns of the nodes of a quadrature
    round and phi = exp(2i*kz1*h) at each, complex arrays over the nodes,
    and returns their values, an array (nodes, components); the value at
    a node must not depend on the other nodes (`_node_columns` says what
    each column holds). The columns of radiative and ellipse nodes come
    from the contour's memos when a height before has used the same node.

    Every height's segments are intervals of one quad_vec call, so one
    call of fn per round evaluates the nodes of all heights. Returns, per
    height, (radiative part, evanescent part, accumulated error
    estimate), or the ConvergenceError of that height.
    """
    try:
        return _lockstep(c, heights, fn, rel_tol, abs_scale)
    except (OverflowError, ZeroDivisionError) as exc:  # a power of k1 may underflow to 0
        if len(heights) > 1:
            # one height at a time: only those whose integrand overflows fail
            return [out for h in heights
                    for out in _integrate_contour(c, [h], fn, rel_tol, abs_scale)]
        failure = ConvergenceError(f"k_par integrand overflows at h = {heights[0]:g} nm")
        failure.__cause__ = exc
        return [failure]


def _lockstep(c: _Contour, heights: list, fn, rel_tol: float, abs_scale: float) -> list:
    # each height's segments are intervals in a row: radiative, ellipse(, tail)
    bounds, segment_of, height_of, counts = [], [], [], []
    for h in heights:
        ends = [(0.0, 0.5 * math.pi), (0.0, 1.0)]
        t_max = math.asinh(_TAIL_EXPONENT / (2.0 * c.k1 * h))
        if t_max > c.t_b:
            ends.append((c.t_b, t_max))
        bounds += ends
        segment_of += range(len(ends))
        height_of += [h] * len(ends)
        counts.append(len(ends))
    segment_of = np.array(segment_of)
    height_of = np.array(height_of)

    def integrand(x, k):
        segment = segment_of[k]
        columns = np.empty((_ROWS, x.size), dtype=complex)
        for s in np.flatnonzero(np.bincount(segment)).tolist():
            on = segment == s
            # the tail's nodes depend on its end: no other height shares them
            columns[:, on] = c.memos[s](c, x[on]) if s < 2 else _node_columns(c, s, x[on])
        columns = _Columns(*columns[:7], columns[7:])
        return fn(columns, np.exp(_mul(columns.two_i_kz1, height_of[k])))

    eps_abs = rel_tol * abs_scale
    # a non-finite value fails the error test below, so numpy need not warn of it
    with np.errstate(all="ignore"):
        parts = iter(quad_vec(integrand, bounds, epsabs=eps_abs, epsrel=rel_tol))
    outcomes = []
    for n in counts:
        (rad, err), (evan, err_b), *tail = (next(parts) for _ in range(n))
        err += err_b
        for part, err_c in tail:
            evan = evan + part
            err += err_c
        scale = max(abs_scale, float(np.max(np.abs(rad))), float(np.max(np.abs(evan))))
        if not err <= 50.0 * max(eps_abs, rel_tol * scale):
            outcomes.append(ConvergenceError(
                f"k_par quadrature reached {err:.3e}, wanted {rel_tol:.1e} relative "
                f"(scale {scale:.3e})"
            ))
        else:
            outcomes.append((rad, evan, err))
    return outcomes


def _kz_nodes(eps_k0: complex, kp: np.ndarray) -> np.ndarray:
    """Vertical wavevector with Im >= 0 at each node kp; eps_k0 is eps*k0*k0."""
    w = np.sqrt(eps_k0 - _mul(kp, kp))
    return np.negative(w, out=w, where=w.imag < 0.0)


def _div_float(z: np.ndarray, x: float) -> np.ndarray:
    """z / x as Python divides a complex by a float; numpy rounds it differently."""
    ratio = 0.0 / x
    denom = x + 0.0 * ratio
    return _complex((z.real + z.imag * ratio) / denom, (z.imag - z.real * ratio) / denom)


def _quotients(kp: np.ndarray, k1: float) -> np.ndarray:
    """kp**3/k1**3, kp**5/k1**4 and kp/k1 at each node, in Python's arithmetic.

    A real kp (the real-axis segments) takes libm's pow, which numpy's
    SIMD power does not match in every last bit. A complex kp takes
    Python's complex power, (1*kp)*kp**2 and (1*kp)*(kp**2)**2. Raises
    OverflowError and ZeroDivisionError where Python does.
    """
    k13, k14 = k1 ** 3, k1 ** 4
    if k13 == 0.0 or k14 == 0.0:
        raise ZeroDivisionError("a power of k1 underflows to 0")
    out = np.empty((3, kp.size), dtype=complex)
    real = kp.imag == 0.0
    if real.any():
        x = kp.real[real]
        listed = x.tolist()
        out[:, real] = (np.array([v ** 3 for v in listed]) / k13,
                        np.array([v ** 5 for v in listed]) / k14, x / k1)
    if not real.all():
        z = kp[~real]
        z1, z2 = _mul(1.0, z), _mul(z, z)
        z3, z5 = _mul(z1, z2), _mul(z1, _mul(z2, z2))
        if np.isinf(z3).any() or np.isinf(z5).any():
            raise OverflowError("complex exponentiation")
        out[:, ~real] = _div_float(z3, k13), _div_float(z5, k14), _div_float(z, k1)
    return out


def _ladder(col: _Columns, phi: np.ndarray) -> np.ndarray:
    """Component integrand for the four rate-ladder quantities.

    Gradient components are pre-scaled by 1/k1 per derivative so all
    four share units of 1/nm and one max-norm tolerance controls them
    evenly; callers undo the scaling via _unscale. Each product is
    `_mul` and each power Python's, in the order of the formulas in the
    module docstring, so a node's value has the same bits in any batch
    and the same as in Python's scalar arithmetic.
    """
    # the four products left to right, all components in each step; col.ladder
    # holds each one up to the factor that brings in phi:
    # f0 = lead*kp*common*inv_term           f1 = lead*kp3*rp*phi*dkp_du
    # f2 = lead*kp5*rp*phi*inv_term          f3 = lead*kp1*common*dkp_du
    common = _mul(col.r_xx, phi)
    f = _mul(col.ladder, np.stack((common, phi, phi, common)))
    return _mul(f, np.stack((col.inv_term, col.dkp_du, col.inv_term, col.dkp_du))).T


def _unscale(vec, k1: float):
    return np.array([vec[0], vec[1] * k1, vec[2] * k1 * k1, vec[3] * k1], dtype=complex)


def _pole_vector(c: _Contour, h: float) -> np.ndarray:
    """2*pi*i times the r_p-pole residue of each ladder component at height h.

    Scaled like _ladder. Zero when no bound pole exists.
    """
    if c.pole is None:
        return np.zeros(4, dtype=complex)
    ks = c.pole
    kz1p = _kz_nodes(c.eps1 * c.k0 * c.k0, np.array([ks]))[0]
    kz2p = _kz_nodes(c.eps2 * c.k0 * c.k0, np.array([ks]))[0]
    dprime = -ks * (c.eps2 / kz1p + c.eps1 / kz2p)
    rtilde = 2.0 * c.eps2 * kz1p / dprime
    phip = np.exp(2.0j * kz1p * h)
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


def _interface_point(c: _Contour, h: float, moments: EmitterMoments, norm: float,
                     rad: np.ndarray, evan: np.ndarray) -> InterfacePoint:
    k1 = c.k1
    j = _unscale(rad + evan, k1)
    bundle = GreenBundle(g_xx=norm + j[0].imag, d_g_zx=j[1].imag, dd_g_zz=j[2].imag,
                         dz_g_xx=j[3].imag)
    ladder = _rates.rate_ladder(bundle, moments, norm)
    split = _rates.md_eq_split(bundle, moments, norm)

    lam = moments.lambda_over_mu
    f = np.array([1.0, 2.0 * lam, lam * lam]) / norm
    pole = _unscale(_pole_vector(c, h), k1)[:3].imag
    rad_ch = f * _unscale(rad, k1)[:3].imag
    rad_ch[0] += 1.0  # the homogeneous rate is purely radiative
    channels = ChannelDecomposition(rad=tuple(rad_ch), pl=tuple(f * pole),
                                    ls=tuple(f * (_unscale(evan, k1)[:3].imag - pole)))
    return InterfacePoint(bundle=bundle, ladder=ladder, split=split,
                          channels=channels, norm=norm, k1=k1)


def interface_sweep(geometry: InterfaceGeometry, heights, moments: EmitterMoments,
                    rel_tol: float = 1.0e-8):
    """Yield the InterfacePoint at each of the heights, in order.

    geometry gives the materials and the wavelength; its own h is not
    used. Every height is checked before any integration, the moment
    expansion included: it needs k_eff*L_qd < 1 with k_eff = max(k1, 1/(2h)),
    because the reflected near field's Taylor series in the source and
    field offsets converges only while L_qd < 2h. Blocks of up to _BLOCK
    heights share one quadrature: each round evaluates the contour nodes
    of the whole block in one integrand call, and every value is bitwise
    what a block of one gives. A height that fails in quadrature raises
    when the iteration reaches it, after all earlier heights.
    """
    heights = [replace(geometry, h=h).h for h in heights]
    c = _contour(geometry)
    for h in heights:
        _rates.check_expansion(max(c.k1, 0.5 / h), moments)
    norm = homogeneous_im_gxx(geometry.upper, geometry.lambda0)
    for start in range(0, len(heights), _BLOCK):
        block = heights[start:start + _BLOCK]
        for h, outcome in zip(block, _integrate_contour(c, block, _ladder, rel_tol, norm)):
            if isinstance(outcome, Exception):
                raise outcome
            yield _interface_point(c, h, moments, norm, *outcome[:2])


def interface_point(geom: InterfaceGeometry, moments: EmitterMoments,
                    rel_tol: float = 1.0e-8) -> InterfacePoint:
    """Bundle, ladder, multipole split and channels from one contour pass.

    `interface_sweep` at the one height geom.h. The homogeneous part
    enters g_xx and the order-zero radiative channel; the moment
    expansion needs k_eff*L_qd < 1 with k_eff = max(k1, 1/(2h)), so
    L_qd < 2h as well as k1*L_qd < 1.
    """
    return next(interface_sweep(geom, [geom.h], moments, rel_tol))


def paper_interface(h: float) -> InterfaceGeometry:
    return InterfaceGeometry(upper=GAAS, lower=SILVER, h=h, lambda0=PAPER_LAMBDA0_NM)
