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
* The plasmon channel of each rung is defined as the imaginary
  projection of 2*pi*i times that rung's residue at the r_p pole;
  the lossy-surface channel is the evanescent-path remainder.

Every height of a sweep (`interface_sweep`) adds its contour segments
as intervals of one adaptive quadrature, so each round evaluates the
nodes of all heights in one call of an array integrand. That integrand
rounds as Python's scalar arithmetic does, so the numbers of a height do
not depend on the heights computed with it: powers and quotients are
libm's pow and Python's ** and / (`_quotients`), sin, cos, sinh and cosh
math's (`_libm`), and the product of two complex numbers is written out
(`_mul`), since numpy's array product may fuse a multiply into an add.
Where one factor is real or imaginary, as on the real axis, where kp,
the Jacobian and kz1 or kz1/i are real, numpy's product is taken where
it rounds as `_mul` does (`_mul` says where and why): for some products
always, and for the Fresnel and r_xx products with kz1 and the ladder
rows times rp only on contours whose media pass `_mul`'s exponent
budget, which each contour checks once (`_budget_holds`).

The integrand has two stages. The node columns (`_node_columns`) are
everything that depends on the node and the geometry only: kp, kz1, the
Fresnel factors, the Jacobian, the powers of kp. The height stage takes
phi = exp(2i*kz1*h) and the products that involve it. The quadrature
lands on the same radiative and ellipse panels from height to height,
so each geometry's contour keeps their columns in a memo keyed by the
panel's nodes (`_Contour.columns`, up to _MEMO_PANELS panels per
segment), and the last _GEOMETRIES contours are kept with their memos
(`_contour`): a sweep and every later `interface_point` of the same
materials and wavelength build each shared panel once. A stored column
has the bits a fresh one would have, so the memo moves no number.

A point of one height evaluates in its first integrand call the panels
that heights of its bucket of k1*h split before (`_Contour.trees`), so
its adaptive rounds take their halves from there and most points make
one call. The quadrature replays every split decision of the plain
process, so no tree moves a bit either.

The four component integrands, written per unit dk_par with
phi = exp(2i*k_z1*h) and all lengths in nm:

    G_xx:              (i/8pi) * (kp/kz1) * (rs - rp*kz1^2/k1^2) * phi
    d/dx G_zx:        -(1/8pi) * kp^3/k1^2 * rp * phi
    d/dx d/dx' G_zz:   (i/8pi) * kp^5/(kz1*k1^2) * rp * phi
    d/dz G_xx:        -(1/8pi) * kp * (rs - rp*kz1^2/k1^2) * phi
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rates as _rates
from .core import GAAS, PAPER_LAMBDA0_NM, SILVER, EmitterMoments, Material
from .core import check_positive, homogeneous_im_gxx, host_wavevectors
from .errors import ConvergenceError, ExpansionInvalidError, NoBoundModeError, OutOfDomainError
from .quadrature import PANEL, merge_trees, quad_vec, tree_entry
from .rates import GreenBundle

_TAIL_EXPONENT = 80.0  # exp(-80) truncation of the evanescent tail
# heights in one quadrature at most: each keeps its intervals' panels until the block ends
_BLOCK = 32
# geometries whose contour and column memos are kept, the least recently used dropped first
_GEOMETRIES = 8
# panels whose columns a memo keeps, per segment of a geometry: about 4 096 nodes
_MEMO_PANELS = 195
_TREE_BUCKETS = 8  # buckets of a contour's tree memo per octave of k1*h
_TREE_ENTRIES = 128  # buckets a contour's tree memo keeps, the least recently used dropped first
_CONTOURS: dict = {}  # exact (n_upper, n_lower, lambda0) -> _Contour, oldest use first


@dataclass(frozen=True)
class InterfaceGeometry:
    """Emitter in the upper half-space at height h above the interface."""

    upper: Material
    lower: Material
    h: float
    lambda0: float
    k0: float = field(init=False, repr=False)  # vacuum wavevector, set from lambda0
    k_host: float = field(init=False, repr=False)  # the upper medium's

    def __post_init__(self):
        check_positive(h=self.h)
        k0, k_host = host_wavevectors(self.upper, self.lambda0)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k_host", k_host)


@dataclass(frozen=True, slots=True)
class ChannelDecomposition:
    """Per-order split into radiative, plasmon and lossy-surface parts.

    Entries are normalized rate contributions; rad[i] + pl[i] + ls[i]
    equals the order-i rung of the rate ladder.
    """

    rad: tuple
    pl: tuple
    ls: tuple


def _mul(a, b) -> np.ndarray:
    """a * b by the real-pair formula, which Python's complex product uses.

    numpy's array product of two complex arrays may fuse a multiply into
    an add (FMA) and then rounds differently; its sum, difference,
    quotient, sqrt and exp agree with the scalar results. A real operand
    counts as complex with imaginary part 0.0, as in Python.

    Where one factor is real or imaginary, each part of the product is
    one rounded product plus an exact product with 0.0, and fused or not
    they round alike unless the rounded one underflows to a zero whose
    sign differs from the exact one's; an inf or nan part gives inf or
    nan either way. The integrand takes numpy's product where its
    operands rule that out: 2i*kz1 (a doubling), a real kp > 0 times
    itself and the ladder's powers of it times _LEAD, i*k1 times
    sinh(t) > 0, and the exponent 2i*kz1*h of phi. There Im kz1 >= 0
    leaves only the sign of a zero real part, which exp does not see.

    On the real axis kz1 is real (segment 0) or imaginary (the tail), as
    are eps1 and ladder rows 1-2. There a contour that passes the budget
    below (`_budget_holds`) takes numpy's product for eps2*kz1, eps1*kz2,
    (rp*kz1)*kz1 and, on the tail, the ladder rows times rp: it bounds
    every nonzero part of each factor so that any two multiply to at
    least 2^-1000, and no product underflows. With E = eps2*k0^2, e and
    e' the least and largest nonzero |part| of eps2 and E_lo, E_hi those
    of E (neither may be 0), and the rule that a nonzero difference of two
    doubles is at least 2^-54 times the larger of them:

    * |kz1| >= 2^-55 k1: |cos x| >= 6e-17 on segment 0, and the tail's
      t >= acosh(1.5) gives sinh t > 1. So eps2*kz1 takes e k1 2^-55.
    * kz2 = sqrt(w), w = E - kp^2, Im w = Im E: |w| >= 2^-54 E_lo, so the
      larger part, >= sqrt(|w|/2), is >= sqrt(2^-55 E_lo), and the smaller,
      |Im E|/(2 larger), >= |Im E| 2^-514 while kp^2 is finite (beyond,
      kz2 is inf). eps1*kz2 takes the lesser bound times eps1.
    * rp = (A - B)/(A + B), A = eps2*kz1, B = eps1*kz2, by numpy's
      quotient (Smith's). Let M_r = max(|Re A|, |Re B|), M_i likewise and
      rho = min(M_r/M_i, M_i/M_r) (1 if either is 0). The difference rule
      makes each nonzero part of rp at least 2^-111 rho^2. A nonzero M is
      at least A's part there or, where that is 0, B's, and no M exceeds
      the largest part of A or B. A's parts are eps2's times |kz1|. On
      segment 0 they lie in [e k1 2^-55, e' k1], B's are
      below eps1 sqrt(|E| + k1^2), and where A has a zero part (eps2 real
      or imaginary) B's part there is >= eps1 min(2^-27 sqrt(E_lo),
      E_lo/(2 sqrt(|E| + k1^2))). On the tail, in units of kp >= k1, A's
      lie in [0.74 e, e'], B's below eps1 sqrt(1 + |E|/k1^2), and B's part
      where A has a zero is >= eps1 2^-27.
    * rp*kz1 and (rp*kz1)*kz1 take rp's bound times |kz1|'s, once and
      twice. The tail's ladder rows are >= _PREF min(1, k1), since kp >= k1
      there. Segment 0's have no floor, as a node nears kp = 0 as far as
      bisection goes, so they keep `_mul`.

    The bounds are of exact values, numpy's sqrt within a few ulps. The
    roundings on the way cost fewer than 40 bits, and 74 lie between
    2^-1000 and underflow.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    z = np.asarray(ar * br - ai * bi, dtype=complex)  # a new array: the difference is real
    z.imag = ar * bi + ai * br
    return z


_FLOOR = -1000  # log2 of the least product of two parts that `_mul`'s budget admits


def _budget_holds(eps1: complex, eps2: complex, k0: float, k1: float) -> bool:
    """Whether a contour of these media and wavevectors passes `_mul`'s exponent budget."""
    e2k = eps2 * k0 * k0  # E, as `_node_columns` computes it
    parts = (eps1.real, eps2.real, eps2.imag, e2k.real, e2k.imag)
    if not (all(map(math.isfinite, parts)) and eps1.real > 0.0 and eps2 and e2k):
        return False
    e1, k = math.log2(eps1.real), math.log2(k1)
    e2 = [math.log2(abs(p)) for p in (eps2.real, eps2.imag) if p]
    big = [math.log2(abs(p)) for p in (e2k.real, e2k.imag) if p]
    lo, hi, e_lo, e_hi = min(e2), max(e2), min(big), max(big)
    kz1 = k - 55  # the least |kz1|
    kz2 = (e_lo - 55) / 2  # the least nonzero part of kz2
    if e2k.imag:
        kz2 = min(kz2, math.log2(abs(e2k.imag)) - 514)
    w = max(e_hi + 0.5, 2 * k) + 1  # |E| + k1^2
    rho_0 = min(lo + kz1, e1 + min(e_lo / 2 - 27, e_lo - 1 - w / 2)) - max(hi + k, e1 + w / 2)
    # on the tail in units of kp
    rho_tail = min(lo - 0.5, e1 - 27) - max(hi, e1 + (max(0.0, e_hi + 0.5 - 2 * k) + 1) / 2)
    rp = 2 * min(rho_0, rho_tail, 0.0) - 111
    return min(lo + kz1, e1 + kz2, rp + min(kz1, 2 * kz1),
               rp + math.log2(_PREF) + min(0.0, k)) >= _FLOOR


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn of each element through Python's math: numpy's SIMD sin, cos, sinh and cosh
    differ from libm in the last bit on some arguments."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _fresnel_from_kz(kz1, kz2, eps1, eps2, mul):
    rs = (kz1 - kz2) / (kz1 + kz2)
    e2k1 = mul(eps2, kz1)
    e1k2 = mul(eps1, kz2)
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
    k = geom.k0 * np.sqrt(complex(eps1 * eps2 / s))  # Re k >= 0: k0 > 0, principal root
    if k.imag < 0.0:
        raise NoBoundModeError(f"pole {k!r} decays backwards; not a bound mode")
    return complex(k)


class _Contour:
    """The k_par path of a geometry, its host norm, node columns and pole factors.

    Only the tail's end depends on the height. The radiative and ellipse
    panels (segments 0 and 1) are shared by every height, so the contour
    keeps the columns of each one's first _MEMO_PANELS distinct panels:
    panels[s] maps the bytes of a panel's nodes to their columns, each
    its own array (_ROWS, PANEL). A node's columns do not depend on the
    other nodes of its call, so a stored column has the bits a fresh one
    would have.

    `axis_mul` is the product the real-axis segments take for eps2*kz1,
    eps1*kz2, (rp*kz1)*kz1 and the tail's ladder rows times rp: numpy's
    where the media pass `_mul`'s exponent budget, decided here once from
    eps1, eps2, k0 and k1, and `_mul` where they do not.

    `trees` is the contour's tree memo (`quadrature.tree_entry`): per
    rel_tol and 1/8-octave bucket floor(8 log2(k1*h)), the union of the
    panels each segment split at the heights of that bucket, which
    refine alike. At most _TREE_ENTRIES buckets are kept.
    """

    def __init__(self, geom: InterfaceGeometry):
        self.k0 = geom.k0
        self.k1 = k1 = geom.k_host
        self.eps1, self.eps2 = geom.upper.eps, geom.lower.eps
        try:
            self.pole = spp_pole(geom)
        except NoBoundModeError:
            self.pole = None  # r_p has no bound surface-mode pole
        self.k_b = 1.5 * k1 if self.pole is None else max(2.0 * self.pole.real - k1, 1.5 * k1)
        self.delta = 0.25 * (self.k_b - k1)
        self.t_b = math.acosh(self.k_b / k1)
        self.norm = homogeneous_im_gxx(geom.upper, geom.lambda0)
        self.axis_mul = np.multiply if _budget_holds(self.eps1, self.eps2, self.k0, k1) else _mul
        self.panels = ({}, {})  # per shared segment: bytes of a panel's nodes -> its columns
        # (rel_tol, bucket) -> {segment: sorted heap codes}, oldest use first
        self.trees: dict = {}

    def columns(self, x: np.ndarray, segment: np.ndarray) -> np.ndarray:
        """The columns at nodes x of segments `segment`, an array (_ROWS, x.size).

        x holds whole panels of PANEL nodes, as `quad_vec` calls, or, if its
        size says otherwise, panels of one node each, as scipy's quad_vec
        calls. A panel not stored is built, each distinct one once, in one
        `_node_columns` call per segment, and stored while its segment's
        memo has room; the tail's nodes depend on its end, so no other
        height shares them and none is stored.
        """
        width = PANEL if x.size % PANEL == 0 else 1
        flat, size = x.tobytes(), x.itemsize * width
        parts, missing = [], ({}, {}, {})  # per segment: panel bytes -> its places in parts
        for i, s in enumerate(segment[::width].tolist()):
            key = flat[i * size:(i + 1) * size]
            part = self.panels[s].get(key) if s < 2 else None
            if part is None:
                missing[s].setdefault(key, []).append(i)
            parts.append(part)
        for s, wanted in enumerate(missing):
            if not wanted:
                continue
            built = _node_columns(self, s, np.frombuffer(b"".join(wanted)))
            for j, (key, places) in enumerate(wanted.items()):
                part = built[:, j * width:(j + 1) * width]
                if s < 2 and len(self.panels[s]) < _MEMO_PANELS:
                    part = self.panels[s][key] = part.copy()
                for i in places:
                    parts[i] = part
        return np.concatenate(parts, axis=1)

    @functools.cached_property
    def residue(self) -> tuple:
        """The height-free factors of `_pole_vector`, built when a point first needs them:
        a power of the pole may overflow, and a height whose quadrature overflows
        reports that instead. A factor beyond double range raises OutOfDomainError,
        and a raise is not cached."""
        ks, k1 = self.pole, self.k1
        with np.errstate(all="ignore"):  # refused below, not warned about
            ks2 = _mul(np.array([ks]), np.array([ks]))
            kz1p = _kz_nodes(self.eps1 * self.k0 * self.k0, ks2)[0]
            kz2p = _kz_nodes(self.eps2 * self.k0 * self.k0, ks2)[0]
            dprime = -ks * (self.eps2 / kz1p + self.eps1 / kz2p)
            rtilde = 2.0 * self.eps2 * kz1p / dprime
            factors = (2.0j * kz1p, rtilde, ks, kz1p, k1 * k1, ks ** 3, k1 ** 3, ks ** 5,
                       kz1p * k1 ** 4)
        if not np.isfinite(factors).all():
            raise OutOfDomainError("the plasmon pole's residue leaves double range")
        return factors


def _contour(geom: InterfaceGeometry) -> _Contour:
    """The contour of geom's materials and wavelength, kept in _CONTOURS with its columns."""
    # exact bits: n = 1.5+0j and 1.5-0j compare equal but do not round alike
    key = tuple(float(v).hex() for v in (geom.upper.n.real, geom.upper.n.imag,
                                         geom.lower.n.real, geom.lower.n.imag, geom.lambda0))
    c = _CONTOURS.pop(key, None) or _Contour(geom)
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
    on the real-axis segments and strictly complex on the ellipse. There
    kz1 is real (segment 0) or imaginary (the tail), and the products of
    it and of the tail's ladder rows with a complex factor take
    c.axis_mul; the ellipse takes `_mul` throughout.
    """
    k1 = c.k1
    out = np.empty((_ROWS, x.size), dtype=complex)
    kp, kz1, rp, dkp_du, inv_term, two_i_kz1, r_xx, ladder = *out[:7], out[7:]
    # numpy's product where kp is real and > 0 (see `_mul`), `_mul` on the ellipse
    mul, axis_mul = np.multiply, c.axis_mul
    if segment == 0:
        kz1[:] = k1 * _libm(math.cos, x)
        kp[:], dkp_du[:], inv_term[:] = k1 * _libm(math.sin, x), kz1, 1.0
    elif segment == 1:
        mul = axis_mul = _mul
        m_c, half, i_delta = 0.5 * (c.k_b + k1), 0.5 * (c.k_b - k1), 1.0j * c.delta
        # quadrature nodes lie strictly inside a panel, so sigma > 0
        theta = math.pi * x * x
        sin_t, cos_t = _libm(math.sin, theta), _libm(math.cos, theta)
        kp[:] = m_c - half * cos_t - _mul(i_delta, sin_t)
        dkp_du[:] = _mul(half * sin_t - _mul(i_delta, cos_t), 2.0 * math.pi * x)
        kz1[:] = _kz_nodes(c.eps1 * c.k0 * c.k0, _mul(kp, kp))
        inv_term[:] = dkp_du / kz1
    else:
        sinh_t = _libm(math.sinh, x)  # > 0: the tail starts at t_b > 0
        kp[:], kz1[:], dkp_du[:] = k1 * _libm(math.cosh, x), 1.0j * k1 * sinh_t, k1 * sinh_t
        inv_term[:] = -1.0j  # dkp_du / kz1 = 1/i exactly on this segment
    rs, rp[:] = _fresnel_from_kz(kz1, _kz_nodes(c.eps2 * c.k0 * c.k0, mul(kp, kp)), c.eps1,
                                 c.eps2, axis_mul)
    two_i_kz1[:] = 2.0j * kz1  # exact: each part is a doubling and a product with 0.0
    r_xx[:] = rs - axis_mul(axis_mul(rp, kz1), kz1) / (k1 * k1)
    ladder[:] = mul(_LEAD, np.concatenate((kp[None], _quotients(kp, k1))))
    # segment 0's powers of kp have no floor, so its ladder rows keep `_mul` (see `_mul`)
    ladder[1:3] = (axis_mul if segment == 2 else _mul)(ladder[1:3], rp)
    return out


def _integrate_contour(c: _Contour, heights: list, fn, rel_tol: float) -> list:
    """Integrate a component vector along the deformed k_par path at each height.

    fn(columns, phi) takes the _Columns of the nodes of a quadrature
    round and phi = exp(2i*kz1*h) at each, complex arrays over the nodes,
    and returns their values, an array (nodes, components); the value at
    a node must not depend on the other nodes (`_node_columns` says what
    each column holds). They come from `_Contour.columns`, which builds a
    radiative or ellipse node only when no height before has used it.

    Every height's segments are intervals of one quad_vec call, so one
    call of fn per round evaluates the nodes of all heights. A block of
    one height looks ahead along the trees of its bucket in
    `_Contour.trees` (an empty bucket borrows the nearest one with
    trees; with none, each segment takes the plain (1,)), so it mostly
    makes one call; a height that raises or fails its error test adds no
    tree there. A block of many heights looks ahead along none: its
    rounds share one call anyway. If a block overflows, each of its
    heights runs alone. Returns, per height, (radiative part,
    evanescent part, accumulated error estimate), or the
    ConvergenceError of that height.
    """
    ahead = own = None
    if len(heights) == 1:  # a sum of logarithms: k1*h may leave double range
        bucket = math.floor(_TREE_BUCKETS * (math.log2(c.k1) + math.log2(heights[0])))
        ahead, own = tree_entry(c.trees, (rel_tol, bucket), _TREE_ENTRIES)
    try:
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
            columns = c.columns(x, segment_of[k])
            columns = _Columns(*columns[:7], columns[7:])
            # numpy's product with the real height: phi has `_mul`'s bits (see `_mul`)
            return fn(columns, np.exp(columns.two_i_kz1 * height_of[k]))

        eps_abs = rel_tol * c.norm
        # a non-finite value fails the error test below, so numpy need not warn of it
        with np.errstate(all="ignore"):
            pairs, split = quad_vec(integrand, bounds, epsabs=eps_abs, epsrel=rel_tol,
                                    trees=None if ahead is None else
                                    [ahead.get(s) for s in range(len(bounds))])
    except (OverflowError, ZeroDivisionError) as exc:  # a power of k1 may underflow to 0
        if len(heights) > 1:
            # one height at a time: only those whose integrand overflows fail
            return [out for h in heights
                    for out in _integrate_contour(c, [h], fn, rel_tol)]
        failure = ConvergenceError(f"k_par integrand overflows at h = {heights[0]:g} nm")
        failure.__cause__ = exc
        return [failure]
    parts = iter(pairs)
    outcomes = []
    for n in counts:
        (rad, err), (evan, err_b), *tail = (next(parts) for _ in range(n))
        err += err_b
        for part, err_c in tail:
            evan = evan + part
            err += err_c
        scale = max(c.norm, float(np.max(np.abs(rad))), float(np.max(np.abs(evan))))
        if not err <= 50.0 * max(eps_abs, rel_tol * scale):
            outcomes.append(ConvergenceError(
                f"k_par quadrature reached {err:.3e}, wanted {rel_tol:.1e} relative "
                f"(scale {scale:.3e})"
            ))
        else:
            outcomes.append((rad, evan, err))
            if own is not None:
                merge_trees(own, enumerate(split))
    return outcomes


def _kz_nodes(eps_k0: complex, kp2: np.ndarray) -> np.ndarray:
    """Vertical wavevector with Im >= 0 at each node of square kp2; eps_k0 is eps*k0*k0."""
    w = np.sqrt(eps_k0 - kp2)
    return np.negative(w, out=w, where=w.imag < 0.0)


def _quotients(kp: np.ndarray, k1: float) -> np.ndarray:
    """kp**3/k1**3, kp**5/k1**4 and kp/k1 at each node, with Python's bits and errors.

    Nodes on the real-axis segments, where every kp is real, take their
    powers from `np.float_power`, which calls libm's pow as Python's
    float ** does (numpy's SIMD power does not match it in every last
    bit). It raises Python's OverflowError where a finite node's power
    overflows, and its ZeroDivisionError where k1**3 or k1**4 underflows
    to 0; `_integrate_contour` reports both alike, so where both apply
    this raises the ZeroDivisionError whatever the node order. On the
    ellipse each node is Python's float or complex, whose ** and / raise
    those errors themselves.
    """
    k13, k14 = k1 ** 3, k1 ** 4
    if kp.imag.any():
        nodes = [z.real if z.imag == 0.0 else z for z in kp.tolist()]
        return np.array([[z ** 3 / k13 for z in nodes], [z ** 5 / k14 for z in nodes],
                         [z / k1 for z in nodes]], dtype=complex)
    if kp.size and not (k13 and k14):
        raise ZeroDivisionError("float division by zero")
    x = kp.real
    cube, fifth = np.float_power(x, 3.0), np.float_power(x, 5.0)
    if not np.isfinite(fifth).all() and np.isinf(fifth[np.isfinite(x)]).any():
        raise OverflowError("(34, 'Numerical result out of range')")
    out = np.empty((3, x.size), dtype=complex)
    out[0], out[1], out[2] = cube / k13, fifth / k14, x / k1
    return out


def _ladder(col: _Columns, phi: np.ndarray) -> np.ndarray:
    """Component integrand for the four rate-ladder quantities.

    Gradient components are pre-scaled by 1/k1 per derivative so all
    four share units of 1/nm and one max-norm tolerance controls them
    evenly; `_interface_point` undoes the scaling. Each product is
    `_mul` and each power Python's, in the order of the formulas in the
    module docstring, so a node's value has the same bits in any batch
    and the same as in Python's scalar arithmetic.
    """
    # the four products left to right, all components in each step; col.ladder
    # holds each one up to the factor that brings in phi:
    # f0 = lead*kp*common*inv_term           f1 = lead*kp3*rp*phi*dkp_du
    # f2 = lead*kp5*rp*phi*inv_term          f3 = lead*kp1*common*dkp_du
    common = _mul(col.r_xx, phi)
    f = _mul(col.ladder, np.array((common, phi, phi, common)))
    return _mul(f, np.array((col.inv_term, col.dkp_du, col.inv_term, col.dkp_du))).T


def _pole_vector(c: _Contour, h: float) -> np.ndarray:
    """Im of 2*pi*i times the r_p-pole residue of each rung at height h.

    The three rungs the channel split reads, unscaled; zero when no bound
    pole exists. Only phip and pref depend on h; `_Contour.residue` holds
    the other factors.
    """
    if c.pole is None:
        return np.zeros(3)
    two_i_kz1p, rtilde, ks, kz1p, k1_2, ks_3, k1_3, ks_5, kz1p_k1_4 = c.residue
    phip = np.exp(two_i_kz1p * h)
    pref = rtilde * phip / (8.0 * math.pi)
    res = 2.0j * math.pi * np.array(
        [-1.0j * pref * ks * kz1p / k1_2, -pref * ks_3 / k1_3, 1.0j * pref * ks_5 / kz1p_k1_4],
        dtype=complex,
    )
    return np.array([res[0], res[1] * c.k1, res[2] * c.k1 * c.k1], dtype=complex).imag


@dataclass(frozen=True, slots=True)
class InterfacePoint:
    """Everything the sweep needs at one height, from one quadrature pass."""

    bundle: GreenBundle
    ladder: "_rates.RateLadder"
    split: "_rates.MultipoleSplit"
    channels: ChannelDecomposition
    norm: float
    k1: float


def _interface_point(c: _Contour, h: float, moments: EmitterMoments,
                     rad: np.ndarray, evan: np.ndarray) -> InterfacePoint:
    k1, norm = c.k1, c.norm
    # Im of each component, its 1/k1 per derivative undone by the product with k1 + 0j,
    # `_mul`'s formula (from Python 3.14 on, a complex times a float is taken part by part)
    k = complex(k1)
    total, radiative, evanescent = (
        [g.imag, (zx * k).imag, (zz * k * k).imag, (dz * k).imag]
        for g, zx, zz, dz in (v.tolist() for v in (rad + evan, rad, evan)))
    bundle = GreenBundle(norm + total[0], *total[1:])
    ladder = _rates.rate_ladder(bundle, moments, norm)
    split = _rates.md_eq_split(bundle, moments, norm)

    lam = moments.lambda_over_mu
    f = [1.0 / norm, 2.0 * lam / norm, lam * lam / norm]
    pole = _pole_vector(c, h).tolist()
    rad_ch = [a * r for a, r in zip(f, radiative)]
    rad_ch[0] += 1.0  # the homogeneous rate is purely radiative
    channels = ChannelDecomposition(rad=tuple(rad_ch), pl=tuple(a * p for a, p in zip(f, pole)),
                                    ls=tuple(a * (e - p) for a, e, p in zip(f, evanescent, pole)))
    # a finite ladder does not make its parts finite, and Python's float product
    # overflows to inf without a word
    parts = (split.gamma1_md, split.gamma1_eq, *rad_ch, *channels.pl, *channels.ls)
    if not all(map(math.isfinite, parts)):
        raise ExpansionInvalidError(
            "the multipole split or a channel is not finite: the moment ratio overflows "
            "double precision")
    return InterfacePoint(bundle=bundle, ladder=ladder, split=split,
                          channels=channels, norm=norm, k1=k1)


def interface_sweep(geometry: InterfaceGeometry, heights, moments: EmitterMoments,
                    rel_tol: float = 1.0e-8):
    """Yield the InterfacePoint at each of the heights, in order.

    geometry gives the materials and the wavelength; its own h is not
    used. rel_tol and every height are checked before any integration,
    the moment expansion included: it needs k_eff*L_qd < 1 with
    k_eff = max(k1, 1/(2h)), because the reflected near field's Taylor series in the source and
    field offsets converges only while L_qd < 2h. Blocks of up to _BLOCK
    heights share one quadrature: each round evaluates the contour nodes
    of the whole block in one integrand call, and every value is bitwise
    what a block of one gives. A height that fails in quadrature raises
    when the iteration reaches it, after all earlier heights, and so
    does one whose ladder, multipole split or channels overflow
    (ExpansionInvalidError).
    """
    check_positive(rel_tol=rel_tol)
    heights = list(heights)
    c = _contour(geometry)
    for h in heights:
        check_positive(h=h)
        _rates.check_expansion(max(c.k1, 0.5 / h), moments)
    for start in range(0, len(heights), _BLOCK):
        block = heights[start:start + _BLOCK]
        for h, outcome in zip(block, _integrate_contour(c, block, _ladder, rel_tol)):
            if isinstance(outcome, Exception):
                raise outcome
            yield _interface_point(c, h, moments, *outcome[:2])


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
