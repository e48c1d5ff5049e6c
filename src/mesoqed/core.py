"""Shared types and unit conventions.

Lengths are nanometers, wavevectors rad/nm, velocities nm/fs. Every
rate the library reports is dimensionless: it is normalized to the
spontaneous-emission rate of the same dipole in the unbounded host
medium. That normalization cancels the emitter prefactor (charge,
effective mass, hbar, vacuum permittivity), so none of those constants
ever needs a numeric value; the speed of light is the only dimensional
constant in the package.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, replace

from .errors import ExpansionInvalidError, ParameterError

SPEED_OF_LIGHT_NM_PER_FS = 299.792458


@dataclass(frozen=True)
class Material:
    """Optical material at a single fixed wavelength."""

    name: str
    n: complex

    def __post_init__(self):
        # complex() would also take a bool or a string, and overflow on a huge int
        big = sys.float_info.max
        _refuse({f"material {self.name!r}: n": self.n}, "a finite complex number",
                lambda v: abs(v.real) <= big and abs(v.imag) <= big, numbers.Complex)
        n = complex(self.n)
        if n.imag < 0.0:
            raise ParameterError(
                f"material {self.name!r}: Im(n) = {n.imag} < 0 means gain, not a passive medium"
            )
        if n.real < 0.0 < n.imag:
            raise ParameterError(
                f"material {self.name!r}: n = {n} gives Im(eps) = 2 Re(n) Im(n) < 0, "
                "gain, not a passive medium"
            )
        object.__setattr__(self, "n", n)

    @property
    def eps(self) -> complex:
        """Relative permittivity, exactly n squared."""
        return self.n * self.n


@dataclass(frozen=True)
class EmitterMoments:
    """Moment content of a mesoscopic emitter.

    lambda_over_mu is the signed first-moment to dipole-moment ratio in
    nm. The tensor structure is fixed: the dipole points along the
    in-plane x axis and the first-order moment couples x with the
    growth axis z. Mounting the emitter upside down negates the ratio
    and changes nothing else, so the sign of the ratio is the mounting.
    """

    lambda_over_mu: float
    l_qd: float = 20.0

    def __post_init__(self):
        check_finite(ratio=self.lambda_over_mu)
        check_positive(lqd=self.l_qd)

    def flipped(self) -> "EmitterMoments":
        """The same emitter mounted upside down."""
        return replace(self, lambda_over_mu=-self.lambda_over_mu)


@dataclass(frozen=True)
class FiguresOfMerit:
    """Dimensionless strength of the first and second expansion order."""

    g1: float
    g2: float


def wavevector(material: Material, lambda0: float) -> complex:
    """Wavevector 2*pi*n/lambda0 in the given material, rad/nm."""
    check_positive(lambda0=lambda0)
    k = 2.0 * math.pi * material.n / lambda0
    if not cmath.isfinite(k) or (k == 0.0 and material.n != 0.0):
        raise ParameterError(
            f"wavevector 2*pi*n/lambda0 of {material.name!r} leaves double range "
            f"at lambda0 = {lambda0!r}"
        )
    return k


def figures_of_merit(k: float, moments: EmitterMoments) -> FiguresOfMerit:
    """First- and second-order coupling strengths for a real wavevector k.

    g1 = 2*k*|lambda_over_mu| measures the field-gradient channel
    against the dipole channel; g2 = (k*|lambda_over_mu|)**2 = (g1/2)**2
    measures the pure second-order channel.
    """
    check_positive(k=k)
    kl = k * abs(moments.lambda_over_mu)
    if not math.isfinite(kl * kl):
        raise ExpansionInvalidError(
            f"(k*|lambda_over_mu|)**2 is not finite for k = {k:g}: "
            "the moment ratio overflows double precision"
        )
    return FiguresOfMerit(g1=2.0 * kl, g2=kl * kl)


def host_wavevectors(host: Material, lambda0: float) -> tuple[float, float]:
    """The vacuum and host wavevectors at lambda0, rad/nm; the host must pass check_host."""
    k0 = wavevector(VACUUM, lambda0).real
    check_host(host)
    return k0, wavevector(host, lambda0).real


def check_host(host: Material) -> None:
    """The medium around the emitter needs a real, positive index.

    A complex index would make the coincidence limit, and with it the
    rate normalization, ill-defined; Re n <= 0 carries no wave.
    """
    if not (host.n.imag == 0.0 and host.n.real > 0.0):
        raise ParameterError(
            f"emitter medium {host.name!r} must be lossless with Re n > 0, got n = {host.n:g}"
        )


def _refuse(values: dict, rule: str, holds, kind=numbers.Real) -> None:
    """ParameterError for the first named value that is a bool, not a `kind`, or fails holds."""
    for name, value in values.items():
        # float and int first: the ABC test alone takes about a microsecond
        number = isinstance(value, (float, int)) or isinstance(value, kind)
        if isinstance(value, bool) or not (number and holds(value)):
            raise ParameterError(f"{name} must be {rule}, got {value!r}")


def check_finite(**values) -> None:
    """Each named value must be a finite real number, and not a bool."""
    # the bound compares an int exactly: a huge one neither overflows nor passes
    _refuse(values, "finite", lambda v: abs(v) <= sys.float_info.max)


def check_positive(**values) -> None:
    """Each named value must be a finite real number > 0, and not a bool.

    The library's one rule for a length, wavevector, tolerance or norm.
    Each name is the CLI flag that sets the value, or else the parameter's.
    """
    _refuse(values, "finite and > 0", lambda v: 0.0 < v <= sys.float_info.max)


def check_count(**values) -> None:
    """Each named value must be an integer >= 2, and not a bool."""
    _refuse(values, "an integer >= 2", lambda v: isinstance(v, numbers.Integral) and v >= 2)


def homogeneous_im_gxx(host: Material, lambda0: float) -> float:
    """Im G_xx at the source point in an unbounded host, n*k0/(6*pi).

    This is the normalization denominator of every reported rate.
    """
    check_host(host)
    k = wavevector(host, lambda0).real
    return k / (6.0 * math.pi)


# Reference materials and the default parameter set of the examples and the CLI.
VACUUM = Material("vacuum", 1.0)
GAAS = Material("GaAs", 3.42 + 0.0j)
SILVER = Material("Ag", 0.2 + 7.0j)
PAPER_LAMBDA0_NM = 1000.0
PAPER_RATIO_NM = 10.0
PAPER_L_QD_NM = 20.0
PAPER_WIRE_RADIUS_NM = 30.0

# Most points one sweep or field map may hold; each point is a stored row.
MAX_POINTS = 1_000_000


def paper_moments() -> EmitterMoments:
    return EmitterMoments(lambda_over_mu=PAPER_RATIO_NM, l_qd=PAPER_L_QD_NM)
