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

import math
from dataclasses import dataclass, replace

from .errors import ParameterError

SPEED_OF_LIGHT_NM_PER_FS = 299.792458


@dataclass(frozen=True)
class Material:
    """Optical material at a single fixed wavelength."""

    name: str
    n: complex

    def __post_init__(self):
        n = complex(self.n)
        if not (math.isfinite(n.real) and math.isfinite(n.imag)):
            raise ParameterError(f"material {self.name!r}: refractive index must be finite")
        if n.imag < 0.0:
            raise ParameterError(
                f"material {self.name!r}: Im(n) = {n.imag} < 0 means gain, not a passive medium"
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
        if not math.isfinite(self.lambda_over_mu):
            raise ParameterError("lambda_over_mu must be finite")
        if not (math.isfinite(self.l_qd) and self.l_qd > 0.0):
            raise ParameterError(f"l_qd must be positive, got {self.l_qd}")

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
    if not (math.isfinite(lambda0) and lambda0 > 0.0):
        raise ParameterError(f"wavelength must be positive, got {lambda0}")
    return 2.0 * math.pi * material.n / lambda0


def figures_of_merit(k: float, moments: EmitterMoments) -> FiguresOfMerit:
    """First- and second-order coupling strengths for a real wavevector k.

    g1 = 2*k*|lambda_over_mu| measures the field-gradient channel
    against the dipole channel; g2 = (k*|lambda_over_mu|)**2 = (g1/2)**2
    measures the pure second-order channel.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise ParameterError(f"k must be a positive real wavevector, got {k}")
    kl = k * abs(moments.lambda_over_mu)
    return FiguresOfMerit(g1=2.0 * kl, g2=kl * kl)


def check_host(host: Material) -> None:
    """The medium around the emitter needs a real, positive index.

    A complex index would make the coincidence limit, and with it the
    rate normalization, ill-defined; Re n <= 0 carries no wave.
    """
    if not (host.n.imag == 0.0 and host.n.real > 0.0):
        raise ParameterError(
            f"emitter medium {host.name!r} must be lossless with Re n > 0, got n = {host.n:g}"
        )


def homogeneous_im_gxx(host: Material, lambda0: float) -> float:
    """Im G_xx at the source point in an unbounded host, n*k0/(6*pi).

    This is the normalization denominator of every reported rate.
    """
    check_host(host)
    k = wavevector(host, lambda0).real
    return k / (6.0 * math.pi)


# Default parameter set used throughout the examples and the CLI.
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
