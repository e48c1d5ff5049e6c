"""Rate ladder assembly and the first-order multipole split.

Both geometry modules fill in the field bundle defined here; nothing
here knows where a bundle came from. All outputs are normalized to the
homogeneous-host dipole rate, passed in as `norm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EmitterMoments, check_positive
from .errors import ContractViolationError, ExpansionInvalidError


@dataclass(frozen=True, slots=True)
class GreenBundle:
    """Field quantities entering the rate ladder, all at the emitter.

    g_xx       Im G_xx, homogeneous part included           [1/nm]
    d_g_zx     Im of the lateral gradient of G_zx           [1/nm^2]
    dd_g_zz    Im of the mixed lateral derivative of G_zz   [1/nm^3]
    dz_g_xx    Im of the vertical gradient of G_xx          [1/nm^2]

    The magnetic-type and quadrupole-type combinations of the two
    gradients are derived from them, so they always add to 2*d_g_zx.
    """

    g_xx: float
    d_g_zx: float
    dd_g_zz: float
    dz_g_xx: float

    @property
    def b_yx(self) -> float:
        """Magnetic-type combination Im{d_x G_zx - d_z G_xx}  [1/nm^2]."""
        return self.d_g_zx - self.dz_g_xx

    @property
    def q_xz(self) -> float:
        """Quadrupole-type combination Im{d_x G_zx + d_z G_xx}  [1/nm^2]."""
        return self.d_g_zx + self.dz_g_xx


@dataclass(frozen=True, slots=True)
class RateLadder:
    """Normalized decay-rate contributions by expansion order."""

    gamma0: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma0, self.gamma1, self.gamma2))):
            raise ExpansionInvalidError(
                f"rate ladder ({self.gamma0:.6g}, {self.gamma1:.6g}, {self.gamma2:.6g}) "
                "is not finite: the moment ratio overflows double precision")
        if self.gamma0 < 0.0:
            raise ContractViolationError(
                f"gamma0 = {self.gamma0:.6g} < 0: the bundle does not describe a physical LDOS"
            )
        if self.total < 0.0:
            raise ExpansionInvalidError(
                f"total rate {self.total:.6g} < 0: the truncated expansion left its "
                "validity domain for these moments"
            )

    @property
    def total(self) -> float:
        return self.gamma0 + self.gamma1 + self.gamma2


@dataclass(frozen=True, slots=True)
class MultipoleSplit:
    """Magnetic-dipole and electric-quadrupole parts of the order-1 rate.

    The two moments carry half the first moment each; their rate
    contributions add exactly to gamma1.
    """

    gamma1_md: float
    gamma1_eq: float

    @property
    def gamma1(self) -> float:
        return self.gamma1_md + self.gamma1_eq


def check_expansion(k: float, moments: EmitterMoments) -> None:
    """The moment expansion converges only for k*L_qd < 1."""
    if k * moments.l_qd >= 1.0:
        raise ExpansionInvalidError(
            f"k*L_qd = {k * moments.l_qd:.3f} >= 1: the moment expansion does not converge"
        )


def rate_ladder(bundle, moments: EmitterMoments, norm: float) -> RateLadder:
    """Assemble the three-rung rate ladder from a field bundle.

    gamma0 = g_xx/norm, gamma1 = 2*(ratio)*d_g_zx/norm,
    gamma2 = (ratio)**2*dd_g_zz/norm with the signed ratio of the
    moments.
    """
    check_positive(norm=norm)
    lam = moments.lambda_over_mu
    return RateLadder(
        gamma0=bundle.g_xx / norm,
        gamma1=2.0 * lam * bundle.d_g_zx / norm,
        gamma2=lam * lam * bundle.dd_g_zz / norm,
    )


def md_eq_split(bundle, moments: EmitterMoments, norm: float) -> MultipoleSplit:
    """Split gamma1 into its magnetic-dipole and quadrupole parts."""
    check_positive(norm=norm)
    lam = moments.lambda_over_mu
    return MultipoleSplit(
        gamma1_md=lam * bundle.b_yx / norm,
        gamma1_eq=lam * bundle.q_xz / norm,
    )


def extract_fields(total_direct: float, total_inverted: float) -> tuple:
    """Recover (ldos_term, gradient_term) from the two mounting totals.

    The half-sum returns gamma0 + gamma2, the half-difference gamma1 of
    the direct mounting; flipping the emitter flips only gamma1.
    """
    ldos_term = 0.5 * (total_direct + total_inverted)
    gradient_term = 0.5 * (total_direct - total_inverted)
    return ldos_term, gradient_term
