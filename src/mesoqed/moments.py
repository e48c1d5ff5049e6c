"""Symmetry engine and smallness estimates for the emitter moments.

The parity table classifies the Bloch and envelope factors of the
ground and excited wavefunctions per axis as even (+1), odd (-1) or
without definite parity (0). A moment integral survives only if its
integrand is not odd along any axis; 0 means the axis imposes no
constraint. This symbolic filter is what reduces the moment tensors to
a single in-plane dipole component and a single first-moment parameter
for a lens-shaped emitter.

The quantitative pieces are closed-form Gaussian overlap algebra for
the growth-axis first moment and the k^2 L^2 smallness measure for the
neglected second-order moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError

_AXES = ("x", "y", "z")
_PARITIES = (-1, 0, 1)


def _check_parities(label, triple):
    if len(triple) != 3 or any(p not in _PARITIES for p in triple):
        raise ParameterError(f"{label}: parity triple must contain only -1, 0, +1, got {triple!r}")
    return tuple(int(p) for p in triple)


def _product(a, b):
    # 0 (no definite parity) absorbs everything
    return tuple(x * y for x, y in zip(a, b))


@dataclass(frozen=True)
class ParityTable:
    """Per-axis parities of the Bloch (u) and envelope (psi) factors."""

    u_g: tuple
    psi_g: tuple
    u_e: tuple
    psi_e: tuple

    def __post_init__(self):
        for label in ("u_g", "psi_g", "u_e", "psi_e"):
            object.__setattr__(self, label, _check_parities(label, getattr(self, label)))

    @property
    def full_g(self) -> tuple:
        """Parity of the full ground wavefunction, product rule with 0 absorbing."""
        return _product(self.u_g, self.psi_g)

    @property
    def full_e(self) -> tuple:
        return _product(self.u_e, self.psi_e)


# Lens-shaped dot grown along z: heavy-hole ground Bloch factor odd in x,
# excited-state Bloch factor fully even, envelopes even in plane and
# without definite parity along the growth axis.
LENS_SHAPED_TABLE = ParityTable(
    u_g=(-1, 1, 1),
    psi_g=(1, 1, 0),
    u_e=(1, 1, 1),
    psi_e=(1, 1, 0),
)


@dataclass(frozen=True)
class MomentPattern:
    """Symmetry-allowed sparsity of the dipole vector and first-moment tensor."""

    mu: tuple  # 3 bools, axis order x, y, z
    lam: tuple  # 3x3 bools, lam[j][i] is the (r_j, grad_i) entry

    def allowed_mu_axes(self):
        return tuple(ax for ax, ok in zip(_AXES, self.mu) if ok)

    def allowed_lambda_entries(self):
        out = []
        for j, row in enumerate(self.lam):
            for i, ok in enumerate(row):
                if ok:
                    out.append((_AXES[j], _AXES[i]))
        return tuple(out)


def _integrand_survives(parity_product, odd_axes):
    """True unless some axis makes the integrand definitely odd."""
    for axis in range(3):
        p = parity_product[axis]
        for odd in odd_axes:
            if odd == axis:
                p = -p
        if p == -1:
            return False
    return True


def allowed_moments(table: ParityTable) -> MomentPattern:
    """Sparsity pattern of mu and lambda permitted by the parity table.

    mu_i integrates grad_i between the two wavefunctions, inserting one
    sign flip along axis i. lambda_ji integrates r_j grad_i, inserting
    a flip along j and along i (two flips on the same axis cancel).
    """
    base = _product(table.full_g, table.full_e)
    mu = tuple(_integrand_survives(base, (i,)) for i in range(3))
    lam = tuple(
        tuple(_integrand_survives(base, (j, i)) for i in range(3)) for j in range(3)
    )
    return MomentPattern(mu=mu, lam=lam)


@dataclass(frozen=True)
class GaussianEnvelopes:
    """Growth-axis Gaussian envelope model of the electron-hole pair.

    sigma_e is the electron half width at half maximum of the density.
    The hole width is tied to the mass ratio, sigma_e/sqrt(mass_ratio):
    the width ratio of two harmonic oscillators with equal confinement
    frequency (equal level spacing hbar*omega). A shared harmonic
    potential (equal spring constant) would instead give
    sigma_h = sigma_e * (m_e/m_h)**(1/4). The shift is the distance
    between the two density centers.
    """

    sigma_e: float
    mass_ratio: float
    shift: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_e) and self.sigma_e > 0.0):
            raise ParameterError(f"sigma_e must be positive, got {self.sigma_e}")
        if not (math.isfinite(self.mass_ratio) and self.mass_ratio > 0.0):
            raise ParameterError(f"mass_ratio must be positive, got {self.mass_ratio}")
        if not math.isfinite(self.shift):
            raise ParameterError("shift must be finite")

    @property
    def sigma_h(self) -> float:
        return self.sigma_e / math.sqrt(self.mass_ratio)


# HWHM of a Gaussian density to its standard deviation
_HWHM_TO_SIGMA = 1.0 / math.sqrt(2.0 * math.log(2.0))


def lambda_zx_estimate(env: GaussianEnvelopes) -> float:
    """Growth-axis first moment per dipole moment, |<z> - z0|, in nm.

    <z> is the centroid of the electron-hole overlap density; for two
    Gaussians it is their inverse-variance weighted mean. z0 is the
    pair center of mass built with the mass ratio. With the hole width
    tied to the mass ratio as sigma_e/sqrt(mass_ratio) (equal
    confinement frequency for electron and hole), the inverse-variance
    weights equal the mass weights, so the two points coincide
    identically and the estimate vanishes for every shift. A shared
    harmonic potential, sigma_h = sigma_e * (m_e/m_h)**(1/4), would
    leave a finite offset.
    The subtraction is still carried out numerically so translation and
    dilation behavior remain testable.
    """
    s_e = env.sigma_e * _HWHM_TO_SIGMA
    s_h = env.sigma_h * _HWHM_TO_SIGMA

    z_h = 0.0
    z_e = z_h + env.shift

    var_sum = s_e * s_e + s_h * s_h
    if env.shift * env.shift / (2.0 * var_sum) > 700.0:
        raise ParameterError("electron and hole envelopes do not overlap")

    w_e = 1.0 / (s_e * s_e)
    w_h = 1.0 / (s_h * s_h)
    centroid = (w_e * z_e + w_h * z_h) / (w_e + w_h)

    xi = env.mass_ratio
    z0 = (z_e + xi * z_h) / (1.0 + xi)
    return abs(centroid - z0)


def lambda_zx_significance(estimate: float, k: float) -> float:
    """Dimensionless weight 2*k*estimate of the growth-axis moment."""
    if estimate < 0.0 or not math.isfinite(estimate):
        raise ParameterError(f"estimate must be a non-negative length, got {estimate}")
    if not (math.isfinite(k) and k > 0.0):
        raise ParameterError(f"k must be positive, got {k}")
    return 2.0 * k * estimate


class OmegaCheck(NamedTuple):
    value: float
    negligible: bool


def omega_negligibility(k: float, l_qd: float) -> OmegaCheck:
    """Smallness measure (k*l_qd)**2 of the neglected second-order moment.

    Negligible below 0.1; the expansion itself requires k*l_qd < 1.
    """
    try:
        value = (k * l_qd) ** 2
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"(k*l_qd)**2 is not finite for k = {k:g}, l_qd = {l_qd:g}")
    return OmegaCheck(value=value, negligible=value < 0.1)
