"""Complex-argument modified Bessel functions.

Thin guard layer over scipy.special (AMOS backend). The guards turn
silent overflow into explicit errors and pin the branch conventions the
rest of the package relies on. Scalar inputs return python complex;
numpy arrays pass through elementwise, and an integer array of orders
broadcasts against the argument.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import OutOfDomainError, ParameterError

# exp argument beyond which J/I magnitudes leave double range
_OVERFLOW_ARG = 690.0


def _check_order(order):
    if not isinstance(order, (int, np.integer)):
        # an array of orders, broadcast against z by the caller's ufunc
        arr = np.asarray(order)
        if not np.issubdtype(arr.dtype, np.integer) or np.any(arr < 0):
            raise ParameterError(f"order must be a non-negative integer, got {order!r}")
        return arr
    if order < 0:
        raise ParameterError(f"order must be non-negative, got {order}")
    return int(order)


def _finish(values, where: str):
    out = np.asarray(values)
    if not np.all(np.isfinite(out)):
        raise OutOfDomainError(f"{where}: result overflowed or is undefined")
    if out.shape == ():
        return complex(out)
    return out


def _principal(order, z, where: str):
    """Checked order and complex argument with Re z > 0."""
    order = _check_order(order)
    zc = np.asarray(z, dtype=complex)
    if np.any(zc.real <= 0.0):
        raise OutOfDomainError(f"{where}: principal branch requires Re z > 0")
    return order, zc


def bessel_ik(order: int, z) -> tuple:
    """Modified Bessel pair (I_order, K_order) on the principal branch.

    Requires Re z > 0; the branch cut of K runs along the negative real
    axis. Arguments with Re z beyond ~690 overflow I and raise.
    """
    order, zc = _principal(order, z, "bessel_ik")
    if np.any(zc.real > _OVERFLOW_ARG):
        raise OutOfDomainError(f"bessel_ik: Re z > {_OVERFLOW_ARG} overflows I")
    i_val = _finish(_sp.iv(order, zc), "bessel_ik (I)")
    k_val = _finish(_sp.kv(order, zc), "bessel_ik (K)")
    return i_val, k_val


def bessel_ik_scaled(order, z) -> tuple:
    """Scaled modified Bessel pair: (I*exp(-|Re z|), K*exp(+z)).

    Same domain as bessel_ik but safe for large Re z, where the raw
    pair would over/underflow. `order` may be a non-negative integer
    array that broadcasts against z. The two scalings compose so that
    products like I_m(a) K_m(b) carry the explicit factor
    exp(|Re a| - b).
    """
    order, zc = _principal(order, z, "bessel_ik_scaled")
    i_val = _finish(_sp.ive(order, zc), "bessel_ik_scaled (I)")
    k_val = _finish(_sp.kve(order, zc), "bessel_ik_scaled (K)")
    return i_val, k_val


def bessel_k_scaled(order, z):
    """Scaled K alone: K*exp(+z), the K half of bessel_ik_scaled.

    Same order and domain guards; for callers that need no I at z.
    """
    order, zc = _principal(order, z, "bessel_k_scaled")
    return _finish(_sp.kve(order, zc), "bessel_k_scaled")
