"""Complex-argument modified Bessel functions.

Thin guard layer over scipy.special (AMOS backend). The guards turn
silent overflow into explicit errors and pin the branch conventions the
rest of the package relies on. Scalar inputs return python complex;
numpy arrays pass through elementwise, and an integer array of orders
broadcasts against the argument.

Importing this module loads numpy only: scipy.special is imported on
the first Bessel call and kept as the module attribute ``_sp``. Only
wire code calls these functions, so the interface and moment layers
never load scipy.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomainError, ParameterError

# exp argument beyond which J/I magnitudes leave double range
_OVERFLOW_ARG = 690.0


def _special():
    """scipy.special, imported on the first call and kept as ``_sp``."""
    global _sp
    try:
        return _sp
    except NameError:
        import scipy.special

        _sp = scipy.special
        return _sp


def __getattr__(name):
    # ``specfun._sp`` reads (and so loads) scipy.special before any call
    if name == "_sp":
        return _special()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_order(order):
    # bool is an int, but True is no Bessel order: it takes the array
    # path, whose bool dtype is refused like np.True_
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
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
    sp = _special()
    i_val = _finish(sp.iv(order, zc), "bessel_ik (I)")
    k_val = _finish(sp.kv(order, zc), "bessel_ik (K)")
    return i_val, k_val


def bessel_k(order, z):
    """Unscaled K alone, the K half of bessel_ik.

    Same order and branch guards, but no bound on Re z: K underflows to
    0 where I would overflow.
    """
    order, zc = _principal(order, z, "bessel_k")
    return _finish(_special().kv(order, zc), "bessel_k")


def bessel_ik_scaled(order, z) -> tuple:
    """Scaled modified Bessel pair: (I*exp(-|Re z|), K*exp(+z)).

    Same domain as bessel_ik but safe for large Re z, where the raw
    pair would over/underflow. `order` may be a non-negative integer
    array that broadcasts against z. The two scalings compose so that
    products like I_m(a) K_m(b) carry the explicit factor
    exp(|Re a| - b).
    """
    order, zc = _principal(order, z, "bessel_ik_scaled")
    sp = _special()
    i_val = _finish(sp.ive(order, zc), "bessel_ik_scaled (I)")
    k_val = _finish(sp.kve(order, zc), "bessel_ik_scaled (K)")
    return i_val, k_val


def bessel_k_scaled(order, z):
    """Scaled K alone: K*exp(+z), the K half of bessel_ik_scaled.

    Same order and domain guards; for callers that need no I at z.
    """
    order, zc = _principal(order, z, "bessel_k_scaled")
    return _finish(_special().kve(order, zc), "bessel_k_scaled")
