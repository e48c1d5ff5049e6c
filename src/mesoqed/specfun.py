"""Modified Bessel functions of complex and of real argument.

Thin guard layer over scipy.special (AMOS backend). The guards turn
silent overflow into explicit errors and pin the branch conventions the
rest of the package relies on. numpy arrays pass through elementwise,
and an integer array of orders broadcasts against the argument.

The complex routines (`bessel_ik`, `bessel_i`, `bessel_k`,
`bessel_ik_scaled`, `bessel_k_scaled`) promote the argument to complex
and return python complex for scalar inputs. The wire background's
real values come from one private routine, `_background_node`: scipy's
real-argument ive and i1e, and K seeded with k0e, k1e and climbed to
higher orders by the upward recurrence, the stable direction for K. It
takes only the arrays the background builds, so it guards nothing but
K's overflow.

Importing this module loads numpy only: `_special` imports
scipy.special on the first Bessel call. Only wire code calls these
functions, so the interface and moment layers never load scipy.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import OutOfDomainError, ParameterError

# exp argument beyond which J/I magnitudes leave double range
_OVERFLOW_ARG = 690.0


@functools.cache
def _special():
    """scipy.special, imported on the first call."""
    import scipy.special

    return scipy.special


def _check_order(order):
    # bool is an int, but True is no Bessel order: it takes the array
    # path, whose bool dtype is refused like np.True_
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        # an array of orders, broadcast against z by the caller's ufunc
        arr = np.asarray(order)
        if arr.dtype.kind not in "iu" or (arr < 0).any():  # signed or unsigned integers
            raise ParameterError(f"order must be a non-negative integer, got {order!r}")
        return arr
    if order < 0:
        raise ParameterError(f"order must be non-negative, got {order}")
    return int(order)


def _finish(values, where: str):
    out = np.asarray(values)
    if not np.isfinite(out).all():
        raise OutOfDomainError(f"{where}: result overflowed or is undefined")
    if out.shape == ():
        return out.item()
    return out


def _principal(order, z, where: str):
    """Checked order and complex argument with Re z > 0."""
    order = _check_order(order)
    zc = np.asarray(z, dtype=complex)
    if (zc.real <= 0.0).any():
        raise OutOfDomainError(f"{where}: principal branch requires Re z > 0")
    return order, zc


def bessel_i(order, z):
    """Unscaled I alone, the I half of bessel_ik.

    Requires Re z > 0; arguments with Re z beyond ~690 overflow I and
    raise. For callers that discard K, which underflows or overflows
    where I does not (K_1 of z near 0).
    """
    order, zc = _principal(order, z, "bessel_i")
    if np.any(zc.real > _OVERFLOW_ARG):
        raise OutOfDomainError(f"bessel_i: Re z > {_OVERFLOW_ARG} overflows I")
    return _finish(_special().iv(order, zc), "bessel_i")


def bessel_ik(order: int, z) -> tuple:
    """Modified Bessel pair (I_order, K_order) on the principal branch.

    `bessel_i` and `bessel_k` with their guards: Re z > 0, since the
    branch cut of K runs along the negative real axis, and Re z beyond
    ~690 overflows I and raises.
    """
    return bessel_i(order, z), bessel_k(order, z)


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


def _background_node(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Scaled real Bessel values at the wire background's quadrature nodes.

    For an integer order array m and positive float64 arrays x, y of its
    shape: I_m(x), K_m(x), K_|m-1|(x), K_m(y), K_|m-1|(y), and I_1(x) at
    the nodes of order 0. K climbs from the seeds k0e, k1e by
    K_{j+1} = K_{j-1} + (2j/z) K_j (Abramowitz & Stegun 9.6.26), the
    stable direction for K. Each node climbs only to its own order, so
    its bits do not depend on the other nodes of the call. A K beyond
    double range raises.
    """
    sp = _special()
    orders = np.concatenate((m, m))
    sort = np.argsort(orders, kind="stable")
    orders, zs = orders[sort], np.concatenate((x, y))[sort]
    # two rungs that take turns: step j overwrites K_{j-1} with K_{j+1},
    # so K of an even order ends in `even` and of an odd order in `odd`
    even, odd = sp.k0e(zs), sp.k1e(zs)
    steps = np.arange(1, int(orders[-1]))
    # nodes above order j climb at step j; sorted, they are one tail
    starts = np.searchsorted(orders, steps, side="right").tolist()
    with np.errstate(over="ignore"):
        for j, start in enumerate(starts, 1):
            low, high = (even, odd) if j & 1 else (odd, even)
            tail = (2.0 * j) / zs[start:]
            tail *= high[start:]
            low[start:] += tail
    if not (np.isfinite(even).all() and np.isfinite(odd).all()):
        raise OutOfDomainError("wire background: K_m beyond double range")
    is_even = orders % 2 == 0
    k_m, k_l = np.empty_like(even), np.empty_like(even)
    k_m[sort], k_l[sort] = np.where(is_even, even, odd), np.where(is_even, odd, even)
    n = m.size
    return sp.ive(m, x), k_m[:n], k_l[:n], k_m[n:], k_l[n:], sp.i1e(x[m == 0])
