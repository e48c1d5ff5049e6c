"""Adaptive Gauss-Kronrod quadrature: one G10/K21 rule, two drivers.

Both drivers evaluate panels with QUADPACK's qk21 rule and error
estimate, computed as scipy's ``_quadrature_gk``: nodes from the right
end to the left end, sums strictly in that order starting from 0.0, so
a panel's sums do not depend on its neighbours.

`quad_vec` integrates one vector integrand over several finite intervals
and gives, for each interval, exactly what scipy's
``quad_vec(g, a, b, epsabs, epsrel, norm="max")`` gives: the same
subdivisions in the same order, the same stops and bitwise the same
value and error estimate. It differs in how the work is scheduled, not
in what is computed: the intervals are independent adaptive processes
run in lockstep, and every round evaluates the nodes of all panels being
split at once. The integrand is still called once per node with a
Python float, so its own arithmetic is untouched.

`quad` integrates many real scalar integrands ("rows") by adaptive
bisection, each to a relative tolerance on its own, with one array call
of the integrand per round for the nodes of every panel being split.

The G10/K21 table below is QUADPACK's qk21 on [-1, 1], listed from the
end to the centre with the Kronrod and Gauss weights of each node (the
Gauss nodes are every second one).
"""

from __future__ import annotations

import heapq
import math
import sys
import warnings

import numpy as np

_GK_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_GK_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208936966410, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK_WG = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
)

# scipy's node order, right end to left end; the Gauss weights belong to
# the odd-numbered nodes
_X = np.array(_GK_XK + tuple(-x for x in _GK_XK[-2::-1]))
_WK = np.array(_GK_WK + _GK_WK[-2::-1])[:, None]
_WG = np.array(_GK_WG[1::2] + _GK_WG[-2::-2])[:, None]

_ROUND = 50 * sys.float_info.epsilon
_PARALLEL = 128  # intervals split per round at most, as in scipy
_LIMIT = 10000  # an interval stops once it holds this many panels, as in scipy


def _sum_nodes(terms: np.ndarray) -> np.ndarray:
    """0.0 + terms[:, 0] + terms[:, 1] + ..., strictly in that order."""
    # scipy's sums start from 0.0. A running sum is -0.0 only while every
    # term so far is -0.0, so adding the 0.0 last gives the same bits
    return np.add.accumulate(terms, axis=1)[:, -1] + 0.0


def _max_norm(values: np.ndarray) -> np.ndarray:
    return np.abs(values).max(axis=-1)


def _nodes(a: np.ndarray, b: np.ndarray) -> tuple:
    """Nodes of the panels [a, b], one row each, and their half-widths."""
    h = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + h[:, None] * _X, h


def _rule(fv: np.ndarray, h: np.ndarray) -> tuple:
    """Values, error estimates and roundoff estimates of panels.

    fv[panel, node, component] holds the integrand at `_nodes`; the
    arithmetic is scipy's ``_quadrature_gk`` applied to every panel at
    once. The error transform stays a scalar loop: numpy's array ``**``
    rounds differently from Python's in some last bits.
    """
    s_k = _sum_nodes(_WK * fv)
    s_k_abs = _sum_nodes(_WK * np.abs(fv))
    s_g = _sum_nodes(_WG * fv[:, 1::2])
    s_k_dabs = _sum_nodes(_WK * np.abs(fv - (s_k / 2.0)[:, None]))
    hc = h[:, None]
    err = _max_norm((s_k - s_g) * hc).tolist()
    dabs = _max_norm(s_k_dabs * hc).tolist()
    rnd = _max_norm((_ROUND * h)[:, None] * s_k_abs).tolist()
    for i, (e, d, r) in enumerate(zip(err, dabs, rnd)):
        if d != 0 and e != 0:
            e = d * min(1.0, (200 * e / d) ** 1.5)
        if r > sys.float_info.min:
            e = max(e, r)
        err[i] = e
    return hc * s_k, err, rnd


def _gk21(f, panels: list) -> tuple:
    """`_rule` on (k, a, b) panels of a per-node integrand f(x, k)."""
    nodes, h = _nodes(np.array([p[1] for p in panels]), np.array([p[2] for p in panels]))
    fv = np.array([f(x, k) for (k, _, _), row in zip(panels, nodes.tolist()) for x in row])
    return _rule(fv.reshape(len(panels), _X.size, -1), h)


class _Interval:
    """scipy's adaptive state for one interval: heap, cache and sums."""

    def __init__(self, a: float, b: float, integral, err: float, rnd: float):
        self.integral = integral
        self.error = err
        self.rounding = rnd
        self.cache = {(a, b): integral}
        self.heap = [(-err, a, b)]

    def tol(self, epsabs: float, epsrel: float) -> float:
        return max(epsabs, epsrel * float(_max_norm(self.integral)))

    def pop(self, epsabs: float, epsrel: float) -> list:
        """The intervals scipy splits next: (a, b, error, cached integral)."""
        tol = self.tol(epsabs, epsrel)
        taken = []
        err_sum = 0
        for j in range(_PARALLEL):
            if not self.heap or (j > 0 and err_sum > self.error - tol / 8):
                break
            neg_err, a, b = heapq.heappop(self.heap)
            taken.append((a, b, -neg_err, self.cache.pop((a, b), None)))
            err_sum += -neg_err
        return taken

    def split(self, a, c, b, old_err, old_int, left, right) -> None:
        (s1, err1, rnd1), (s2, err2, rnd2) = left, right
        self.integral = self.integral + (s1 + s2 - old_int)
        self.error += err1 + err2 - old_err
        self.rounding += rnd1 + rnd2
        for x1, x2, ig, err in ((a, c, s1, err1), (c, b, s2, err2)):
            self.cache[(x1, x2)] = ig
            heapq.heappush(self.heap, (-err, x1, x2))

    def done(self, epsabs: float, epsrel: float) -> bool:
        """scipy's stops: target met, roundoff reached, non-finite, limit."""
        # scipy tests the first two only from two panels on, which every
        # split reaches
        if self.error < self.tol(epsabs, epsrel) / 8 or self.error < self.rounding:
            return True
        if not (math.isfinite(self.error) and math.isfinite(self.rounding)):
            return True
        return len(self.heap) >= _LIMIT


def quad_vec(f, bounds, epsabs: float, epsrel: float) -> list:
    """Integrate f over each finite interval of `bounds`, max norm.

    f(x, k) is the integrand on interval k at the node x, a 1-d array of
    the same length on every interval. Returns one (value, error
    estimate) pair per interval, each bitwise equal to scipy's
    quad_vec(lambda x: f(x, k), a, b, epsabs=epsabs, epsrel=epsrel,
    norm="max") for vectors small enough that scipy's 100 MB interval
    cache holds its 10000 intervals.
    """
    values, errs, rnds = _gk21(f, [(k, a, b) for k, (a, b) in enumerate(bounds)])
    procs = [_Interval(a, b, values[k], errs[k], rnds[k]) for k, (a, b) in enumerate(bounds)]
    active = list(range(len(procs)))
    while active:
        work = [(k, a, 0.5 * (a + b), b, old_err, old_int)
                for k in active for a, b, old_err, old_int in procs[k].pop(epsabs, epsrel)]
        panels = []
        for k, a, c, b, _, old_int in work:
            # scipy re-integrates a popped interval only if its cache lost it
            panels += [(k, a, c), (k, c, b)] + ([(k, a, b)] if old_int is None else [])
        values, errs, rnds = _gk21(f, panels)
        i = 0
        for k, a, c, b, old_err, old_int in work:
            left = (values[i], errs[i], rnds[i])
            right = (values[i + 1], errs[i + 1], rnds[i + 1])
            if old_int is None:
                old_int = values[i + 2]
                i += 1
            i += 2
            procs[k].split(a, c, b, old_err, old_int, left, right)
        active = [k for k in active if not procs[k].done(epsabs, epsrel)]
    return [(p.integral, p.error + p.rounding) for p in procs]


_ROW_LIMIT = 400  # panels per row of `quad`


def _row_panels(f, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Panels [a, b] of `rows` as columns (a, b, value, error, roundoff)."""
    nodes, h = _nodes(a, b)
    fv = f(nodes.ravel(), np.repeat(rows, _X.size)).reshape(*nodes.shape, 1)
    values, errs, rnds = _rule(fv, h)
    return np.array((a, b, values[:, 0], errs, rnds))


def quad(f, lower: np.ndarray, upper: np.ndarray, rel_tol: float) -> np.ndarray:
    """Integral over [lower[row], upper[row]] of each row's integrand, all rows at once.

    `f(x, row)` takes flat arrays of nodes and row indices and returns
    the real integrand at each. Adaptive bisection per row: while a
    row's summed error estimate exceeds rel_tol times its value, every
    panel of that row whose error exceeds the row's tolerance over its
    panel count, and its own roundoff estimate, is halved; a row stops
    splitting at _ROW_LIMIT panels. Rows share no decision and no sum,
    so each result is the same whichever rows are integrated with it.
    Warns when a row ends above its tolerance.
    """
    n = upper.size
    rows = np.arange(n)
    panels = _row_panels(f, rows, lower, upper)
    while True:
        a, b, val, err, rnd = panels
        total = np.bincount(rows, val, n)
        count = np.bincount(rows, minlength=n)
        tol = rel_tol * np.abs(total)
        unmet = np.bincount(rows, err, n) > tol
        split = (unmet & (count < _ROW_LIMIT))[rows]
        split &= (err > (tol / count)[rows]) & (err > rnd)
        if not split.any():
            break
        halves_of = np.tile(rows[split], 2)
        mid = 0.5 * (a[split] + b[split])
        lo, hi = np.concatenate((a[split], mid)), np.concatenate((mid, b[split]))
        halves = _row_panels(f, halves_of, lo, hi)
        rows = np.concatenate((rows[~split], halves_of))
        panels = np.concatenate((panels[:, ~split], halves), axis=1)
    if unmet.any():
        warnings.warn(
            f"{np.count_nonzero(unmet)} of {n} integrals stopped above the relative "
            f"tolerance {rel_tol:g} (roundoff or {_ROW_LIMIT} panels)",
            RuntimeWarning,
            stacklevel=2,
        )
    return total
