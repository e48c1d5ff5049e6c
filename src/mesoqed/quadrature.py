"""Adaptive Gauss-Kronrod quadrature: one G10/K21 rule, two drivers.

Both drivers evaluate panels with QUADPACK's qk21 rule and error
estimate, computed as scipy's ``_quadrature_gk``: nodes from the right
end to the left end, sums strictly in that order starting from 0.0, so
a panel's sums do not depend on its neighbours.

Both drivers take an array integrand ``f(x, k)``: x holds the nodes of
every panel evaluated in a call, flat, and k the index of the interval
(or row) each node belongs to. A round makes one call at most, for the
nodes of all panels it needs that are not evaluated yet.

Both drivers look ahead along a tree of heap codes per interval: the
interval's panel is 1, and the halves of panel c are 2c and 2c + 1.
Their first call (`_first_call`) also evaluates the halves of the
tree's panels, and a round that splits such a panel takes its halves
from there. Every split decision, sum, stop and warning is that of the
plain process, computed with the same midpoint arithmetic; only the
call a node is evaluated in moves, and a panel looked ahead but never
split costs its halves' nodes. So the integrand's value at a node must
not depend on the other nodes of its call. Both drivers return the tree
of panels each interval split, with which a call on the same
integrands needs no other. A caller keeps such trees in a tree memo
(`tree_entry`, `merge_trees`): for each bucket of alike integrals, the
union of the panels they split, for the next one to look ahead along.

`quad_vec` integrates one vector integrand over several finite intervals
and gives, for each interval, exactly what scipy's
``quad_vec(g, a, b, epsabs, epsrel, norm="max")`` gives: the same
subdivisions in the same order, the same stops and bitwise the same
value and error estimate. It differs in how the work is scheduled, not
in what is computed: the intervals are independent adaptive processes
run in lockstep, and every round evaluates the nodes of all panels
being split at once. Each panel keeps its integral and heap code until
it is split; scipy re-integrates a panel its cache has lost, which
gives the same bits, so only scipy's evaluation count can differ.

`quad` integrates many real scalar integrands ("rows") by adaptive
bisection, each to a relative tolerance on its own. It keeps every
panel it evaluates in one pool, linked to its halves once they are
evaluated, and each row's current panels as indices into it. Its
panels are scalar, so the rule takes them as (panels, nodes) arrays
and skips the max norm.

The G10/K21 table below is QUADPACK's qk21 on [-1, 1], listed from the
end to the centre with the Kronrod and Gauss weights of each node (the
Gauss nodes are every second one).
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
import warnings

import numpy as np

from .errors import OutOfDomainError

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
_WK = np.array(_GK_WK + _GK_WK[-2::-1])
_WG = np.array(_GK_WG[1::2] + _GK_WG[-2::-2])
PANEL = _X.size  # nodes of a panel, each panel's consecutive in a call

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

    fv[panel, node] holds a scalar integrand at `_nodes`, and
    fv[panel, node, component] a vector one; the arithmetic is scipy's
    ``_quadrature_gk`` applied to every panel at once. A scalar is its
    own max norm, so its panels skip the reduction. The error transform
    is a scalar loop, with Python's ``**`` (libm's pow). An array form
    with ``np.float_power``, which calls the same pow, keeps every bit,
    but costs several times the loop at the few panels of most rounds
    and wins only from some tens of panels on.
    """
    scalar = fv.ndim == 2
    wk, wg, hc = (_WK, _WG, h) if scalar else (_WK[:, None], _WG[:, None], h[:, None])
    norm = np.abs if scalar else _max_norm
    s_k = _sum_nodes(wk * fv)
    s_k_abs = _sum_nodes(wk * np.abs(fv))
    s_g = _sum_nodes(wg * fv[:, 1::2])
    s_k_dabs = _sum_nodes(wk * np.abs(fv - (s_k / 2.0)[:, None]))
    err = norm((s_k - s_g) * hc).tolist()
    dabs = norm(s_k_dabs * hc).tolist()
    rnd = norm(_ROUND * hc * s_k_abs).tolist()
    for i, (e, d, r) in enumerate(zip(err, dabs, rnd)):
        if d != 0 and e != 0:
            e = d * min(1.0, (200 * e / d) ** 1.5)
        if r > sys.float_info.min:
            e = max(e, r)
        err[i] = e
    return hc * s_k, err, rnd


def _panels(f, k: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """`_rule` on the panels [a, b] of intervals k: one call of f(x, k) for all their nodes."""
    nodes, h = _nodes(a, b)
    fv = f(nodes.ravel(), np.repeat(k, _X.size))
    return _rule(fv.reshape(nodes.shape + fv.shape[1:]), h)


_DEEPEST = 2 ** 62  # halves of a panel with a smaller heap code get codes in int64


def _first_call(evaluate, lower: list, upper: list, trees, plain) -> tuple:
    """A driver's first call: evaluate(k, a, b, code) on every interval's panel and tree.

    Interval k's panel is [lower[k], upper[k]], heap code 1, and
    trees[k] is any collection of heap codes. The call also evaluates the
    halves of every panel of the tree that the tree reaches from code 1,
    down to `_DEEPEST`: each from its parent's a and b with bisection's
    midpoint, after the intervals' panels, a left half just before its
    right one; evaluate takes the four columns as lists. Returns its
    result and the (parent, left half) positions in the call of the
    halves. If evaluate raises an ArithmeticError or a special
    function's OutOfDomainError, it is called again with the plain
    process's tree `plain` for every interval, so only a node the plain
    process reaches can raise; a call that already held the plain panels
    is not made again.
    """
    n = len(lower)

    def expand(trees) -> tuple:
        k_of, a_of, b_of, code_of, links = list(range(n)), lower[:], upper[:], [1] * n, []
        for k, (lo, hi, tree) in enumerate(zip(lower, upper, trees)):
            reached = {1: (lo, hi, k)}  # heap code -> a, b, position in the call
            for c in sorted(tree):
                if c in reached and c < _DEEPEST:
                    a, b, at = reached.pop(c)
                    mid = 0.5 * (a + b)
                    left = len(a_of)
                    links.append((at, left))
                    reached[2 * c], reached[2 * c + 1] = (a, mid, left), (mid, b, left + 1)
                    k_of += (k, k)
                    a_of += (a, mid)
                    b_of += (mid, b)
                    code_of += (2 * c, 2 * c + 1)
        return (k_of, a_of, b_of, code_of), links

    panels, links = expand(trees)
    try:
        return evaluate(*panels), links
    except (ArithmeticError, OutOfDomainError):
        panels, plain_links = expand([plain] * n)
        if plain_links == links:
            raise
        return evaluate(*panels), plain_links


def _halves(code: int) -> tuple:
    """Heap codes of the halves of panel `code`: 0 past `_DEEPEST`, as in `quad`'s pool."""
    left = 2 * code if code < _DEEPEST else 0
    return left, left + (left > 0)


class _Interval:
    """scipy's adaptive state for one interval: heap of panels and sums.

    A heap entry (-err, a, b, n, code, integral) carries its panel's heap
    code and integral, which scipy keeps in a cache keyed by (a, b); n
    counts the interval's pushes, so two entries never compare their
    codes or integrals. `tree` collects the nonzero codes split.
    """

    def __init__(self, a: float, b: float, integral, err: float, rnd: float):
        self.integral = integral
        self.error = err
        self.rounding = rnd
        self.pushes = itertools.count()
        self.heap = [(-err, a, b, next(self.pushes), 1, integral)]
        self.tree = set()

    def tol(self, epsabs: float, epsrel: float) -> float:
        return max(epsabs, epsrel * float(_max_norm(self.integral)))

    def pop(self, epsabs: float, epsrel: float) -> list:
        """The panels scipy splits next: (a, b, error, code, integral)."""
        tol = self.tol(epsabs, epsrel)
        taken = []
        err_sum = 0
        for j in range(_PARALLEL):
            if not self.heap or (j > 0 and err_sum > self.error - tol / 8):
                break
            neg_err, a, b, _, code, integral = heapq.heappop(self.heap)
            taken.append((a, b, -neg_err, code, integral))
            err_sum += -neg_err
        return taken

    def split(self, a, b, old_err, code, old_int, left, right) -> None:
        (s1, err1, rnd1), (s2, err2, rnd2) = left, right
        self.integral = self.integral + (s1 + s2 - old_int)
        self.error += err1 + err2 - old_err
        self.rounding += rnd1 + rnd2
        if code:
            self.tree.add(code)
        c = 0.5 * (a + b)
        for x1, x2, half, ig, err in zip((a, c), (c, b), _halves(code), (s1, s2), (err1, err2)):
            heapq.heappush(self.heap, (-err, x1, x2, next(self.pushes), half, ig))

    def done(self, epsabs: float, epsrel: float) -> bool:
        """scipy's stops: target met, roundoff reached, non-finite, limit."""
        # scipy tests the first two only from two panels on, which every
        # split reaches
        if self.error < self.tol(epsabs, epsrel) / 8 or self.error < self.rounding:
            return True
        if not (math.isfinite(self.error) and math.isfinite(self.rounding)):
            return True
        return len(self.heap) >= _LIMIT


def quad_vec(f, bounds, epsabs: float, epsrel: float, trees=None) -> tuple:
    """Integrate f over each finite interval of `bounds`, max norm.

    f(x, k) takes the flat nodes x of a round and the interval index k
    of each, and returns their values as an array (nodes, components),
    with as many components on every interval. Returns one (value, error
    estimate) pair per interval, each bitwise equal to scipy's
    quad_vec(lambda x: f(np.array([x]), np.array([k]))[0], a, b,
    epsabs=epsabs, epsrel=epsrel, norm="max"), and each interval's tree:
    the set of heap codes of the panels the plain process split, down
    to 62 levels, as `quad` reports them. `trees` gives each interval a
    tree to look ahead along (see the module docstring); an interval
    whose tree is None, and every interval when `trees` is None, takes
    the plain process's (1,): the first round always splits each
    interval's one panel, as scipy's does. An interval's own tree gives
    its result in one call.
    """
    def first(k, a, b, _code):
        return k, a, b, list(zip(*_panels(f, *map(np.array, (k, a, b)))))

    lower, upper = (list(ends) for ends in zip(*bounds))
    trees = [(1,) if tree is None else tree for tree in trees or [None] * len(bounds)]
    (k, a, b, rules), links = _first_call(first, lower, upper, trees, (1,))
    procs = [_Interval(lo, hi, *rule) for lo, hi, rule in zip(lower, upper, rules)]
    # the halves evaluated before their panel is split
    ready = {(k[at], a[at], b[at]): (rules[left], rules[left + 1]) for at, left in links}
    active = list(range(len(bounds)))
    while active:
        work = [(k, *panel) for k in active for panel in procs[k].pop(epsabs, epsrel)]
        pairs = [ready.pop(panel[:3], None) for panel in work]
        todo = [i for i, pair in enumerate(pairs) if pair is None]
        if todo:
            halves = []
            for k, a, b, *_ in (work[i] for i in todo):
                mid = 0.5 * (a + b)
                halves += (k, a, mid), (k, mid, b)
            fresh = list(zip(*_panels(f, *(np.array(column) for column in zip(*halves)))))
            for i, left, right in zip(todo, fresh[::2], fresh[1::2]):
                pairs[i] = left, right
        for (k, *panel), pair in zip(work, pairs):
            procs[k].split(*panel, *pair)
        active = [k for k in active if not procs[k].done(epsabs, epsrel)]
    return [(p.integral, p.error + p.rounding) for p in procs], [p.tree for p in procs]


_ROW_LIMIT = 400  # panels per row of `quad`
# the tree of a row without one: integrands that fall off from their rows'
# lower ends split the leftmost panel first, so it is the left spine
_SPINE = (1, 2, 4)


class _Pool:
    """Every panel `quad` has evaluated, by pool index.

    One column each for a panel's a, b, row, heap code, value, error and
    roundoff, and the pool indices of its left and right halves, -1
    until they are evaluated. The halves of a panel past `_DEEPEST` have
    heap code 0. The pool starts with the panels of `quad`'s first call
    (`_first_call`), and its columns grow by doubling.
    """

    def __init__(self, f, row: np.ndarray, a: np.ndarray, b: np.ndarray, code: np.ndarray):
        self.f = f
        self.size = 0
        self.a, self.b, self.val, self.err, self.rnd = (np.empty(2 * a.size) for _ in range(5))
        self.row, self.code, self.left, self.right = (
            np.full(2 * a.size, -1, dtype=np.intp) for _ in range(4))
        self.add(row, a, b, code)

    def add(self, row: np.ndarray, a: np.ndarray, b: np.ndarray, code) -> np.ndarray:
        """Evaluate panels [a, b] of `row`, heap codes `code`, in one call of f; their indices."""
        start, stop = self.size, self.size + a.size
        if stop > self.a.size:
            for name in ("a", "b", "val", "err", "rnd", "row", "code", "left", "right"):
                column = getattr(self, name)
                grown = np.full(max(stop, 2 * column.size), -1, dtype=column.dtype)
                grown[:start] = column[:start]
                setattr(self, name, grown)
        values, errs, rnds = _panels(self.f, row, a, b)
        new = slice(start, stop)
        self.a[new], self.b[new], self.row[new], self.code[new] = a, b, row, code
        self.val[new], self.err[new], self.rnd[new] = values, errs, rnds
        self.size = stop
        return np.arange(start, stop)


def quad(f, lower: np.ndarray, upper: np.ndarray, rel_tol: float, trees=None) -> tuple:
    """Integral over [lower[row], upper[row]] of each row's integrand, all rows at once.

    `f(x, row)` takes flat arrays of nodes and row indices and returns
    the real integrand at each. Adaptive bisection per row: while a
    row's summed error estimate exceeds rel_tol times its value, every
    panel of that row whose error exceeds the row's tolerance over its
    panel count, and its own roundoff estimate, is halved; a row stops
    splitting at _ROW_LIMIT panels. Rows share no decision and no sum,
    so each result is the same whichever rows are integrated with it.
    Warns when a row ends above its tolerance.

    Returns the totals and each row's tree: the set of heap codes of
    the panels plain bisection split in that row, down to 62 levels.
    `trees` gives each row a tree to look ahead along (see the module
    docstring); a row whose tree is None, and every row when `trees` is
    None, takes the left spine `_SPINE`. Plain bisection's first call
    evaluates the rows' panels alone, so its tree is empty. A round
    splits by the pool's values and makes one call at most, for the
    split panels without halves; every other split takes its linked
    halves. The panel order is plain bisection's, on which
    `np.bincount`'s sums depend: a round keeps the unsplit panels in
    order, then the left halves, then the right halves. So any tree
    gives the same result, and the row's own tree gives it in one call.
    """
    n = upper.size
    trees = [_SPINE if tree is None else tree for tree in trees or [None] * n]
    pool, links = _first_call(lambda *panels: _Pool(f, *map(np.array, panels)), lower.tolist(),
                              upper.tolist(), trees, ())
    at, left = np.array(links, dtype=np.intp).reshape(-1, 2).T
    pool.left[at], pool.right[at] = left, left + 1
    cur, done = np.arange(n), []
    while True:
        rows, val, err, rnd = pool.row[cur], pool.val[cur], pool.err[cur], pool.rnd[cur]
        total = np.bincount(rows, val, n)
        count = np.bincount(rows, minlength=n)
        tol = rel_tol * np.abs(total)
        unmet = np.bincount(rows, err, n) > tol
        split = (unmet & (count < _ROW_LIMIT))[rows]
        split &= (err > (tol / count)[rows]) & (err > rnd)
        if not np.count_nonzero(split):
            break
        halved = cur[split]
        done += zip(pool.row[halved].tolist(), pool.code[halved].tolist())
        fresh = halved[pool.left[halved] < 0]
        if fresh.size:
            a, b, of = pool.a[fresh], pool.b[fresh], pool.row[fresh]
            mid = 0.5 * (a + b)
            code = 2 * np.where(pool.code[fresh] < _DEEPEST, pool.code[fresh], 0)
            halves = pool.add(np.concatenate((of, of)), np.concatenate((a, mid)),
                              np.concatenate((mid, b)), np.concatenate((code, code + (code > 0))))
            pool.left[fresh], pool.right[fresh] = halves[:fresh.size], halves[fresh.size:]
        cur = np.concatenate((cur[~split], pool.left[halved], pool.right[halved]))
    if unmet.any():
        warnings.warn(
            f"{np.count_nonzero(unmet)} of {n} integrals stopped above the relative "
            f"tolerance {rel_tol:g} (roundoff or {_ROW_LIMIT} panels)",
            RuntimeWarning,
            stacklevel=2,
        )
    split_trees = [set() for _ in range(n)]
    for row, code in done:
        if code:
            split_trees[row].add(code)
    return total, split_trees


def tree_entry(memo: dict, key: tuple, entries: int) -> tuple[dict, dict]:
    """The trees to look ahead along at `key` of a tree memo, and its entry for the splits made there.

    A tree memo maps keys (kind..., bucket) to entries {part: sorted heap
    codes}, the least recently used first, and keeps `entries` of them.
    A bucket without trees borrows those of the nearest bucket of its
    kind (the same key but for the bucket) that has some, if any.
    """
    ahead = own = memo.pop(key, None) or {}
    if not own:
        near = min((k for k, trees in memo.items() if trees and k[:-1] == key[:-1]),
                   key=lambda k: abs(k[-1] - key[-1]), default=None)
        ahead = memo.get(near, {})
    memo[key] = own
    if len(memo) > entries:
        del memo[next(iter(memo))]  # the least recently used
    return ahead, own


def merge_trees(own: dict, split) -> None:
    """Add each (part, tree) of `split`, a driver's split trees, to the memo entry `own`."""
    for part, tree in split:
        if part not in own or not tree.issubset(own[part]):
            own[part] = tuple(sorted(tree.union(own.get(part, ()))))  # a third of a set's size
