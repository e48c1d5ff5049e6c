"""The in-package G10/K21 integrators against scipy.integrate.

`quadrature.quad_vec` must reproduce scipy's max-norm quad_vec decision
for decision, so value and error estimate are compared bitwise (sign of
zero included), never to a tolerance. `quadrature.quad` shares the panel
rule; its rows must not depend on each other. Both drivers look ahead on
their first call, which must move no bit: `quad` is compared bitwise
with plain per-row bisection (`oracles.bisection_quad`), and so is the
tree of panels each row reports it split; the tree of each `quad_vec`
interval is compared with the final panels scipy reports.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad_vec as scipy_quad_vec
from scipy.integrate._quad_vec import _max_norm, _quadrature_gk21

import oracles
from mesoqed.errors import OutOfDomainError
from mesoqed.quadrature import _nodes, _panels, quad, quad_vec

ALPHA = np.linspace(0.1, 3.0, 4)

INTEGRANDS = {
    # many sign changes over the interval
    "oscillatory": (lambda x: np.sin(50.0 * x) * np.exp(1j * x * ALPHA), 0.0, 3.0),
    # a Lorentzian at the left end and an integrable x^-1/2 singularity
    "endpoint-peaked": (lambda x: np.array([1.0 / (1e-4 + x * x), x ** -0.5 + 0j]), 0.0, 1.0),
    # real vector with a signed-zero component
    "real": (lambda x: np.array([math.exp(-x), -0.0, x ** 3]), -1.0, 2.0),
}


# the tree that looks ahead to an interval's quarters
QUARTERS = (1, 2, 3)
# integrands of two components and their intervals, to run in lockstep
LOCKSTEP = ([lambda x: np.sin(50.0 * x) * np.exp(1j * x * ALPHA[:2]),
             INTEGRANDS["endpoint-peaked"][0],
             lambda x: np.array([complex(math.cos(x), -x), -0.0j])],
            [(0.0, 3.0), (0.0, 1.0), (-1.0, 2.0)])


def bits(value):
    return np.asarray(value).dtype, np.asarray(value).tobytes()


def per_node(g):
    """The array integrand f(x, k) of a scalar integrand g(x), one node at a time."""
    return lambda x, k: np.array([g(node) for node in x.tolist()])


def test_panel_rule_matches_scipy_bitwise():
    # several panels in one vectorized pass, each equal to scipy's scalar
    # rule; a component that is -0.0 everywhere must sum to +0.0, as
    # scipy's sums start from 0.0
    def g(x):
        return np.array([np.sin(50.0 * x) * np.exp(1j * x), complex(-0.0, x), -0.0j])

    k, a, b = np.array([0, 1, 0]), np.array([0.0, 0.1, -2.0]), np.array([0.1, 3.0, -1.5])
    values, errs, rnds = _panels(per_node(g), k, a, b)
    for lo, hi, value, err, rnd in zip(a.tolist(), b.tolist(), values, errs, rnds):
        want, want_err, want_rnd = _quadrature_gk21(lo, hi, g, _max_norm)
        assert bits(value) == bits(want)
        assert (err, rnd) == (want_err, want_rnd)

    # the scalar form `quad`'s pool evaluates: an integrand that returns
    # one value per flat node gives one value per panel, with a sign
    # change on one panel
    def real(x):
        return x / (0.01 + (x - 0.3) * (x - 0.3))

    values, errs, rnds = _panels(lambda x, row: real(x), k, a, b)
    assert values.shape == a.shape
    for lo, hi, value, err, rnd in zip(a.tolist(), b.tolist(), values, errs, rnds):
        want, want_err, want_rnd = _quadrature_gk21(lo, hi, real, _max_norm)
        assert bits(value) == bits(want)
        assert (err, rnd) == (want_err, want_rnd)


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("epsrel, epsabs", [(1e-8, 1e-200), (1e-10, 1e-12), (1e-13, 0.0)])
def test_matches_scipy_bitwise(name, epsrel, epsabs):
    # the look-ahead only moves where nodes are evaluated, never a value
    g, a, b = INTEGRANDS[name]
    want, want_err = scipy_quad_vec(g, a, b, epsabs=epsabs, epsrel=epsrel, norm="max")
    for trees in (None, [QUARTERS]):
        [(got, got_err)], _ = quad_vec(per_node(g), [(a, b)], epsabs=epsabs, epsrel=epsrel,
                                    trees=trees)
        assert bits(got) == bits(want)
        assert got_err == want_err


def test_rounding_error_stop_matches_scipy():
    # a smooth integrand at epsrel 1e-16: scipy stops on the roundoff
    # estimate (status 2) after its first split
    def g(x):
        return np.array([math.cos(x), complex(math.sin(x), -0.0)])

    want, want_err, info = scipy_quad_vec(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-16, norm="max",
                                          full_output=True)
    assert info.status == 2
    [(got, got_err)], _ = quad_vec(per_node(g), [(0.0, 1.0)], epsabs=0.0, epsrel=1e-16)
    assert bits(got) == bits(want)
    assert got_err == want_err


@pytest.mark.parametrize("g", [
    lambda x: np.array([math.inf if x < 0.5 else 1.0]),
    lambda x: np.array([np.float64(1.0) / (np.float64(x) - 0.25) ** 2]),
], ids=["inf-on-half", "double-pole"])
def test_non_finite_stop_matches_scipy(g):
    # inf on half of [0, 1], or a pole at the centre node of [0, 0.5]:
    # the first split's error is not finite and scipy stops (status 3)
    calls = []

    def f(x, k):
        calls.append(x.size)
        return per_node(g)(x, k)

    with np.errstate(all="ignore"):
        want, want_err, info = scipy_quad_vec(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, norm="max",
                                              full_output=True)
        [(got, got_err)], _ = quad_vec(f, [(0.0, 1.0)], epsabs=0.0, epsrel=1e-10)
    assert info.status == 3
    assert not math.isfinite(got_err)
    # bitwise, so NaN equals NaN
    assert bits(got) == bits(want)
    assert bits(got_err) == bits(want_err)
    assert sum(calls) == info.neval == 63


def test_intervals_in_lockstep_match_scipy_one_by_one():
    # the intervals split different numbers of panels per round and stop
    # in different rounds; each still equals its own scipy run and
    # evaluates scipy's nodes, none twice. With look-ahead it may also
    # evaluate quarters that scipy never reaches, all in the first call:
    # one of the peaked interval's, both of the smooth one's, which stops
    # after its first split
    gs, bounds = LOCKSTEP
    wanted = []
    for g, (a, b) in zip(gs, bounds):
        scipy_nodes = []

        def recorded(x, g=g):
            scipy_nodes.append(x)
            return g(x)

        *want, info = scipy_quad_vec(recorded, a, b, epsabs=1e-12, epsrel=1e-10, norm="max",
                                     full_output=True)
        wanted.append((want, info.neval, set(scipy_nodes)))
    for trees, unused in ((None, (0, 0, 0)), ([QUARTERS] * 3, (0, 42, 84))):
        calls = []

        def f(x, k):
            # one call per round holds the nodes of every interval still splitting
            calls.append((x, k))
            return np.array([gs[interval](node)
                             for node, interval in zip(x.tolist(), k.tolist())])

        got, _ = quad_vec(f, bounds, epsabs=1e-12, epsrel=1e-10, trees=trees)
        assert any(np.unique(k).size > 1 for _, k in calls)
        for k, ((value, err), ((want, want_err), neval, scipy_nodes)) in enumerate(
                zip(got, wanted)):
            assert bits(value) == bits(want)
            assert err == want_err
            nodes = np.concatenate([x[ks == k] for x, ks in calls])
            extra = set(nodes.tolist()) - scipy_nodes
            assert np.unique(nodes).size == nodes.size == neval + len(extra)
            assert len(extra) == unused[k]
            assert extra <= set(calls[0][0][calls[0][1] == k].tolist())


def test_zero_integrand_splits_up_to_the_interval_limit():
    # with epsabs 0 and a zero integral nothing converges, so scipy
    # splits every panel (128 at most per round) until 10000 panels:
    # 1, 2, ..., 128 panels, then 128 more per round up to 10112, which
    # is 10111 splits of 42 evaluations after the first 21. scipy takes
    # about ten times longer to show the same count (424683 evaluations)
    calls = []

    def f(x, k):
        calls.append(x.size)
        return np.zeros((x.size, 1))

    [(value, err)], _ = quad_vec(f, [(0.0, 1.0)], epsabs=0.0, epsrel=1e-8)
    assert sum(calls) == 21 + 42 * 10111
    assert bits(value) == bits(np.zeros(1)) and err == 0.0


def test_first_call_evaluates_each_panel_and_both_its_halves():
    # the first round always splits each interval's one panel, so the
    # first call holds its 21 nodes and the 42 of its halves: the nodes
    # of scipy's first three panels. No node comes again in a later call,
    # and every interval still evaluates scipy's neval nodes
    gs, bounds = LOCKSTEP
    calls = []

    def f(x, k):
        calls.append((x, k))
        return np.array([gs[interval](node) for node, interval in zip(x.tolist(), k.tolist())])

    quad_vec(f, bounds, epsabs=1e-12, epsrel=1e-10)
    assert np.bincount(calls[0][1]).tolist() == [63, 63, 63]
    for k, (g, (a, b)) in enumerate(zip(gs, bounds)):
        scipy_nodes = []

        def recorded(x, g=g):
            scipy_nodes.append(x)
            return g(x)

        *_, info = scipy_quad_vec(recorded, a, b, epsabs=1e-12, epsrel=1e-10, norm="max",
                                  full_output=True)
        first = calls[0][0][calls[0][1] == k]
        assert sorted(first.tolist()) == sorted(scipy_nodes[:63])
        nodes = np.concatenate([x[ks == k] for x, ks in calls])
        assert np.unique(nodes).size == nodes.size == info.neval
        assert sorted(nodes.tolist()) == sorted(scipy_nodes)


def test_zero_integrand_makes_one_call_per_split_round():
    # each interval splits 1, 2, 4, ..., 64 panels in 7 rounds, then 128
    # per round in 78 more up to 10112 panels: 85 rounds, in lockstep.
    # The first call brings the first round's halves, so 85 calls where
    # evaluating the first panels alone would take 86; with look-ahead
    # it brings the second round's quarters as well, so 84
    for trees, first, rounds in ((None, [2 * 63, 2 * 2 * 42], 85),
                                 ([QUARTERS] * 2, [2 * 147], 84)):
        calls = []

        def f(x, k):
            calls.append(x.size)
            return np.zeros((x.size, 1))

        quad_vec(f, [(0.0, 1.0), (-1.0, 0.5)], epsabs=0.0, epsrel=1e-8, trees=trees)
        assert len(calls) == rounds
        assert calls[:len(first) + 1] == first + [2 * 4 * 42]
        assert sum(calls) == 2 * (21 + 42 * 10111)


def plain_nodes(g, a, b, **tols):
    """The node sets of quad_vec's calls on g over [a, b] without look-ahead."""
    calls = []

    def f(x, k):
        calls.append(set(x.tolist()))
        return per_node(g)(x, k)

    quad_vec(f, [(a, b)], trees=None, **tols)
    return calls


def raise_at_unreached_look_ahead_nodes(error):
    """quad_vec on the peaked integrand, raising `error` where the plain process never goes.

    The peaked integrand never splits one quarter that the look-ahead
    evaluates (42 nodes). Raising there fails the first call alone: it
    is made again without the look-ahead, and every later call, the
    value and the error estimate are those of the plain process.
    """
    g, a, b = INTEGRANDS["endpoint-peaked"]
    tols = dict(epsabs=1e-12, epsrel=1e-10)
    plain = plain_nodes(g, a, b, **tols)
    reached = set().union(*plain)
    calls = []

    def f(x, k):
        calls.append(set(x.tolist()))
        if not calls[-1] <= reached:
            raise error("a look-ahead node fails")
        return per_node(g)(x, k)

    [(got, got_err)], _ = quad_vec(f, [(a, b)], trees=[QUARTERS], **tols)
    want, want_err = scipy_quad_vec(g, a, b, norm="max", **tols)
    assert bits(got) == bits(want)
    assert got_err == want_err
    assert [len(nodes) for nodes in calls[:2]] == [147, 63]
    assert len(calls[0] - reached) == 42
    assert calls[1:] == plain


def test_overflow_at_unreached_look_ahead_nodes_changes_no_outcome():
    raise_at_unreached_look_ahead_nodes(OverflowError)


def test_out_of_domain_at_unreached_look_ahead_nodes_changes_no_outcome():
    # both drivers share the first call's guard, and with it a special
    # function's domain error
    raise_at_unreached_look_ahead_nodes(OutOfDomainError)


@pytest.mark.parametrize("call", [0, -1], ids=["first-call", "last-call"])
@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_overflow_at_a_reached_node_raises_as_without_look_ahead(call, error):
    # a node of the plain process's first or last call raises the same
    # exception, message included, with look-ahead as without it; a
    # first call that did not look ahead is not made again
    g, a, b = INTEGRANDS["endpoint-peaked"]
    tols = dict(epsabs=1e-12, epsrel=1e-10)
    plain = plain_nodes(g, a, b, **tols)
    bad = min(plain[call] - plain[0]) if call else min(plain[0])
    made = {}
    for trees in (None, (QUARTERS,)):
        sizes = made[trees] = []

        def f(x, k, sizes=sizes):
            sizes.append(x.size)
            if bad in x.tolist():
                raise error(f"node {bad!r}")
            return per_node(g)(x, k)

        with pytest.raises(error) as raised:
            quad_vec(f, [(a, b)], trees=trees, **tols)
        assert str(raised.value) == f"node {bad!r}"
    plain_sizes = [len(nodes) for nodes in plain]
    assert made[None] == (plain_sizes if call else plain_sizes[:1])
    if not call:
        assert made[(QUARTERS,)] == [147, 63]


def split_codes(leaves, a: float, b: float) -> set:
    """Heap codes of the panels bisection of [a, b] split to reach its final panels `leaves`."""
    codes = set()
    for lo, hi in leaves:
        x1, x2, code = a, b, 1
        while (x1, x2) != (lo, hi):
            codes.add(code)
            mid = 0.5 * (x1 + x2)
            x1, x2, code = (x1, mid, 2 * code) if lo < mid else (mid, x2, 2 * code + 1)
    return codes


@pytest.mark.parametrize("epsrel, epsabs", [(1e-8, 1e-200), (1e-10, 1e-12), (1e-13, 0.0)])
def test_quad_vec_trees_are_the_splits_of_scipy(epsrel, epsabs):
    # each interval's tree is the set of panels scipy split down to 62
    # levels, read off the final panels it reports, whatever tree the
    # intervals look ahead along and whichever intervals run with them
    gs, bounds = LOCKSTEP
    want = []
    for g, (a, b) in zip(gs, bounds):
        *_, info = scipy_quad_vec(g, a, b, epsabs=epsabs, epsrel=epsrel, norm="max",
                                  full_output=True)
        want.append({c for c in split_codes(info.intervals.tolist(), a, b)
                     if c.bit_length() <= 63})

    def f(x, k):
        return np.array([gs[interval](node) for node, interval in zip(x.tolist(), k.tolist())])

    assert all(1 in tree for tree in want)
    for trees in (None, [QUARTERS] * 3, want[::-1]):
        _, got = quad_vec(f, bounds, epsabs=epsabs, epsrel=epsrel, trees=trees)
        assert got == want
    for k, (g, (a, b)) in enumerate(zip(gs, bounds)):
        _, [alone] = quad_vec(per_node(g), [(a, b)], epsabs=epsabs, epsrel=epsrel)
        assert alone == want[k]


@pytest.mark.parametrize("epsrel, epsabs", [(1e-8, 1e-200), (1e-10, 1e-12)])
def test_quad_vec_interval_given_its_own_tree_takes_one_call(epsrel, epsabs):
    # given back, an interval's tree makes the first call evaluate exactly
    # the panels scipy evaluates: one call, no node wasted, the same bits.
    # (At 1e-13 the peaked integrand splits past 62 levels, which no
    # reported tree reaches)
    for name in sorted(INTEGRANDS):
        g, a, b = INTEGRANDS[name]
        tols = dict(epsabs=epsabs, epsrel=epsrel)
        *_, info = scipy_quad_vec(g, a, b, norm="max", full_output=True, **tols)
        [want], [tree] = quad_vec(per_node(g), [(a, b)], **tols)
        calls = []

        def f(x, k, g=g):
            calls.append(x.size)
            return per_node(g)(x, k)

        [got], [again] = quad_vec(f, [(a, b)], trees=[tree], **tols)
        assert bits(got[0]) == bits(want[0]) and got[1] == want[1], name
        assert again == tree
        assert calls == [info.neval] == [21 * (1 + 2 * len(tree))], name


def test_quad_vec_trees_past_62_levels():
    # x^-1/2 at 1e-10 bisects its left end 71 levels down; heap codes stop
    # at 62 levels, so the reported tree is scipy's up to there, and the
    # full tree, codes past int64 included, is a tree like any other
    def g(x):
        return np.array([x ** -0.5])

    tols = dict(epsabs=0.0, epsrel=1e-10)
    want, want_err, info = scipy_quad_vec(g, 0.0, 1.0, norm="max", full_output=True, **tols)
    tree = split_codes(info.intervals.tolist(), 0.0, 1.0)
    assert max(tree).bit_length() == 71
    [(got, got_err)], [split] = quad_vec(per_node(g), [(0.0, 1.0)], **tols)
    assert bits(got) == bits(want) and got_err == want_err
    assert split == {c for c in tree if c.bit_length() <= 63}
    for trees in (tree, split):
        [(again, again_err)], [again_split] = quad_vec(per_node(g), [(0.0, 1.0)],
                                                       trees=[trees], **tols)
        assert bits(again) == bits(want) and again_err == want_err
        assert again_split == split


def test_quad_rows_are_independent():
    # cos(w x) over [a, 3]: slow rows settle on their first panel, so its
    # sum enters the result, fast rows are bisected for several rounds;
    # rows with staggered nonzero lower bounds as well as from zero
    freq = np.arange(1.0, 13.0)
    upper = np.full(freq.size, 3.0)
    for lower in (np.zeros(freq.size), np.linspace(0.2, 1.3, freq.size)):
        together, _ = quad(lambda x, row: np.cos(freq[row] * x), lower, upper, 1e-10)
        for i, w in enumerate(freq):
            alone, _ = quad(lambda x, row: np.cos(w * x), lower[i:i + 1], upper[i:i + 1], 1e-10)
            assert alone[0] == together[i]
        want = (np.sin(freq * upper) - np.sin(freq * lower)) / freq
        assert np.allclose(together, want, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("rel_tol, unmet", [(1e-10, 1), (1e-17, 3)])
def test_quad_warns_once_for_rows_above_tolerance(rel_tol, unmet):
    # the fast row still misses 1e-10 when it reaches 400 panels; no row
    # reaches 1e-17, below the roundoff estimate 50 eps of the integral
    freq = np.array([1.0, 2.0, 3e4])
    evaluated = []

    def f(x, row):
        evaluated.append(row)
        return np.cos(freq[row] * x)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _ = quad(f, np.zeros(3), np.full(3, 3.0), rel_tol)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert str(caught[0].message).startswith(f"{unmet} of 3 integrals stopped above")
    assert np.all(np.isfinite(got))
    assert np.allclose(got[:2], np.sin(3.0 * freq[:2]) / freq[:2], rtol=1e-10, atol=0.0)
    # a row splits only while it holds fewer than 400 panels, so it ends
    # with fewer than 800 and has evaluated fewer than 1600
    panels = np.count_nonzero(np.concatenate(evaluated) == 2) / 21
    assert panels < 1600
    if unmet == 1:
        assert panels >= 400


# each kind of row a bisection meets: `quad` evaluates every row's left
# spine on its first call, and the rows take it or leave it
SPINE_ROWS = {
    # refines toward its left end, past the spine's depth
    "left": (lambda x: 1.0 / (1e-6 + x * x), 0.0, 1.0),
    # refines toward its right end: only the spine's first halves are used
    "right": (lambda x: 1.0 / (1e-6 + (3.0 - x) * (3.0 - x)), 0.0, 3.0),
    "interior": (lambda x: 1.0 / (1e-6 + (x - 1.3) * (x - 1.3)), -0.5, 3.0),
    # exact on its first panel, so it never splits and its spine goes unused
    "first panel": (lambda x: 1.0 + x * x, 0.2, 2.0),
}


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-17])
def test_quad_spine_replays_plain_bisection(rel_tol):
    # each kind alone, the interior and first-panel rows together, and
    # all four together: bitwise the totals, the split trees and the
    # warnings of plain per-row bisection, with no node evaluated twice. At 1e-17, below
    # the roundoff estimate, every row stops above its tolerance. The
    # left row alone splits only its spine in its first three split
    # rounds, so it makes three calls fewer than the 10 (at 1e-10) and
    # 11 (at 1e-17) of plain bisection's one call per round
    pair = ["interior", "first panel"]
    for names in [[name] for name in SPINE_ROWS] + [pair, list(SPINE_ROWS)]:
        gs = [SPINE_ROWS[name][0] for name in names]
        lower = np.array([SPINE_ROWS[name][1] for name in names])
        upper = np.array([SPINE_ROWS[name][2] for name in names])
        calls = []

        def f(x, row):
            calls.append((x, row))
            return np.stack([g(x) for g in gs])[row, np.arange(x.size)]

        results = []
        for integrate in (quad, oracles.bisection_quad):
            calls.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                total, trees = integrate(f, lower, upper, rel_tol)
            results.append((bits(total), trees, [(w.category, str(w.message)) for w in caught]))
            if integrate is quad:
                x, row = (np.concatenate(column) for column in zip(*calls))
                for r in range(len(names)):
                    assert np.unique(x[row == r]).size == np.count_nonzero(row == r), names[r]
                if names == ["left"]:
                    assert len(calls) == {1e-10: 7, 1e-17: 8}[rel_tol]
                if names == pair:
                    # the interior row goes at least 6 levels past the spine's 3
                    # (a panel's nodes span its width times that of [0, 1]'s),
                    # while the first-panel row keeps its first call's nodes
                    spans = np.ptp(x[row == 0].reshape(-1, 21), axis=1)
                    unit = np.ptp(_nodes(np.zeros(1), np.ones(1))[0])
                    assert spans.min() <= unit * (upper[0] - lower[0]) / 2 ** 9
                    assert np.count_nonzero(row == 1) == 147
        assert results[0] == results[1], names
        assert len(results[0][2]) == (rel_tol == 1e-17)


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
def test_quad_fresh_halves_keep_plain_bisection_order(rel_tol):
    # rows peaked inside their interval split mostly panels off the
    # spine. Their sums follow plain bisection's panel order only if the
    # halves evaluated in a round are linked the right way round:
    # swapping them moves 5 to 9 of these 20 totals
    centre = np.linspace(0.3, 2.7, 20)

    def f(x, row):
        return 1.0 / (1e-6 + (x - centre[row]) ** 2)

    lower, upper = np.full(centre.size, -0.5), np.full(centre.size, 3.0)
    got, _ = quad(f, lower, upper, rel_tol)
    assert bits(got) == bits(oracles.bisection_quad(f, lower, upper, rel_tol)[0])


# the interior Lorentzians above, one peak a row
PEAKS = np.linspace(0.3, 2.7, 20)


def lorentzians(calls):
    def f(x, row):
        calls.append((x, row))
        return 1.0 / (1e-6 + (x - PEAKS[row]) ** 2)

    return f


def trees_of(own):
    """Each kind of tree a row may carry, from the rows' own final trees `own`."""
    return {
        "own": own,
        # the top three levels, and every second code, whose parents are
        # often missing: a panel counts only below a split parent
        "subset": [{c for c in tree if c < 8} for tree in own],
        "scattered": [set(sorted(tree)[::2]) for tree in own],
        # every panel of the first five levels besides
        "superset": [tree | set(range(1, 32)) for tree in own],
        # a peak 0.6 away refines elsewhere
        "another row's": own[5:] + own[:5],
        # the leftmost and rightmost descendants of each panel, six levels on
        "deeper": [tree | {(c << j) + k for c in tree for j in range(1, 7)
                           for k in (0, (1 << j) - 1)} for tree in own],
        "none": [None] * len(own),
        "empty": [set() for _ in own],
    }


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-17])
def test_quad_any_tree_replays_plain_bisection(rel_tol):
    # whatever tree each row carries, bitwise the totals, the split trees
    # and the warnings of plain bisection, with no node evaluated twice.
    # At 1e-17, below the roundoff estimate, every row stops above its
    # tolerance. The oracle takes a tree and ignores it
    lower, upper = np.full(PEAKS.size, -0.5), np.full(PEAKS.size, 3.0)

    def outcome(integrate, trees=None):
        calls = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            total, split = integrate(lorentzians(calls), lower, upper, rel_tol, trees)
        return (bits(total), split, [(w.category, str(w.message)) for w in caught]), calls

    want, _ = outcome(oracles.bisection_quad)
    assert len(want[2]) == (rel_tol == 1e-17)
    own = want[1]
    for kind, trees in trees_of(own).items():
        got, calls = outcome(quad, trees)
        assert got == want, kind
        x, row = (np.concatenate(column) for column in zip(*calls))
        for r in range(PEAKS.size):
            assert np.unique(x[row == r]).size == np.count_nonzero(row == r), (kind, r)
    assert outcome(oracles.bisection_quad, own)[0] == want


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
def test_quad_row_given_its_own_tree_takes_one_call(rel_tol):
    # the tree a row reports is the panels plain bisection split, so given
    # back it makes the first call evaluate exactly the panels bisection
    # reaches: one call, no node wasted. The left spine takes 10 or 11
    lower, upper = np.full(PEAKS.size, -0.5), np.full(PEAKS.size, 3.0)
    spine, again = [], []
    total, own = quad(lorentzians(spine), lower, upper, rel_tol)
    assert len(spine) >= 10
    again_total, again_own = quad(lorentzians(again), lower, upper, rel_tol, own)
    assert bits(again_total) == bits(total) and again_own == own
    assert [x.size for x, _ in again] == [21 * (PEAKS.size + 2 * sum(map(len, own)))]


def test_quad_trees_past_62_levels():
    # x^-1/2 at 1e-12 bisects its left end 77 levels down; heap codes stop
    # at 62 levels, so the reported tree is plain bisection's up to there,
    # and the full tree, codes past int64 included, is a tree like any other
    lower, upper = np.zeros(1), np.ones(1)

    def f(x, row):
        return x ** -0.5

    want, tree = oracles.bisection_quad(f, lower, upper, 1e-12)
    assert max(tree[0]).bit_length() == 78
    got, split = quad(f, lower, upper, 1e-12)
    assert bits(got) == bits(want)
    assert split[0] == {c for c in tree[0] if c.bit_length() <= 63}
    for trees in (tree, split):
        again, again_split = quad(f, lower, upper, 1e-12, trees)
        assert bits(again) == bits(want) and again_split == split


def test_quad_path_node_that_raises_changes_no_outcome():
    # the integrand raises at every node plain bisection does not reach; a
    # tree 9 levels down toward each row's upper end holds such nodes, so
    # the first call raises and is made again on the rows' panels alone
    lower, upper = np.full(PEAKS.size, -0.5), np.full(PEAKS.size, 3.0)
    right = [{(1 << level) - 1 for level in range(1, 10)}] * PEAKS.size
    plain = []
    want, _ = oracles.bisection_quad(lorentzians(plain), lower, upper, 1e-8)
    reached = {(node, row) for x, rows in plain for node, row in zip(x.tolist(), rows.tolist())}
    calls = []
    g = lorentzians([])

    def f(x, row):
        calls.append(x.size)
        if not reached.issuperset(zip(x.tolist(), row.tolist())):
            raise OutOfDomainError("a node plain bisection does not reach")
        return g(x, row)

    got, _ = quad(f, lower, upper, 1e-8, right)
    assert bits(got) == bits(want)
    assert calls[:2] == [21 * PEAKS.size * 19, 21 * PEAKS.size]

    def everywhere(x, row):
        calls.append(x.size)
        raise OutOfDomainError("every node")

    # a node plain bisection reaches raises as it would there. With every
    # row's tree empty the first call is plain bisection's own, so it is
    # not made again
    for trees, sizes in ((right, [21 * PEAKS.size * 19, 21 * PEAKS.size]),
                         ([()] * PEAKS.size, [21 * PEAKS.size])):
        calls.clear()
        with pytest.raises(OutOfDomainError, match="every node"):
            quad(everywhere, lower, upper, 1e-8, trees)
        assert calls == sizes


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
def test_quad_rows_that_stop_within_their_spine(rel_tol):
    # rows falling off from their lower ends split nothing but their
    # spine and stop within three split rounds, so one call serves them
    # all. Their sums still follow plain bisection's panel order: taking
    # a spine pair's halves the wrong way round moves 2 to 4 totals
    w = np.geomspace(0.01, 3.0, 30)
    calls = []

    def f(x, row):
        calls.append(x.size)
        return 1.0 / (w[row] + x * x * x)

    lower, upper = np.zeros(w.size), np.full(w.size, 2.0)
    got, _ = quad(f, lower, upper, rel_tol)
    assert calls == [147 * w.size]
    assert bits(got) == bits(oracles.bisection_quad(f, lower, upper, rel_tol)[0])


def test_quad_first_call_evaluates_each_row_and_its_left_spine():
    # 7 panels a row: its own, the halves of it, of its left half and of
    # its left quarter, 147 nodes with none twice; rows starting at 0
    # and elsewhere
    rows = []

    def f(x, row):
        rows.append((x, row))
        return np.cos(3.0 * x)

    lower, upper = np.array([0.0, 0.2, -1.0]), np.array([3.0, 1.0, 2.0])
    quad(f, lower, upper, 1e-10)
    x, row = rows[0]
    assert np.bincount(row).tolist() == [147, 147, 147]
    for r, (lo, hi) in enumerate(zip(lower.tolist(), upper.tolist())):
        panels = [(lo, hi)]
        end = hi
        for _ in range(3):
            mid = 0.5 * (lo + end)
            panels += [(lo, mid), (mid, end)]
            end = mid
        want = _nodes(*map(np.array, zip(*panels)))[0].ravel()
        got = x[row == r]
        assert np.unique(got).size == got.size
        assert sorted(got.tolist()) == sorted(want.tolist())
