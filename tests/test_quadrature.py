"""The in-package G10/K21 integrators against scipy.integrate.

`quadrature.quad_vec` must reproduce scipy's max-norm quad_vec decision
for decision, so value and error estimate are compared bitwise (sign of
zero included), never to a tolerance. `quadrature.quad` shares the panel
rule; its rows must not depend on each other.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad_vec as scipy_quad_vec
from scipy.integrate._quad_vec import _max_norm, _quadrature_gk21

from mesoqed.quadrature import _gk21, _row_panels, quad, quad_vec

ALPHA = np.linspace(0.1, 3.0, 4)

INTEGRANDS = {
    # many sign changes over the interval
    "oscillatory": (lambda x: np.sin(50.0 * x) * np.exp(1j * x * ALPHA), 0.0, 3.0),
    # a Lorentzian at the left end and an integrable x^-1/2 singularity
    "endpoint-peaked": (lambda x: np.array([1.0 / (1e-4 + x * x), x ** -0.5 + 0j]), 0.0, 1.0),
    # real vector with a signed-zero component
    "real": (lambda x: np.array([math.exp(-x), -0.0, x ** 3]), -1.0, 2.0),
}


def bits(value):
    return np.asarray(value).dtype, np.asarray(value).tobytes()


def test_panel_rule_matches_scipy_bitwise():
    # several panels in one vectorized pass, each equal to scipy's scalar
    # rule; a component that is -0.0 everywhere must sum to +0.0, as
    # scipy's sums start from 0.0
    def g(x):
        return np.array([np.sin(50.0 * x) * np.exp(1j * x), complex(-0.0, x), -0.0j])

    panels = [(0, 0.0, 0.1), (1, 0.1, 3.0), (0, -2.0, -1.5)]
    values, errs, rnds = _gk21(lambda x, k: g(x), panels)
    for (_, a, b), value, err, rnd in zip(panels, values, errs, rnds):
        want, want_err, want_rnd = _quadrature_gk21(a, b, g, _max_norm)
        assert bits(value) == bits(want)
        assert (err, rnd) == (want_err, want_rnd)

    # the one-component form `quad` evaluates: an array integrand of the
    # flat nodes, shaped (panels, 21, 1), with a sign change on one panel
    def real(x):
        return x / (0.01 + (x - 0.3) * (x - 0.3))

    a = np.array([p[1] for p in panels])
    b = np.array([p[2] for p in panels])
    columns = _row_panels(lambda x, row: real(x), np.arange(a.size), a, b)
    for lo, hi, value, err, rnd in columns.T:
        want, want_err, want_rnd = _quadrature_gk21(lo, hi, lambda x: np.array([real(x)]),
                                                    _max_norm)
        assert bits(value) == bits(want[0])
        assert (err, rnd) == (want_err, want_rnd)


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("epsrel, epsabs", [(1e-8, 1e-200), (1e-10, 1e-12), (1e-13, 0.0)])
def test_matches_scipy_bitwise(name, epsrel, epsabs):
    g, a, b = INTEGRANDS[name]
    want, want_err = scipy_quad_vec(g, a, b, epsabs=epsabs, epsrel=epsrel, norm="max")
    [(got, got_err)] = quad_vec(lambda x, k: g(x), [(a, b)], epsabs=epsabs, epsrel=epsrel)
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
    [(got, got_err)] = quad_vec(lambda x, k: g(x), [(0.0, 1.0)], epsabs=0.0, epsrel=1e-16)
    assert bits(got) == bits(want)
    assert got_err == want_err


def test_intervals_in_lockstep_match_scipy_one_by_one():
    # the intervals split different numbers of panels per round and stop
    # in different rounds; each still equals its own scipy run
    gs = [lambda x: np.sin(50.0 * x) * np.exp(1j * x * ALPHA[:2]),
          INTEGRANDS["endpoint-peaked"][0],
          lambda x: np.array([complex(math.cos(x), -x), -0.0j])]
    bounds = [(0.0, 3.0), (0.0, 1.0), (-1.0, 2.0)]
    calls = []

    def f(x, k):
        calls.append(k)
        return gs[k](x)

    got = quad_vec(f, bounds, epsabs=1e-12, epsrel=1e-10)
    for k, ((value, err), g, (a, b)) in enumerate(zip(got, gs, bounds)):
        want, want_err, info = scipy_quad_vec(g, a, b, epsabs=1e-12, epsrel=1e-10, norm="max",
                                              full_output=True)
        assert bits(value) == bits(want)
        assert err == want_err
        assert calls.count(k) == info.neval


def test_zero_integrand_splits_up_to_the_interval_limit():
    # with epsabs 0 and a zero integral nothing converges, so scipy
    # splits every panel (128 at most per round) until 10000 panels:
    # 1, 2, ..., 128 panels, then 128 more per round up to 10112, which
    # is 10111 splits of 42 evaluations after the first 21. scipy takes
    # about ten times longer to show the same count (424683 evaluations)
    calls = []

    def f(x, k):
        calls.append(x)
        return np.zeros(1)

    [(value, err)] = quad_vec(f, [(0.0, 1.0)], epsabs=0.0, epsrel=1e-8)
    assert len(calls) == 21 + 42 * 10111
    assert bits(value) == bits(np.zeros(1)) and err == 0.0


def test_quad_rows_are_independent():
    # cos(w x) over [a, 3]: slow rows settle on their first panel, so its
    # sum enters the result, fast rows are bisected for several rounds;
    # rows with staggered nonzero lower bounds as well as from zero
    freq = np.arange(1.0, 13.0)
    upper = np.full(freq.size, 3.0)
    for lower in (np.zeros(freq.size), np.linspace(0.2, 1.3, freq.size)):
        together = quad(lambda x, row: np.cos(freq[row] * x), lower, upper, 1e-10)
        for i, w in enumerate(freq):
            alone = quad(lambda x, row: np.cos(w * x), lower[i:i + 1], upper[i:i + 1], 1e-10)
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
        got = quad(f, np.zeros(3), np.full(3, 3.0), rel_tol)
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
