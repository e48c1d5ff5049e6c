"""Spans and counters around the library's layer boundaries.

The tracer replaces module attributes of the library from outside: the
public functions of ``halfspace``, ``nanowire`` and ``rates`` become
span wrappers, the integrator names that ``halfspace`` and ``nanowire``
import (``quad_vec``, ``quad``) become span wrappers that also count
integrand evaluations, and the ``specfun`` Bessel pairs, called tens of
thousands of times per wire point, become counters that add their time
to the enclosing span instead of recording a span each. Nothing inside
the program changes, and ``uninstall`` puts every original back.

A span is ``[id, parent id, trace id, name, start, end, child time]``.
Spans of one workload point share its trace id. Child time is the part
of a span covered by its children (single-threaded, so children nest
and never overlap); self time is the duration minus that.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from mesoqed import halfspace, nanowire, rates, specfun

SPANNED = (
    (halfspace, "interface_point"),
    (rates, "rate_ladder"),
    (rates, "md_eq_split"),
    (nanowire, "plasmon_rates"),
    (nanowire, "quasistatic_background"),
)
COUNTED = (
    (specfun, "bessel_ik_scaled"),
    (specfun, "bessel_ik"),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _name(module, attr: str) -> str:
    return f"{_short(module)}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace_id = None
        self.integrand_evals = defaultdict(int)
        self.leaves = {_name(m, a): [0, 0, 0.0] for m, a in COUNTED}  # calls, elements, busy
        self.miss_ms = []
        self._stack = []
        self._saved = []

    # ----------------------------------------------------------- wrappers

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][0] if stack else None, self.trace_id,
                   name, perf_counter(), 0.0, 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][6] += rec[5] - rec[4]

        return wrapper

    def _leaf(self, name: str, fn):
        stat, stack = self.leaves[name], self._stack

        def wrapper(order, z):
            t0 = perf_counter()
            try:
                return fn(order, z)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += np.size(z)
                stat[2] += dt
                if stack:
                    stack[-1][6] += dt

        return wrapper

    def _counting(self, module: str, integrand):
        evals = self.integrand_evals

        def counted(*args):
            evals[module] += 1
            return integrand(*args)

        return counted

    def _integrator(self, module, attr: str):
        orig = getattr(module, attr)
        key = _short(module)

        def integrate(func, *args, **kwargs):
            return orig(self._counting(key, func), *args, **kwargs)

        return self.span(_name(module, attr), integrate)

    def _solve_dispersion(self):
        orig = nanowire.solve_dispersion

        def solve(geom):
            misses = orig.cache_info().misses
            t0 = perf_counter()
            try:
                return orig(geom)
            finally:
                if orig.cache_info().misses > misses:
                    self.miss_ms.append((perf_counter() - t0) * 1e3)

        return self.span("nanowire.solve_dispersion", solve)

    # ------------------------------------------------------ install/remove

    def install(self) -> None:
        patches = [(m, a, self.span(_name(m, a), getattr(m, a))) for m, a in SPANNED]
        patches += [(m, a, self._leaf(_name(m, a), getattr(m, a))) for m, a in COUNTED]
        patches += [(halfspace, "quad_vec", self._integrator(halfspace, "quad_vec")),
                    (nanowire, "quad", self._integrator(nanowire, "quad")),
                    (nanowire, "solve_dispersion", self._solve_dispersion())]
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    # ------------------------------------------------------------ results

    def durations(self, name: str) -> list:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def self_time(self, name: str) -> float:
        return sum(s[5] - s[4] - s[6] for s in self.spans if s[3] == name)

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, trace, name, start, end, child in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "trace": trace, "name": name,
                    "start": start - t0, "end": end - t0, "self": end - start - child,
                }) + "\n")
