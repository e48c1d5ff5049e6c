"""The benchmark's tracer and workloads still fit the library.

`bench/run.py --trace 1` wraps the library's layers with
`bench/tracing.py` and requires the traced rows to equal the untraced
ones. This runs single points of the two sweep workloads the same way,
so a change that breaks the tracer's patch list (a renamed module
attribute, an integrator no longer imported at module level, a cache
that is gone) fails in the test suite, not first in the benchmark. The
bench files are loaded as they are.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mesoqed import halfspace, nanowire

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

PATCHED = (*tracing.SPANNED, *tracing.COUNTED, (halfspace, "quad_vec"),
           (nanowire, "quad"), (nanowire, "solve_dispersion"))

CASES = {
    "iface": ("iface-sweep", 155.0,
              {"halfspace.interface_point", "halfspace.quad_vec", "rates.rate_ladder",
               "rates.md_eq_split"}),
    "wire-axial": ("wire-sweep", (55.0, nanowire.AXIAL),
                   {"nanowire.plasmon_rates", "nanowire.solve_dispersion",
                    "nanowire.quasistatic_background", "rates.rate_ladder"}),
    "wire-radial": ("wire-sweep", (55.0, nanowire.RADIAL),
                    {"nanowire.plasmon_rates", "nanowire.quasistatic_background"}),
    # a wire and a metal no other test solves: the traced run pays the
    # cold mode solve, and interface_point runs on a non-paper metal
    "geometry": ("geometry-scan", (41.0, 950.0, 0.18 + 7.2j),
                 {"nanowire.solve_dispersion", "nanowire.plasmon_rates",
                  "halfspace.interface_point", "halfspace.quad_vec", "rates.rate_ladder"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_point_matches_untraced_point(case):
    name, point, spans = CASES[case]
    wl = workloads.WORKLOADS[name]
    originals = {(module, attr): getattr(module, attr) for module, attr in PATCHED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run_point(wl.run, point)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn for (module, attr), fn in originals.items())
    untraced = workloads.run_point(wl.run, point)

    assert traced.error is None and untraced.error is None
    assert traced.row == untraced.row
    assert wl.problems(point, untraced.row, untraced.keep) == []
    assert spans <= {span[3] for span in tracer.spans}
    if name != "wire-sweep":
        assert tracer.integrand_evals["halfspace"] > 0
    if name != "iface-sweep":
        assert tracer.leaves["specfun.bessel_ik_scaled"][0] > 0
    if name == "geometry-scan":
        assert len(tracer.miss_ms) == 1
