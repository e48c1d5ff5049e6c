"""mesoqed benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload wire-sweep --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the package from its src/.
One process, one closed-loop caller: the next point starts when the
previous one has returned. The timed phase lasts at least --seconds and
at least MIN_POINTS points, so that point_p90_ms always has ten samples
above it; a wire-sweep point takes about 0.3 s, so that workload
measures about 30 s whatever --seconds says.

--trace 0 prints the end-to-end metrics: set-up time of a fresh
interpreter, points per second, per-point latency, the wall time of the
workload's CLI command in a fresh process and the peak RSS of this
process. The set-up and CLI samples are taken between four slices of
the timed phase, not in one block. The point timings are scaled to a
reference host speed by calibration slices taken between the points
(calibration.py), because the host's speed drifts over minutes.
--trace 1 wraps the library's layers (tracing.py), runs the same inputs
traced and then untraced, requires identical rows from both, and prints
the per-layer metrics, unscaled. Both modes run the correctness gate
(check.py) after the timed phase.

The last line of standard output is the result as one JSON object; the
full record of the run, with the generated input properties, the
environment and the point timings before scaling, goes to .bench_out/
in the checkout, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from time import perf_counter

import numpy as np

import source

MIN_POINTS = 100
# point work between two calibration slices of the timed phase
SEGMENT_S = 0.25
SAMPLES = 5
# CLI samples in each of the SAMPLES rounds: a CLI sample varies more
# than a set-up sample, so its median is taken over more of them
CLI_PER_ROUND = 2
WORKER_SAMPLES = 2
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(values, q))


def child(argv: list, env: dict):
    """Run the interpreter in a fresh process; (wall seconds, completed process)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=source.ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def setup_sample(env: dict) -> float:
    """Fresh interpreter until mesoqed and its CLI are imported."""
    dt, proc = child(["-c", "import mesoqed.cli"], env)
    if proc.returncode != 0:
        raise SystemExit(f"bench: importing mesoqed.cli failed:\n{proc.stderr}")
    return dt


def cli_sample(argv: list, env: dict):
    return child(["-m", "mesoqed.cli", *argv], env)


def import_seconds(env: dict) -> dict:
    """Cumulative import times from -X importtime, median of a few runs."""
    wanted = ("mesoqed.cli", "scipy.integrate")
    samples = {name: [] for name in wanted}
    for _ in range(IMPORT_SAMPLES):
        _, proc = child(["-X", "importtime", "-c", "import mesoqed.cli"], env)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[-1].strip() in wanted:
                found[parts[-1].strip()] = int(parts[1]) / 1e6
        for name in wanted:
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def cli_problems(wl, argv: list, procs: list, rows: dict) -> list:
    """Exit codes, byte-identical output across samples, and the rows."""
    problems = [f"mesoqed {' '.join(argv)} exited {p.returncode}: {p.stderr.strip()}"
                for p in procs if p.returncode != 0]
    if problems:
        return problems
    if len({p.stdout for p in procs}) > 1:
        problems.append("identical CLI runs printed different output")
    return problems + wl.cli_problems(procs[0].stdout, argv, rows)


def timed_phase(records: list, stream, seconds: float, run, min_points: int = 0) -> float:
    """Closed loop over the stream for `seconds` and at least `min_points` records."""
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or len(records) < min_points:
        records.append(run(len(records), next(stream)))
    return perf_counter() - t0


def calibrated_phase(records: list, segment_of: list, stream, seconds: float, run, cal,
                     min_points: int = 0) -> None:
    """timed_phase with a calibration slice after every SEGMENT_S of
    points; segment_of[i] is the index of the slice after point i."""
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or len(records) < min_points:
        first, s0 = len(records), perf_counter()
        while perf_counter() - s0 < SEGMENT_S:
            records.append(run(len(records), next(stream)))
        segment_of += [cal.slice()] * (len(records) - first)


def environment() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def plain_run(wl, args, env):
    import check
    from calibration import Calibration
    from workloads import run_point

    argv = wl.cli_argv(list(islice(wl.points(args.seed), wl.block_size)))
    stream = wl.points(args.seed)
    cal = Calibration()
    records, segment_of, setup, cli_times, procs = [], [], [], [], []
    # Set-up and CLI samples alternate with slices of the timed phase, so
    # every metric of a run covers the same stretch of host load.
    for k in range(SAMPLES):
        setup.append(setup_sample(env))
        for _ in range(CLI_PER_ROUND):
            dt, proc = cli_sample(argv, env)
            cli_times.append(dt)
            procs.append(proc)
        if k < SAMPLES - 1:
            last = k == SAMPLES - 2
            calibrated_phase(records, segment_of, stream, args.seconds / (SAMPLES - 1),
                             lambda i, p: run_point(wl.run, p), cal, MIN_POINTS if last else 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate = check.gate(wl, records, args.seed)
    rows = {r.point: r.row for r in records if r.row is not None}
    gate.problems += cli_problems(wl, argv, procs, rows)
    # a point is scaled by the slices around it, known only now
    factors = [cal.factor(seg) for seg in segment_of]
    busy = sum(r.seconds * f for r, f in zip(records, factors))
    ok = [r.seconds * f for r, f in zip(records, factors) if r.error is None]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (len(ok) / busy, "1/s"),
        "point_p50_ms": (percentile(ok, 50) * 1e3, "ms"),
        "point_p90_ms": (percentile(ok, 90) * 1e3, "ms"),
        "cli_s": (statistics.median(cli_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_busy = sum(r.seconds for r in records)
    raw_ok = [r.seconds for r in records if r.error is None]
    measured = {
        "points_per_s": len(raw_ok) / raw_busy,
        "point_p50_ms": percentile(raw_ok, 50) * 1e3,
        "point_p90_ms": percentile(raw_ok, 90) * 1e3,
    }
    detail = {"busy_s": raw_busy, "latency_samples": len(ok),
              "measured": measured, "host_factor_median": statistics.median(factors),
              "setup_samples_s": setup, "cli_argv": argv, "cli_samples_s": cli_times,
              "point_s": [r.seconds for r in records], "point_slice": segment_of,
              "slice_s": cal.slices}
    return records, gate, metrics, detail


def traced_run(wl, args, env):
    import check
    from mesoqed import nanowire
    from tracing import Tracer
    from workloads import run_point

    imports = import_seconds(env)
    solver = nanowire.solve_dispersion
    solver.cache_clear()
    tracer = Tracer()
    point_span = tracer.span("bench.point", wl.run)

    def traced(i, p):
        tracer.trace_id = i
        return run_point(point_span, p)

    records = []
    tracer.install()
    try:
        wall = timed_phase(records, wl.points(args.seed), args.seconds, traced, MIN_POINTS)
        cache = solver.cache_info()
    finally:
        tracer.uninstall()

    solver.cache_clear()
    t0 = perf_counter()
    replay = [run_point(wl.run, r.point) for r in records]
    untraced_wall = perf_counter() - t0

    gate = check.gate(wl, records, args.seed)
    mismatched = [r.point for r, u in zip(records, replay)
                  if r.row != u.row or type(r.error) is not type(u.error)]
    if mismatched:
        gate.problems.append(f"traced and untraced rows differ at {mismatched[:5]}")

    rows = {r.point: r.row for r in records if r.row is not None}
    argv = wl.cli_argv(list(islice(wl.points(args.seed), wl.block_size)))
    nproc = len(os.sched_getaffinity(0))
    serial, parallel = [], []
    for workers, times in ((1, serial), (nproc, parallel)):
        wargv = argv + ["--workers", str(workers)]
        samples = [cli_sample(wargv, env) for _ in range(WORKER_SAMPLES)]
        times += [dt for dt, _ in samples]
        gate.problems += cli_problems(wl, wargv, [p for _, p in samples], rows)

    n = len(records)
    ip = tracer.durations("halfspace.interface_point")
    qb = tracer.durations("nanowire.quasistatic_background")
    sd = tracer.durations("nanowire.solve_dispersion")
    pr = tracer.durations("nanowire.plasmon_rates")
    scaled = tracer.leaves["specfun.bessel_ik_scaled"]
    plain = tracer.leaves["specfun.bessel_ik"]
    evals = tracer.integrand_evals
    metrics = {
        "import.mesoqed_s": (imports["mesoqed.cli"], "s"),
        "import.scipy_integrate_s": (imports["scipy.integrate"], "s"),
        "halfspace.interface_point.calls": (len(ip), "count"),
        "halfspace.interface_point.busy_s": (sum(ip), "s"),
        "halfspace.interface_point.p50_ms": (percentile(ip, 50) * 1e3, "ms"),
        "halfspace.interface_point.p90_ms": (percentile(ip, 90) * 1e3, "ms"),
        "halfspace.interface_point.share": (sum(ip) / wall, "1"),
        "halfspace.quad_vec.calls": (len(tracer.durations("halfspace.quad_vec")), "count"),
        "halfspace.integrand_evals": (evals["halfspace"], "count"),
        "halfspace.integrand_evals_per_point": (evals["halfspace"] / n, "count"),
        "rates.rate_ladder.busy_s": (sum(tracer.durations("rates.rate_ladder")), "s"),
        "rates.md_eq_split.busy_s": (sum(tracer.durations("rates.md_eq_split")), "s"),
        "nanowire.quasistatic_background.calls": (len(qb), "count"),
        "nanowire.quasistatic_background.busy_s": (sum(qb), "s"),
        "nanowire.quasistatic_background.self_s":
            (tracer.self_time("nanowire.quasistatic_background"), "s"),
        "nanowire.quasistatic_background.p50_ms": (percentile(qb, 50) * 1e3, "ms"),
        "nanowire.quasistatic_background.p90_ms": (percentile(qb, 90) * 1e3, "ms"),
        "nanowire.quasistatic_background.share": (sum(qb) / wall, "1"),
        "nanowire.quad.calls": (len(tracer.durations("nanowire.quad")), "count"),
        "nanowire.integrand_evals": (evals["nanowire"], "count"),
        "nanowire.integrand_evals_per_point": (evals["nanowire"] / n, "count"),
        "nanowire.solve_dispersion.cache_hits": (cache.hits, "count"),
        "nanowire.solve_dispersion.cache_misses": (cache.misses, "count"),
        "nanowire.solve_dispersion.miss_p50_ms": (percentile(tracer.miss_ms, 50), "ms"),
        "nanowire.solve_dispersion.miss_p90_ms": (percentile(tracer.miss_ms, 90), "ms"),
        "nanowire.solve_dispersion.busy_s": (sum(sd), "s"),
        "nanowire.solve_dispersion.share": (sum(sd) / wall, "1"),
        "nanowire.plasmon_rates.busy_s": (sum(pr), "s"),
        "nanowire.plasmon_rates.p50_us": (percentile(pr, 50) * 1e6, "us"),
        "specfun.bessel_ik_scaled.calls": (scaled[0], "count"),
        "specfun.bessel_ik_scaled.elements": (scaled[1], "count"),
        "specfun.bessel_ik_scaled.busy_s": (scaled[2], "s"),
        "specfun.bessel_ik.calls": (plain[0], "count"),
        "specfun.bessel_ik.elements": (plain[1], "count"),
        "specfun.bessel_ik.busy_s": (plain[2], "s"),
        "specfun.share": ((scaled[2] + plain[2]) / wall, "1"),
        "cli.workers_speedup": (statistics.median(serial) / statistics.median(parallel), "1"),
        "check.max_rel_dev": (gate.max_rel_dev, "1"),
        "check.failed_frac": (gate.failed / n, "1"),
        "trace.overhead_frac": (wall / untraced_wall - 1.0, "1"),
    }
    spans_path = source.ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    detail = {"traced_s": wall, "untraced_s": untraced_wall, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(source.ROOT)), "cli_argv": argv,
              "cli_workers": nproc, "cli_serial_s": serial, "cli_parallel_s": parallel}
    return records, gate, metrics, detail


def main(argv=None) -> int:
    env = source.use_checkout_source()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="mesoqed benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    records, gate, metrics, detail = (traced_run if args.trace else plain_run)(wl, args, env)

    result = {
        "correct": gate.correct,
        "attempted": len(records),
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": wl.describe([r.point for r in records]),
        "environment": environment(),
        "known_failures": dict(gate.known_failures),
        "problems": gate.problems[:20],
        **detail,
        "result": result,
    }
    out = source.ROOT / ".bench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"inputs: {json.dumps(record['inputs'])}")
    print(f"environment: {json.dumps(record['environment'])}")
    for problem in gate.problems[:20]:
        print(f"PROBLEM {problem}")
    for label, count in gate.known_failures.items():
        print(f"known failure: {count} x {label}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for name, value in detail.get("measured", {}).items():
        print(f"measured {name:39s} {value:14.6g} {metrics[name][1]} (before scaling)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
