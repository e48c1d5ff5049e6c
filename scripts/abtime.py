#!/usr/bin/env python3
"""In-process A/B timing of two source trees, interleaved to cancel host drift.

Copies the `mesoqed` package of each --src tree into a temporary
directory under a name of its own (`mesoqed_a`, `mesoqed_b`), imports both
into one process and times seeded calls in alternating chunks: a chunk's
inputs run on A and then on B, the next chunk's on B and then on A. So a
drift of the host's speed slower than a chunk falls on both trees alike.
Each workload first warms both trees on the same inputs, so their caches
are full. Prints, per workload, each tree's median time per call over
the chunks and the median and quartiles of the chunks' time ratio B/A
(below 1: B is faster):

    python3 scripts/abtime.py --src old/src --src src
    python3 scripts/abtime.py --src old/src --src src --workloads interface --chunks 80

Workloads:
    interface    `interface_point` at seeded heights 20-1000 nm above the
                 paper GaAs/Ag interface, 50 calls a chunk
    background   `quasistatic_background` of the paper wire at seeded
                 distances 10-300 nm, both orientations, 5 calls a chunk

Uses only the standard library and the package.
"""

import argparse
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

NAMES = ("mesoqed_a", "mesoqed_b")


def interface(package: str):
    halfspace = importlib.import_module(f"{package}.halfspace")
    moments = importlib.import_module(f"{package}.core").paper_moments()
    return lambda h: halfspace.interface_point(halfspace.paper_interface(h), moments)


def background(package: str):
    nanowire = importlib.import_module(f"{package}.nanowire")
    wire = nanowire.paper_wire()
    return lambda point: nanowire.quasistatic_background(wire, *point)


# name -> (calls of one tree, input drawn from a seeded random.Random, calls per chunk, warm-up)
WORKLOADS = {
    "interface": (interface, lambda rng: rng.uniform(20.0, 1000.0), 50, 200),
    "background": (background, lambda rng: (rng.uniform(10.0, 300.0),
                                            rng.choice(("axial", "radial"))), 5, 40),
}


def load(src: Path, name: str, into: Path) -> bool:
    """Copy src's mesoqed package to into/name; False if src holds none."""
    package = src / "mesoqed"
    if not (package / "__init__.py").is_file():
        print(f"abtime: no mesoqed package under {src}", file=sys.stderr)
        return False
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return True


def elapsed(call, inputs: list) -> float:
    start = time.perf_counter()
    for x in inputs:
        call(x)
    return time.perf_counter() - start


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(workload: str, chunks: int, seed: int) -> str:
    make, draw, size, warm = WORKLOADS[workload]
    calls = [make(name) for name in NAMES]
    rng = random.Random(seed)
    inputs = [draw(rng) for _ in range(warm)]
    for call in calls:
        elapsed(call, inputs)
    times = [[], []]
    for chunk in range(chunks):
        inputs = [draw(rng) for _ in range(size)]
        for side in ((0, 1) if chunk % 2 == 0 else (1, 0)):
            times[side].append(elapsed(calls[side], inputs) / size)
    ratio = quartiles([b / a for a, b in zip(*times)])
    a_ms, b_ms = (1e3 * statistics.median(t) for t in times)
    return (f"{workload}: A {a_ms:.4f} ms, B {b_ms:.4f} ms per call; B/A median {ratio[1]:.4f} "
            f"[q1 {ratio[0]:.4f}, q3 {ratio[2]:.4f}] over {chunks} chunks of {size}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="directory that holds a mesoqed package: A first, then B")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS, reverse=True))
    parser.add_argument("--chunks", type=int, default=40, help="timed chunks per tree")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if len(args.src) != 2:
        parser.error("give --src twice: tree A, then tree B")
    if args.chunks < 4:
        parser.error("--chunks must be at least 4")
    with tempfile.TemporaryDirectory() as tmp:
        if not all(load(src.resolve(), name, Path(tmp)) for src, name in zip(args.src, NAMES)):
            return 2
        sys.path.insert(0, tmp)
        for src, name in zip(args.src, NAMES):
            print(f"{name[-1].upper()}: {src}", flush=True)
        for workload in args.workloads:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the wire's accepted stalls, on both trees
                print(run(workload, args.chunks, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
