#!/usr/bin/env python3
"""Fingerprints of the printed and computed bits, to compare two source trees.

Prints one `name sha256` line per check:
    cli ...           stdout, stderr and exit code of one CLI run, each in a
                      fresh process
    point ...         float.hex of every InterfacePoint value, sign of zero
                      included, at 154 seeded heights from 1 nm to 1e5 nm
                      (a 1 nm dot), one `interface_point` per height: first
                      in a seeded shuffled order, so that a height looks
                      ahead along trees its neighbours split, then in
                      order in both mountings
    sweep ...         the same heights through `interface_sweep` at three
                      tolerances
    point interleaved the shuffled heights as one stream that changes the
                      lower medium at every point and the tolerance at
                      every fourth, so each contour's memos are used
                      again after those of other geometries
    background ...    `quasistatic_background` of the paper wire on two
                      distance grids, both orientations, with the text of
                      each warning and error
A failure is fingerprinted by its type and message, so a check passes only
where both trees fail alike. Run it on each tree and compare the outputs:

    python3 scripts/bitcheck.py --src old/src > old.txt
    python3 scripts/bitcheck.py > new.txt
    diff old.txt new.txt

Uses only the standard library and the package; runs in well under a minute.
"""

import argparse
import hashlib
import itertools
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

CLI_RUNS = [
    ["interface-sweep", "--range", "20:1000:5"],
    ["interface-sweep", "--range", "20:1000:5", "--ratio", "-10"],
    ["interface-sweep", "--range", "20:1000:5", "--metal-n", "7j"],
    ["interface-sweep", "--range", "20:1000:5", "--metal-n", "0.05+3.4205j", "--lqd", "5"],
    ["interface-sweep", "--range", "20:1000:5", "--metal-n", "1.5+0.1j"],
    ["interface-sweep", "--range", "20:1000:5", "--workers", "2"],
    ["nanowire-sweep", "--range", "10:300:5", "--orientation", "axial"],
    ["nanowire-sweep", "--range", "10:300:5", "--orientation", "radial"],
    ["nanowire-sweep", "--range", "10:300:5", "--workers", "2"],
    ["nanowire-sweep", "--range", "7.5:14:0.5", "--orientation", "axial"],
    ["nanowire-sweep", "--range", "7.5:14:0.5", "--orientation", "radial"],
    ["report"],
    ["dispersion"],
]
# lower media of the interface checks: silver, a lossless metal, a near-resonant
# metal, one without a bound surface-plasmon pole, one just inside the exponent
# budget of `halfspace._mul` and one outside it (eps = 2e-320j)
METALS = {"Ag": 0.2 + 7.0j, "7i": 7.0j, "near-resonant": 0.05 + 3.4205j, "no-pole": 1.5 + 0.1j,
          "budget-edge": 4.0e-99 + 7.0j, "subnormal-eps": 1.0e-160 + 1.0e-160j}
HEIGHTS = sorted([1.0, 1.0e5, *(10.0 ** random.Random(42).uniform(0.0, 5.0) for _ in range(152))])
SHUFFLED = random.Random(7).sample(HEIGHTS, len(HEIGHTS))
SWEEP_TOLS = (1e-8, 1e-11, 1e-13)
INTERLEAVED_TOLS = (1e-8, 1e-10)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli(src: Path, args: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-m", "mesoqed.cli", *args], env=env,
                         capture_output=True, text=True, check=False)
    return digest(f"exit {run.returncode}\n--stdout\n{run.stdout}--stderr\n{run.stderr}")


def failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def point_bits(pt) -> str:
    b, ladder, split, ch = pt.bundle, pt.ladder, pt.split, pt.channels
    values = (b.g_xx, b.d_g_zx, b.dd_g_zz, b.dz_g_xx, ladder.gamma0, ladder.gamma1,
              ladder.gamma2, split.gamma1_md, split.gamma1_eq, *ch.rad, *ch.pl, *ch.ls,
              pt.norm, pt.k1)
    return " ".join(float(v).hex() for v in values)


def interface_checks():
    from mesoqed.core import GAAS, EmitterMoments, Material
    from mesoqed.halfspace import InterfaceGeometry, interface_point, interface_sweep

    mountings = {"direct": EmitterMoments(10.0, l_qd=1.0)}
    mountings["inverted"] = mountings["direct"].flipped()
    passes = [("shuffled", SHUFFLED, mountings["direct"]),
              *((mounting, HEIGHTS, moments) for mounting, moments in mountings.items())]
    for name, n in METALS.items():
        metal = Material(name, n)
        for label, heights, moments in passes:
            rows = []
            for h in heights:
                geom = InterfaceGeometry(upper=GAAS, lower=metal, h=h, lambda0=1000.0)
                try:
                    rows.append(point_bits(interface_point(geom, moments)))
                except Exception as exc:  # a failure is an outcome too
                    rows.append(failure(exc))
            yield f"point {name} {label}", "\n".join(rows)
        geom = InterfaceGeometry(upper=GAAS, lower=metal, h=1.0, lambda0=1000.0)
        for tol in SWEEP_TOLS:
            rows = []
            sweep = interface_sweep(geom, HEIGHTS, mountings["direct"], rel_tol=tol)
            try:
                rows += [point_bits(pt) for pt in sweep]
            except Exception as exc:
                rows.append(failure(exc))  # the sweep stops at its first failing height
            yield f"sweep {name} rel_tol={tol:g}", "\n".join(rows)
    metals = [Material(name, n) for name, n in METALS.items()]
    rows = []
    for i, h in enumerate(SHUFFLED):
        geom = InterfaceGeometry(upper=GAAS, lower=metals[i % len(metals)], h=h, lambda0=1000.0)
        rel_tol = INTERLEAVED_TOLS[i // len(metals) % 2]
        try:
            rows.append(point_bits(interface_point(geom, mountings["direct"], rel_tol=rel_tol)))
        except Exception as exc:
            rows.append(failure(exc))
    yield "point interleaved", "\n".join(rows)


def background_checks():
    from mesoqed.nanowire import paper_wire, quasistatic_background

    wire = paper_wire()
    grids = {"5-14": [5.0 + 0.25 * i for i in range(37)],
             "10-300": [10.0 + 0.73 * i for i in range(398)]}
    for grid, distances in grids.items():
        for orientation in ("axial", "radial"):
            rows = []
            for d in distances:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        row = quasistatic_background(wire, d, orientation).hex()
                    except Exception as exc:
                        row = failure(exc)
                rows.append(" | ".join([f"{d!r} {row}", *(str(w.message) for w in caught)]))
            yield f"background {grid} {orientation}", "\n".join(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the mesoqed package (default: this tree's)")
    src = parser.parse_args().src.resolve()
    sys.path.insert(0, str(src))
    import mesoqed

    if Path(mesoqed.__file__).resolve().parent != src / "mesoqed":
        print(f"bitcheck: imported {mesoqed.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2
    for args in CLI_RUNS:
        print(f"cli {' '.join(args)} {cli(src, args)}", flush=True)
    for name, text in itertools.chain(interface_checks(), background_checks()):
        print(f"{name} {digest(text)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
