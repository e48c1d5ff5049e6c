#!/usr/bin/env python3
"""Decay curves above the silver mirror and beside the silver nanowire.

Runs the mesoqed CLI at the paper's parameters; writes into --out-dir:
    interface_decay.csv   rate ladder and channel split, heights 20-1000 nm
    nanowire_axial.csv    plasmon ladder and background, distances
    nanowire_radial.csv   10-300 nm, for both dipole orientations
    nanowire_mode.json    the solved guided mode (`mesoqed dispersion`)
    nanowire_field.csv    the mode field on a 61 x 121 (r, z) grid
When matplotlib is importable it also draws interface_decay.png and
nanowire_decay.png. For other ranges, run `mesoqed ... --range` directly.
"""

import argparse
import json
import sys
from pathlib import Path

from mesoqed.cli import main as cli_main

RUNS = {
    "interface_decay.csv": ["interface-sweep", "--range", "20:1000:5"],
    "nanowire_axial.csv": ["nanowire-sweep", "--range", "10:300:5", "--orientation", "axial"],
    "nanowire_radial.csv": ["nanowire-sweep", "--range", "10:300:5", "--orientation", "radial"],
    "nanowire_mode.json": ["dispersion"],
    "nanowire_field.csv": ["field-map", "--nr", "61", "--nz", "121"],
}


def columns(path: Path) -> dict:
    """The columns of a CLI CSV file, as floats keyed by header name."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def plot(out_dir: Path) -> None:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping the figures")
        return

    def save(fig, axes, name, **legend):
        for ax in axes:
            ax.legend(**legend)
        fig.tight_layout()
        fig.savefig(out_dir / name, dpi=150)
        print(f"wrote {out_dir / name}")

    iface = columns(out_dir / "interface_decay.csv")
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4), sharex=True)
    for key, label in (("total_direct", "direct mounting"),
                       ("total_inverted", "inverted mounting"),
                       ("gamma0", "point-dipole term")):
        ax1.plot(iface["h"], iface[key], label=label)
    ax1.axhline(1.0, color="0.7", lw=0.8)
    ax1.set(xlabel="height h (nm)", ylabel="rate / bulk rate")
    for key, label in (("rad", "radiative"), ("pl", "plasmon"), ("ls", "lossy surface")):
        ax2.plot(iface["h"], iface[key], label=label)
    ax2.set(xlabel="height h (nm)", ylabel="channel contribution")
    save(fig, (ax1, ax2), "interface_decay.png")

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    for name, style in (("axial", "-"), ("radial", "--")):
        wire = columns(out_dir / f"nanowire_{name}.csv")
        ax1.plot(wire["d"], wire["total_direct"], style, label=f"{name}, direct")
        ax1.plot(wire["d"], wire["total_inverted"], style, alpha=0.5,
                 label=f"{name}, inverted")
        ax2.plot(wire["d"], wire["gamma0_pl"], style, label=f"{name}, plasmon channel")
    ax1.axhline(1.0, color="0.7", lw=0.8)
    for ax in (ax1, ax2):
        ax.set(xlabel="distance d (nm)", ylabel="rate / bulk rate", yscale="log")
    save(fig, (ax1, ax2), "nanowire_decay.png", fontsize=8)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    out_dir = ap.parse_args(argv).out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, run in RUNS.items():
        rc = cli_main(run + ["--out", str(out_dir / name)])
        if rc != 0:
            return rc
        print(f"wrote {out_dir / name}")

    mode = json.loads((out_dir / "nanowire_mode.json").read_text(encoding="utf-8"))
    n_eff = mode["n_eff"]["value"]
    print(f"guided mode: n_eff = {n_eff['re']:.4f} + {n_eff['im']:.4f}i, "
          f"v_g = {mode['v_g']['value']:.2f} {mode['v_g']['units']}")
    plot(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
