"""Seeded inputs, per-point work and row checks of the three workloads.

Inputs come in blocks. A block is one stratified sample of the
workload's input space in shuffled order, so every whole block covers
the space evenly and two seeds give nearly the same mix of cheap and
expensive points; that keeps the spread of the timings across seeds
small. A point calls the public library functions through their
modules (``halfspace.interface_point``, not a name imported from it),
so the wrappers of tracing.py see every call.

Rows are tuples laid out like the rows of the matching CLI command, so
the traced and untraced runs, the reference file and the CLI output
can be compared value by value.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from time import perf_counter

from mesoqed import halfspace, nanowire, rates
from mesoqed.core import GAAS, Material, paper_moments
from mesoqed.errors import MesoqedError, NoBoundModeError

MOMENTS = paper_moments()
PAPER_WIRE = nanowire.paper_wire()
ORIENTATIONS = (nanowire.AXIAL, nanowire.RADIAL)

# identities that hold up to rounding of a handful of float operations
IDENTITY_TOL = 1e-12
# CLI floats carry 12 significant digits, so each is off by at most
# 5e-12 of its size; twice that
CLI_TOL = 1e-11


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def close_printed(lhs: list, rhs: list) -> bool:
    """sum(lhs) = sum(rhs) for values read back from CLI output.

    The rounding of the printed operands bounds the error of the
    identity, so the tolerance scales with their sizes, not with the
    size of the sums: two totals near 1.4 differ by 0.28, and their
    rounding alone can move that difference by 1e-11.
    """
    return abs(sum(lhs) - sum(rhs)) <= CLI_TOL * sum(abs(v) for v in (*lhs, *rhs))


def rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


@dataclass
class Record:
    """One attempted point: its row, or the library error it raised."""

    point: object
    row: tuple | None
    keep: object
    error: MesoqedError | None
    seconds: float


def run_point(run, point) -> Record:
    t0 = perf_counter()
    try:
        row, keep = run(point)
        error = None
    except MesoqedError as exc:
        row = keep = None
        error = exc
    return Record(point, row, keep, error, perf_counter() - t0)


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """One uniform draw in each of n equal strata of [lo, hi)."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def _finite(row) -> bool:
    return all(math.isfinite(v) for v in row if isinstance(v, float))


def _iface_row(h: float, pt) -> tuple:
    lad = pt.ladder
    scale = MOMENTS.l_qd / pt.norm
    return (
        h, lad.gamma0, lad.gamma1, lad.gamma2, lad.total,
        lad.gamma0 - lad.gamma1 + lad.gamma2,
        sum(pt.channels.rad), sum(pt.channels.pl), sum(pt.channels.ls),
        pt.bundle.b_yx * scale, pt.bundle.q_xz * scale,
    )


def _iface_problems(row, pt) -> list:
    """Partition and mounting identities of one interface-sweep row."""
    _, g0, g1, g2, total, inverted, rad, pl, ls = row[:9]
    problems = []
    if not close(rad + pl + ls, total, IDENTITY_TOL):
        problems.append(f"rad + pl + ls = {rad + pl + ls!r} != total_direct {total!r}")
    flipped = rates.rate_ladder(pt.bundle, MOMENTS.flipped(), pt.norm).total
    if not close(flipped, inverted, IDENTITY_TOL):
        problems.append(f"flipped mounting gives {flipped!r}, row has {inverted!r}")
    ldos, gradient = rates.extract_fields(total, inverted)
    if not (close(ldos, g0 + g2, IDENTITY_TOL) and close(gradient, g1, IDENTITY_TOL)):
        problems.append("mounting half-sum/half-difference do not return gamma0+gamma2, gamma1")
    if not g0 > 0.0:
        problems.append(f"gamma0 = {g0!r} is not positive")
    return problems


def _plasmon_problems(orientation: str, g0: float, g1: float) -> list:
    problems = []
    if not g0 > 0.0:
        problems.append(f"plasmon gamma0 = {g0!r} is not positive")
    # +0.0 exactly: the CLI prints it as "0", a -0.0 would print as "-0"
    if orientation == nanowire.RADIAL and not (g1 == 0.0 and math.copysign(1.0, g1) > 0):
        problems.append(f"radial gamma1 is {g1!r}, not a literal zero")
    return problems


def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in r] for r in csv.reader(io.StringIO("\n".join(lines[1:])))]


class Workload:
    name = ""
    block_size = 0

    def points(self, seed: int):
        """Endless stream of inputs, one block at a time."""
        rng = random.Random(seed)
        while True:
            yield from self.block(rng)

    def block(self, rng: random.Random) -> list:
        raise NotImplementedError

    def run(self, point) -> tuple:
        """One point: (row, objects the gate needs)."""
        raise NotImplementedError

    def problems(self, point, row, keep) -> list:
        """Identity violations of one computed row."""
        raise NotImplementedError

    def expected_failure(self, point, exc: Exception) -> str | None:
        """Label of a known, documented failure, or None if unexpected."""
        return None

    def cli_argv(self, first_block: list) -> list:
        raise NotImplementedError

    def cli_problems(self, stdout: str, argv: list, rows: dict) -> list:
        """Check CLI output; rows maps a point to its library row.

        The CLI input is taken from the first block, which every run
        completes, so its library row is always in `rows`.
        """
        raise NotImplementedError

    def describe(self, points: list) -> dict:
        raise NotImplementedError


class IfaceSweep(Workload):
    """Emitter heights above the paper GaAs/Ag interface."""

    name = "iface-sweep"
    block_size = 100
    span = (20.0, 1000.0)

    def block(self, rng):
        heights = _strata(rng, *self.span, self.block_size)
        rng.shuffle(heights)
        return heights

    def run(self, h):
        pt = halfspace.interface_point(halfspace.paper_interface(h), MOMENTS)
        return _iface_row(h, pt), pt

    def problems(self, h, row, pt):
        if not _finite(row):
            return ["non-finite value in row"]
        return _iface_problems(row, pt)

    def cli_argv(self, first_block):
        # starts at the block's lowest height, so the CLI's first row is
        # also a library row of the timed phase
        return ["interface-sweep", "--range", f"{min(first_block)!r}:{self.span[1]!r}:10"]

    def cli_problems(self, stdout, argv, rows):
        problems = []
        cli_rows = _csv_rows(stdout)
        lo = float(argv[2].split(":")[0])
        if not cli_rows or not close(cli_rows[0][0], lo, CLI_TOL):
            return [f"interface-sweep printed no row for h = {lo!r}"]
        for r in cli_rows:
            h, g0, g1, g2, total, inverted, rad, pl, ls = r[:9]
            if not close_printed([rad, pl, ls], [total]):
                problems.append(f"CLI row h = {h}: rad + pl + ls != total_direct")
            if not close_printed([total, -inverted], [2.0 * g1]):
                problems.append(f"CLI row h = {h}: total_direct - total_inverted != 2 gamma1")
        if not all(close(a, b, CLI_TOL) for a, b in zip(cli_rows[0], rows[lo])):
            problems.append(f"CLI row h = {lo!r} differs from interface_point")
        return problems

    def describe(self, points):
        return {"points": len(points), "h_nm": [min(points), max(points)]}


class WireSweep(Workload):
    """Distances from the paper wire, both dipole orientations."""

    name = "wire-sweep"
    block_size = 100
    span = (10.0, 300.0)

    def block(self, rng):
        half = self.block_size // 2
        pts = [(d, o) for o in ORIENTATIONS for d in _strata(rng, *self.span, half)]
        rng.shuffle(pts)
        return pts

    def run(self, point):
        d, orientation = point
        lad = nanowire.plasmon_rates(PAPER_WIRE, d, MOMENTS, orientation)
        bg = nanowire.quasistatic_background(PAPER_WIRE, d, orientation)
        return (d, orientation, lad.gamma0, lad.gamma1, lad.gamma2, bg,
                bg + lad.total, bg + lad.gamma0 - lad.gamma1 + lad.gamma2), None

    def problems(self, point, row, keep):
        d, orientation, g0, g1, g2, bg, total, inverted = row
        if not _finite(row):
            return ["non-finite value in row"]
        problems = []
        if not bg >= 1.0:
            problems.append(f"background {bg!r} < 1")
        if not close(bg + g0 + g1 + g2, total, IDENTITY_TOL):
            problems.append("total_direct != background + plasmon ladder")
        problems += _plasmon_problems(orientation, g0, g1)
        flipped = nanowire.plasmon_rates(PAPER_WIRE, d, MOMENTS.flipped(), orientation).total
        if not close(bg + flipped, inverted, IDENTITY_TOL):
            problems.append(f"flipped mounting gives {bg + flipped!r}, row has {inverted!r}")
        return problems

    def cli_argv(self, first_block):
        # starts at the block's axial distance nearest the middle of the
        # span: near the wire a point's cost climbs steeply as d falls to
        # 10 nm, so a start there would make the CLI's time depend on the seed
        mid = sum(self.span) / 2
        d0 = min((d for d, o in first_block if o == nanowire.AXIAL), key=lambda d: abs(d - mid))
        return ["nanowire-sweep", "--range", f"{d0!r}:{self.span[1]!r}:70"]

    def cli_problems(self, stdout, argv, rows):
        problems = []
        cli_rows = _csv_rows(stdout)
        lo = float(argv[2].split(":")[0])
        if not cli_rows or not close(cli_rows[0][0], lo, CLI_TOL):
            return [f"nanowire-sweep printed no row for d = {lo!r}"]
        for d, g0, g1, g2, bg, total, inverted in cli_rows:
            if not bg >= 1.0:
                problems.append(f"CLI row d = {d}: background < 1")
            if not close_printed([bg, g0, g1, g2], [total]):
                problems.append(f"CLI row d = {d}: total_direct != background + ladder")
            if not close_printed([total, -inverted], [2.0 * g1]):
                problems.append(f"CLI row d = {d}: total_direct - total_inverted != 2 gamma1")
        lib = rows[(lo, nanowire.AXIAL)]
        if not all(close(a, b, CLI_TOL) for a, b in zip(cli_rows[0], (lib[0],) + lib[2:])):
            problems.append(f"CLI row d = {lo!r} differs from the library row")
        return problems

    def describe(self, points):
        ds = [d for d, _ in points]
        return {
            "points": len(points),
            "d_nm": [min(ds), max(ds)],
            "radial_share": sum(o == nanowire.RADIAL for _, o in points) / len(points),
        }


class GeometryScan(Workload):
    """Wire and material geometries, each solved cold.

    One geometry in every block of 20 is a thin wire below 5 nm. The
    mode scan of the library misses the thin-wire plasmon there and
    raises NoBoundModeError; those points stay in the workload and are
    counted as failed.
    """

    name = "geometry-scan"
    block_size = 20
    thin = (2.0, 5.0)
    radius = (5.0, 80.0)
    lambda0 = (800.0, 1200.0)
    metal_re = (0.15, 0.25)
    metal_im = (6.5, 7.5)
    distances = (20.0, 50.0, 100.0)
    heights = (50.0, 150.0, 450.0)

    def block(self, rng):
        n = self.block_size - 1
        # Latin hypercube over (radius, lambda0, Re n, Im n)
        axes = [_strata(rng, *span, n)
                for span in (self.radius, self.lambda0, self.metal_re, self.metal_im)]
        for axis in axes[1:]:
            rng.shuffle(axis)
        pts = [(r, lam, complex(nr, ni)) for r, lam, nr, ni in zip(*axes)]
        pts.append((rng.uniform(*self.thin), rng.uniform(*self.lambda0),
                    complex(rng.uniform(*self.metal_re), rng.uniform(*self.metal_im))))
        rng.shuffle(pts)
        return pts

    def run(self, point):
        rho, lam, n = point
        metal = Material("metal", n)
        wire = nanowire.WireGeometry(rho=rho, metal=metal, host=GAAS, lambda0=lam)
        mode = nanowire.solve_dispersion(wire)
        row = [rho, lam, n.real, n.imag, mode.k_sp.real, mode.k_sp.imag, mode.v_g]
        for d in self.distances:
            for o in ORIENTATIONS:
                lad = nanowire.plasmon_rates(wire, d, MOMENTS, o)
                row += [lad.gamma0, lad.gamma1, lad.gamma2]
        pts = []
        for h in self.heights:
            geom = halfspace.InterfaceGeometry(upper=GAAS, lower=metal, h=h, lambda0=lam)
            pt = halfspace.interface_point(geom, MOMENTS)
            pts.append(pt)
            row += list(_iface_row(h, pt))
        return tuple(row), (mode, pts)

    def problems(self, point, row, keep):
        if not _finite(row):
            return ["non-finite value in row"]
        mode, pts = keep
        problems = []
        if not mode.residual < 1e-12:
            problems.append(f"mode residual {mode.residual!r} >= 1e-12")
        norm = mode.normalization_check()
        if not abs(norm - 1.0) < 1e-8:
            problems.append(f"mode normalization integral {norm!r} != 1")
        col = 7
        for d in self.distances:
            for o in ORIENTATIONS:
                problems += _plasmon_problems(o, row[col], row[col + 1])
                col += 3
        for pt in pts:
            problems += _iface_problems(row[col:col + 11], pt)
            col += 11
        return problems

    def expected_failure(self, point, exc):
        if isinstance(exc, NoBoundModeError) and point[0] < self.thin[1]:
            return "NoBoundModeError on a thin wire (radius < 5 nm)"
        return None

    def cli_argv(self, first_block):
        rho, lam, n = next(p for p in first_block if p[0] >= self.thin[1])
        return ["report", "--radius", repr(rho), "--lambda0", repr(lam),
                "--metal-n", f"{n.real!r}+{n.imag!r}j"]

    def cli_problems(self, stdout, argv, rows):
        doc = json.loads(stdout)
        rho, lam = float(argv[2]), float(argv[4])
        lib = next(r for p, r in rows.items() if p[0] == rho and p[1] == lam)
        k = doc["k_sp_wire"]["value"]
        got = (k["re"], k["im"], doc["v_g"]["value"])
        if not all(close(a, b, IDENTITY_TOL) for a, b in zip(got, lib[4:7])):
            return [f"report gives k_sp, v_g = {got}, solve_dispersion gave {lib[4:7]}"]
        return []

    def describe(self, points):
        radii = [p[0] for p in points]
        lams = [p[1] for p in points]
        return {
            "points": len(points),
            "radius_nm": [min(radii), max(radii)],
            "lambda0_nm": [min(lams), max(lams)],
            "thin_wire_share": sum(r < self.thin[1] for r in radii) / len(points),
        }


WORKLOADS = {w.name: w for w in (IfaceSweep(), WireSweep(), GeometryScan())}
