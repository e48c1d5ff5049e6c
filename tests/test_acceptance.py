"""Acceptance gate: twelve criteria, one pass/fail line each.

Each test prints a single CRITERION line with the measured numbers
before asserting, so the printed record survives a failure.  Criteria
are checked at their stated tolerances; nothing here is loosened to
force a pass.

Criterion 08 compares the axial wire rates against the independent
Gauss's-law field oracle in `tests/oracles.py`, and criterion 10 prints
the finite-difference envelope oracle from the same file next to the
program's estimate.
"""

import math
import time

import numpy as np
import pytest
from scipy.signal import find_peaks

import oracles
from companions import bessel_j, gxx_vertical_offset, gzx_lateral, hankel1

from mesoqed.cli import main as cli_main
from mesoqed.core import (
    GAAS,
    Material,
    figures_of_merit,
    homogeneous_im_gxx,
    paper_moments,
    wavevector,
)
from mesoqed.halfspace import InterfaceGeometry, interface_point, interface_sweep, paper_interface
from mesoqed.moments import GaussianEnvelopes, lambda_zx_estimate, omega_negligibility
from mesoqed.nanowire import (
    AXIAL,
    RADIAL,
    paper_wire,
    plasmon_bundle,
    plasmon_rates,
    solve_dispersion,
)
from mesoqed.rates import md_eq_split

MOMENTS = paper_moments()
WIRE = paper_wire()
LAMBDA0 = 1000.0


def report(number, ok, details):
    print(f"CRITERION {number:02d}: {'PASS' if ok else 'FAIL'} - {details}")


def test_criterion_01_figures_of_merit():
    k = wavevector(GAAS, LAMBDA0).real
    t0 = time.perf_counter()
    for _ in range(200):
        fom = figures_of_merit(k, MOMENTS)
    per_call = (time.perf_counter() - t0) / 200.0
    ok = 0.42 <= fom.g1 <= 0.44 and 0.044 <= fom.g2 <= 0.050 and per_call < 1e-3
    report(1, ok, f"g1={fom.g1:.6f} in [0.42,0.44], g2={fom.g2:.6f} in "
                  f"[0.044,0.050], {per_call * 1e6:.1f} us/call < 1 ms")
    assert ok


def test_criterion_02_wire_mode():
    solve_dispersion.cache_clear()
    t0 = time.perf_counter()
    mode = solve_dispersion(WIRE)
    elapsed = time.perf_counter() - t0
    lam = abs(MOMENTS.lambda_over_mu)
    fom1 = 2.0 * mode.k_sp.real * lam
    fom2 = (mode.k_sp.real * lam) ** 2
    ok = (0.73 <= fom1 <= 0.79 and 0.12 <= fom2 <= 0.16
          and mode.residual < 1e-10 and elapsed < 1.0)
    report(2, ok, f"2*Re(k_sp)*L={fom1:.6f} in [0.73,0.79], "
                  f"(Re(k_sp)*L)^2={fom2:.6f} in [0.12,0.16], "
                  f"residual={mode.residual:.2e} < 1e-10, cold solve {elapsed * 1e3:.0f} ms < 1 s")
    assert ok


def test_criterion_03_homogeneous_null():
    geom = InterfaceGeometry(upper=GAAS, lower=GAAS, h=100.0, lambda0=LAMBDA0)
    pt = interface_point(geom, MOMENTS)
    k1 = pt.k1
    scat = (
        abs(pt.bundle.g_xx - pt.norm) / pt.norm,
        abs(pt.bundle.d_g_zx) / (pt.norm * k1),
        abs(pt.bundle.dd_g_zz) / (pt.norm * k1 * k1),
    )
    ladder_dev = (abs(pt.ladder.gamma0 - 1.0), abs(pt.ladder.gamma1),
                  abs(pt.ladder.gamma2))
    ok = max(scat) < 1e-10 and max(ladder_dev) < 1e-10
    report(3, ok, f"matched half-spaces: scattered entries "
                  f"{max(scat):.2e} < 1e-10 of the bulk level, ladder off (1,0,0) by "
                  f"{max(ladder_dev):.2e} < 1e-10")
    assert ok


def test_criterion_04_mirror_limit():
    mirror = Material("mirror", 1e6j)
    k1 = wavevector(GAAS, LAMBDA0).real
    t0 = time.perf_counter()
    worst = 0.0
    for h in np.geomspace(30.0, 2000.0, 20):
        geom = InterfaceGeometry(upper=GAAS, lower=mirror, h=h, lambda0=LAMBDA0)
        model = interface_point(geom, MOMENTS).ladder.gamma0
        u = 2.0 * k1 * h
        closed = 1.0 - 1.5 * (math.sin(u) / u + math.cos(u) / u**2
                              - math.sin(u) / u**3)
        worst = max(worst, abs(model - closed) / abs(closed))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(4, ok, f"near-mirror vs image-dipole closed form: worst rel dev "
                  f"{worst:.2e} < 1e-4 over 20 heights in [30,2000], {elapsed:.1f} s < 30 s")
    assert ok


def test_criterion_05_oscillation_period():
    heights = np.arange(100.0, 900.0 + 0.5, 1.0)
    g0 = np.array([pt.ladder.gamma0
                   for pt in interface_sweep(paper_interface(100.0), heights, MOMENTS)])
    peaks, _ = find_peaks(g0)
    spacing = float(np.mean(np.diff(heights[peaks])))
    target = LAMBDA0 / (2.0 * GAAS.n.real)
    dev = abs(spacing - target) / target
    ok = dev < 0.05
    report(5, ok, f"standing-wave period {spacing:.2f} nm vs lambda0/(2 n) = "
                  f"{target:.2f} nm, dev {dev * 100:.2f}% < 5% ({len(peaks)} peaks)")
    assert ok


def test_criterion_06_flip_identities():
    worst = 0.0
    for h in (50.0, 100.0, 146.0, 200.0, 400.0, 800.0):
        geom = paper_interface(h)
        up = interface_point(geom, MOMENTS).ladder
        dn = interface_point(geom, MOMENTS.flipped()).ladder
        worst = max(worst,
                    abs(up.total - dn.total - 2.0 * up.gamma1),
                    abs(up.total + dn.total - 2.0 * (up.gamma0 + up.gamma2)))
    for orientation in (AXIAL, RADIAL):
        for d in (20.0, 60.0, 100.0, 300.0):
            up = plasmon_rates(WIRE, d, MOMENTS, orientation)
            dn = plasmon_rates(WIRE, d, MOMENTS.flipped(), orientation)
            worst = max(worst,
                        abs(up.total - dn.total - 2.0 * up.gamma1),
                        abs(up.total + dn.total
                            - 2.0 * (up.gamma0 + up.gamma2)))
    ok = worst < 1e-12
    report(6, ok, f"mounting-flip identities over interface and wire sweeps: "
                  f"worst residual {worst:.2e} < 1e-12")
    assert ok


def test_criterion_07_radial_gradient_vanishes():
    distances = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0)
    values = [plasmon_rates(WIRE, d, m, RADIAL).gamma1
              for d in distances for m in (MOMENTS, MOMENTS.flipped())]
    ok = all(v == 0.0 for v in values)
    report(7, ok, f"radial-dipole first-order plasmon rate is exactly 0.0 at "
                  f"all {len(distances)} distances, both mountings")
    assert ok


def test_criterion_08_axial_gradient_band():
    # |gamma1|/gamma0 = 2 L Re(k_sp) |E_r/E_z| has the size the guided
    # mode's field gradient gives: the program matches the field oracle,
    # the ratio falls toward its far-field value, and that value lies
    # in the band
    distances = (20.0, 40.0, 60.0, 80.0, 100.0)
    ratios = []
    for d in distances:
        ladder = plasmon_rates(WIRE, d, MOMENTS, AXIAL)
        ratios.append(abs(ladder.gamma1) / ladder.gamma0)
    expected, far = oracles.wire_axial_gradient_ratio(
        distances, WIRE.rho, WIRE.lambda0, WIRE.metal.eps, WIRE.host.eps,
        MOMENTS.lambda_over_mu)
    worst = max(abs(r - e) / e for r, e in zip(ratios, expected))
    falling = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = worst < 1e-9 and falling and 0.85 <= far <= 1.05
    pairs = ", ".join(f"d={d:g}: {r:.4f}" for d, r in zip(distances, ratios))
    report(8, ok, f"axial |gamma1|/gamma0 {pairs}; Gauss's-law field oracle "
                  f"worst rel dev {worst:.2e} < 1e-9; "
                  f"{'falls' if falling else 'does not fall'} strictly with d; "
                  f"far-field value 2 Re(k_sp) L * |k_sp/kappa_out| = {far:.4f} "
                  f"vs band [0.85,1.05] (the K1/K0 profile ratio exceeds 1 "
                  f"near the wire)")
    assert ok


def test_criterion_09_multipole_split():
    # the MD and EQ combinations of the interface bundle against the same
    # combinations of central differences (step 0.01 nm) of the scattered
    # G_zx over a lateral offset and G_xx over a vertical offset: an
    # independent route to both gradients
    norm = homogeneous_im_gxx(GAAS, LAMBDA0)
    step = 0.01
    worst_fd = 0.0
    iface_ratios = []
    for h in (50.0, 100.0, 150.0, 200.0):
        geom = paper_interface(h)
        pt = interface_point(geom, MOMENTS)
        fd_zx = ((gzx_lateral(geom, step) - gzx_lateral(geom, -step)) / (2.0 * step)).imag
        fd_z = ((gxx_vertical_offset(geom, step) - gxx_vertical_offset(geom, -step))
                / (2.0 * step)).imag
        b = pt.bundle
        worst_fd = max(worst_fd, abs(fd_zx - fd_z - b.b_yx) / abs(b.b_yx),
                       abs(fd_zx + fd_z - b.q_xz) / abs(b.q_xz))
        iface_ratios.append(abs(pt.split.gamma1_md / pt.split.gamma1_eq))
    wire_ratios = []
    for d in (20.0, 60.0, 100.0):
        split = md_eq_split(plasmon_bundle(WIRE, d, AXIAL), MOMENTS, norm)
        wire_ratios.append(abs(split.gamma1_md / split.gamma1_eq))
    ok = (worst_fd < 1e-6
          and all(0.2 <= r <= 5.0 for r in iface_ratios)
          and all(r < 0.2 for r in wire_ratios))
    report(9, ok, f"b_yx, q_xz vs finite differences of the offset Green functions: "
                  f"worst rel dev {worst_fd:.2e} < 1e-6 @ 4 heights; "
                  f"interface |MD/EQ| = "
                  + "/".join(f"{r:.3f}" for r in iface_ratios)
                  + " all in [0.2,5]; wire |MD/EQ| = "
                  + "/".join(f"{r:.4f}" for r in wire_ratios) + " all < 0.2")
    assert ok


def test_criterion_10_envelope_moment():
    shifts = (2.0, 2.5, 3.0)
    estimates = [lambda_zx_estimate(GaussianEnvelopes(sigma_e=2.0, mass_ratio=5.0,
                                                      shift=s))
                 for s in shifts]
    in_band = all(0.05 <= v <= 0.2 for v in estimates)
    omega = omega_negligibility(0.3 / MOMENTS.l_qd, MOMENTS.l_qd)
    omega_ok = omega.value == pytest.approx(0.09) and omega.negligible
    ok = in_band and omega_ok
    # finite-difference harmonic ground states for the two candidate
    # hole-width ties; evidence only, the assertion is the program's
    ties = []
    for tie, label in (("frequency", "equal hbar*omega"),
                       ("potential", "shared potential")):
        fd = [oracles.harmonic_envelope_moment(2.0, 5.0, s, tie) for s in shifts]
        ties.append(f"{label}: sigma_h={fd[0][0]:.4f} nm, lambda_zx="
                    + "/".join(f"{v:.3g}" for _, v in fd) + " nm")
    report(10, ok, "lambda_zx estimate = "
                   + "/".join(f"{v:.3g}" for v in estimates)
                   + " nm vs band [0.05,0.2]: with the hole width tied to the "
                   "mass ratio, inverse-variance and mass weights coincide and "
                   "the centroid offset cancels identically, so the estimate "
                   "is 0 for every shift; finite-difference oracle, "
                   + "; ".join(ties)
                   + f"; omega=(kL)^2={omega.value:.3f} < 0.1 "
                   f"({'ok' if omega_ok else 'violated'})")
    assert ok


def test_criterion_11_property_suites():
    rng = np.random.default_rng(20260816)
    mag = 10.0 ** rng.uniform(-1.0, math.log10(30.0), 1000)
    arg = rng.uniform(0.0, math.pi, 1000)
    worst_w = 0.0
    for z in mag * np.exp(1j * arg):
        z = complex(z)
        w = bessel_j(1, z) * hankel1(0, z) - bessel_j(0, z) * hankel1(1, z)
        target = 2j / (math.pi * z)
        worst_w = max(worst_w, abs(w - target) / abs(target))

    step = 0.01
    worst_fd = 0.0
    for h in (30.0, 60.0, 100.0, 200.0, 500.0):
        geom = paper_interface(h)
        pt = interface_point(geom, MOMENTS)
        fd = ((gzx_lateral(geom, step) - gzx_lateral(geom, -step))
              / (2.0 * step)).imag
        worst_fd = max(worst_fd, abs(fd - pt.bundle.d_g_zx) / abs(pt.bundle.d_g_zx))

    worst_drift = 0.0
    for h in (40.0, 100.0, 300.0):
        geom = paper_interface(h)
        a = interface_point(geom, MOMENTS, rel_tol=1e-8)
        b = interface_point(geom, MOMENTS, rel_tol=5e-9)
        k1 = a.k1
        worst_drift = max(
            worst_drift,
            abs(a.bundle.g_xx - b.bundle.g_xx) / a.norm,
            abs(a.bundle.d_g_zx - b.bundle.d_g_zx) / (a.norm * k1),
            abs(a.bundle.dd_g_zz - b.bundle.dd_g_zz) / (a.norm * k1 * k1),
        )

    worst_part = 0.0
    for h in (50.0, 100.0, 200.0, 400.0):
        pt = interface_point(paper_interface(h), MOMENTS)
        ladder = (pt.ladder.gamma0, pt.ladder.gamma1, pt.ladder.gamma2)
        ch = pt.channels
        for order in range(3):
            worst_part = max(worst_part,
                             abs(ch.rad[order] + ch.pl[order] + ch.ls[order] - ladder[order]))

    ok = (worst_w < 1e-9 and worst_fd < 1e-4 and worst_drift < 1e-6
          and worst_part < 1e-6)
    report(11, ok, f"cross-product identity dev {worst_w:.2e} < 1e-9 @ 1000 pts; "
                   f"finite-difference dev {worst_fd:.2e} < 1e-4 @ 5 heights; "
                   f"tolerance-halving drift {worst_drift:.2e} < 1e-6; "
                   f"channel partition residual {worst_part:.2e} < 1e-6")
    assert ok


def test_criterion_12_determinism(tmp_path):
    jobs = {
        "report": ["report"],
        "iface": ["interface-sweep", "--range", "50:201:50"],
        "wire": ["nanowire-sweep", "--range", "20:101:40"],
    }
    ok = True
    for name, argv in jobs.items():
        p1, p2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert cli_main(argv + ["--out", str(p1)]) == 0
        assert cli_main(argv + ["--out", str(p2)]) == 0
        ok = ok and p1.read_bytes() == p2.read_bytes()
    report(12, ok, "repeated report and sweep runs are byte-identical "
                   f"({len(jobs)} command pairs)")
    assert ok
