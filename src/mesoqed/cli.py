"""Command-line front end.

Subcommands
    interface-sweep   rate ladder vs emitter height above the planar mirror
    nanowire-sweep    plasmon ladder plus background vs distance from the wire
    dispersion        guided-mode wavevector, decay constants, group velocity
    field-map         complex mode field sampled on an (r, z) grid
    moments           symmetry pattern and smallness checks of the moments
    report            headline figures in one JSON document

Configuration resolves in three layers: the paper's defaults, then a flat
``key = value`` config file (``--config``), then explicit flags. All
output is deterministic: no timestamps, floats at 12 significant
digits, config keys emitted sorted, so identical invocations produce
byte-identical files.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure (no bound mode, quadrature or series non-convergence,
expansion outside its validity domain).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import __version__, core, halfspace, nanowire
from . import moments as qd
from .core import EmitterMoments, Material, figures_of_merit, wavevector
from .errors import MesoqedError, ParameterError


class UsageError(Exception):
    """Bad flags, malformed config file, or an empty sweep."""


_TOL_MIN = 1.0e-14
_TOL_MAX = 1.0e-3


# ---------------------------------------------------------------- formatting


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _fmt_range(sweep) -> str:
    return ":".join(_fmt(v) for v in sweep)


def _complex_entry(z: complex, units: str, note: str) -> dict:
    return {"value": {"re": z.real, "im": z.imag}, "units": units, "convention": note}


# --------------------------------------------------------------- config


def _parse_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be MIN:MAX:STEP, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"range must be numeric MIN:MAX:STEP, got {text!r}") from None


class _Key(NamedTuple):
    default: object
    cast: Callable         # flag text and config-file text alike
    fmt: Callable | None   # `# config:` text; None: not printed
    help: str | None       # common flag; None: a subcommand declares the flag


# Every run parameter: its name is the RunConfig field, the flag's dest and
# the config-file key. Common flags are added in this order.
_KEYS = {
    "lambda0": _Key(core.PAPER_LAMBDA0_NM, float, _fmt, "vacuum wavelength [nm]"),
    "ratio": _Key(core.PAPER_RATIO_NM, float, _fmt,
                  "signed first-moment to dipole-moment ratio [nm]"),
    "radius": _Key(core.PAPER_WIRE_RADIUS_NM, float, _fmt, "wire radius [nm]"),
    "lqd": _Key(core.PAPER_L_QD_NM, float, _fmt, "emitter extent [nm]"),
    "host_n": _Key(core.GAAS.n, lambda t: complex(t.replace(" ", "")), _fmt_complex,
                   "host refractive index (lossless, e.g. 3.42)"),
    "metal_n": _Key(core.SILVER.n, lambda t: complex(t.replace(" ", "")), _fmt_complex,
                    "metal refractive index (e.g. 0.2+7j)"),
    "tol": _Key(1.0e-8, float, _fmt,
                "relative quadrature tolerance (default 1e-8); below about "
                "3e-14 the wire background cannot certify it and warns"),
    "workers": _Key(1, int, str, "worker processes over sweep points (default 1)"),
    "out": _Key("-", str, None, "output file, '-' for stdout (default)"),
    "orientation": _Key(nanowire.AXIAL, str, None, None),
    "range": _Key(None, _parse_range, _fmt_range, None),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters shared by every subcommand."""

    lambda0: float
    host_n: complex
    metal_n: complex
    ratio: float
    lqd: float
    radius: float
    tol: float
    workers: int
    out: str
    orientation: str
    range: tuple | None

    def __post_init__(self):
        for name in ("lambda0", "lqd", "radius"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise UsageError(f"{name} must be a positive number, got {v!r}")
        if not math.isfinite(self.ratio):
            raise UsageError(f"ratio must be finite, got {self.ratio!r}")
        if not (_TOL_MIN <= self.tol <= _TOL_MAX):
            raise UsageError(
                f"tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}], got {self.tol:g}"
            )
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise UsageError(f"workers must be a positive integer, got {self.workers!r}")
        if self.orientation not in (nanowire.AXIAL, nanowire.RADIAL):
            raise UsageError(f"orientation must be axial or radial, got {self.orientation!r}")
        if self.range is not None:
            lo, hi, step = self.range
            if not all(math.isfinite(v) for v in self.range):
                raise UsageError(f"sweep range must be finite, got {_fmt_range(self.range)}")
            if not lo < hi:
                raise UsageError(f"sweep range is empty: need MIN < MAX, got {_fmt_range(self.range)}")
            if not step > 0.0:
                raise UsageError(f"sweep step must be positive, got {_fmt(step)}")


def _cast(key: str, text: str, where: str = "") -> object:
    try:
        return _KEYS[key].cast(text)
    except ValueError:
        raise UsageError(f"{where}bad value {text!r} for {key}") from None


def _apply_config_file(values: dict, path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _cast(key, text.strip(), f"{path}:{lineno}: ")


def _resolve(args: argparse.Namespace) -> RunConfig:
    values = {key: spec.default for key, spec in _KEYS.items()}
    if args.config:
        _apply_config_file(values, args.config)
    for key in _KEYS:
        text = getattr(args, key, None)
        if text is not None:
            values[key] = _cast(key, text)
    return RunConfig(**values)


def _config_entries(cfg: RunConfig, extra: dict | None = None) -> dict:
    entries = {key: spec.fmt(getattr(cfg, key)) for key, spec in _KEYS.items()
               if spec.fmt and getattr(cfg, key) is not None}
    entries.update(extra or {})
    return entries


# ------------------------------------------------------------ shared pieces


def _host(cfg: RunConfig) -> Material:
    return Material("host", cfg.host_n)


def _metal(cfg: RunConfig) -> Material:
    return Material("metal", cfg.metal_n)


def _moments(cfg: RunConfig) -> EmitterMoments:
    return EmitterMoments(lambda_over_mu=cfg.ratio, l_qd=cfg.lqd)


def _interface_geom(cfg: RunConfig, h: float) -> halfspace.InterfaceGeometry:
    return halfspace.InterfaceGeometry(
        upper=_host(cfg), lower=_metal(cfg), h=h, lambda0=cfg.lambda0
    )


def _wire_geom(cfg: RunConfig) -> nanowire.WireGeometry:
    return nanowire.WireGeometry(
        rho=cfg.radius, metal=_metal(cfg), host=_host(cfg), lambda0=cfg.lambda0
    )


def _sweep_values(cfg: RunConfig, what: str) -> list:
    if cfg.range is None:
        raise UsageError(f"{what} needs --range MIN:MAX:STEP (or 'range' in the config file)")
    lo, hi, step = cfg.range
    span = (hi - lo) / step + 1.0e-9
    if not span < core.MAX_POINTS:
        raise UsageError(
            f"sweep range {_fmt_range(cfg.range)} has more than {core.MAX_POINTS} points"
        )
    n = int(math.floor(span)) + 1
    return [lo + i * step for i in range(n)]


def _interface_row(cfg: RunConfig, h: float) -> tuple:
    pt = halfspace.interface_point(_interface_geom(cfg, h), _moments(cfg), rel_tol=cfg.tol)
    lad = pt.ladder
    scale = cfg.lqd / pt.norm
    return (
        h,
        lad.gamma0,
        lad.gamma1,
        lad.gamma2,
        lad.total,
        lad.gamma0 - lad.gamma1 + lad.gamma2,
        sum(pt.channels.rad),
        sum(pt.channels.pl),
        sum(pt.channels.ls),
        pt.bundle.b_yx * scale,
        pt.bundle.q_xz * scale,
    )


def _wire_row(cfg: RunConfig, d: float) -> tuple:
    geom = _wire_geom(cfg)
    lad = nanowire.plasmon_rates(geom, d, _moments(cfg), cfg.orientation)
    bg = nanowire.quasistatic_background(geom, d, cfg.orientation, rel_tol=cfg.tol)
    return (
        d,
        lad.gamma0,
        lad.gamma1,
        lad.gamma2,
        bg,
        bg + lad.total,
        bg + lad.gamma0 - lad.gamma1 + lad.gamma2,
    )


def _point(task) -> tuple:
    """worker's row at one point; a numerical failure names the point."""
    worker, label, cfg, value = task
    try:
        return worker(cfg, value)
    except ParameterError:
        raise
    except MesoqedError as exc:
        raise exc.__class__(f"{label} = {_fmt(value)}: {exc}") from exc


def _map_points(cfg: RunConfig, label: str, values: list, worker) -> list:
    tasks = [(worker, label, cfg, v) for v in values]
    # a pool starts all its processes at once: no more than points or CPUs
    size = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    if size == 1:
        return [_point(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(_point, tasks))


def _meta_lines(command: str, cfg: RunConfig, extra: dict | None = None) -> list:
    lines = [f"# mesoqed {__version__}", f"# command: {command}"]
    for key, value in sorted(_config_entries(cfg, extra).items()):
        lines.append(f"# config: {key} = {value}")
    return lines


def _csv_text(meta: list, header: list, rows: list) -> str:
    lines = list(meta)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(command: str, cfg: RunConfig, payload: dict, extra: dict | None = None) -> str:
    doc = dict(payload)
    doc["meta"] = {
        "version": __version__,
        "command": command,
        "config": _config_entries(cfg, extra),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _omega_payload(cfg: RunConfig) -> dict:
    vac = qd.omega_negligibility(2.0 * math.pi / cfg.lambda0, cfg.lqd)
    host = qd.omega_negligibility(wavevector(_host(cfg), cfg.lambda0).real, cfg.lqd)
    return {
        "value": vac.value,
        "negligible": vac.negligible,
        "k_convention": "vacuum",
        "host_k_value": host.value,
        "host_k_negligible": host.negligible,
        "convention": "(k*lqd)**2, negligible below 0.1; host-k variant reported alongside",
    }


# ----------------------------------------------------------------- commands


_INTERFACE_HEADER = [
    "h", "gamma0", "gamma1", "gamma2", "total_direct", "total_inverted",
    "rad", "pl", "ls", "b_yx_norm", "q_xz_norm",
]

_WIRE_HEADER = [
    "d", "gamma0_pl", "gamma1_pl", "gamma2_pl", "background",
    "total_direct", "total_inverted",
]


def _cmd_interface_sweep(cfg: RunConfig, args: argparse.Namespace) -> str:
    heights = _sweep_values(cfg, "interface-sweep")
    rows = _map_points(cfg, "h", heights, _interface_row)
    meta = _meta_lines("interface-sweep", cfg)
    meta += [
        "# convention: rates normalized to the homogeneous-host emission rate",
        "# convention: total_direct = gamma0 + gamma1 + gamma2;"
        " total_inverted flips the sign of gamma1",
        "# convention: rad + pl + ls = total_direct (decay-channel split of the direct total)",
        "# convention: b_yx_norm = b_yx*lqd/norm and q_xz_norm = q_xz*lqd/norm,"
        " norm = homogeneous Im G_xx",
    ]
    return _csv_text(meta, _INTERFACE_HEADER, rows)


def _cmd_nanowire_sweep(cfg: RunConfig, args: argparse.Namespace) -> str:
    distances = _sweep_values(cfg, "nanowire-sweep")
    rows = _map_points(cfg, "d", distances, _wire_row)
    meta = _meta_lines("nanowire-sweep", cfg, {"orientation": cfg.orientation})
    meta += [
        "# convention: rates normalized to the homogeneous-host emission rate",
        "# convention: gamma*_pl is the guided-plasmon channel alone;"
        " background = 1 + electrostatic surface-loss floor",
        "# convention: total_direct = background + gamma0_pl + gamma1_pl + gamma2_pl;"
        " total_inverted flips the sign of gamma1_pl",
    ]
    return _csv_text(meta, _WIRE_HEADER, rows)


def _cmd_dispersion(cfg: RunConfig, args: argparse.Namespace) -> str:
    mode = nanowire.solve_dispersion(_wire_geom(cfg))
    k0 = 2.0 * math.pi / cfg.lambda0
    payload = {
        "k_sp": _complex_entry(mode.k_sp, "rad/nm", "guided-mode wavevector, Im > 0 decaying"),
        "n_eff": _complex_entry(mode.k_sp / k0, "dimensionless", "k_sp / k0"),
        "kappa_in": _complex_entry(mode.kappa_in, "1/nm", "interior transverse decay constant"),
        "kappa_out": _complex_entry(mode.kappa_out, "1/nm", "exterior transverse decay constant"),
        "v_g": {
            "value": mode.v_g,
            "units": "nm/fs",
            "convention": "group velocity at frozen material permittivities",
        },
        "residual": {
            "value": mode.residual,
            "convention": "characteristic-equation residual at k_sp (scaled)",
        },
        "normalization_integral": {
            "value": mode.normalization_check(),
            "convention": "cross-section integral of Re(eps)|e|^2, target 1",
        },
    }
    return _json_text("dispersion", cfg, payload)


def _cmd_field_map(cfg: RunConfig, args: argparse.Namespace) -> str:
    r_max = args.rmax if args.rmax is not None else cfg.radius + 120.0
    window = nanowire.FieldWindow(
        r_min=args.rmin, r_max=r_max, z_min=args.zmin, z_max=args.zmax,
        n_r=args.nr, n_z=args.nz,
    )
    fm = nanowire.field_map(_wire_geom(cfg), window)
    rows = []
    for i, r in enumerate(fm.r):
        for j, z in enumerate(fm.z):
            er = fm.e_r[i, j]
            ez = fm.e_z[i, j]
            rows.append((r, z, er.real, er.imag, ez.real, ez.imag))
    extra = {
        "window": f"r:{_fmt(window.r_min)}:{_fmt(window.r_max)}"
                  f" z:{_fmt(window.z_min)}:{_fmt(window.z_max)}",
        "samples": f"{window.n_r}x{window.n_z}",
    }
    meta = _meta_lines("field-map", cfg, extra)
    meta += [
        "# convention: complex mode field, normalized cross-section power integral;"
        " real part = instantaneous field",
    ]
    return _csv_text(meta, ["r", "z", "e_r_re", "e_r_im", "e_z_re", "e_z_im"], rows)


def _cmd_moments(cfg: RunConfig, args: argparse.Namespace) -> str:
    pattern = qd.allowed_moments(qd.LENS_SHAPED_TABLE)
    env = qd.GaussianEnvelopes(
        sigma_e=args.sigma_e, mass_ratio=args.mass_ratio, shift=args.shift
    )
    est = qd.lambda_zx_estimate(env)
    k_host = wavevector(_host(cfg), cfg.lambda0).real
    payload = {
        "allowed_mu": list(pattern.allowed_mu_axes()),
        "allowed_lambda": ["".join(pair) for pair in pattern.allowed_lambda_entries()],
        "lambda_zx": {
            "value": est,
            "units": "nm",
            "significance_2k": qd.lambda_zx_significance(est, k_host),
            "convention": "Gaussian-envelope growth-axis moment per dipole moment",
        },
        "omega_check": _omega_payload(cfg),
    }
    extra = {
        "sigma_e": _fmt(args.sigma_e),
        "mass_ratio": _fmt(args.mass_ratio),
        "shift": _fmt(args.shift),
    }
    return _json_text("moments", cfg, payload, extra)


def _cmd_report(cfg: RunConfig, args: argparse.Namespace) -> str:
    mom = _moments(cfg)
    k_host = wavevector(_host(cfg), cfg.lambda0).real
    fom_if = figures_of_merit(k_host, mom)
    mode = nanowire.solve_dispersion(_wire_geom(cfg))
    fom_wire = figures_of_merit(mode.k_sp.real, mom)
    pole = halfspace.spp_pole(_interface_geom(cfg, 100.0))
    k0 = 2.0 * math.pi / cfg.lambda0
    env = qd.GaussianEnvelopes(sigma_e=2.0, mass_ratio=5.0, shift=2.5)
    est = qd.lambda_zx_estimate(env)
    payload = {
        "g1_interface": {
            "value": fom_if.g1,
            "convention": "2*k_host*|ratio|, first-order coupling strength",
        },
        "g2_interface": {
            "value": fom_if.g2,
            "convention": "(k_host*|ratio|)**2, second-order coupling strength",
        },
        "g1_wire": {
            "value": fom_wire.g1,
            "convention": "2*Re(k_sp)*|ratio| against the guided mode",
        },
        "g2_wire": {
            "value": fom_wire.g2,
            "convention": "(Re(k_sp)*|ratio|)**2 against the guided mode",
        },
        "k_spp_planar": _complex_entry(
            pole, "rad/nm", "surface-plasmon pole of the planar reflection problem"
        ),
        "k_sp_wire": _complex_entry(
            mode.k_sp, "rad/nm", "fundamental guided TM mode of the wire"
        ),
        "v_g": {
            "value": mode.v_g,
            "units": "nm/fs",
            "convention": "group velocity at frozen material permittivities",
        },
        "lambda_zx_check": {
            "value": est,
            "units": "nm",
            "significance_2k": qd.lambda_zx_significance(est, k_host),
            "envelope": {"sigma_e_nm": 2.0, "mass_ratio": 5.0, "shift_nm": 2.5},
            "convention": "growth-axis moment of the default Gaussian envelopes",
        },
        "omega_check": _omega_payload(cfg),
    }
    payload["n_eff_wire"] = _complex_entry(mode.k_sp / k0, "dimensionless", "k_sp / k0")
    return _json_text("report", cfg, payload)


# ------------------------------------------------------------------ parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat 'key = value' file applied over the defaults")
    for key, spec in _KEYS.items():
        if spec.help:
            parser.add_argument("--" + key.replace("_", "-"), help=spec.help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesoqed",
        description="Decay rates of mesoscopic emitters near metal structures.",
    )
    parser.add_argument("--version", action="version", version=f"mesoqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interface-sweep",
                       help="rate ladder vs height above the planar mirror")
    _add_common(p)
    p.add_argument("--range", metavar="MIN:MAX:STEP",
                   help="height sweep [nm]")
    p.set_defaults(handler=_cmd_interface_sweep)

    p = sub.add_parser("nanowire-sweep",
                       help="plasmon ladder and background vs wire distance")
    _add_common(p)
    p.add_argument("--range", metavar="MIN:MAX:STEP",
                   help="surface-distance sweep [nm]")
    p.add_argument("--orientation", choices=[nanowire.AXIAL, nanowire.RADIAL],
                   help="dipole orientation relative to the wire axis (default axial)")
    p.set_defaults(handler=_cmd_nanowire_sweep)

    p = sub.add_parser("dispersion", help="guided-mode data of the wire")
    _add_common(p)
    p.set_defaults(handler=_cmd_dispersion)

    p = sub.add_parser("field-map", help="complex mode field on an (r, z) grid")
    _add_common(p)
    p.add_argument("--rmin", type=float, default=0.0, help="grid start in r [nm]")
    p.add_argument("--rmax", type=float, help="grid end in r [nm] (default radius + 120)")
    p.add_argument("--zmin", type=float, default=0.0, help="grid start in z [nm]")
    p.add_argument("--zmax", type=float, default=500.0, help="grid end in z [nm]")
    p.add_argument("--nr", type=int, default=81, help="samples along r")
    p.add_argument("--nz", type=int, default=161, help="samples along z")
    p.set_defaults(handler=_cmd_field_map)

    p = sub.add_parser("moments", help="moment symmetry pattern and smallness checks")
    _add_common(p)
    p.add_argument("--sigma-e", dest="sigma_e", type=float, default=2.0,
                   help="electron envelope HWHM [nm]")
    p.add_argument("--mass-ratio", dest="mass_ratio", type=float, default=5.0,
                   help="hole-to-electron mass ratio")
    p.add_argument("--shift", type=float, default=2.5,
                   help="electron-hole center separation [nm]")
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("report", help="headline figures as JSON")
    _add_common(p)
    p.set_defaults(handler=_cmd_report)

    return parser


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        text = args.handler(cfg, args)
    except UsageError as exc:
        print(f"mesoqed: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"mesoqed: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except MesoqedError as exc:
        print(f"mesoqed: numerical failure: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(text, cfg.out)
    except OSError as exc:
        print(f"mesoqed: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
