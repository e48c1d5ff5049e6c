"""Command-line front end.

Subcommands
    interface-sweep   rate ladder vs emitter height above the planar mirror
    nanowire-sweep    plasmon ladder plus background vs distance from the wire
    dispersion        guided-mode wavevector, decay constants, group velocity
    field-map         complex mode field sampled on an (r, z) grid
    moments           symmetry pattern and smallness checks of the moments
    report            headline figures in one JSON document

A subcommand's flags, config-file keys and recorded config are the run
parameters it reads (``_READS``), resolved from the paper's defaults, a
flat ``key = value`` file (``--config``), then flags. Output is
deterministic: no timestamps, floats at 12 significant digits, config
keys sorted, so identical invocations give byte-identical files.

Exit codes: 0 success, 2 usage or configuration error (including a
moment expansion outside its validity domain), 3 numerical failure (no
bound mode, quadrature or series non-convergence).

Importing this module loads the standard library, ``core``, ``errors``
and ``moments``, and no numpy, so help, usage errors, refusals and
``moments`` run without it. A subcommand imports the geometry module it
runs: ``halfspace`` for ``interface-sweep``, ``nanowire`` for the
subcommands that read ``radius`` (their parameters are resolved into a
``WireGeometry``), both for ``report``. Both sweeps run in this process;
``--workers`` is checked and otherwise ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__, core
from . import moments as qd
from .core import EmitterMoments, Material, figures_of_merit
from .errors import ExpansionInvalidError, MesoqedError, ParameterError

if TYPE_CHECKING:
    from . import halfspace, nanowire


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


def _entry(value, convention: str, units: str | None = None, **fields) -> dict:
    """One JSON figure; a complex value is written as {"re", "im"}."""
    if isinstance(value, complex):
        value = {"re": value.real, "im": value.imag}
    entry = {"value": value, "convention": convention, **fields}
    if units is not None:
        entry["units"] = units
    return entry


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
    fmt: Callable | None   # `# config:` text; None: shapes no number, not printed
    help: str


# the envelope of `report`'s lambda_zx check and the defaults of `moments`
_ENVELOPE = qd.GaussianEnvelopes(2.0, 5.0, 2.5)

# Every run parameter; its name is the flag dest, the config key and the
# attribute of the resolved config
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
    "workers": _Key(1, int, None, "accepted and ignored: a sweep runs in one process"),
    "out": _Key("-", str, None, "output file, '-' for stdout (default)"),
    "orientation": _Key("axial", str, str, "dipole orientation: axial (default) or radial"),
    "range": _Key(None, _parse_range, _fmt_range, "sweep MIN:MAX:STEP [nm]"),
    "rmin": _Key(0.0, float, _fmt, "grid start in r [nm]"),
    "rmax": _Key(None, float, _fmt, "grid end in r [nm] (default radius + 120)"),
    "zmin": _Key(0.0, float, _fmt, "grid start in z [nm]"),
    "zmax": _Key(500.0, float, _fmt, "grid end in z [nm]"),
    "nr": _Key(81, int, _fmt, "samples along r"),
    "nz": _Key(161, int, _fmt, "samples along z"),
    "sigma_e": _Key(_ENVELOPE.sigma_e, float, _fmt, "electron envelope HWHM [nm]"),
    "mass_ratio": _Key(_ENVELOPE.mass_ratio, float, _fmt, "hole-to-electron mass ratio"),
    "shift": _Key(_ENVELOPE.shift, float, _fmt, "electron-hole center separation [nm]"),
}

# The run parameters each subcommand reads, in _KEYS order
_READS = {
    "interface-sweep": ("lambda0", "ratio", "lqd", "host_n", "metal_n", "tol", "workers",
                        "out", "range"),
    "nanowire-sweep": ("lambda0", "ratio", "radius", "lqd", "host_n", "metal_n", "tol",
                       "workers", "out", "orientation", "range"),
    "dispersion": ("lambda0", "radius", "host_n", "metal_n", "out"),
    "field-map": ("lambda0", "radius", "host_n", "metal_n", "out",
                  "rmin", "rmax", "zmin", "zmax", "nr", "nz"),
    "moments": ("lambda0", "lqd", "host_n", "out", "sigma_e", "mass_ratio", "shift"),
    "report": ("lambda0", "ratio", "radius", "lqd", "host_n", "metal_n", "out"),
}


def _cast(key: str, text: str, where: str = "") -> object:
    try:
        return _KEYS[key].cast(text)
    except ValueError:
        raise UsageError(f"{where}bad value {text!r} for {key}") from None


def _apply_config_file(values: dict, path: str, command: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _READS[command]:
            raise UsageError(f"{path}:{lineno}: {command} takes no config key {key!r}")
        values[key] = _cast(key, text.strip(), f"{path}:{lineno}: ")


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Every run parameter (default, then config file, then flag), checked."""
    values = {key: spec.default for key, spec in _KEYS.items()}
    if args.config:
        _apply_config_file(values, args.config, args.command)
    for key in _READS[args.command]:
        text = getattr(args, key)
        if text is not None:
            values[key] = _cast(key, text)
    if values["rmax"] is None:
        values["rmax"] = values["radius"] + 120.0
    cfg = argparse.Namespace(**values)
    if not (_TOL_MIN <= cfg.tol <= _TOL_MAX):
        raise UsageError(f"tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}], got {cfg.tol:g}")
    if not cfg.workers >= 1:
        raise UsageError(f"workers must be a positive integer, got {cfg.workers!r}")
    if cfg.range is not None:
        lo, hi, step = cfg.range
        if not all(math.isfinite(v) for v in cfg.range):
            raise UsageError(f"sweep range must be finite, got {_fmt_range(cfg.range)}")
        if not lo < hi:
            raise UsageError(f"sweep range is empty: need MIN < MAX, got {_fmt_range(cfg.range)}")
        if not step > 0.0:
            raise UsageError(f"sweep step must be positive, got {_fmt(step)}")
    # built once per run; their constructors check lambda0, lqd, radius, ratio and indices
    cfg.host = Material("host", cfg.host_n)
    cfg.metal = Material("metal", cfg.metal_n)
    if "radius" in _READS[args.command]:
        from . import nanowire

        cfg.wire = nanowire.WireGeometry(rho=cfg.radius, metal=cfg.metal, host=cfg.host,
                                         lambda0=cfg.lambda0)
        cfg.k0, cfg.k_host = cfg.wire.k0, cfg.wire.k_host
    else:
        # the checks WireGeometry makes after its radius, without loading numpy
        cfg.k0, cfg.k_host = core.host_wavevectors(cfg.host, cfg.lambda0)
    cfg.moments = EmitterMoments(lambda_over_mu=cfg.ratio, l_qd=cfg.lqd)
    return cfg


def _config_entries(command: str, cfg: argparse.Namespace) -> dict:
    return {key: _KEYS[key].fmt(getattr(cfg, key)) for key in _READS[command] if _KEYS[key].fmt}


# ------------------------------------------------------------ shared pieces


def _interface_geom(cfg: argparse.Namespace, h: float) -> halfspace.InterfaceGeometry:
    from . import halfspace

    return halfspace.InterfaceGeometry(upper=cfg.host, lower=cfg.metal, h=h, lambda0=cfg.lambda0)


def _sweep_values(cfg: argparse.Namespace, what: str) -> list:
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


def _interface_rows(cfg: argparse.Namespace, heights: list):
    from . import halfspace

    points = halfspace.interface_sweep(_interface_geom(cfg, heights[0]), heights, cfg.moments,
                                       rel_tol=cfg.tol)
    return (_interface_row(cfg, h, pt) for h, pt in zip(heights, points))


def _interface_row(cfg: argparse.Namespace, h: float, pt: halfspace.InterfacePoint) -> tuple:
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


def _wire_rows(cfg: argparse.Namespace, distances: list):
    return (_wire_row(cfg, d) for d in distances)


def _wire_row(cfg: argparse.Namespace, d: float) -> tuple:
    from . import nanowire

    lad = nanowire.plasmon_rates(cfg.wire, d, cfg.moments, cfg.orientation)
    bg = nanowire.quasistatic_background(cfg.wire, d, cfg.orientation, rel_tol=cfg.tol)
    return (
        d,
        lad.gamma0,
        lad.gamma1,
        lad.gamma2,
        bg,
        bg + lad.total,
        bg + lad.gamma0 - lad.gamma1 + lad.gamma2,
    )


def _rows(cfg: argparse.Namespace, label: str, points: list, rows_of) -> list:
    """The rows rows_of yields for the points, in order; a numerical failure names its point."""
    rows = []
    try:
        rows.extend(rows_of(cfg, points))
    except ParameterError:
        raise
    except MesoqedError as exc:
        raise exc.__class__(f"{label} = {_fmt(points[len(rows)])}: {exc}") from exc
    return rows


def _csv_text(command: str, cfg: argparse.Namespace, conventions: list, header: list,
              rows: list) -> str:
    lines = [f"# mesoqed {__version__}", f"# command: {command}"]
    for key, value in sorted(_config_entries(command, cfg).items()):
        lines.append(f"# config: {key} = {value}")
    for note in conventions:
        lines.append(f"# convention: {note}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(command: str, cfg: argparse.Namespace, payload: dict) -> str:
    doc = dict(payload)
    doc["meta"] = {
        "version": __version__,
        "command": command,
        "config": _config_entries(command, cfg),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _sweep_text(cfg: argparse.Namespace, command: str, rows: list, header: list,
                conventions: list) -> str:
    conventions = ["rates normalized to the homogeneous-host emission rate", *conventions]
    return _csv_text(command, cfg, conventions, header, rows)


def _v_g(mode: nanowire.GuidedMode) -> dict:
    return _entry(mode.v_g, "group velocity at frozen material permittivities", "nm/fs")


def _n_eff(cfg: argparse.Namespace, mode: nanowire.GuidedMode) -> dict:
    return _entry(mode.k_sp / cfg.k0, "k_sp / k0", "dimensionless")


def _lambda_zx(cfg: argparse.Namespace, env: qd.GaussianEnvelopes, convention: str,
               **fields) -> dict:
    est = qd.lambda_zx_estimate(env)
    return _entry(est, convention, "nm",
                  significance_2k=qd.lambda_zx_significance(est, cfg.k_host), **fields)


def _omega(cfg: argparse.Namespace) -> dict:
    vac = qd.omega_negligibility(cfg.k0, cfg.lqd)
    host = qd.omega_negligibility(cfg.k_host, cfg.lqd)
    return _entry(vac.value,
                  "(k*lqd)**2, negligible below 0.1; host-k variant reported alongside",
                  negligible=vac.negligible, k_convention="vacuum",
                  host_k_value=host.value, host_k_negligible=host.negligible)


# ----------------------------------------------------------------- commands


def _cmd_interface_sweep(cfg: argparse.Namespace) -> str:
    header = ["h", "gamma0", "gamma1", "gamma2", "total_direct", "total_inverted",
              "rad", "pl", "ls", "b_yx_norm", "q_xz_norm"]
    rows = _rows(cfg, "h", _sweep_values(cfg, "interface-sweep"), _interface_rows)
    return _sweep_text(cfg, "interface-sweep", rows, header, [
        "total_direct = gamma0 + gamma1 + gamma2; total_inverted flips the sign of gamma1",
        "rad + pl + ls = total_direct (decay-channel split of the direct total)",
        "b_yx_norm = b_yx*lqd/norm and q_xz_norm = q_xz*lqd/norm, norm = homogeneous Im G_xx",
    ])


def _cmd_nanowire_sweep(cfg: argparse.Namespace) -> str:
    header = ["d", "gamma0_pl", "gamma1_pl", "gamma2_pl", "background",
              "total_direct", "total_inverted"]
    rows = _rows(cfg, "d", _sweep_values(cfg, "nanowire-sweep"), _wire_rows)
    return _sweep_text(cfg, "nanowire-sweep", rows, header, [
        "gamma*_pl is the guided-plasmon channel alone;"
        " background = 1 + electrostatic surface-loss floor",
        "total_direct = background + gamma0_pl + gamma1_pl + gamma2_pl;"
        " total_inverted flips the sign of gamma1_pl",
    ])


def _cmd_dispersion(cfg: argparse.Namespace) -> str:
    from . import nanowire

    mode = nanowire.solve_dispersion(cfg.wire)
    return _json_text("dispersion", cfg, {
        "k_sp": _entry(mode.k_sp, "guided-mode wavevector, Im > 0 decaying", "rad/nm"),
        "n_eff": _n_eff(cfg, mode),
        "kappa_in": _entry(mode.kappa_in, "interior transverse decay constant", "1/nm"),
        "kappa_out": _entry(mode.kappa_out, "exterior transverse decay constant", "1/nm"),
        "v_g": _v_g(mode),
        "residual": _entry(mode.residual, "characteristic-equation residual at k_sp (scaled)"),
    })


def _cmd_field_map(cfg: argparse.Namespace) -> str:
    from . import nanowire

    window = nanowire.FieldWindow(
        r_min=cfg.rmin, r_max=cfg.rmax, z_min=cfg.zmin, z_max=cfg.zmax, n_r=cfg.nr, n_z=cfg.nz,
    )
    fm = nanowire.field_map(cfg.wire, window)
    rows = []
    for i, r in enumerate(fm.r):
        for j, z in enumerate(fm.z):
            er = fm.e_r[i, j]
            ez = fm.e_z[i, j]
            rows.append((r, z, er.real, er.imag, ez.real, ez.imag))
    conventions = ["complex mode field, normalized cross-section power integral;"
                   " real part = instantaneous field"]
    return _csv_text("field-map", cfg, conventions,
                     ["r", "z", "e_r_re", "e_r_im", "e_z_re", "e_z_im"], rows)


def _cmd_moments(cfg: argparse.Namespace) -> str:
    pattern = qd.allowed_moments(qd.LENS_SHAPED_TABLE)
    env = qd.GaussianEnvelopes(sigma_e=cfg.sigma_e, mass_ratio=cfg.mass_ratio, shift=cfg.shift)
    payload = {
        "allowed_mu": list(pattern.allowed_mu_axes()),
        "allowed_lambda": ["".join(pair) for pair in pattern.allowed_lambda_entries()],
        "lambda_zx": _lambda_zx(cfg, env,
                                "Gaussian-envelope growth-axis moment per dipole moment"),
        "omega_check": _omega(cfg),
    }
    return _json_text("moments", cfg, payload)


def _cmd_report(cfg: argparse.Namespace) -> str:
    from . import halfspace, nanowire

    fom_if = figures_of_merit(cfg.k_host, cfg.moments)
    mode = nanowire.solve_dispersion(cfg.wire)
    fom_wire = figures_of_merit(mode.k_sp.real, cfg.moments)
    pole = halfspace.spp_pole(_interface_geom(cfg, 100.0))
    envelope = {"sigma_e_nm": _ENVELOPE.sigma_e, "mass_ratio": _ENVELOPE.mass_ratio,
                "shift_nm": _ENVELOPE.shift}
    return _json_text("report", cfg, {
        "g1_interface": _entry(fom_if.g1, "2*k_host*|ratio|, first-order coupling strength"),
        "g2_interface": _entry(fom_if.g2, "(k_host*|ratio|)**2, second-order coupling strength"),
        "g1_wire": _entry(fom_wire.g1, "2*Re(k_sp)*|ratio| against the guided mode"),
        "g2_wire": _entry(fom_wire.g2, "(Re(k_sp)*|ratio|)**2 against the guided mode"),
        "k_spp_planar": _entry(pole, "surface-plasmon pole of the planar reflection problem",
                               "rad/nm"),
        "k_sp_wire": _entry(mode.k_sp, "fundamental guided TM mode of the wire", "rad/nm"),
        "v_g": _v_g(mode),
        "lambda_zx_check": _lambda_zx(cfg, _ENVELOPE,
                                      "growth-axis moment of the default Gaussian envelopes",
                                      envelope=envelope),
        "omega_check": _omega(cfg),
        "n_eff_wire": _n_eff(cfg, mode),
    })


# ------------------------------------------------------------------ parser


def _command(sub, name: str, handler, help: str) -> None:
    """A subcommand with a flag per run parameter it reads, run by handler."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", metavar="FILE",
                   help="flat 'key = value' file applied over the defaults")
    for key in _READS[name]:
        p.add_argument("--" + key.replace("_", "-"), help=_KEYS[key].help)
    p.set_defaults(handler=handler)


# a word that starts like a negative number: -5, -1e6, -.5, -inf, -0.2+7j, -5:10:5
_NEGATIVE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list) -> list:
    """Each '--key -1e6' as '--key=-1e6', for every table key.

    argparse takes a word that starts with '-' for an option unless it
    reads as a plain decimal such as -5 or -0.5; every table flag takes
    one value, so a negative number after one is that value.
    """
    words = []
    for word in argv:
        flag = words[-1] if words else ""
        if _NEGATIVE.match(word) and flag.startswith("--") \
                and flag[2:].replace("-", "_") in _KEYS:
            words[-1] = f"{flag}={word}"
        else:
            words.append(word)
    return words


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesoqed",
        description="Decay rates of mesoscopic emitters near metal structures.",
    )
    parser.add_argument("--version", action="version", version=f"mesoqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "interface-sweep", _cmd_interface_sweep,
             "rate ladder vs height above the planar mirror")
    _command(sub, "nanowire-sweep", _cmd_nanowire_sweep,
             "plasmon ladder and background vs wire distance")
    _command(sub, "dispersion", _cmd_dispersion, "guided-mode data of the wire")
    _command(sub, "field-map", _cmd_field_map, "complex mode field on an (r, z) grid")
    _command(sub, "moments", _cmd_moments, "moment symmetry pattern and smallness checks")
    _command(sub, "report", _cmd_report, "headline figures as JSON")
    return parser


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _resolve(args)
        with warnings.catch_warnings():
            # a library warning as one line, without Python's echo of the warning call
            warnings.showwarning = lambda message, *_: print(f"mesoqed: warning: {message}",
                                                             file=sys.stderr)
            text = args.handler(cfg)
    except UsageError as exc:
        print(f"mesoqed: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, ExpansionInvalidError) as exc:
        # an expansion outside its domain follows from the inputs alone
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
