"""Command-line interface: golden outputs, exit codes, determinism."""

import concurrent.futures
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path
from unittest.mock import MagicMock, patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mesoqed
from mesoqed import __version__, cli, nanowire
from mesoqed.cli import main

GOLDEN_INTERFACE_100 = (
    "100,1.24786477355,-0.0278850504033,0.00376036572776,"
    "1.22374008887,1.27951018968,1.20455438808,0.0388624260599,"
    "-0.0196767252705,0.0991102131861,-0.154880313993"
)
GOLDEN_WIRE_AXIAL_20 = (
    "20,0.876078377555,-1.03482185622,0.305841858801,"
    "1.94990359548,2.09700197562,4.16664568806"
)
GOLDEN_WIRE_RADIAL_20 = (
    "20,2.15098006723,0,0.139624874136,"
    "2.70601802935,4.99662297072,4.99662297072"
)


# child interpreters import the same mesoqed as this process, installed
# or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(Path(mesoqed.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))}


def run_text(argv, tmp_path, name="out.txt"):
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    assert rc == 0
    return path.read_text(encoding="utf-8")


def data_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), lines[1:]


def stdout_of(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def config_keys(text):
    return {ln.split()[2] for ln in text.splitlines() if ln.startswith("# config: ")}


# ------------------------------------------------------------ golden rows


def test_interface_sweep_golden_row(tmp_path):
    text = run_text(["interface-sweep", "--range", "100:101:5"], tmp_path)
    header, rows = data_rows(text)
    assert header == [
        "h", "gamma0", "gamma1", "gamma2", "total_direct", "total_inverted",
        "rad", "pl", "ls", "b_yx_norm", "q_xz_norm",
    ]
    assert rows == [GOLDEN_INTERFACE_100]
    assert f"# mesoqed {__version__}" in text.splitlines()[0]


def test_nanowire_sweep_golden_rows(tmp_path):
    axial = run_text(["nanowire-sweep", "--range", "20:21:5"], tmp_path, "a.csv")
    header, rows = data_rows(axial)
    assert header == [
        "d", "gamma0_pl", "gamma1_pl", "gamma2_pl", "background",
        "total_direct", "total_inverted",
    ]
    assert rows == [GOLDEN_WIRE_AXIAL_20]

    radial = run_text(
        ["nanowire-sweep", "--range", "20:21:5", "--orientation", "radial"],
        tmp_path, "r.csv",
    )
    _, rows = data_rows(radial)
    assert rows == [GOLDEN_WIRE_RADIAL_20]


def test_radial_gradient_column_is_literal_zero(tmp_path):
    # a negative ratio (inverted mounting) must not print the rung as "-0"
    for ratio in ("10", "-10"):
        text = run_text(
            ["nanowire-sweep", "--range", "20:81:20", "--orientation", "radial",
             "--ratio", ratio],
            tmp_path,
        )
        _, rows = data_rows(text)
        assert len(rows) == 4
        for row in rows:
            assert row.split(",")[2] == "0"


# ------------------------------------------------------- row-level physics


def test_interface_rows_satisfy_flip_and_partition(tmp_path):
    text = run_text(["interface-sweep", "--range", "50:251:50"], tmp_path)
    _, rows = data_rows(text)
    assert len(rows) == 5
    for row in rows:
        vals = [float(x) for x in row.split(",")]
        h, g0, g1, g2, td, ti, rad, pl, ls = vals[:9]
        assert td - ti == pytest.approx(2.0 * g1, abs=1e-9)
        assert td + ti == pytest.approx(2.0 * (g0 + g2), abs=1e-9)
        assert rad + pl + ls == pytest.approx(td, abs=1e-9)


def test_interface_far_field_row(tmp_path):
    text = run_text(["interface-sweep", "--range", "2000:2001:5"], tmp_path)
    _, rows = data_rows(text)
    td = float(rows[0].split(",")[4])
    assert abs(td - 1.0) < 0.025


def test_wire_rows_satisfy_flip_identity(tmp_path):
    text = run_text(["nanowire-sweep", "--range", "20:101:20"], tmp_path)
    _, rows = data_rows(text)
    assert len(rows) == 5
    for row in rows:
        d, g0, g1, g2, bg, td, ti = (float(x) for x in row.split(","))
        assert td == pytest.approx(bg + g0 + g1 + g2, abs=1e-9)
        assert ti == pytest.approx(bg + g0 - g1 + g2, abs=1e-9)
        # suppression of the launched plasmon in the direct mounting
        assert (ti - bg) / (td - bg) >= 5.0


def test_wire_background_fades(tmp_path):
    text = run_text(["nanowire-sweep", "--range", "1000:1001:5"], tmp_path)
    _, rows = data_rows(text)
    bg = float(rows[0].split(",")[4])
    assert bg == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------ json outputs


def test_report_values(tmp_path):
    doc = json.loads(run_text(["report"], tmp_path, "report.json"))
    assert doc["meta"]["version"] == __version__
    assert doc["meta"]["command"] == "report"
    assert doc["g1_interface"]["value"] == pytest.approx(0.4297698750110837, rel=1e-12)
    assert doc["g2_interface"]["value"] == pytest.approx(0.04617553636676063, rel=1e-12)
    assert doc["g1_wire"]["value"] == pytest.approx(0.7538343429175419, rel=1e-12)
    assert doc["g2_wire"]["value"] == pytest.approx(0.14206655414048056, rel=1e-12)
    assert doc["k_sp_wire"]["value"]["re"] == pytest.approx(0.037691717145877095, rel=1e-12)
    assert doc["k_spp_planar"]["value"]["re"] == pytest.approx(0.024615585483861193, rel=1e-12)
    assert doc["v_g"]["value"] == pytest.approx(96.995429, rel=1e-6)
    assert doc["n_eff_wire"]["value"]["re"] == pytest.approx(5.998823, rel=1e-6)
    assert doc["lambda_zx_check"]["value"] == pytest.approx(0.0, abs=1e-12)
    assert doc["omega_check"]["value"] == pytest.approx(0.015791367041742974, rel=1e-12)
    assert doc["omega_check"]["negligible"] is True
    assert doc["omega_check"]["k_convention"] == "vacuum"
    assert doc["omega_check"]["host_k_negligible"] is False


def test_dispersion_payload(tmp_path):
    doc = json.loads(run_text(["dispersion"], tmp_path, "disp.json"))
    assert doc["residual"]["value"] < 1e-10
    assert doc["n_eff"]["value"]["re"] == pytest.approx(5.998823, rel=1e-6)
    assert doc["n_eff"]["value"]["im"] == pytest.approx(0.174823, rel=1e-5)
    assert doc["kappa_out"]["value"]["re"] > 0.0


def test_thin_wire_dispersion(tmp_path):
    doc = json.loads(run_text(["dispersion", "--radius", "2"], tmp_path, "disp.json"))
    assert doc["residual"]["value"] < 1e-12
    assert doc["k_sp"]["value"]["re"] == pytest.approx(0.39337335206, rel=1e-10)


def test_moments_payload(tmp_path):
    doc = json.loads(run_text(["moments"], tmp_path, "mom.json"))
    assert doc["allowed_mu"] == ["x"]
    assert sorted(doc["allowed_lambda"]) == ["xz", "zx"]
    assert doc["lambda_zx"]["value"] == pytest.approx(0.0, abs=1e-12)
    assert doc["omega_check"]["value"] == pytest.approx(0.015791367041742974, rel=1e-12)


def test_field_map_grid(tmp_path):
    text = run_text(
        ["field-map", "--nr", "5", "--nz", "4", "--rmax", "90", "--zmax", "100"],
        tmp_path, "fm.csv",
    )
    header, rows = data_rows(text)
    assert header == ["r", "z", "e_r_re", "e_r_im", "e_z_re", "e_z_im"]
    assert len(rows) == 20
    first = rows[0].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    # r-major ordering: z cycles fastest
    assert float(rows[1].split(",")[0]) == 0.0
    assert float(rows[4].split(",")[0]) > 0.0
    for row in rows:
        vals = [float(x) for x in row.split(",")]
        assert all(abs(v) < 1e6 for v in vals)


# ------------------------------------------------------------- determinism


def test_outputs_are_byte_identical_across_runs(tmp_path):
    a = run_text(["interface-sweep", "--range", "50:151:50"], tmp_path, "a.csv")
    b = run_text(["interface-sweep", "--range", "50:151:50"], tmp_path, "b.csv")
    assert a == b
    a = run_text(["report"], tmp_path, "ra.json")
    b = run_text(["report"], tmp_path, "rb.json")
    assert a == b


def test_parallel_workers_match_serial(tmp_path):
    # --workers is checked and ignored: every sweep runs in this process
    for argv in (["interface-sweep", "--range", "60:181:60"],
                 ["nanowire-sweep", "--range", "20:81:20"]):
        serial = run_text(argv, tmp_path, "s.csv")
        for workers in ("1", "2", "100000"):
            assert run_text(argv + ["--workers", workers], tmp_path, "w.csv") == serial, workers


@pytest.mark.parametrize("argv", [["interface-sweep", "--range", "60:181:60"],
                                  ["nanowire-sweep", "--range", "20:81:20"]])
def test_pool_of_a_fresh_cli_process_matches_serial(argv):
    # a fresh CLI process asked for two workers runs in one process all
    # the same: its stdout and stderr are the serial run's bytes
    def run(workers):
        proc = subprocess.run([sys.executable, "-m", "mesoqed.cli", *argv, "--workers", workers],
                              capture_output=True, text=True, timeout=300, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, proc.stderr

    assert run("2") == run("1")


@pytest.mark.parametrize("command", ["interface-sweep", "nanowire-sweep"])
@pytest.mark.parametrize("workers, err", [
    ("0", "mesoqed: workers must be a positive integer, got 0\n"),
    ("-1", "mesoqed: workers must be a positive integer, got -1\n"),
    ("1.5", "mesoqed: bad value '1.5' for workers\n"),
    ("1e300", "mesoqed: bad value '1e300' for workers\n"),
])
def test_ignored_workers_is_still_checked(tmp_path, capsys, command, workers, err):
    # --workers changes no output, but a value that is not a positive
    # integer is refused on both sweeps before any point runs
    rc = main([command, "--range", "20:41:20", "--workers", workers,
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failing_point_is_named(capsys, workers):
    rc = main(["interface-sweep", "--range", "20:41:20", "--ratio", "1e200",
               "--workers", workers])
    assert rc == 2
    assert capsys.readouterr().err.startswith("mesoqed: invalid configuration: h = 20: ")


@pytest.mark.parametrize("argv, h", [
    # lam**2/norm overflows while the ladder stays finite
    (["--range", "20:1000:490", "--ratio", "7e152"], "20"),
    # lam**2/norm is finite, but not its product with the lossy-surface
    # part of the second rung, which exceeds the whole rung near the
    # plasmon resonance
    (["--range", "3:4:5", "--metal-n", "0.01+3.43j", "--ratio", "5.87e151"], "3"),
])
def test_point_whose_channels_overflow_is_refused(capsys, argv, h):
    # the height is refused rather than written with infinite channels
    assert main(["interface-sweep", *argv, "--lqd", "1e-160"]) == 2
    assert capsys.readouterr() == ("", f"mesoqed: invalid configuration: h = {h}: the "
                                       "multipole split or a channel is not finite: the moment "
                                       "ratio overflows double precision\n")


def test_height_whose_quadrature_fails_is_named(capsys):
    # a lower medium with the host's index at a 1e-14 target: the k_par
    # quadrature stops at 3.4e-14, and the sweep exits 3 naming the height
    argv = ["interface-sweep", "--range", "20:21:5", "--metal-n", "3.42", "--tol", "1e-14"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "mesoqed: numerical failure: h = 20: k_par quadrature "
                                       "reached 3.434e-14, wanted 1.0e-14 relative "
                                       "(scale 1.140e-03)\n")


def test_plasmon_residue_beyond_double_range_is_a_numerical_failure(tmp_path):
    # a lower medium of index 1e150j: the quadrature holds, but the r_p
    # pole's residue overflows, and the run exits 3 saying so in one line
    # without numpy's warnings; at 1e140j the residue is finite
    argv = ["interface-sweep", "--range", "20:21:5", "--metal-n"]
    proc = subprocess.run([sys.executable, "-m", "mesoqed.cli", *argv, "1e150j"],
                          capture_output=True, text=True, timeout=300, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "mesoqed: numerical failure: h = 20: the plasmon pole's residue leaves double "
               "range\n")
    _, rows = data_rows(run_text([*argv, "1e140j"], tmp_path))
    assert rows == ["20,0.142019023949,-0.0350305694927,0.0175152847464,0.124503739203,"
                    "0.194564878188,0.124503739202,4.71538538114e-09,-4.71527753419e-09,"
                    "-0.171411369731,0.101350230746"]


def test_height_within_half_the_dot_is_refused_by_name(capsys):
    # L_qd < 2h: the default 20 nm dot refuses h = 5 before any quadrature
    assert main(["interface-sweep", "--range", "5:30:5"]) == 2
    assert capsys.readouterr() == ("", "mesoqed: invalid configuration: h = 5: k*L_qd = 2.000 "
                                       ">= 1: the moment expansion does not converge\n")


def test_height_far_inside_the_dot_is_refused_in_one_short_line(capsys):
    # k*L_qd near 1e301 is shown in exponent form, not as 300 digits
    assert main(["interface-sweep", "--range", "1e-300:2e-300:1e-300"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200
    assert "k*L_qd = 1.000e+301 >= 1" in err


# ------------------------------------------------------------- config file


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "orientation = radial\n"
        "range = 20:21:5\n"
        "ratio = -10\n",
        encoding="utf-8",
    )
    via_config = run_text(
        ["nanowire-sweep", "--config", str(cfg), "--ratio", "5"], tmp_path, "c.csv"
    )
    direct = run_text(
        ["nanowire-sweep", "--orientation", "radial", "--range", "20:21:5",
         "--ratio", "5"],
        tmp_path, "d.csv",
    )
    assert data_rows(via_config) == data_rows(direct)


# the run parameters each subcommand's handler reads: its flags, its
# config-file keys and, but for `out` and `workers`, its recorded config
READS = {
    "interface-sweep": {"lambda0", "ratio", "lqd", "host_n", "metal_n", "tol", "workers",
                        "range", "out"},
    "nanowire-sweep": {"lambda0", "ratio", "radius", "lqd", "host_n", "metal_n", "tol",
                       "workers", "range", "orientation", "out"},
    "dispersion": {"lambda0", "radius", "host_n", "metal_n", "out"},
    "field-map": {"lambda0", "radius", "host_n", "metal_n", "out",
                  "rmin", "rmax", "zmin", "zmax", "nr", "nz"},
    "moments": {"lambda0", "lqd", "host_n", "out", "sigma_e", "mass_ratio", "shift"},
    "report": {"lambda0", "ratio", "radius", "lqd", "host_n", "metal_n", "out"},
}
# one quick run of each subcommand
BASE = {
    "interface-sweep": ["interface-sweep", "--range", "100:101:5"],
    "nanowire-sweep": ["nanowire-sweep", "--range", "20:21:5"],
    "dispersion": ["dispersion"],
    "field-map": ["field-map", "--nr", "2", "--nz", "2"],
    "moments": ["moments"],
    "report": ["report"],
}
# a value, other than the default, for every run parameter but `out`
TABLE_VALUES = {
    "lambda0": "900", "ratio": "-7.5", "radius": "40", "lqd": "15",
    "host_n": "3.5", "metal_n": "0.25 + 6.5j", "tol": "1e-3", "workers": "2",
    "orientation": "radial", "range": "100:151:50",
    "rmin": "10", "rmax": "200", "zmin": "-50", "zmax": "300", "nr": "3", "nz": "3",
    "sigma_e": "3", "mass_ratio": "4", "shift": "1.5",
}


def with_key(command, key, value):
    """BASE run of command with the run parameter key set to value by a flag."""
    flag = "--" + key.replace("_", "-")
    argv = BASE[command]
    if flag in argv:  # the BASE run's own value goes, so a config file can set it
        i = argv.index(flag)
        argv = argv[:i] + argv[i + 2:]
    return argv + [flag, value]


def recorded_config(text):
    if text.startswith("{"):
        return set(json.loads(text)["meta"]["config"])
    return config_keys(text)


def data_of(text):
    """CSV rows, or the JSON document without its meta."""
    if text.startswith("{"):
        doc = json.loads(text)
        del doc["meta"]
        return doc
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_keys_the_subcommand_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--([a-z][a-z0-9-]*)", capsys.readouterr().out))
    assert listed == {key.replace("_", "-") for key in READS[command]} | {"help", "config"}


@pytest.mark.parametrize("command", sorted(READS))
def test_keys_the_subcommand_does_not_read_exit_2(command, tmp_path, capsys):
    # besides TABLE_VALUES, the bad metal indices `moments` once accepted:
    # it builds no metal, so the flag is refused whatever its value
    unread_values = {"metal_n": ("nan+1j", "1-1j")}
    for key in sorted(set(cli._KEYS) - READS[command]):
        for value in (TABLE_VALUES[key], *unread_values.get(key, ())):
            with pytest.raises(SystemExit) as exc:
                main(with_key(command, key, value))
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{key.replace('_', '-')}" in capsys.readouterr().err
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err == \
                f"mesoqed: {cfg}:1: {command} takes no config key {key!r}\n"
            assert not (tmp_path / "x").exists()


# the wire's rates do not depend on lqd; it only bounds the expansion,
# Re(k_sp)*lqd < 1, so a long enough emitter fails the sweep
BOUND_ONLY = {("nanowire-sweep", "lqd"): "50"}
# with the hole width tied to the mass ratio (equal hbar*omega, criterion
# 10), lambda_zx vanishes for every envelope: these keys move `moments`'
# data by roundoff at most
ROUNDOFF_ONLY = {("moments", "sigma_e"), ("moments", "mass_ratio"), ("moments", "shift")}


def test_every_table_key_reads_the_same_from_flag_and_file(tmp_path, capsys):
    # and each but `workers` changes the data, not just the `# config:`
    # lines: a run parameter that no number depends on is no run parameter
    assert set(TABLE_VALUES) == set(cli._KEYS) - {"out"}
    for command, reads in READS.items():
        default = stdout_of(BASE[command], capsys)
        for key in sorted(reads - {"out"}):
            flagged = with_key(command, key, TABLE_VALUES[key])
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key.replace('_', '-')} = {TABLE_VALUES[key]}\n", encoding="utf-8")
            via_file = stdout_of(flagged[:-2] + ["--config", str(cfg)], capsys)
            via_flag = stdout_of(flagged, capsys)
            assert via_file == via_flag, (command, key)
            if key == "workers":
                # a sweep's output is the same whatever --workers says
                assert via_flag == default, command
            elif (command, key) in BOUND_ONLY:
                assert data_of(via_flag) == data_of(default) and via_flag != default
                argv = with_key(command, key, BOUND_ONLY[command, key])
                assert main(argv + ["--out", str(tmp_path / "x")]) == 2
                assert "k*L_qd" in capsys.readouterr().err
            elif (command, key) in ROUNDOFF_ONLY:
                doc, ref = data_of(via_flag), data_of(default)
                moved, fixed = doc.pop("lambda_zx"), ref.pop("lambda_zx")
                assert doc == ref and via_flag != default, key
                for entry in (moved, fixed):
                    assert abs(entry.pop("value")) < 1e-12
                    assert abs(entry.pop("significance_2k")) < 1e-12
                assert moved == fixed, key
            else:
                assert data_of(via_flag) != data_of(default), (command, key)


def test_printed_config_keys_are_the_table(capsys):
    for command, reads in READS.items():
        assert recorded_config(stdout_of(BASE[command], capsys)) == \
            reads - {"out", "workers"}, command


def test_field_map_records_the_grid_it_used(capsys):
    # rmax defaults to radius + 120, and the record holds the value used
    text = stdout_of(BASE["field-map"] + ["--radius", "25"], capsys)
    assert "# config: rmax = 145\n" in text
    assert data_rows(text)[1][-1].startswith("145,500,")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_flag_table_is_the_table():
    # README's subcommand table lists each subcommand's flags in _READS order
    rows = re.findall(r"^\| (`[a-z-]+`(?:, `[a-z-]+`)*) \| (`--[^|]*`) \|$",
                      README.read_text(encoding="utf-8"), re.M)
    table = {}
    for names, flags in rows:
        for name in re.findall(r"`([a-z-]+)`", names):
            table[name] = tuple(f.replace("-", "_") for f in re.findall(r"--([a-z0-9-]+)", flags))
    assert table == cli._READS


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n", encoding="utf-8")
    rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n", encoding="utf-8")
    rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"{cfg}:1: " in capsys.readouterr().err


def test_config_file_bad_value_names_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\nhost_n = abc\n", encoding="utf-8")
    rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"mesoqed: {cfg}:2: bad value 'abc' for host_n\n"
    assert not (tmp_path / "x").exists()


def test_config_file_not_utf8_is_refused_like_an_unreadable_one(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfe")
    rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr() == ("", f"mesoqed: cannot read config file {cfg}: 'utf-8' codec "
                                       "can't decode byte 0xff in position 0: invalid start "
                                       "byte\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value", [("--host-n", "abc"), ("--lambda0", "abc"),
                                         ("--workers", "1.5"), ("--nr", "1.5"),
                                         ("--sigma-e", "abc")])
def test_flag_bad_value_names_the_key(tmp_path, capsys, flag, value):
    key = flag[2:].replace("-", "_")
    command = next(name for name, keys in READS.items() if key in keys)
    rc = main([command, flag, value, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"mesoqed: bad value {value!r} for {key}\n"


# -------------------------------------------------------------- exit codes


def test_missing_range_is_usage_error(tmp_path, capsys):
    assert main(["interface-sweep", "--out", str(tmp_path / "x")]) == 2
    assert "range" in capsys.readouterr().err


def test_empty_range_is_usage_error(tmp_path, capsys):
    assert main(["interface-sweep", "--range", "5:4:1",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "empty" in err


def test_malformed_range_is_usage_error(tmp_path):
    assert main(["interface-sweep", "--range", "abc",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["interface-sweep", "--range", "1:2",
                 "--out", str(tmp_path / "x")]) == 2


def test_identical_metal_and_host_is_parameter_error(tmp_path, capsys):
    rc = main(["nanowire-sweep", "--range", "20:21:5", "--metal-n", "3.42",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "identical" in capsys.readouterr().err


def test_no_bound_mode_is_numerical_failure(tmp_path, capsys):
    rc = main(["dispersion", "--metal-n", "1.5", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_unwritable_output_path(tmp_path, capsys):
    rc = main(["moments", "--out", str(tmp_path / "no-such-dir" / "x.json")])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err


# k1 ~ 1e60/nm and k_b ~ 630*k1, with no tail: kp**5 overflows on the ellipse alone
ELLIPSE_OVERFLOW = ["interface-sweep", "--lambda0", "2.149e-59", "--lqd", "1e-62",
                    "--range", "1e-58:2e-58:1e-58", "--metal-n", "0.0001+3.4200171j"]
ELLIPSE_OVERFLOW_ERR = ("mesoqed: numerical failure: h = 1e-58: "
                        "k_par integrand overflows at h = 1e-58 nm\n")
# the name of a config file that holds the bytes ff fe, in the test's directory
NOT_UTF8 = "not-utf8.cfg"


@pytest.mark.parametrize("argv, code", [
    (["report", "--lqd", "1e300"], 2),
    (["interface-sweep", "--range", "20:21:1e-300"], 2),
    (["interface-sweep", "--range", "0:1000000:1"], 2),
    (["field-map", "--nr", "1000000000", "--nz", "2"], 2),
    (["interface-sweep", "--range", "1e-300:1e-299:1e-300", "--lqd", "1e-300"], 3),
    (["interface-sweep", "--range", "20:21:5", "--ratio", "1e200"], 2),
    (["nanowire-sweep", "--range", "20:21:5", "--ratio", "1e300"], 2),
    (["nanowire-sweep", "--radius", "10", "--range", "20:21:5"], 2),
    (["dispersion", "--metal-n", "0+3.42j"], 3),
    (["dispersion", "--radius", "1e-6"], 3),
    (["interface-sweep", "--range", "20:21:5", "--host-n", "-3.42"], 2),
    (["dispersion", "--host-n", "0"], 2),
    (["field-map", "--zmax", "inf", "--nr", "2", "--nz", "2"], 2),
    (["field-map", "--rmin", "nan"], 2),
    (["field-map", "--rmax", "inf"], 2),
    (["moments", "--host-n", "nan+1j"], 2),
    (["moments", "--host-n", "1-1j"], 2),
    (["moments", "--host-n", "3.42+0.1j"], 2),
    (["field-map", "--rmax", "30000", "--nr", "3", "--nz", "2"], 0),
    (["nanowire-sweep", "--range", "30000:30001:5"], 3),
    (["moments", "--sigma-e", "1e300"], 2),
    (["moments", "--sigma-e", "1e-300"], 2),
    (["field-map", "--nr", "3", "--nz", "2", "--zmin=-1e6"], 2),
    (["field-map", "--nr", "3", "--nz", "2", "--zmin=-1e300"], 2),
    (["field-map", "--nr", "3", "--nz", "2", "--zmin", "-1e6"], 2),
    (["interface-sweep", "--range", "1e-10:2e-10:1e-10", "--lambda0", "1e300", "--lqd", "1e-10"],
     3),
    (["interface-sweep", "--range", "1e-300:2e-300:1e-300", "--lambda0", "1e300",
      "--lqd", "1e-300"], 3),
    (["interface-sweep", "--range", "5:30:5"], 2),
    (["interface-sweep", "--range", "10:30:5"], 2),
    (["interface-sweep", "--range", "3:30:1", "--lqd", "5"], 0),
    (["interface-sweep", "--range", "a:b:c"], 2),
    (["interface-sweep", "--range", "10:inf:5"], 2),
    (["interface-sweep", "--range", "10:20:0"], 2),
    (["nanowire-sweep", "--range", "20:21:5", "--orientation", "diagonal"], 2),
    (["interface-sweep", "--range", "20:21:5", "--ratio", "nan"], 2),
    (["report", "--config", "/nonexistent/cfg.txt"], 2),
    (ELLIPSE_OVERFLOW, 3),
    (["interface-sweep", "--range", "20:60:20", "--metal-n=-0.2+7j"], 2),
    (["dispersion", "--metal-n=-0.2+7j"], 2),
    (["interface-sweep", "--range", "20:60:20", "--metal-n=-0.0+7j"], 0),
    (["dispersion", "--metal-n=-0.0+7j"], 0),
    (["moments", "--lqd", "-3"], 2),
    (["dispersion", "--radius", "0"], 2),
    (["report", "--ratio", "nan"], 2),
    (["field-map", "--lambda0", "-5"], 2),
    (["nanowire-sweep", "--range", "20:21:5", "--orientation", "diagonal", "--metal-n", "1.5"], 2),
    (["report", "--lambda0", "1e-320"], 2),
    (["moments", "--lambda0", "1e-320"], 2),
    (["dispersion", "--lambda0", "1e-320"], 2),
    (["field-map", "--lambda0", "1e-320", "--nr", "2", "--nz", "2"], 2),
    (["nanowire-sweep", "--lambda0", "1e-320", "--range", "20:21:5"], 2),
    (["nanowire-sweep", "--range", "1e-7:2e-7:1e-7"], 3),
    (["report", "--config", NOT_UTF8], 2),
])
def test_extreme_inputs_exit_with_documented_code(tmp_path, capsys, argv, code):
    # overflowing moments, sweeps and maps past 1 000 000 points, a
    # height whose contour tail overflows, a wire thin enough that
    # Re(k_sp)*L_qd >= 1, a metal at eps = -eps_host, a wire so thin
    # that k_sp does not move with frequency, a host index that is not
    # positive, a field window that is not finite, a gain or non-finite
    # index where no geometry is built, points so far from the wire that
    # K underflows, envelope widths that square outside double range, a
    # field window far below z = 0, where e^{i k_sp z} overflows (its
    # bound also given as a separate word), heights so small at so
    # long a wavelength that the contour tail's end overflows or 2*k1*h
    # underflows to 0 (with a dot small enough for them), and heights
    # at or below L_qd/2, which a smaller dot admits, then a range that
    # is not numeric, not finite or has step 0, an unknown orientation,
    # a NaN ratio, a config file that does not exist and a wavelength so
    # short that kp**5 overflows on the ellipse (its message pinned),
    # a metal with Re n < 0 < Im n (gain in Im eps) next to its passive
    # signed-zero twin, then the checks the library types make for every
    # subcommand (extent, radius, ratio, wavelength) and an unknown
    # orientation on a metal with no bound mode, which is refused before
    # the mode solve, and a wavelength so short that 2*pi/lambda0
    # overflows, which the geometry refuses for every subcommand, and a
    # dipole so close to the wire that its background is NaN, and a
    # config file that is not UTF-8: a message, never a traceback, a
    # warning or a printed inf
    (tmp_path / NOT_UTF8).write_bytes(b"\xff\xfe")
    argv = [str(tmp_path / word) if word == NOT_UTF8 else word for word in argv]
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert out.exists() == (code == 0)
    if code:
        assert err.startswith("mesoqed: ") and "Traceback" not in err
        assert err.count("\n") == 1
    else:
        assert_numbers_finite(out.read_text(encoding="utf-8"))
    if argv == ELLIPSE_OVERFLOW:
        assert err == ELLIPSE_OVERFLOW_ERR


INVALID = "mesoqed: invalid configuration: "


@pytest.mark.parametrize("argv, err", [
    (["interface-sweep", "--lambda0", "-1", "--lqd", "-1"],
     INVALID + "lambda0 must be finite and > 0, got -1.0"),
    (["interface-sweep", "--lambda0", "-1", "--host-n", "-3.42"],
     INVALID + "lambda0 must be finite and > 0, got -1.0"),
    (["interface-sweep", "--metal-n", "nan", "--host-n", "-1"],
     INVALID + "material 'metal': n must be a finite complex number, got (nan+0j)"),
    (["interface-sweep", "--ratio", "nan", "--lqd", "-1"],
     INVALID + "ratio must be finite, got nan"),
    (["interface-sweep", "--lqd", "-1", "--lambda0", "1e-320"],
     INVALID + "wavevector 2*pi*n/lambda0 of 'vacuum' leaves double range at lambda0 = 1e-320"),
    (["interface-sweep", "--tol", "1", "--lambda0", "-1"],
     "mesoqed: tol must lie in [1e-14, 0.001], got 1"),
    (["interface-sweep", "--range", "10:5:1", "--lambda0", "-1"],
     "mesoqed: sweep range is empty: need MIN < MAX, got 10:5:1"),
    (["interface-sweep", "--workers", "0", "--host-n", "1-1j"],
     "mesoqed: workers must be a positive integer, got 0"),
    (["interface-sweep", "--host-n", "1+1j", "--range", "20:21:5", "--ratio", "nan"],
     INVALID + "emitter medium 'host' must be lossless with Re n > 0, got n = 1+1j"),
    (["nanowire-sweep", "--radius", "-1", "--lambda0", "-1"],
     INVALID + "radius must be finite and > 0, got -1.0"),
    (["nanowire-sweep", "--radius", "nan", "--host-n", "1-1j"],
     INVALID + "material 'host': Im(n) = -1.0 < 0 means gain, not a passive medium"),
    (["nanowire-sweep", "--orientation", "diagonal", "--radius", "-1", "--range", "20:21:5"],
     INVALID + "radius must be finite and > 0, got -1.0"),
    (["nanowire-sweep", "--lqd", "-1", "--lambda0", "1e-320", "--range", "20:21:5"],
     INVALID + "wavevector 2*pi*n/lambda0 of 'vacuum' leaves double range at lambda0 = 1e-320"),
    (["dispersion", "--radius", "0", "--host-n", "1-1j"],
     INVALID + "material 'host': Im(n) = -1.0 < 0 means gain, not a passive medium"),
    (["dispersion", "--lambda0", "-1", "--host-n", "-3"],
     INVALID + "lambda0 must be finite and > 0, got -1.0"),
    (["dispersion", "--metal-n", "nan", "--radius", "-1"],
     INVALID + "material 'metal': n must be a finite complex number, got (nan+0j)"),
    (["field-map", "--lambda0", "-5", "--nr", "1"],
     INVALID + "lambda0 must be finite and > 0, got -5.0"),
    (["field-map", "--rmin", "nan", "--radius", "-1"],
     INVALID + "radius must be finite and > 0, got -1.0"),
    (["field-map", "--host-n", "0", "--zmax", "inf"],
     INVALID + "emitter medium 'host' must be lossless with Re n > 0, got n = 0+0j"),
    (["moments", "--lambda0", "0", "--host-n", "1-1j"],
     INVALID + "material 'host': Im(n) = -1.0 < 0 means gain, not a passive medium"),
    (["moments", "--host-n", "3.42+0.1j", "--lqd", "-3"],
     INVALID + "emitter medium 'host' must be lossless with Re n > 0, got n = 3.42+0.1j"),
    (["moments", "--sigma-e", "-1", "--lambda0", "-1"],
     INVALID + "lambda0 must be finite and > 0, got -1.0"),
    (["moments", "--lqd", "-3", "--sigma-e", "-1"],
     INVALID + "lqd must be finite and > 0, got -3.0"),
    (["moments", "--host-n", "nan", "--lambda0", "1e-320"],
     INVALID + "material 'host': n must be a finite complex number, got (nan+0j)"),
    (["report", "--host-n", "1+1j", "--ratio", "nan"],
     INVALID + "emitter medium 'host' must be lossless with Re n > 0, got n = 1+1j"),
    (["report", "--lambda0", "1e-320", "--metal-n", "nan"],
     INVALID + "material 'metal': n must be a finite complex number, got (nan+0j)"),
    (["report", "--radius", "-1", "--lqd", "-1"],
     INVALID + "radius must be finite and > 0, got -1.0"),
    (["report", "--ratio", "nan", "--lqd", "-1"],
     INVALID + "ratio must be finite, got nan"),
])
def test_of_two_bad_values_the_same_one_is_refused(capsys, argv, err):
    # the checks run in one order for every subcommand: the CLI's own
    # (tol, workers, range), both materials, the radius, the wavelength,
    # the host's index, the moments, then what the subcommand builds
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err + "\n")


def test_field_map_reads_zero_where_k_underflows(tmp_path):
    text = run_text(["field-map", "--rmax", "30000", "--nr", "3", "--nz", "2"], tmp_path)
    _, rows = data_rows(text)
    assert [row.split(",")[0] for row in rows] == ["0", "0", "15000", "15000", "30000", "30000"]
    assert all(float(v) != 0.0 for v in rows[2].split(",")[2:])
    assert rows[4:] == ["30000,0,0,0,0,0", "30000,500,0,0,0,0"]


# edge values for every run parameter with a number; one-point sweeps
# and a 3 x 2 map keep each run far below core.MAX_POINTS, and no sweep
# starts a process pool whatever --workers says
EDGE_VALUES = ("0", "-1", "1e300", "1e-300", "-1e300", "nan", "inf", "-inf")
FUZZ_FLAGS = {
    "lambda0": EDGE_VALUES,
    "ratio": EDGE_VALUES,
    "radius": EDGE_VALUES,
    "lqd": EDGE_VALUES,
    "host-n": EDGE_VALUES + ("3.42+0.1j", "-3.42", "3.42-1j"),
    "metal-n": EDGE_VALUES + ("1-1j", "nan+1j", "0.2+infj", "3.42"),
    "tol": ("1e-14", "1e-3", "9.9e-15", "1.1e-3"),
    "workers": ("0", "-1", "1.5", "1e300", "100000"),
    "rmin": EDGE_VALUES,
    "rmax": EDGE_VALUES,
    "zmin": EDGE_VALUES,
    "zmax": EDGE_VALUES,
    "nr": EDGE_VALUES + ("1", "1.5", "1000001"),
    "nz": EDGE_VALUES + ("1", "1.5", "1000001"),
    "sigma-e": EDGE_VALUES,
    "mass-ratio": EDGE_VALUES,
    "shift": EDGE_VALUES,
    # one-point sweeps at extreme distances and heights
    "range": ("1e-300:1.5e-300:1e-300", "1e-7:1.5e-7:1e-7", "1e300:1.5e300:1e300"),
}
FUZZ_COMMANDS = (
    ("interface-sweep", "--range", "20:21:5"),
    ("nanowire-sweep", "--range", "20:21:5"),
    ("nanowire-sweep", "--range", "20:21:5", "--orientation", "radial"),
    ("dispersion",),
    ("field-map", "--nr", "3", "--nz", "2"),
    ("moments",),
    ("report",),
)


def fuzz_run(command):
    """command with edge values for some of the flags it declares."""
    own = {flag: st.sampled_from(values) for flag, values in FUZZ_FLAGS.items()
           if flag.replace("-", "_") in READS[command[0]]}
    return st.tuples(st.just(command), st.fixed_dictionaries({}, optional=own))


def assert_numbers_finite(text):
    """Every number of a CSV or JSON output, `# config:` values included."""
    if text.startswith("{"):
        def walk(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    walk(item)
            elif isinstance(value, float):
                assert math.isfinite(value), text
        walk(json.loads(text))  # NaN and Infinity parse as floats
        return
    for line in text.splitlines():
        if line.startswith("# config: "):
            tokens = re.split(r"[\s:]+", line.partition(" = ")[2])
        elif line.startswith("#"):
            continue
        else:
            tokens = line.split(",")
        for token in tokens:
            try:
                z = complex(token)
            except ValueError:  # a column name, an orientation, an axis label
                continue
            assert math.isfinite(z.real) and math.isfinite(z.imag), line


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(run=st.sampled_from(FUZZ_COMMANDS).flatmap(fuzz_run))
@example(run=(("moments",), {"host-n": "3.42+0.1j"}))
@example(run=(("dispersion",), {"host-n": "-3.42"}))
@example(run=(FUZZ_COMMANDS[0], {"ratio": "1e300"}))
@example(run=(FUZZ_COMMANDS[1], {"radius": "1e-300"}))
@example(run=(FUZZ_COMMANDS[2], {"tol": "1e-14"}))
@example(run=(FUZZ_COMMANDS[0], {"lambda0": "1e300", "tol": "1e-3"}))
@example(run=(FUZZ_COMMANDS[0], {"lambda0": "1e300", "host-n": "1e-300"}))
@example(run=(("report",), {"ratio": "-1e300"}))
@example(run=(("moments",), {"lambda0": "1e-300"}))
@example(run=(FUZZ_COMMANDS[0], {"workers": "100000"}))
@example(run=(FUZZ_COMMANDS[1], {"workers": "1e300"}))
@example(run=(FUZZ_COMMANDS[0], {"range": "20:61:20", "workers": "2"}))
@example(run=(FUZZ_COMMANDS[2], {"range": "20:61:20", "workers": "100000"}))
@example(run=(("moments",), {"sigma-e": "1e300"}))
@example(run=(("moments",), {"sigma-e": "1e-300"}))
@example(run=(FUZZ_COMMANDS[4], {"zmin": "-1e300"}))
@example(run=(FUZZ_COMMANDS[4], {"zmin": "-1e6"}))
@example(run=(FUZZ_COMMANDS[0], {"ratio": "-1e2"}))
@example(run=(FUZZ_COMMANDS[1], {"range": "1e-7:2e-7:1e-7"}))
def test_cli_exits_0_2_or_3_on_edge_inputs(run):
    command, flags = run

    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        pool = AssertionError("a sweep asked for a process pool")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(), \
                patch.object(concurrent.futures, "ProcessPoolExecutor", side_effect=pool):
            warnings.simplefilter("ignore", RuntimeWarning)
            return main(argv), out.getvalue(), err.getvalue()

    argv = list(command) + [f"--{key}={value}" for key, value in flags.items()]
    code, out, err = outcome(argv)
    assert code in (0, 2, 3), argv
    if code:
        assert err.startswith("mesoqed: "), argv
        assert "Traceback" not in err, argv
    else:
        assert_numbers_finite(out)
    # each value as a separate word, negative ones in exponent form included
    spaced = list(command) + [word for key, value in flags.items() for word in (f"--{key}", value)]
    assert outcome(spaced) == (code, out, err), spaced


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------- end-to-end run


def test_cli_import_leaves_scipy_integrate_out(tmp_path):
    # a fresh interpreter: neither importing the CLI nor a cold mode solve
    # (report, then nanowire-sweep) loads scipy.integrate, and both still
    # print the golden output
    code = (
        "import sys\n"
        "from mesoqed.cli import main\n"
        "print('scipy.integrate' in sys.modules)\n"
        f"assert main(['report', '--out', {str(tmp_path / 'report.json')!r}]) == 0\n"
        f"assert main(['nanowire-sweep', '--range', '20:21:5', '--out', "
        f"{str(tmp_path / 'wire.csv')!r}]) == 0\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == \
        run_text(["report"], tmp_path, "ref.json")
    _, rows = data_rows((tmp_path / "wire.csv").read_text(encoding="utf-8"))
    assert rows == [GOLDEN_WIRE_AXIAL_20]


def test_interface_and_moments_leave_scipy_and_the_pool_out(tmp_path):
    # a fresh interpreter: importing the CLI, a one-point interface sweep
    # and moments load neither scipy nor the process pool's nor the
    # thread pool's module, and start no thread; the wire's first Bessel
    # call (report, then nanowire-sweep) loads scipy.special and still
    # starts no thread, and both print the golden output
    absent = ("scipy", "scipy.special", "concurrent.futures.process", "concurrent.futures.thread")
    code = (
        "import json, sys, threading\n"
        "from mesoqed.cli import main\n"
        f"loaded = lambda: json.dumps([name in sys.modules for name in {absent!r}]"
        " + [threading.active_count()])\n"
        "print(loaded())\n"
        f"assert main(['interface-sweep', '--range', '20:21:5', '--out', "
        f"{str(tmp_path / 'iface.csv')!r}]) == 0\n"
        f"assert main(['moments', '--out', {str(tmp_path / 'moments.json')!r}]) == 0\n"
        "print(loaded())\n"
        f"assert main(['report', '--out', {str(tmp_path / 'report.json')!r}]) == 0\n"
        f"assert main(['nanowire-sweep', '--range', '20:21:5', '--out', "
        f"{str(tmp_path / 'wire.csv')!r}]) == 0\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    before, after_interface, after_wire = map(json.loads, proc.stdout.split("\n")[:3])
    assert before == after_interface == [False, False, False, False, 1]
    assert after_wire == [True, True, False, False, 1]
    assert (tmp_path / "iface.csv").read_text(encoding="utf-8") == \
        run_text(["interface-sweep", "--range", "20:21:5"], tmp_path, "iface-ref.csv")
    assert (tmp_path / "moments.json").read_text(encoding="utf-8") == \
        run_text(["moments"], tmp_path, "moments-ref.json")
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == \
        run_text(["report"], tmp_path, "ref.json")
    _, rows = data_rows((tmp_path / "wire.csv").read_text(encoding="utf-8"))
    assert rows == [GOLDEN_WIRE_AXIAL_20]


def test_sweeps_with_workers_leave_the_process_pool_out(tmp_path):
    # a fresh interpreter runs both sweeps with --workers 2 in its own
    # process: the process pool's module never loads, and the rows are
    # the serial run's bytes
    runs = {"iface.csv": ["interface-sweep", "--range", "60:181:60"],
            "wire.csv": ["nanowire-sweep", "--range", "20:81:20"]}
    code = "import sys\nfrom mesoqed.cli import main\n" + "".join(
        f"assert main({argv + ['--workers', '2', '--out', str(tmp_path / name)]!r}) == 0\n"
        for name, argv in runs.items()) + "print('concurrent.futures.process' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    for name, argv in runs.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == \
            run_text(argv, tmp_path, "serial-" + name), name


@pytest.mark.parametrize("module, heavy", [
    ("mesoqed", "numpy"),
    ("mesoqed.errors", "numpy"),
    ("mesoqed.core", "numpy"),
    ("mesoqed.moments", "numpy"),
    ("mesoqed.rates", "numpy"),
    ("mesoqed.halfspace", "scipy"),
    ("mesoqed.quadrature", "scipy"),
    ("mesoqed.specfun", "scipy"),
    ("mesoqed.nanowire", "scipy"),
    ("mesoqed.cli", "numpy"),
])
def test_import_loads_only_what_the_module_imports(module, heavy):
    # a fresh interpreter: the package binds no submodule, the
    # pure-Python layers and the CLI leave numpy out, and no module loads
    # scipy at import (specfun imports scipy.special on its first Bessel
    # call)
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert heavy not in loaded
    if module == "mesoqed":
        assert not {name for name in loaded if name.startswith("mesoqed.")}


NO_NUMPY = ("numpy", "mesoqed.halfspace", "mesoqed.nanowire", "mesoqed.quadrature",
            "mesoqed.rates", "mesoqed.specfun")


@pytest.mark.parametrize("argv, absent", [
    (["--help"], NO_NUMPY),
    (["--version"], NO_NUMPY),
    (["report", "--bogus"], NO_NUMPY),
    (["moments"], NO_NUMPY),
    (["moments", "--lambda0", "-1"], NO_NUMPY),
    (["interface-sweep", "--range", "20:21:5"], ("mesoqed.nanowire", "mesoqed.specfun")),
    (["nanowire-sweep", "--range", "20:21:5"], ("mesoqed.halfspace",)),
    (["dispersion"], ("mesoqed.halfspace",)),
    (["field-map", "--nr", "2", "--nz", "2"], ("mesoqed.halfspace",)),
])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, absent):
    # a fresh interpreter runs main, then lists what it loaded: help,
    # usage errors, refusals and moments need no numpy, the interface
    # sweep no wire code and the wire subcommands no interface code
    code = ("import contextlib, io, json, sys\n"
            "from mesoqed.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert sorted(set(absent) & set(json.loads(proc.stdout))) == []


def test_importing_the_package_starts_no_thread():
    # importing the CLI, the wire and the Bessel routines starts no
    # thread and loads no thread pool module
    code = ("import json, sys, threading, mesoqed.cli, mesoqed.nanowire, mesoqed.specfun\n"
            "print(json.dumps([threading.active_count(),"
            " 'concurrent.futures.thread' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, False]


STALLED = ["nanowire-sweep", "--range", "10:11:5"]
STALLED_WARNING = ("mesoqed: warning: wire background at d=10 nm: harmonic sum not converged "
                   "at m_max=30, last term 1.94e-08 of the sum (series_tol 1e-10); accepted\n")


def test_library_warning_is_one_stderr_line():
    # the background accepts a stalled series at d = 10 nm with a
    # warning, which the run prints as one line of its own
    proc = subprocess.run([sys.executable, "-m", "mesoqed.cli", *STALLED], capture_output=True,
                          text=True, timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stderr == STALLED_WARNING


def test_warning_format_stays_inside_main(capsys):
    # main sets no filter: an error filter still raises the warning; and
    # the caller's showwarning is back in place once main returns
    show = warnings.showwarning
    with pytest.raises(RuntimeWarning, match="not converged"):
        main(STALLED)
    with warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        assert main(STALLED) == 0
    assert capsys.readouterr().err == STALLED_WARNING
    assert warnings.showwarning is show


def test_a_wire_sweep_builds_its_wire_once(capsys, monkeypatch):
    # the geometry is built when the run's parameters are resolved, not
    # per point: a cold run builds the same number for 1 point as for 9
    built = []
    post_init = nanowire.WireGeometry.__post_init__

    def counted(geom):
        built.append(geom)
        post_init(geom)

    monkeypatch.setattr(nanowire.WireGeometry, "__post_init__", counted)
    counts = []
    for sweep in ("20:21:5", "20:61:5"):
        nanowire.solve_dispersion.cache_clear()
        built.clear()
        stdout_of(["nanowire-sweep", "--range", sweep], capsys)
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_thick_wire_failure_is_one_stderr_line():
    # |I0|^2 of the mode normalization overflows; the run reports that
    # as one error line, with no numpy RuntimeWarning ahead of it
    proc = subprocess.run(
        [sys.executable, "-m", "mesoqed.cli", "dispersion", "--radius", "5000",
         "--lambda0", "600"],
        capture_output=True, text=True, timeout=300, env=CHILD_ENV,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("mesoqed: numerical failure:")


SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "figures.py"
ARTIFACTS = {"interface_decay.csv", "nanowire_axial.csv", "nanowire_radial.csv",
             "nanowire_mode.json", "nanowire_field.csv"}


def test_figures_script(tmp_path, monkeypatch):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    drawn = {"interface_decay.png", "nanowire_decay.png"}
    has_matplotlib = importlib.util.find_spec("matplotlib") is not None
    assert {p.name for p in tmp_path.iterdir()} == ARTIFACTS | (drawn if has_matplotlib else set())
    read = lambda name: data_rows((tmp_path / name).read_text(encoding="utf-8"))[1]
    assert GOLDEN_INTERFACE_100 in read("interface_decay.csv")
    assert GOLDEN_WIRE_AXIAL_20 in read("nanowire_axial.csv")
    assert GOLDEN_WIRE_RADIAL_20 in read("nanowire_radial.csv")

    # the drawing code, against a stand-in for matplotlib that records
    # the files it is asked to save
    saved = []

    def subplots(*args, **kwargs):
        fig = MagicMock()
        fig.savefig.side_effect = lambda path, **kw: saved.append(path.name)
        return fig, (MagicMock(), MagicMock())

    pyplot = MagicMock(subplots=subplots)
    monkeypatch.setitem(sys.modules, "matplotlib", MagicMock(pyplot=pyplot))
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    runpy.run_path(str(SCRIPT))["plot"](tmp_path)
    assert saved == ["interface_decay.png", "nanowire_decay.png"]


def test_bitcheck_refuses_a_src_without_the_package(tmp_path):
    # the package would come from PYTHONPATH instead, and two trees would
    # compare equal without either being the one named
    script = Path(__file__).resolve().parents[1] / "scripts" / "bitcheck.py"
    proc = subprocess.run([sys.executable, str(script), "--src", str(tmp_path)],
                          capture_output=True, text=True, timeout=60, env=CHILD_ENV)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"not the package under {tmp_path.resolve()}" in proc.stderr


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mesoqed.cli", "report"],
        capture_output=True, text=True, timeout=300, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["meta"]["version"] == __version__
