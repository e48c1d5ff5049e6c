"""Command-line interface: golden outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import mesoqed
from mesoqed import __version__, cli
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


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def pool_sizes(monkeypatch):
    # no process starts: every pool the CLI asks for is a FakePool
    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: FakePool(sizes, max_workers))
    return sizes


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
    assert doc["normalization_integral"]["value"] == pytest.approx(1.0, rel=1e-9)
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
    serial = run_text(
        ["interface-sweep", "--range", "60:181:60", "--workers", "1"], tmp_path, "s.csv"
    )
    parallel = run_text(
        ["interface-sweep", "--range", "60:181:60", "--workers", "2"], tmp_path, "p.csv"
    )
    strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("# config: workers")]
    assert strip(serial) == strip(parallel)


def test_worker_pool_is_bounded_by_points_and_cpus(capsys, monkeypatch, pool_sizes):
    # a pool starts all its processes at once, so --workers 100000 over
    # three heights must ask for three, and print the serial rows
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    argv = ["interface-sweep", "--range", "20:61:20"]
    serial = stdout_of(argv, capsys)
    pooled = stdout_of(argv + ["--workers", "100000"], capsys)
    assert pool_sizes == [3]
    assert pooled == serial.replace("# config: workers = 1\n", "# config: workers = 100000\n")
    assert pooled != serial
    # one point, or one CPU: the points run in this process, with no pool
    stdout_of(["interface-sweep", "--range", "20:21:5", "--workers", "8"], capsys)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert stdout_of(argv + ["--workers", "8"], capsys) == \
        serial.replace("workers = 1\n", "workers = 8\n")
    assert pool_sizes == [3]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failing_point_is_named(capsys, monkeypatch, pool_sizes, workers):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    rc = main(["interface-sweep", "--range", "20:41:20", "--ratio", "1e200",
               "--workers", workers])
    assert rc == 3
    assert capsys.readouterr().err.startswith("mesoqed: numerical failure: h = 20: ")
    assert pool_sizes == ([] if workers == "1" else [2])


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


# a value for every key the table prints as a `# config:` line
TABLE_VALUES = {
    "lambda0": "900", "ratio": "-7.5", "radius": "40", "lqd": "15",
    "host_n": "3.5", "metal_n": "0.25 + 6.5j", "tol": "1e-9", "workers": "2",
    "range": "100:151:50",
}


def test_every_table_key_reads_the_same_from_flag_and_file(tmp_path, capsys, pool_sizes):
    printed = {key for key, spec in cli._KEYS.items() if spec.fmt}
    assert set(TABLE_VALUES) == printed
    base = ["interface-sweep", "--range", "100:101:5"]
    default = stdout_of(base, capsys)
    for key, value in TABLE_VALUES.items():
        argv = base[:1] if key == "range" else base
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key.replace('_', '-')} = {value}\n", encoding="utf-8")
        via_file = stdout_of(argv + ["--config", str(cfg)], capsys)
        via_flag = stdout_of(argv + ["--" + key.replace("_", "-"), value], capsys)
        assert via_file == via_flag != default


def test_printed_config_keys_are_the_table(capsys):
    printed = {key for key, spec in cli._KEYS.items() if spec.fmt}
    assert config_keys(stdout_of(["interface-sweep", "--range", "100:101:5"], capsys)) == printed
    assert config_keys(stdout_of(["nanowire-sweep", "--range", "20:21:5"], capsys)) == \
        printed | {"orientation"}
    assert config_keys(stdout_of(["field-map", "--nr", "2", "--nz", "2"], capsys)) == \
        printed - {"range"} | {"window", "samples"}


def test_run_config_fields_are_the_table():
    # one name per run parameter: RunConfig field, flag dest, config key
    assert {f.name for f in fields(cli.RunConfig)} == set(cli._KEYS)
    assert set(cli._KEYS) <= set(vars(cli._build_parser().parse_args(["nanowire-sweep"])))


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


@pytest.mark.parametrize("flag, value", [("--host-n", "abc"), ("--lambda0", "abc"),
                                         ("--workers", "1.5")])
def test_flag_bad_value_names_the_key(tmp_path, capsys, flag, value):
    rc = main(["report", flag, value, "--out", str(tmp_path / "x")])
    assert rc == 2
    key = flag[2:].replace("-", "_")
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


@pytest.mark.parametrize("argv, code", [
    (["report", "--lqd", "1e300"], 2),
    (["interface-sweep", "--range", "20:21:1e-300"], 2),
    (["interface-sweep", "--range", "0:1000000:1"], 2),
    (["field-map", "--nr", "1000000000", "--nz", "2"], 2),
    (["interface-sweep", "--range", "1e-300:1e-299:1e-300"], 3),
    (["interface-sweep", "--range", "20:21:5", "--ratio", "1e200"], 3),
    (["nanowire-sweep", "--range", "20:21:5", "--ratio", "1e300"], 3),
    (["nanowire-sweep", "--radius", "10", "--range", "20:21:5"], 3),
    (["dispersion", "--metal-n", "0+3.42j"], 3),
    (["dispersion", "--radius", "1e-6"], 3),
    (["interface-sweep", "--range", "20:21:5", "--host-n", "-3.42"], 2),
    (["dispersion", "--host-n", "0"], 2),
    (["field-map", "--zmax", "inf", "--nr", "2", "--nz", "2"], 2),
    (["field-map", "--rmin", "nan"], 2),
    (["field-map", "--rmax", "inf"], 2),
])
def test_extreme_inputs_exit_with_documented_code(tmp_path, capsys, argv, code):
    # overflowing moments, sweeps and maps past 1 000 000 points, a
    # height whose contour tail overflows, a wire thin enough that
    # Re(k_sp)*L_qd >= 1, a metal at eps = -eps_host, a wire so thin
    # that k_sp does not move with frequency, a host index that is not
    # positive and a field window that is not finite: a message, never a
    # traceback or a printed inf
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # h below 10 nm
        assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("mesoqed: ") and "Traceback" not in err
    assert not out.exists()


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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mesoqed.cli", "report"],
        capture_output=True, text=True, timeout=300, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["meta"]["version"] == __version__
