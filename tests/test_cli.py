import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdc_cascade as sc
from spdc_cascade.cli import _summary, main
from spdc_cascade.config import MAX_PHI_POINTS, load_config
from spdc_cascade.errors import ConfigError

from cli_contract import CASES, Case, check_contract, material, run, run_case

REFERENCE_INI = """\
[crystal]
material = bbo
thickness_mm = 1.07
cut_angle_deg = 43.65
cascade = true

[pump]
center_nm = 395
bandwidth_nm = 1.0
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "reference.ini"
    path.write_text(REFERENCE_INI)
    return str(path)


# --- the contract table: each entry of CASES runs as the test it names ----------

def _table_test(cases):
    if isinstance(cases, Case):
        return lambda tmp_path: run_case(cases, str(tmp_path))

    @pytest.mark.parametrize("case", cases, ids=[case.name for case in cases])
    def test(case, tmp_path):
        run_case(case, str(tmp_path))

    return test


for _name, _cases in CASES.items():
    globals()[_name] = _table_test(_cases)


# --- configuration loading -----------------------------------------------------

def test_load_config_defaults(config_path):
    cfg = load_config(config_path)
    assert cfg.crystal1.thickness_mm == 1.07
    assert cfg.crystal1.axis_sign == +1
    assert cfg.crystal2.axis_sign == -1
    assert cfg.pump.center_nm == 395.0
    assert cfg.scan["step_fs"] == 0.25


@pytest.mark.parametrize("section, key", [
    ("scan", "mystery_knob"),
    # no e-photon angle overrides: the rate model works on the pump axis
    ("interference", "e_angle_dc_deg"),
    ("interference", "e_angle_dc_prime_deg"),
    # the overlap window follows from the model; no key selects it
    ("interference", "rect_convention"),
])
def test_config_rejects_unknown_key(tmp_path, section, key):
    path = tmp_path / "bad.ini"
    path.write_text(REFERENCE_INI + f"\n[{section}]\n{key} = 40\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        load_config(str(path))


def test_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(REFERENCE_INI + "\n[detector]\nefficiency = 0.6\n")
    with pytest.raises(ConfigError, match="detector"):
        load_config(str(path))


def test_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(REFERENCE_INI.replace("thickness_mm = 1.07", "thickness_mm = -2"))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(REFERENCE_INI.replace("center_nm = 395", "center_nm = not_a_number"))
    with pytest.raises(ConfigError, match="center_nm"):
        load_config(str(path))


def test_config_rejects_equal_beam_azimuths(tmp_path):
    path = tmp_path / "beams.ini"
    path.write_text(REFERENCE_INI + "\n[interference]\nbeam_phi_a_deg = 10\nbeam_phi_b_deg = 190\n")
    assert load_config(str(path)).beam_phi_b == pytest.approx(math.pi + math.radians(10))
    # equal modulo 360 deg, also across the 0/360 seam
    for a, b in [(17.2, -342.8), (0.0, -1e-12)]:
        path.write_text(REFERENCE_INI + f"\n[interference]\nbeam_phi_a_deg = {a}\nbeam_phi_b_deg = {b}\n")
        with pytest.raises(ConfigError, match="beam_phi_a_deg equals beam_phi_b_deg"):
            load_config(str(path))


def test_phi_points_maximum_is_accepted(tmp_path):
    path = tmp_path / "max.ini"
    path.write_text(REFERENCE_INI + f"\n[emission_map]\nphi_points = {MAX_PHI_POINTS}\n")
    assert load_config(str(path)).emission_map["phi_points"] == MAX_PHI_POINTS


def test_summary_is_strict_json():
    assert _summary({"b": 1.5, "a": None}) == '{"a": null, "b": 1.5}'
    with pytest.raises(ValueError):
        _summary({"x": float("nan")})


def test_config_material_from_file(tmp_path):
    mat = tmp_path / "custom.mat"
    mat.write_text(material())
    path = tmp_path / "cfg.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", f"material = {mat}"))
    cfg = load_config(str(path))
    assert cfg.model.name == "custom"


def test_config_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(REFERENCE_INI.encode() + b"\n# caf\xe9 \xff\n")
    out_path = tmp_path / "scan.csv"
    code, out, err = run(["scan", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and str(path) in err and "utf-8" in err
    assert not out_path.exists()


# --- commands -------------------------------------------------------------------

def test_indices_command_values(config_path):
    code, out, _ = run(["indices", "--config", config_path, "395", "790"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda_nm,n_o,n_e,n_g_o,n_g_e"
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row["lambda_nm"]) == 790.0
    assert float(row["n_o"]) == pytest.approx(sc.index_ordinary(sc.BBO, 790.0), abs=1e-6)
    assert float(row["n_e"]) == pytest.approx(sc.index_principal_e(sc.BBO, 790.0), abs=1e-6)
    assert float(row["n_g_o"]) == pytest.approx(sc.group_index(sc.BBO, 790.0), abs=1e-6)
    assert float(row["n_g_e"]) == pytest.approx(
        sc.group_index(sc.BBO, 790.0, math.pi / 2), abs=1e-6
    )


def test_missing_config_exits_2(monkeypatch, tmp_path):
    monkeypatch.delenv("SPDC_CASCADE_CONFIG", raising=False)
    code, _, err = run(["optimize"])
    assert code == 2
    assert "config" in err.lower()


def test_help_exits_0(capsys):
    for argv in (["--help"], ["scan", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: spdc-cascade") and err == ""


class _FailingStdout(io.StringIO):
    def __init__(self, errno_code):
        super().__init__()
        self.errno_code = errno_code

    def write(self, text):
        raise OSError(self.errno_code, os.strerror(self.errno_code))


@pytest.mark.parametrize("errno_code", [errno.ENOSPC, errno.EPIPE], ids=["ENOSPC", "EPIPE"])
@pytest.mark.parametrize("command", ["optimize", "scan"])
def test_failed_stdout_write_exits_4_and_removes_the_file(config_path, tmp_path, command, errno_code):
    # the summary is written after the file; a stdout that fails (a full
    # disk, a closed pipe) exits 4 with one line, and the run leaves no file
    out_path = str(tmp_path / "out")
    stdout, stderr = _FailingStdout(errno_code), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", config_path, "--out", out_path])
    check_contract(command, code, stdout.getvalue(), stderr.getvalue(), out_path)
    assert code == 4 and stderr.getvalue() == f"i/o error: [Errno {errno_code}] {os.strerror(errno_code)}\n"


def test_options_after_the_subcommand_override_those_before(config_path, tmp_path):
    # a zero thickness before the subcommand exits 2 alone; the reference
    # config after it is the one read, and only the later --out is written
    zero = tmp_path / "zero.ini"
    zero.write_text("[crystal]\nthickness_mm = 0\n")
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert run(["--config", str(zero), "optimize"])[0] == 2
    code, out, err = run(["--config", str(zero), "--out", str(before), "scan", "--config", config_path,
                          "--out", str(after)])
    assert (code, err) == (0, "") and not before.exists()
    csv = after.read_text()
    assert run(["scan", "--config", config_path, "--out", str(after)])[1] == out and after.read_text() == csv


def test_config_via_environment(config_path, monkeypatch):
    monkeypatch.setenv("SPDC_CASCADE_CONFIG", config_path)
    code, out, _ = run(["optimize"])
    assert code == 0
    record = json.loads(out)
    assert record["numeric_agrees_closed_form"] is True


def test_scan_command_summary_and_csv(config_path, tmp_path):
    out_path = str(tmp_path / "scan.csv")
    code, out, _ = run(["scan", "--config", config_path, "--out", out_path])
    assert code == 0
    record = json.loads(out)
    assert record["visibility"] == pytest.approx(0.86, abs=0.03)
    assert record["fringe_spacing_fs"] == pytest.approx(2.63, abs=0.03)
    lines = Path(out_path).read_text().strip().split("\n")
    assert lines[0] == "delay_fs,rate"
    assert len(lines) > 100


def test_scan_command_orthogonal_analyzers(config_path, tmp_path):
    cfg_text = REFERENCE_INI + "\n[scan]\ntheta_a_deg = 0\ntheta_b_deg = 90\n"
    path = tmp_path / "orth.ini"
    path.write_text(cfg_text)
    out_path = str(tmp_path / "orth.csv")
    code, out, _ = run(["scan", "--config", str(path), "--out", out_path])
    assert code == 0
    record = json.loads(out)
    assert record["visibility"] < 1e-9
    rates = [float(line.split(",")[1]) for line in Path(out_path).read_text().strip().split("\n")[1:]]
    assert all(r == 0.5 for r in rates)


def test_emission_map_command(config_path, tmp_path):
    out_path = str(tmp_path / "map.csv")
    code, out, _ = run(["emission-map", "--config", config_path, "--out", out_path])
    assert code == 0
    record = json.loads(out)
    assert record["pairing_mismatch_fs"] < 5.0
    assert record["delay_1e_fs"] == pytest.approx(410.0, abs=30.0)
    assert record["delay_2e_fs"] == pytest.approx(31.0, abs=15.0)
    assert record["beam_a_mismatch_fs"] <= record["pairing_mismatch_fs"]
    assert record["beam_b_mismatch_fs"] <= record["pairing_mismatch_fs"]
    lines = Path(out_path).read_text().strip().split("\n")
    assert lines[0] == "phi_deg,t_1e_fs,t_1o_fs,t_2e_fs,t_2o_fs"
    assert len(lines) == 1 + 256


def test_emission_map_requires_cascade(tmp_path):
    # the simulator models the two-crystal cascade only; the key stays, and
    # every spelling of true loads (cascade = false is a case of the table)
    path = tmp_path / "single.ini"
    for spelling in ("true", "yes", "on", "1", "TRUE"):
        path.write_text(REFERENCE_INI.replace("cascade = true", f"cascade = {spelling}"))
        assert load_config(str(path)).crystal2.axis_sign == -1


def test_emission_map_negative_auto_delay(tmp_path):
    # here the map-flattening delay of 2e is negative: the 1o photons are the
    # ones to delay.  The run refuses to apply it and names the partner and
    # its delay; an explicit negative delay is a config error, and delaying
    # 1o by the magnitude instead gives the mismatch the negative delay would.
    text = (REFERENCE_INI.replace("thickness_mm = 1.07", "thickness_mm = 1")
            .replace("cut_angle_deg = 43.65", "cut_angle_deg = 61.5")
            .replace("center_nm = 395", "center_nm = 300"))
    path = tmp_path / "uv.ini"
    path.write_text(text)
    argv = ["emission-map", "--config", str(path), "--out", str(tmp_path / "map.csv")]
    cfg = load_config(str(path))
    base = sc.emission_time_map(cfg.crystal1, cfg.crystal2, cfg.pump)
    auto = sc.map_flattening_delays(base)
    assert auto["2e"] < 0
    code, out, err = run(argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: the flattening delay of class 2e is {auto['2e']:.3f} fs")
    assert err.endswith(f"set [emission_map] delay_2e_fs = 0 and delay_1o_fs = {-auto['2e']:.3f}\n")
    delays = f"\n[emission_map]\ndelay_1e_fs = {auto['1e']!r}\n"
    path.write_text(text + delays + f"delay_2e_fs = {auto['2e']!r}\n")
    assert run(argv)[0] == 2
    path.write_text(text + delays + f"delay_2e_fs = 0\ndelay_1o_fs = {-auto['2e']!r}\n")
    code, out, _ = run(argv)
    assert code == 0
    assert json.loads(out)["pairing_mismatch_fs"] == pytest.approx(sc.pairing_mismatch(base.with_delays(auto)),
                                                                   abs=1e-9)


def test_visibility_curve_command(config_path, tmp_path):
    out_path = str(tmp_path / "vis.csv")
    code, out, _ = run(["visibility-curve", "--config", config_path, "--out", out_path])
    assert code == 0
    record = json.loads(out)
    params = load_config(config_path).interference_params()
    _, tau_b = sc.optimal_delays(params.times)
    assert abs(record["peak_tau_b_fs"] - tau_b) <= 30.0
    assert record["peak_visibility"] == pytest.approx(0.86, abs=0.03)
    lines = Path(out_path).read_text().strip().split("\n")
    assert lines[0] == "delay_fs,visibility"
    # zero tails at the window margins
    first_vis = float(lines[1].split(",")[1])
    last_vis = float(lines[-1].split(",")[1])
    assert first_vis == 0.0 and last_vis == 0.0


def test_visibility_curve_monochromatic_rerun(tmp_path):
    path = tmp_path / "mono.ini"
    path.write_text(REFERENCE_INI.replace("bandwidth_nm = 1.0", "bandwidth_nm = 0.001"))
    out_path = str(tmp_path / "vis.csv")
    code, out, _ = run(["visibility-curve", "--config", str(path), "--out", out_path])
    assert code == 0
    assert json.loads(out)["peak_visibility"] == pytest.approx(1.0, abs=1e-3)


def test_polarization_command(config_path, tmp_path):
    out_path = str(tmp_path / "pol.csv")
    code, out, _ = run(["polarization", "--config", config_path, "--out", out_path])
    assert code == 0
    record = json.loads(out)
    params = load_config(config_path).interference_params()
    assert record["visibility"] == pytest.approx(sc.max_visibility(params), abs=0.01)
    assert Path(out_path).read_text().startswith("analyzer_rad,rate\n")


def test_polarization_analyzer_zero_full_contrast(tmp_path):
    path = tmp_path / "zero.ini"
    path.write_text(REFERENCE_INI + "\n[polarization]\ntheta_a_deg = 0\n")
    out_path = str(tmp_path / "pol0.csv")
    code, out, _ = run(["polarization", "--config", str(path), "--out", out_path])
    assert code == 0
    assert json.loads(out)["visibility"] == pytest.approx(1.0, abs=1e-12)


def test_optimize_command_values(config_path):
    code, out, _ = run(["optimize", "--config", config_path])
    assert code == 0
    record = json.loads(out)
    assert record["tau_a_fs"] == pytest.approx(31.0, abs=15.0)
    assert record["tau_b_fs"] == pytest.approx(410.0, abs=30.0)
    per_mm = sc.quartz_calibration(sc.QUARTZ, 790.0, 1.0)
    assert record["quartz_a_mm"] == pytest.approx(record["tau_a_fs"] / per_mm, rel=1e-9)
    assert record["quartz_b_mm"] == pytest.approx(record["tau_b_fs"] / per_mm, rel=1e-9)
    assert 0.6 <= record["quartz_a_mm"] <= 1.2
    assert 12.0 <= record["quartz_b_mm"] <= 14.7
    assert record["numeric_agrees_closed_form"] is True


def test_optimize_equal_times_config(tmp_path):
    # a constant-index material has equal propagation times for every wave:
    # the closed-form delays are 0, but D = 0 lies outside the rate model's
    # domain, so optimize exits 3 with one line, as scan does
    mat = tmp_path / "const.mat"
    mat.write_text(
        "name = const\nvalid_range_nm = 100 10000\n"
        "o.form = power_series\no.coefficients = 2.25\n"
        "e.form = power_series\ne.coefficients = 2.25\n"
    )
    path = tmp_path / "cfg.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", f"material = {mat}"))
    cfg = load_config(str(path))
    assert sc.optimal_delays(sc.propagation_times(cfg.crystal1, cfg.pump)) == (0.0, 0.0)
    for command in ("optimize", "scan"):
        code, out, err = run([command, "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "error: 2*t_p - t_o - t_e = 0 fs is not positive; outside the rate model's domain"
        ]
    assert not (tmp_path / "x.csv").exists()


def test_io_error_exits_4_and_leaves_no_partial_file(config_path, tmp_path):
    missing_dir = tmp_path / "does_not_exist"
    out_path = str(missing_dir / "scan.csv")
    code, _, err = run(["scan", "--config", config_path, "--out", out_path])
    assert code == 4
    assert not missing_dir.exists()


def test_out_naming_a_directory_exits_4_and_leaves_no_tmp_file(config_path, tmp_path):
    out_dir = tmp_path / "taken"
    out_dir.mkdir()
    code, out, err = run(["scan", "--config", config_path, "--out", str(out_dir)])
    assert code == 4
    assert out == "" and len(err.splitlines()) == 1
    assert out_dir.is_dir() and not any(out_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.ini", "taken"]


def test_explicit_auto_scan_centre_equals_the_default(config_path, tmp_path):
    auto = tmp_path / "auto.ini"
    auto.write_text(REFERENCE_INI + "\n[scan]\ncenter_fs = auto\ntau_a_fs = AUTO\n")
    results = []
    for name, path in (("default", config_path), ("auto", str(auto))):
        out_path = tmp_path / f"{name}.csv"
        code, out, err = run(["scan", "--config", path, "--out", str(out_path)])
        assert code == 0 and err == ""
        results.append((out, out_path.read_bytes()))
    assert results[0] == results[1]


def test_byte_identical_reruns(config_path, tmp_path):
    pairs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"scan_{tag}.csv"
        code, out, _ = run(["scan", "--config", config_path, "--out", str(out_path)])
        assert code == 0
        pairs.append((out_path.read_bytes(), out))
    assert pairs[0] == pairs[1]
    maps = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"map_{tag}.csv"
        code, out, _ = run(["emission-map", "--config", config_path, "--out", str(out_path)])
        assert code == 0
        maps.append((out_path.read_bytes(), out))
    assert maps[0] == maps[1]


def test_visibility_curve_grid_stops_at_tau_b_max(tmp_path):
    # (max - min) / step = 10.6: the last point is 410, not 411
    path = tmp_path / "range.ini"
    path.write_text(REFERENCE_INI + "\n[visibility_curve]\n"
                    "tau_b_min_fs = 400\ntau_b_max_fs = 410.6\nstep_fs = 1\n")
    out_path = tmp_path / "vis.csv"
    code, _, _ = run(["visibility-curve", "--config", str(path), "--out", str(out_path)])
    assert code == 0
    xs = [float(line.split(",")[0]) for line in out_path.read_text().strip().split("\n")[1:]]
    assert xs[0] == 400.0 and len(xs) == 11
    assert xs[-1] <= 410.6


# a stand-in command that warns: two distinct messages, one of them twice
WARNING_COMMAND = """\
import sys, warnings
from spdc_cascade import cli


def warning_command(cfg, args):
    for message in ("first message", "second message", "first message"):
        warnings.warn(message, RuntimeWarning)
    return "table\\n", "summary\\n"
"""


def test_warning_prints_one_line_without_source(config_path, tmp_path, monkeypatch):
    # stderr names each distinct warning once, without a file path or code
    # line, and the file and stdout are written as usual
    namespace = {}
    exec(WARNING_COMMAND, namespace)
    monkeypatch.setitem(namespace["cli"]._COMMANDS, "scan", (namespace["warning_command"], "", True))
    argv = ["scan", "--config", config_path, "--out"]
    code, out, err = run([*argv, str(tmp_path / "in_process.csv")])
    expected = "warning: first message\nwarning: second message\n"
    assert (code, out, err) == (0, "summary\n", expected)
    assert (tmp_path / "in_process.csv").read_text() == "table\n"
    # the same lines whatever the interpreter's warning filters say; a
    # monkeypatch does not reach a child, so the child replaces the command
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    child_code = WARNING_COMMAND + (
        "cli._COMMANDS['scan'] = (warning_command, '', True)\nsys.exit(cli.main(sys.argv[1:]))\n")
    for filters in ("", "error", "ignore"):
        child = subprocess.run(
            [sys.executable, "-c", child_code, *argv, str(tmp_path / "child.csv")],
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=filters), capture_output=True, text=True,
        )
        assert (child.returncode, child.stderr, child.stdout) == (0, expected, out), filters
        assert (tmp_path / "child.csv").read_text() == "table\n"


POLARIZATION_AT_CRESTS_INI = """\
[crystal]
thickness_mm = 0.1
cut_angle_deg = 43.65

[pump]
bandwidth_nm = 1e-8

[polarization]
tau_a_fs = 1.9059270636192973
tau_b_fs = 38.79811599253491
theta_a_deg = 11
theta_b_start_deg = 1
theta_b_stop_deg = 361
"""


def test_polarization_at_fringe_crests_of_a_narrowband_design_is_silent(tmp_path):
    # the fringe contrast of this design rounds to 1; at the locked delays
    # and theta_A + theta_B = pi (11 and 169 deg) the rate formula rounds a
    # few 1e-18 below zero, and the rate reads 0 without a warning
    path = tmp_path / "crests.ini"
    path.write_text(POLARIZATION_AT_CRESTS_INI)
    out_path = tmp_path / "pol.csv"
    code, _, err = run(["polarization", "--config", str(path), "--out", str(out_path)])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    rates = {round(math.degrees(float(angle))): float(rate) for angle, rate in rows}
    assert len(rates) == 181 and min(rates.values()) >= 0.0
    assert rates[169] == 0.0
