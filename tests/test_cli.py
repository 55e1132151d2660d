import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spdc_cascade as sc
from spdc_cascade.cli import _summary, main
from spdc_cascade.config import MAX_PHI_POINTS, load_config
from spdc_cascade.errors import ConfigError

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


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("section, key, value", [
    ("crystal", "thickness_mm", "nan"),
    ("crystal", "cut_angle_deg", "inf"),
    ("pump", "center_nm", "-inf"),
    ("pump", "bandwidth_nm", "inf"),
    ("emission_map", "delay_1e_fs", "nan"),
    ("scan", "halfwidth_fs", "inf"),
    ("emission_map", "phi_points", str(MAX_PHI_POINTS + 1)),
    ("emission_map", "phi_points", "63"),
    ("pump", "bandwidth_nm", "0"),
    ("emission_map", "phi_points", "1.5"),
    ("crystal", "cascade", "maybe"),
    ("visibility_curve", "method", "fit"),
])
def test_emission_map_rejects_out_of_domain_config(tmp_path, capsys, section, key, value):
    # non-finite or non-positive numbers, out-of-range or non-integer azimuth
    # counts, non-boolean flags and unknown choices exit 2 before any
    # computation or output
    lines = REFERENCE_INI.splitlines()
    if any(line.startswith(f"{key} = ") for line in lines):
        text = "\n".join(
            f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines
        )
    else:
        text = REFERENCE_INI + f"\n[{section}]\n{key} = {value}\n"
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out_path = tmp_path / "map.csv"
    code, out, err = run(["emission-map", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 2
    assert key in err
    assert out == ""
    assert not out_path.exists()


def test_config_rejects_equal_beam_azimuths(tmp_path):
    path = tmp_path / "beams.ini"
    path.write_text(REFERENCE_INI + "\n[interference]\nbeam_phi_a_deg = 10\nbeam_phi_b_deg = 190\n")
    assert load_config(str(path)).beam_phi_b == pytest.approx(math.pi + math.radians(10))
    # equal modulo 360 deg, also across the 0/360 seam
    for a, b in [(17.2, -342.8), (0.0, -1e-12)]:
        path.write_text(REFERENCE_INI + f"\n[interference]\nbeam_phi_a_deg = {a}\nbeam_phi_b_deg = {b}\n")
        with pytest.raises(ConfigError, match="beam_phi_a_deg equals beam_phi_b_deg"):
            load_config(str(path))


@pytest.mark.parametrize("command", ["indices", "emission-map", "scan", "visibility-curve", "polarization",
                                     "optimize"])
def test_inverted_visibility_curve_range_exits_2_at_load(tmp_path, capsys, command):
    # checked where the config loads, like the beam azimuths, so every
    # command refuses it, not only the one that reads the range
    path = tmp_path / "inverted.ini"
    path.write_text(REFERENCE_INI + "\n[visibility_curve]\ntau_b_min_fs = 10\ntau_b_max_fs = 5\n")
    out_path = tmp_path / "out.csv"
    argv = [command, "--config", str(path), "--out", str(out_path)] + (["800"] if command == "indices" else [])
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"config error: {path}: [visibility_curve] needs tau_b_max_fs > tau_b_min_fs"]
    assert not out_path.exists()


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
    mat.write_text(
        "name = custom\nvalid_range_nm = 220 1060\n"
        "o.form = resonant\no.coefficients = 2.7359 0.01878 0.01822 -0.01354\n"
        "e.form = resonant\ne.coefficients = 2.3753 0.01224 0.01667 -0.01516\n"
    )
    path = tmp_path / "cfg.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", f"material = {mat}"))
    cfg = load_config(str(path))
    assert cfg.model.name == "custom"


MATERIAL_ENTRIES = {
    "name": "custom",
    "valid_range_nm": "220 1060",
    "o.form": "resonant",
    "o.coefficients": "2.7359 0.01878 0.01822 -0.01354",
    "e.form": "resonant",
    "e.coefficients": "2.3753 0.01224 0.01667 -0.01516",
}


@pytest.mark.parametrize("command, changes, message", [
    pytest.param(["indices", "790"], {"o.coefficients": "nan 0.01878 0.01822 -0.01354"},
                 "o.coefficients must be finite numbers", id="nan-coefficient"),
    pytest.param(["optimize"], {"o.coefficients": "inf 0.01878 0.01822 -0.01354"},
                 "o.coefficients must be finite numbers", id="inf-coefficient"),
    pytest.param(["indices", "790"], {"valid_range_nm": "nan 1060"}, "valid_range_nm must be finite numbers",
                 id="nan-range"),
    pytest.param(["optimize"], {"valid_range_nm": "220 inf"}, "valid_range_nm must be finite numbers",
                 id="inf-range"),
    pytest.param(["indices", "790"], {"o.coefficients": "abc 0.01878 0.01822 -0.01354"},
                 "o.coefficients must be finite numbers", id="word-coefficient"),
    pytest.param(["optimize"], {"valid_range_nm": "220 1060 5"}, "valid_range_nm must be 0 < lo < hi nm",
                 id="three-number-range"),
    pytest.param(["emission-map"], {"e.coefficients": "2.3753 0.01224 0.01667"},
                 "e.form, e.coefficients: resonant form takes 4 coefficients",
                 id="three-resonant-coefficients"),
    pytest.param(["scan"], {"o.form": "sellmeier"}, "o.form, o.coefficients: unknown Sellmeier form 'sellmeier'",
                 id="unknown-form"),
    pytest.param(["optimize"], {"e.form": "power_series", "e.coefficients": "2.3849 -0.01259 0.01079 "
                                "1.6518e-4 -1.9474e-6 9.3648e-8 1e-9"},
                 "e.form, e.coefficients: power_series form takes 1..6 coefficients",
                 id="seven-power-series-coefficients"),
])
def test_material_file_with_non_finite_number_exits_2(tmp_path, capsys, command, changes, message):
    # also every other malformed entry: the one line names the file and the keys
    entries = {**MATERIAL_ENTRIES, **changes}
    mat = tmp_path / "custom.mat"
    mat.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    path = tmp_path / "cfg.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", f"material = {mat}"))
    out_path = tmp_path / "out.csv"
    argv = [command[0], "--config", str(path), "--out", str(out_path), *command[1:]]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"config error: {path}: [crystal] material: {mat}: ")
    assert message in err and all(key in err for key in changes)
    assert not out_path.exists()


@pytest.mark.parametrize("command", [["indices", "790"], ["emission-map"], ["optimize"], ["scan"]],
                         ids=lambda command: command[0])
def test_material_of_non_positive_n_squared_exits_3(tmp_path, capsys, command):
    # n^2 = -1 at every wavelength: the first index read names the material,
    # the polarization, the wavelength and n^2, before any square root warns
    mat = tmp_path / "negative.mat"
    mat.write_text("".join(f"{k} = {v}\n" for k, v in {**MATERIAL_ENTRIES, "o.form": "power_series",
                                                        "o.coefficients": "-1"}.items()))
    path = tmp_path / "cfg.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", f"material = {mat}"))
    out_path = tmp_path / "out.csv"
    code, out, err = run([command[0], "--config", str(path), "--out", str(out_path), *command[1:]], capsys)
    assert (code, out) == (3, "")
    wavelength = 790 if command[0] in ("indices", "emission-map") else 395
    assert err.splitlines() == [f"error: material custom: the o-wave Sellmeier form gives n^2 = -1 at "
                                f"{wavelength} nm, which is not positive"]
    assert not out_path.exists()


def test_cut_angle_outside_its_range_exits_2(tmp_path, capsys):
    path = tmp_path / "cut.ini"
    path.write_text(REFERENCE_INI.replace("cut_angle_deg = 43.65", "cut_angle_deg = 95"))
    out_path = tmp_path / "scan.csv"
    code, out, err = run(["scan", "--config", str(path), "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"config error: {path}: cut angle must lie in (0, pi/2) rad"]
    assert not out_path.exists()


@pytest.mark.parametrize("bad_line, message", [
    ("o.form resonant", "expected 'key = value'"),
    ("name = other", "duplicate key 'name'"),
], ids=["no-equals-sign", "duplicate-key"])
def test_material_file_with_malformed_line_exits_2(tmp_path, capsys, bad_line, message):
    mat = tmp_path / "custom.mat"
    lines = [f"{k} = {v}" for k, v in MATERIAL_ENTRIES.items()]
    mat.write_text("\n".join([*lines[:2], bad_line, *lines[2:]]) + "\n")
    path = tmp_path / "cfg.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", f"material = {mat}"))
    out_path = tmp_path / "out.csv"
    code, out, err = run(["optimize", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and f"{mat}:3: {message}" in err
    assert not out_path.exists()


def test_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(REFERENCE_INI.encode() + b"\n# caf\xe9 \xff\n")
    out_path = tmp_path / "scan.csv"
    code, out, err = run(["scan", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and str(path) in err and "utf-8" in err
    assert not out_path.exists()


# --- commands -------------------------------------------------------------------

def test_indices_command_values(config_path, capsys):
    code, out, _ = run(["indices", "--config", config_path, "395", "790"], capsys)
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


def test_indices_out_of_range_exits_3(config_path, capsys):
    code, _, err = run(["indices", "--config", config_path, "100"], capsys)
    assert code == 3
    assert "220" in err  # names the valid interval


def test_indices_requires_wavelengths(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["indices", "--config", config_path])
    assert exc.value.code == 2


def test_missing_config_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("SPDC_CASCADE_CONFIG", raising=False)
    code, _, err = run(["optimize"], capsys)
    assert code == 2
    assert "config" in err.lower()


def test_config_via_environment(config_path, capsys, monkeypatch):
    monkeypatch.setenv("SPDC_CASCADE_CONFIG", config_path)
    code, out, _ = run(["optimize"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["numeric_agrees_closed_form"] is True


def test_scan_command_summary_and_csv(config_path, tmp_path, capsys):
    out_path = str(tmp_path / "scan.csv")
    code, out, _ = run(["scan", "--config", config_path, "--out", out_path], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["visibility"] == pytest.approx(0.86, abs=0.03)
    assert record["fringe_spacing_fs"] == pytest.approx(2.63, abs=0.03)
    lines = Path(out_path).read_text().strip().split("\n")
    assert lines[0] == "delay_fs,rate"
    assert len(lines) > 100


def test_scan_command_orthogonal_analyzers(config_path, tmp_path, capsys):
    cfg_text = REFERENCE_INI + "\n[scan]\ntheta_a_deg = 0\ntheta_b_deg = 90\n"
    path = tmp_path / "orth.ini"
    path.write_text(cfg_text)
    out_path = str(tmp_path / "orth.csv")
    code, out, _ = run(["scan", "--config", str(path), "--out", out_path], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["visibility"] < 1e-9
    rates = [float(line.split(",")[1]) for line in Path(out_path).read_text().strip().split("\n")[1:]]
    assert all(r == 0.5 for r in rates)


def test_emission_map_command(config_path, tmp_path, capsys):
    out_path = str(tmp_path / "map.csv")
    code, out, _ = run(["emission-map", "--config", config_path, "--out", out_path], capsys)
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


CONFIG_COMMANDS = ("emission-map", "scan", "visibility-curve", "polarization", "optimize")


def _assert_config_error(tmp_path, capsys, path, message):
    # every command that computes from the config exits 2 with one line and
    # writes nothing
    for command in CONFIG_COMMANDS:
        out_path = tmp_path / "out.csv"
        code, out, err = run([command, "--config", str(path), "--out", str(out_path)], capsys)
        assert (code, out) == (2, ""), command
        assert err.splitlines() == [f"config error: {path}: {message}"], command
        assert not out_path.exists()


def test_emission_map_zero_thickness(tmp_path, capsys):
    # both crystals of the cascade are present: a thickness of 0 is rejected
    path = tmp_path / "zero.ini"
    path.write_text(REFERENCE_INI.replace("thickness_mm = 1.07", "thickness_mm = 0"))
    _assert_config_error(tmp_path, capsys, path,
                         "[crystal] thickness_mm: expected a positive number, got '0'")


def test_emission_map_requires_cascade(tmp_path, capsys):
    # the simulator models the two-crystal cascade only; the key stays, and
    # every spelling of true loads
    path = tmp_path / "single.ini"
    for spelling in ("true", "yes", "on", "1", "TRUE"):
        path.write_text(REFERENCE_INI.replace("cascade = true", f"cascade = {spelling}"))
        assert load_config(str(path)).crystal2.axis_sign == -1
    path.write_text(REFERENCE_INI.replace("cascade = true", "cascade = false"))
    _assert_config_error(tmp_path, capsys, path,
                         "[crystal] cascade: the simulator models the two-crystal cascade only; "
                         "set cascade = true or leave the key out")


def test_emission_map_below_collinear_angle_exits_3(tmp_path, capsys):
    # at 42.5 deg (collinear: 42.9 deg) the cones do not enclose the pump axis
    path = tmp_path / "below.ini"
    path.write_text(REFERENCE_INI.replace("cut_angle_deg = 43.65", "cut_angle_deg = 42.5"))
    out_path = tmp_path / "map.csv"
    code, out, err = run(["emission-map", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "does not enclose the pump axis" in err
    assert "(cut angle at or below the collinear cut angle, 42.92" in err
    assert not out_path.exists()


def test_emission_map_of_a_material_without_phase_matching_exits_3(tmp_path, capsys):
    # quartz has no collinear cut angle in 5-85 deg for a 395 nm pump, so no
    # cut angle makes its cones enclose the pump axis, and the error says so
    path = tmp_path / "quartz.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", "material = quartz"))
    out_path = tmp_path / "map.csv"
    code, out, err = run(["emission-map", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "does not enclose the pump axis (no cut angle in 5-85 deg phase matches)" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["scan", "visibility-curve", "polarization"])
def test_rate_commands_of_a_crystal_outside_the_rate_model_exit_3(tmp_path, capsys, command):
    # quartz's e photon is the slower one (t_o - t_e = -16.13 fs on the
    # reference design): the overlap window has no width, and the rate
    # model names the value instead of clamping rates to a visibility of 1
    path = tmp_path / "quartz.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", "material = quartz"))
    out_path = tmp_path / "out.csv"
    code, out, err = run([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: t_o - t_e = -16.13") and "is not positive" in err
    assert not out_path.exists()
    # the rate model refuses the design before any delay range is checked:
    # at 1e20 mm every derived range also rounds to a point
    path.write_text(REFERENCE_INI.replace("material = bbo", "material = quartz")
                    .replace("thickness_mm = 1.07", "thickness_mm = 1e20"))
    code, out, err = run([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: t_o - t_e = -1.50784e+21 fs is not positive; the rate model needs an e "
                                "photon faster than the o photon (as in BBO)"]
    assert not out_path.exists()


def test_emission_map_negative_auto_delay(tmp_path, capsys):
    # here the map-flattening delay of 2e is negative: the 1o photons are the
    # ones to delay.  The summary reports it as it is; an explicit negative
    # delay is a config error, and delaying 1o by its magnitude instead gives
    # the same pair mismatch.
    text = (REFERENCE_INI.replace("thickness_mm = 1.07", "thickness_mm = 1")
            .replace("cut_angle_deg = 43.65", "cut_angle_deg = 61.5")
            .replace("center_nm = 395", "center_nm = 300"))
    path = tmp_path / "uv.ini"
    path.write_text(text)
    argv = ["emission-map", "--config", str(path), "--out", str(tmp_path / "map.csv")]
    code, out, _ = run(argv, capsys)
    assert code == 0
    auto = json.loads(out)
    assert auto["delay_2e_fs"] < 0
    delays = f"\n[emission_map]\ndelay_1e_fs = {auto['delay_1e_fs']!r}\n"
    path.write_text(text + delays + f"delay_2e_fs = {auto['delay_2e_fs']!r}\n")
    assert run(argv, capsys)[0] == 2
    path.write_text(text + delays + f"delay_2e_fs = 0\ndelay_1o_fs = {-auto['delay_2e_fs']!r}\n")
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["pairing_mismatch_fs"] == pytest.approx(auto["pairing_mismatch_fs"], abs=1e-9)


def test_visibility_curve_command(config_path, tmp_path, capsys):
    out_path = str(tmp_path / "vis.csv")
    code, out, _ = run(["visibility-curve", "--config", config_path, "--out", out_path], capsys)
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


def test_visibility_curve_monochromatic_rerun(tmp_path, capsys):
    path = tmp_path / "mono.ini"
    path.write_text(REFERENCE_INI.replace("bandwidth_nm = 1.0", "bandwidth_nm = 0.001"))
    out_path = str(tmp_path / "vis.csv")
    code, out, _ = run(["visibility-curve", "--config", str(path), "--out", out_path], capsys)
    assert code == 0
    assert json.loads(out)["peak_visibility"] == pytest.approx(1.0, abs=1e-3)


def test_polarization_command(config_path, tmp_path, capsys):
    out_path = str(tmp_path / "pol.csv")
    code, out, _ = run(["polarization", "--config", config_path, "--out", out_path], capsys)
    assert code == 0
    record = json.loads(out)
    params = load_config(config_path).interference_params()
    assert record["visibility"] == pytest.approx(sc.max_visibility(params), abs=0.01)
    assert Path(out_path).read_text().startswith("analyzer_rad,rate\n")


def test_polarization_analyzer_zero_full_contrast(tmp_path, capsys):
    path = tmp_path / "zero.ini"
    path.write_text(REFERENCE_INI + "\n[polarization]\ntheta_a_deg = 0\n")
    out_path = str(tmp_path / "pol0.csv")
    code, out, _ = run(["polarization", "--config", str(path), "--out", out_path], capsys)
    assert code == 0
    assert json.loads(out)["visibility"] == pytest.approx(1.0, abs=1e-12)


def test_polarization_step_too_coarse_exits_3(tmp_path, capsys):
    path = tmp_path / "coarse.ini"
    path.write_text(REFERENCE_INI + "\n[polarization]\nstep_deg = 20\n")
    code, _, err = run(["polarization", "--config", str(path), "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 3
    assert "step" in err


def test_optimize_command_values(config_path, capsys):
    code, out, _ = run(["optimize", "--config", config_path], capsys)
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


def test_optimize_equal_times_config(tmp_path, capsys):
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
        code, out, err = run([command, "--config", str(path), "--out", str(tmp_path / "x.csv")], capsys)
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "error: 2*t_p - t_o - t_e = 0 fs is not positive; outside the rate model's domain"
        ]
    assert not (tmp_path / "x.csv").exists()


def test_optimize_negative_compensating_delay_exits_3(tmp_path, capsys):
    # in a quartz cascade the closed-form tau_A is about -224.5 fs, which no
    # quartz plate realizes; the one error line names the delay and its value
    path = tmp_path / "quartz.ini"
    path.write_text(REFERENCE_INI.replace("material = bbo", "material = quartz"))
    out_path = tmp_path / "optimize.json"
    code, out, err = run(["optimize", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: compensating delay tau_A = -224.54 fs is negative; no quartz plate realizes it"
    ]
    assert not out_path.exists()


def test_optimize_of_a_box_rounded_to_a_point_exits_3(tmp_path, capsys):
    # a 1e20 mm crystal puts tau_A near 2.5e21 fs, where the +-50 fs search
    # box around it rounds to one point; the error names the box's ends
    path = tmp_path / "huge.ini"
    path.write_text(REFERENCE_INI.replace("thickness_mm = 1.07", "thickness_mm = 1e20"))
    code, out, err = run(["optimize", "--config", str(path)], capsys)
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    ends = re.fullmatch(r"error: search box ends of tau_A, (\S+) and (\S+) fs, coincide in floating point; "
                        r"the box needs positive extent on both axes", line)
    assert ends and ends[1] == ends[2] and float(ends[1]) == pytest.approx(2.488e21, rel=1e-3), line


RANGE_ERROR = re.compile(r"error: (scan range|visibility-curve range|fringe-scan range|fringe-crest grid|search box|"
                         r"refinement window) "
                         r"ends of tau_[AB], \S+ and \S+ fs, (coincide in floating point; .+|are too far from 0 for "
                         r"a step of \S+ fs: doubles there lie \S+ fs apart, so neighbouring samples could round equal)")


@pytest.mark.parametrize("thickness_mm, command, method", [
    # tau_B ~ 3.8e15 fs, where doubles lie 0.5 fs apart: the 0.25 fs scan
    # step, the fringe scans' and the crest grid's period/32 cannot be resolved
    ("1e13", "scan", "aligned"),
    ("1e13", "visibility-curve", "scan"),
    ("1e13", "polarization", "aligned"),
    # tau_B ~ 3.8e14 fs, where doubles lie 0.0625 fs apart: the coarse grids
    # resolve, but not the optimizer's 5e-3 fs refinement windows nor the
    # crest's fine grid (a sixteenth of period/32)
    ("1e12", "optimize", "aligned"),
    ("1e12", "polarization", "aligned"),
    # tau_B ~ 3.8e22 fs: every derived range rounds to a point
    ("1e20", "scan", "aligned"),
    ("1e20", "visibility-curve", "aligned"),
    ("1e20", "visibility-curve", "scan"),
    ("1e20", "polarization", "aligned"),
    ("1e20", "optimize", "aligned"),
])
def test_delay_range_doubles_cannot_resolve_exits_3(tmp_path, capsys, thickness_mm, command, method):
    path = tmp_path / "huge.ini"
    path.write_text(REFERENCE_INI.replace("thickness_mm = 1.07", f"thickness_mm = {thickness_mm}")
                    + f"\n[visibility_curve]\nmethod = {method}\n")
    out_path = tmp_path / "out.csv"
    code, out, err = run([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    assert RANGE_ERROR.fullmatch(line), line
    assert not out_path.exists()


def test_aligned_visibility_curve_of_a_resolvable_far_range_runs(tmp_path, capsys):
    # at 1e13 mm the 5 fs grid of the aligned curve still resolves (doubles
    # lie 0.5 fs apart there), and no finer grid is sampled
    path = tmp_path / "far.ini"
    path.write_text(REFERENCE_INI.replace("thickness_mm = 1.07", "thickness_mm = 1e13"))
    code, _, err = run(["visibility-curve", "--config", str(path), "--out", str(tmp_path / "v.csv")], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("center_fs, code", [
    # doubles lie 0.125 fs apart below 2**50 fs and 0.25 fs from there on
    (1e15, 0),
    (2**50, 3),
])
def test_scan_step_at_the_resolution_of_doubles(tmp_path, capsys, center_fs, code):
    path = tmp_path / "far.ini"
    path.write_text(REFERENCE_INI + f"\n[scan]\ncenter_fs = {center_fs!r}\nstep_fs = 0.25\n")
    out_path = tmp_path / "scan.csv"
    result = run(["scan", "--config", str(path), "--out", str(out_path)], capsys)
    assert result[0] == code, result
    assert out_path.exists() == (code == 0)


def test_polarization_far_from_zero_returns(tmp_path):
    # at 2e9 mm doubles near tau_B ~ 7.6e11 fs lie 1.2e-4 fs apart, and the
    # crest's grids, the finer at about 5e-3 fs, still resolve there.  A child
    # process, so a regression fails on the timeout instead of hanging the
    # suite
    path = tmp_path / "far.ini"
    path.write_text(REFERENCE_INI.replace("thickness_mm = 1.07", "thickness_mm = 2e9"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    child = subprocess.run(
        [sys.executable, "-m", "spdc_cascade.cli", "polarization", "--config", str(path),
         "--out", str(tmp_path / "pol.csv")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert json.loads(child.stdout)["tau_b_fs"] == pytest.approx(7.643236171e11, rel=1e-9)


def test_optimize_far_from_zero_returns(tmp_path, capsys):
    # at 2e9 mm doubles near tau_B ~ 7.6e11 fs lie 1.2e-4 fs apart, finer
    # than the 5e-3 fs refinement windows
    path = tmp_path / "far.ini"
    path.write_text(REFERENCE_INI.replace("thickness_mm = 1.07", "thickness_mm = 2e9"))
    code, out, err = run(["optimize", "--config", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["tau_b_fs"] == pytest.approx(7.643236171e11, rel=1e-9)


def test_non_finite_pump_width_exits_3(tmp_path, capsys):
    # a 1e308 nm bandwidth overflows sigma to inf; the rate commands name it
    path = tmp_path / "wide.ini"
    path.write_text(REFERENCE_INI.replace("bandwidth_nm = 1.0", "bandwidth_nm = 1e308"))
    for command in ("scan", "visibility-curve", "polarization", "optimize"):
        out_path = tmp_path / "out.csv"
        code, out, err = run([command, "--config", str(path), "--out", str(out_path)], capsys)
        assert (code, out, err) == (3, "", "error: sigma must be finite, got inf\n"), command
        assert not out_path.exists()


def test_io_error_exits_4_and_leaves_no_partial_file(config_path, tmp_path, capsys):
    missing_dir = tmp_path / "does_not_exist"
    out_path = str(missing_dir / "scan.csv")
    code, _, err = run(["scan", "--config", config_path, "--out", out_path], capsys)
    assert code == 4
    assert not missing_dir.exists()


def test_out_naming_a_directory_exits_4_and_leaves_no_tmp_file(config_path, tmp_path, capsys):
    out_dir = tmp_path / "taken"
    out_dir.mkdir()
    code, out, err = run(["scan", "--config", config_path, "--out", str(out_dir)], capsys)
    assert code == 4
    assert out == "" and len(err.splitlines()) == 1
    assert out_dir.is_dir() and not any(out_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.ini", "taken"]


def test_explicit_auto_scan_centre_equals_the_default(config_path, tmp_path, capsys):
    auto = tmp_path / "auto.ini"
    auto.write_text(REFERENCE_INI + "\n[scan]\ncenter_fs = auto\ntau_a_fs = AUTO\n")
    results = []
    for name, path in (("default", config_path), ("auto", str(auto))):
        out_path = tmp_path / f"{name}.csv"
        code, out, err = run(["scan", "--config", path, "--out", str(out_path)], capsys)
        assert code == 0 and err == ""
        results.append((out, out_path.read_bytes()))
    assert results[0] == results[1]


def test_byte_identical_reruns(config_path, tmp_path, capsys):
    pairs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"scan_{tag}.csv"
        code, out, _ = run(["scan", "--config", config_path, "--out", str(out_path)], capsys)
        assert code == 0
        pairs.append((out_path.read_bytes(), out))
    assert pairs[0] == pairs[1]
    maps = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"map_{tag}.csv"
        code, out, _ = run(["emission-map", "--config", config_path, "--out", str(out_path)], capsys)
        assert code == 0
        maps.append((out_path.read_bytes(), out))
    assert maps[0] == maps[1]


@pytest.mark.parametrize("command, section, exit_code", [
    pytest.param("scan", "[scan]\nhalfwidth_fs = 1\n", 3, id="scan-too-short"),
    pytest.param("scan", "[scan]\ntheta_a_deg = 0\ntheta_b_deg = 0\n", 3, id="scan-zero-rate"),
    pytest.param("polarization", "[polarization]\ntheta_b_stop_deg = 90\n", 3,
                 id="polarization-too-short"),
    pytest.param("emission-map", "[interference]\nbeam_phi_a_deg = 90\nbeam_phi_b_deg = 450\n",
                 2, id="emission-map-equal-beams"),
    pytest.param("visibility-curve", "[visibility_curve]\ntau_b_min_fs = 500\ntau_b_max_fs = 400\n",
                 2, id="visibility-curve-empty-range"),
])
def test_failed_run_writes_no_file(tmp_path, capsys, command, section, exit_code):
    path = tmp_path / "fails.ini"
    path.write_text(REFERENCE_INI + "\n" + section)
    out_path = tmp_path / "out.csv"
    code, out, err = run([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert code == exit_code
    assert out == "" and err
    assert not out_path.exists()


@pytest.mark.parametrize("command, section", [
    pytest.param("scan", "[scan]\nstep_fs = 1e-9\n", id="scan"),
    pytest.param("polarization", "[polarization]\nstep_deg = 1e-9\n", id="polarization"),
    pytest.param("visibility-curve", "[visibility_curve]\nstep_fs = 1e-9\n", id="visibility-curve"),
])
def test_grid_over_point_budget_exits_3(tmp_path, capsys, command, section):
    # checked before allocating: the grids asked for here need 0.7 to 4.4 TiB
    path = tmp_path / "fine.ini"
    path.write_text(REFERENCE_INI + "\n" + section)
    out_path = tmp_path / "out.csv"
    code, out, err = run([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "points" in err and "Traceback" not in err
    assert not out_path.exists()


def test_visibility_curve_grid_stops_at_tau_b_max(tmp_path, capsys):
    # (max - min) / step = 10.6: the last point is 410, not 411
    path = tmp_path / "range.ini"
    path.write_text(REFERENCE_INI + "\n[visibility_curve]\n"
                    "tau_b_min_fs = 400\ntau_b_max_fs = 410.6\nstep_fs = 1\n")
    out_path = tmp_path / "vis.csv"
    code, _, _ = run(["visibility-curve", "--config", str(path), "--out", str(out_path)], capsys)
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


def test_warning_prints_one_line_without_source(config_path, tmp_path, capsys, monkeypatch):
    # stderr names each distinct warning once, without a file path or code
    # line, and the file and stdout are written as usual
    namespace = {}
    exec(WARNING_COMMAND, namespace)
    monkeypatch.setitem(namespace["cli"]._COMMANDS, "scan", namespace["warning_command"])
    argv = ["scan", "--config", config_path, "--out"]
    code, out, err = run([*argv, str(tmp_path / "in_process.csv")], capsys)
    expected = "warning: first message\nwarning: second message\n"
    assert (code, out, err) == (0, "summary\n", expected)
    assert (tmp_path / "in_process.csv").read_text() == "table\n"
    # the same lines whatever the interpreter's warning filters say; a
    # monkeypatch does not reach a child, so the child replaces the command
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    child_code = WARNING_COMMAND + (
        "cli._COMMANDS['scan'] = warning_command\nsys.exit(cli.main(sys.argv[1:]))\n")
    for filters in ("", "error", "ignore"):
        child = subprocess.run(
            [sys.executable, "-c", child_code, *argv, str(tmp_path / "child.csv")],
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS=filters), capture_output=True, text=True,
        )
        assert (child.returncode, child.stderr, child.stdout) == (0, expected, out), filters
        assert (tmp_path / "child.csv").read_text() == "table\n"


POLARIZATION_AT_CRESTS_INI = """\
[crystal]
thickness_mm = 0.01
cut_angle_deg = 43.0

[pump]
bandwidth_nm = 1e-8

[polarization]
tau_a_fs = 0.6717834460478722
tau_b_fs = 3.306939798113273
theta_b_start_deg = 1
theta_b_stop_deg = 361
"""


def test_polarization_at_fringe_crests_of_a_narrowband_design_is_silent(tmp_path, capsys):
    # the fringe contrast of this design rounds to 1; at theta_A + theta_B
    # = pi (135 and 315 deg) the rate formula rounds a few 1e-16 below
    # zero, and the rate reads 0 without a warning
    path = tmp_path / "crests.ini"
    path.write_text(POLARIZATION_AT_CRESTS_INI)
    out_path = tmp_path / "pol.csv"
    code, _, err = run(["polarization", "--config", str(path), "--out", str(out_path)], capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    rates = {round(math.degrees(float(angle))): float(rate) for angle, rate in rows}
    assert len(rates) == 181 and min(rates.values()) >= 0.0
    assert rates[135] == rates[315] == 0.0
