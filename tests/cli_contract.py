"""The exit-code contract of the `spdc-cascade` CLI, and its cases as one table.

Every run either exits 0 with finite output and an empty stderr, or exits
2 (config), 3 (numeric or domain) or 4 (I/O) with one stderr line, an empty
stdout and no `--out` file.  Finite output is a one-line strict JSON
summary on stdout (`indices` prints its table there instead) and an `--out`
CSV of finite cells whose first column strictly increases (`optimize`
writes its summary).  `check_contract` asserts that of any run; each
`Case` of `CASES` adds what one configuration must give.

`CASES` maps the name of a test to the cases it runs, so a case keeps the
test id it had as a one-off test; `tests/test_cli.py` defines those tests.
The console script's own wiring is left to CI, which runs the installed
entry point five times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import spdc_cascade
from spdc_cascade import interference
from spdc_cascade.cli import main
from spdc_cascade.config import load_config

SRC = os.path.dirname(os.path.dirname(os.path.abspath(spdc_cascade.__file__)))


@dataclass(frozen=True)
class Case:
    """One config, run by each of `commands` (a subcommand and its
    positional arguments, e.g. "indices 790") with `--config` and, if `out`,
    `--out`; an empty command runs the CLI with no arguments at all.  `err`
    is the one stderr line and `match` a pattern it contains; both have
    {config} and {material} filled in, escaped in `match`.  A `code` of None
    asks for the contract alone; `check`, if set, is called with the JSON
    summary and the config's path after each run that exits 0."""

    commands: str | tuple
    ini: str = ""  # {material} names the file of `material`
    code: int | None = 0
    err: str | None = None
    match: str | None = None
    name: str | None = None  # the parameter id; None in a test of one case
    material: str | None = None
    rows: int | None = None  # data rows of the --out table, under `header`
    header: str | None = None
    summary: dict = field(default_factory=dict)  # values to 1e-9 relative
    out: bool = True
    child: bool = False  # a `python -m` child with a timeout: the case guards against a hang
    first: bool = False  # rerun with the options before the subcommand: the same exit, streams and file
    check: Callable | None = None


def run(argv, child=False):
    """(exit code, stdout, stderr) of the CLI on argv."""
    if child:
        proc = subprocess.run([sys.executable, "-m", "spdc_cascade.cli", *argv], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        return proc.returncode, proc.stdout, proc.stderr
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _reject(token):
    raise AssertionError(f"{token} in the JSON summary")


def _check_table(text, increasing=True):
    assert text.endswith("\n") and text.count("\n") >= 2, text[:200]
    cells = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    assert cells.shape[1] == text[:text.index("\n")].count(",") + 1 and np.isfinite(cells).all()
    assert not increasing or (np.diff(cells[:, 0]) > 0).all(), "the abscissa does not increase"


def check_contract(command, code, stdout, stderr, path):
    """Assert the contract of a finished run of command; path names its
    --out file, or is None.  Returns the file's text for exit 0."""
    if code != 0:
        assert code in (2, 3, 4) and stdout == "", (code, stdout)
        assert stderr.endswith("\n") and len(stderr.splitlines()) == 1, stderr
        assert path is None or not (os.path.lexists(path) or os.path.lexists(path + ".tmp"))
        return None
    assert stderr == ""
    if command == "indices":
        _check_table(stdout, increasing=False)
    else:
        assert stdout.endswith("\n") and stdout.count("\n") == 1, stdout
        json.loads(stdout, parse_constant=_reject)
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if command in ("indices", "optimize"):
        assert text == stdout
    else:
        _check_table(text)
    return text


def run_case(case, workdir):
    """Run each command of case in workdir; assert the contract and the case."""
    config, material = os.path.join(workdir, "config.ini"), os.path.join(workdir, "custom.mat")
    if case.material is not None:
        with open(material, "w", encoding="utf-8") as fh:
            fh.write(case.material)
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(case.ini.format(material=material))
    path = os.path.join(workdir, "out.csv") if case.out else None
    for command in (case.commands,) if isinstance(case.commands, str) else case.commands:
        head, *positional = command.split() or [""]
        options = ["--config", config, *(["--out", path] if path else [])]
        code, stdout, stderr = run([head, *options, *positional] if head else [], case.child)
        where = f"{command}: exit {code}, stderr {stderr!r}"
        assert case.code in (None, code), where
        text = check_contract(head, code, stdout, stderr, path)
        if case.first:
            if text is not None and path is not None:
                os.unlink(path)
            again = run([*options, head, *positional], case.child)
            assert again == (code, stdout, stderr) and check_contract(head, *again, path) == text, where
        if case.err is not None:
            assert stderr == case.err.format(config=config, material=material) + "\n", where
        if case.match is not None:
            assert re.search(case.match.format(config=re.escape(config), material=re.escape(material)), stderr), where
        if case.rows is not None:
            assert (text.count("\n") - 1, text[:text.index("\n")]) == (case.rows, case.header)
        record = json.loads(stdout) if case.summary or case.check and code == 0 else {}
        for key, value in case.summary.items():
            assert math.isclose(record[key], value, rel_tol=1e-9), (key, record[key])
        if case.check and code == 0:
            case.check(record, config)


MATERIAL_ENTRIES = {
    "name": "custom",
    "valid_range_nm": "220 1060",
    "o.form": "resonant",
    "o.coefficients": "2.7359 0.01878 0.01822 -0.01354",
    "e.form": "resonant",
    "e.coefficients": "2.3753 0.01224 0.01667 -0.01516",
}


def material(changes=(), bad_line=None):
    """The text of a BBO-like material file with changes, and bad_line as its line 3."""
    lines = [f"{k} = {v}" for k, v in {**MATERIAL_ENTRIES, **dict(changes)}.items()]
    return "\n".join(lines[:2] + [bad_line] * (bad_line is not None) + lines[2:]) + "\n"


CONFIG_COMMANDS = ("emission-map", "scan", "visibility-curve", "polarization", "optimize")
RATE_COMMANDS = ("scan", "visibility-curve", "polarization")
MAP = "phi_deg,t_1e_fs,t_1o_fs,t_2e_fs,t_2o_fs"
CUSTOM = "[crystal]\nmaterial = {material}\n"
QUARTZ = "[crystal]\nmaterial = quartz\n"
FAR = "[crystal]\nthickness_mm = 2e9\n"
FAR_TAU_B = {"tau_b_fs": 7.643236171e11}
RANGE_ERROR = (r"^error: (scan range|visibility-curve range|fringe-scan range|fringe-crest grid|search box|"
               r"refinement window) ends of tau_[AB], \S+ and \S+ fs, (coincide in floating point; .+|are too far "
               r"from 0 for a step of \S+ fs: doubles there lie \S+ fs apart, so neighbouring samples could round "
               r"equal)$")
MATERIAL_ERROR = r"^config error: {config}: \[crystal\] material: {material}: .*"
# the reference design's closed-form delays
CLOSED_FORM = {"tau_a_fs": 26.620125508414276, "tau_b_fs": 408.91313519243795}


def _locked_partner(record, config):
    """The polarization delays sit on a fringe crest (phase to 1e-6 rad),
    their sum within a period of the fringe-locked pair's, and the
    visibility within 1e-3 of the best crest's, `max_visibility`."""
    params = load_config(config).interference_params()
    tau_a, tau_b = record["tau_a_fs"], record["tau_b_fs"]
    assert abs(math.remainder(params.omega * (tau_a - tau_b) + params.phi0, 2 * math.pi)) <= 1e-6
    period = interference.fringe_period(params)
    assert abs(tau_a + tau_b - sum(interference.fringe_locked_delays(params))) <= period
    assert abs(record["visibility"] - interference.max_visibility(params)) <= 1e-3

CASES = {
    "test_cli_contract": [
        # an empty config is the reference design
        Case("optimize", out=False, name="optimize"),
        Case("indices 400 800", out=False, name="indices"),
        Case("emission-map", rows=256, header=MAP, name="emission-map"),
        Case("polarization", name="polarization"),
        # --config and --out also before the subcommand
        Case("optimize", out=False, first=True, name="optimize-options-first"),
        Case("scan", rows=401, header="delay_fs,rate", first=True, name="scan-options-first"),
        # the largest azimuth grid the config accepts, so the largest batched
        # cone solve; then 0.007 deg above the collinear cut angle, where some
        # azimuths leave the secant steps for bisection; then an odd number
        # of azimuths, so pi - phi is off the grid and only the mirror row
        # shares the grid's sines
        Case("emission-map", "[emission_map]\nphi_points = 65536\n", rows=65536, header=MAP, name="map-dense"),
        Case("emission-map", "[crystal]\ncut_angle_deg = 42.93\n\n[emission_map]\nphi_points = 65536\n",
             rows=65536, header=MAP, name="map-near-collinear"),
        Case("emission-map", "[emission_map]\nphi_points = 1001\n", rows=1001, header=MAP, name="map-odd"),
        # the rate model in many blocks: a 160 001-point scan, an 801-point
        # scan-method curve (103 329 rate samples), a 600 001-point aligned curve
        Case("scan", "[scan]\nhalfwidth_fs = 20000\n", rows=160001, header="delay_fs,rate", name="scan-wide"),
        Case("visibility-curve", "[visibility_curve]\nmethod = scan\ntau_b_min_fs = -2000\ntau_b_max_fs = 2000\n",
             rows=801, header="delay_fs,visibility", name="curve-scan-method-wide"),
        Case("visibility-curve", "[visibility_curve]\ntau_b_min_fs = -3000\ntau_b_max_fs = 3000\nstep_fs = 0.01\n",
             rows=600001, header="delay_fs,visibility", name="curve-aligned-fine"),
        # far from 0 the printed abscissas still increase row by row
        Case("scan", "[scan]\ncenter_fs = 1e6\n", rows=401, header="delay_fs,rate", name="scan-at-1e6-fs"),
        Case("scan", "[scan]\ncenter_fs = 1e9\n", rows=401, header="delay_fs,rate", name="scan-at-1e9-fs"),
        # the removed window key and a single crystal are config errors
        Case("scan", "[interference]\nrect_convention = as_printed\n", 2,
             "config error: {config}: unknown key 'rect_convention' in section [interference]", name="rect-convention"),
        Case(CONFIG_COMMANDS, "[crystal]\ncascade = false\n", 2,
             "config error: {config}: [crystal] cascade: the simulator models the two-crystal cascade only; "
             "set cascade = true or leave the key out", name="cascade-false"),
        # values are verbatim, so a % reaches the number parser, and
        # [DEFAULT] is an unknown section, not one inherited by the others
        *(Case(CONFIG_COMMANDS, f"[crystal]\nthickness_mm = {value}\n", 2,
               f"config error: {{config}}: [crystal] thickness_mm: expected a number, got '{value}'", name=name)
          for value, name in [("1.07%", "percent-sign"), ("%(x)s", "percent-interpolation")]),
        *(Case(CONFIG_COMMANDS, ini + "[crystal]\nmaterial = bbo\n", 2,
               "config error: {config}: unknown section [DEFAULT]", name=name)
          for ini, name in [("[DEFAULT]\nthickness_mm = 2\n\n", "default-section"),
                            ("[DEFAULT]\n\n", "empty-default-section")]),
    ],
    # every error of the config reader: one line that names the file and the line
    "test_config_reader_error_exits_2_in_one_line": [
        *(Case(CONFIG_COMMANDS, ini, 2, "config error: {config}:" + message, name=name)
          for ini, message, name in [
              ("[crystal]\njunk\n", "2: expected 'key = value', got 'junk'", "no-equals-sign"),
              ("[]\n", "1: expected '[section]', got '[]'", "empty-header"),
              ("[crystal] junk\n", "1: expected '[section]', got '[crystal] junk'", "text-after-header"),
              ("[pump]\n\n[crystal]\n[pump]\n", "4: duplicate section '[pump]'", "duplicate-section"),
              ("[crystal]\nthickness_mm = 1\nthickness_mm = 2\n", "3: duplicate key 'thickness_mm'",
               "duplicate-key"),
              ("[crystal]\nthickness_mm = 1\nThickness_MM = 2\n", "3: duplicate key 'thickness_mm'",
               "duplicate-key-other-case"),
              ("# a comment\nthickness_mm = 1\n[crystal]\n", "2: key 'thickness_mm' before the first section header",
               "key-before-header"),
              # no line continues another, so an indented value is a line of its own
              ("[crystal]\nthickness_mm =\n  2\n", "3: expected 'key = value', got '2'", "indented-value"),
          ]),
        Case(CONFIG_COMMANDS, CUSTOM, 2, "config error: {config}: [crystal] material: {material}:3: "
             "expected 'key = value', got '[o]'", name="material-section", material=material(bad_line="[o]")),
    ],
    # leading whitespace is not significant: an indented key is a key
    "test_indented_key_is_read": Case("optimize", "[pump]\ncenter_nm = 395\n  bandwidth_nm = 2\n", out=False,
                                      summary={"envelope_value": 1.899996752440063}),
    # at 2e9 mm doubles near tau_B ~ 7.6e11 fs lie 1.2e-4 fs apart, and the
    # crest guard's period/512 and the optimizer's finest grid (5e-3 fs)
    # still resolve there
    "test_polarization_far_from_zero_returns": Case("polarization", FAR, summary=FAR_TAU_B, child=True),
    "test_optimize_far_from_zero_returns": Case("optimize", FAR, summary=FAR_TAU_B, child=True),
    # a [polarization] delay set alone is kept, and the other one locks
    # onto the fringe crest nearest the locked pair's sum
    "test_polarization_with_one_delay_set_locks_the_other": [
        Case("polarization", f"[polarization]\n{key} = {value!r}\n", summary={key: value}, check=_locked_partner,
             name=key)
        for key, value in CLOSED_FORM.items()
    ],
    # non-finite or non-positive numbers, out-of-range or non-integer
    # azimuth counts, non-boolean flags and unknown choices
    "test_emission_map_rejects_out_of_domain_config": [
        Case("emission-map", f"[{section}]\n{key} = {value}\n", 2, match=key, name=f"{section}-{key}-{value}")
        for section, key, value in [
            ("crystal", "thickness_mm", "nan"), ("crystal", "cut_angle_deg", "inf"), ("pump", "center_nm", "-inf"),
            ("pump", "bandwidth_nm", "inf"), ("emission_map", "delay_1e_fs", "nan"), ("scan", "halfwidth_fs", "inf"),
            ("emission_map", "phi_points", "65537"), ("emission_map", "phi_points", "63"),
            ("pump", "bandwidth_nm", "0"), ("emission_map", "phi_points", "1.5"), ("crystal", "cascade", "maybe"),
            ("visibility_curve", "method", "fit"),
        ]
    ],
    "test_emission_map_zero_thickness": Case(
        CONFIG_COMMANDS, "[crystal]\nthickness_mm = 0\n", 2,
        "config error: {config}: [crystal] thickness_mm: expected a positive number, got '0'"),
    "test_cut_angle_outside_its_range_exits_2": Case(
        "scan", "[crystal]\ncut_angle_deg = 95\n", 2, "config error: {config}: cut angle must lie in (0, pi/2) rad"),
    # checked where the config loads, like the beam azimuths, so every
    # command refuses it, not only the one that reads the range
    "test_inverted_visibility_curve_range_exits_2_at_load": [
        Case(command, "[visibility_curve]\ntau_b_min_fs = 10\ntau_b_max_fs = 5\n", 2,
             "config error: {config}: [visibility_curve] needs tau_b_max_fs > tau_b_min_fs", name=command.split()[0])
        for command in ("indices 800", *CONFIG_COMMANDS)
    ],
    # every malformed entry: the one line names the file and the keys
    "test_material_file_with_non_finite_number_exits_2": [
        Case(command, CUSTOM, 2, match=MATERIAL_ERROR + re.escape(message), name=name, material=material(changes))
        for command, changes, message, name in [
            ("indices 790", {"o.coefficients": "nan 0.01878 0.01822 -0.01354"}, "o.coefficients must be finite numbers",
             "nan-coefficient"),
            ("optimize", {"o.coefficients": "inf 0.01878 0.01822 -0.01354"}, "o.coefficients must be finite numbers",
             "inf-coefficient"),
            ("indices 790", {"valid_range_nm": "nan 1060"}, "valid_range_nm must be finite numbers", "nan-range"),
            ("optimize", {"valid_range_nm": "220 inf"}, "valid_range_nm must be finite numbers", "inf-range"),
            ("indices 790", {"o.coefficients": "abc 0.01878 0.01822 -0.01354"},
             "o.coefficients must be finite numbers", "word-coefficient"),
            ("optimize", {"valid_range_nm": "220 1060 5"}, "valid_range_nm must be 0 < lo < hi nm",
             "three-number-range"),
            ("emission-map", {"e.coefficients": "2.3753 0.01224 0.01667"},
             "e.form, e.coefficients: resonant form takes 4 coefficients", "three-resonant-coefficients"),
            ("scan", {"o.form": "sellmeier"}, "o.form, o.coefficients: unknown Sellmeier form 'sellmeier'",
             "unknown-form"),
            ("optimize", {"e.form": "power_series",
                          "e.coefficients": "2.3849 -0.01259 0.01079 1.6518e-4 -1.9474e-6 9.3648e-8 1e-9"},
             "e.form, e.coefficients: power_series form takes 1..6 coefficients", "seven-power-series-coefficients"),
        ]
    ],
    "test_material_file_with_malformed_line_exits_2": [
        Case("optimize", CUSTOM, 2, match="{material}:3: " + message, name=name,
             material=material(bad_line=line))
        for line, message, name in [("o.form resonant", "expected 'key = value'", "no-equals-sign"),
                                    ("name = other", "duplicate key 'name'", "duplicate-key")]
    ],
    # a name that is neither a built-in material nor a file lists the
    # built-in ones; a directory keeps the system's message
    "test_unknown_material_exits_2_in_one_line": [
        Case(("indices 790", *CONFIG_COMMANDS), "[crystal]\nmaterial = bbo2\n", 2,
             "config error: {config}: [crystal] material: 'bbo2' is neither a built-in material (bbo, quartz) "
             "nor an existing file", name="mistyped-name"),
        Case(("indices 790", *CONFIG_COMMANDS), "[crystal]\nmaterial = .\n", 2,
             "config error: {config}: [crystal] material: [Errno 21] Is a directory: '.'", name="directory"),
    ],
    # n^2 = -1 at every wavelength: the first index read names the material,
    # the polarization, the wavelength and n^2, before any square root warns
    "test_material_of_non_positive_n_squared_exits_3": [
        Case(command, CUSTOM, 3, f"error: material custom: the o-wave Sellmeier form gives n^2 = -1 at "
             f"{wavelength} nm, which is not positive", name=command.split()[0],
             material=material({"o.form": "power_series", "o.coefficients": "-1"}))
        for command, wavelength in [("indices 790", 790), ("emission-map", 790), ("optimize", 395), ("scan", 395)]
    ],
    "test_indices_out_of_range_exits_3": Case("indices 100", code=3, match="220"),  # names the valid interval
    # argparse's errors reach main's handler: one line, exit 2
    "test_indices_requires_wavelengths": Case("indices", code=2,
                                              err="usage error: the following arguments are required: NM"),
    "test_usage_error_exits_2_in_one_line": [
        Case("scan", code=2, err="usage error: the following arguments are required: --out", out=False,
             name="scan-without-out"),
        Case("scan", code=2, err="usage error: the following arguments are required: --out", out=False, first=True,
             name="scan-without-out-options-first"),
        Case("bogus", code=2, match=r"^usage error: argument command: invalid choice: 'bogus' \(choose from ",
             name="unknown-subcommand"),
        Case("", code=2, err="usage error: the following arguments are required: command", out=False,
             name="no-subcommand"),
    ],
    # at 42.5 deg (collinear: 42.9 deg) the cones do not enclose the pump
    # axis; the e-cone solve refuses the first azimuth, with its residual
    "test_emission_map_below_collinear_angle_exits_3": Case(
        "emission-map", "[crystal]\ncut_angle_deg = 42.5\n", 3,
        err="error: no phase-matched e-emission at azimuth 0.0000 rad: the cone does not enclose the pump axis "
            "(cut angle at or below the collinear cut angle, 42.924 deg) (residual 1.244e-03)"),
    # quartz has no collinear cut angle in 5-85 deg for a 395 nm pump, so no
    # cut angle makes its cones enclose the pump axis, and the error says so
    "test_emission_map_of_a_material_without_phase_matching_exits_3": Case(
        "emission-map", QUARTZ, 3, match=re.escape("does not enclose the pump axis (no cut angle in 5-85 deg "
                                                    "phase matches)")),
    # at 76.75 deg and a 270 nm pump the 2e class would need a flattening
    # delay of -45.38 fs: a delay line only adds delay, so the run names the
    # partner to delay instead of shifting the 2e column earlier
    "test_emission_map_negative_flattening_delay_exits_3": Case(
        "emission-map", "[crystal]\ncut_angle_deg = 76.75\nthickness_mm = 1.0\n\n[pump]\ncenter_nm = 270\n", 3,
        "error: the flattening delay of class 2e is -45.377 fs, and a delay line only adds delay; delay its partner "
        "1o instead: set [emission_map] delay_2e_fs = 0 and delay_1o_fs = 45.377"),
    # quartz's e photon is the slower one (t_o - t_e = -16.13 fs on the
    # reference design): the overlap window has no width, and the rate model
    # names the value instead of clamping rates to a visibility of 1.  It
    # refuses the design before any delay range is checked: at 1e20 mm
    # every derived range also rounds to a point
    "test_rate_commands_of_a_crystal_outside_the_rate_model_exit_3": [
        *(Case(command, QUARTZ, 3, match=r"^error: t_o - t_e = -16\.13.*is not positive", name=command)
          for command in RATE_COMMANDS),
        Case(RATE_COMMANDS, QUARTZ + "thickness_mm = 1e20\n", 3, "error: t_o - t_e = -1.50784e+21 fs is not "
             "positive; the rate model needs an e photon faster than the o photon (as in BBO)", name="1e20"),
    ],
    # in a quartz cascade the closed-form tau_A is about -224.5 fs, which no
    # quartz plate realizes
    "test_optimize_negative_compensating_delay_exits_3": Case(
        "optimize", QUARTZ, 3, "error: compensating delay tau_A = -224.54 fs is negative; no quartz plate realizes it"),
    # a 1e20 mm crystal puts tau_A near 2.488e21 fs, where the +-50 fs search
    # box around it rounds to one point; the error names the box's ends
    "test_optimize_of_a_box_rounded_to_a_point_exits_3": Case(
        "optimize", "[crystal]\nthickness_mm = 1e20\n", 3,
        match=r"^error: search box ends of tau_A, (2\.48[5-9]\d*e\+21) and \1 fs, coincide in floating point; "
              r"the box needs positive extent on both axes$"),
    "test_delay_range_doubles_cannot_resolve_exits_3": [
        Case(command, f"[crystal]\nthickness_mm = {thickness}\n\n[visibility_curve]\nmethod = {method}\n", 3,
             match=RANGE_ERROR, name=f"{thickness}-{command}-{method}")
        for thickness, command, method in [
            # tau_B ~ 3.8e15 fs, where doubles lie 0.5 fs apart: the 0.25 fs scan
            # step, the fringe scans' period/32 and the crest guard's period/512 cannot be resolved
            ("1e13", "scan", "aligned"), ("1e13", "visibility-curve", "scan"), ("1e13", "polarization", "aligned"),
            # tau_B ~ 3.8e14 fs, where doubles lie 0.0625 fs apart: the coarse grids
            # resolve, but not the optimizer's 5e-3 fs refinement windows nor the
            # crest guard's period/512
            ("1e12", "optimize", "aligned"), ("1e12", "polarization", "aligned"),
            # tau_B ~ 3.8e22 fs: every derived range rounds to a point
            ("1e20", "scan", "aligned"), ("1e20", "visibility-curve", "aligned"), ("1e20", "visibility-curve", "scan"),
            ("1e20", "polarization", "aligned"), ("1e20", "optimize", "aligned"),
        ]
    ],
    # at 1e13 mm the 5 fs grid of the aligned curve still resolves (doubles
    # lie 0.5 fs apart there), and no finer grid is sampled
    "test_aligned_visibility_curve_of_a_resolvable_far_range_runs": Case(
        "visibility-curve", "[crystal]\nthickness_mm = 1e13\n"),
    # doubles lie 0.125 fs apart below 2**50 fs and 0.25 fs from there on
    "test_scan_step_at_the_resolution_of_doubles": [
        Case("scan", "[scan]\ncenter_fs = 1000000000000000.0\nstep_fs = 0.25\n", name="1000000000000000.0-0"),
        Case("scan", "[scan]\ncenter_fs = 1125899906842624\nstep_fs = 0.25\n", 3, name="1125899906842624-3"),
    ],
    "test_polarization_step_too_coarse_exits_3": Case("polarization", "[polarization]\nstep_deg = 20\n", 3,
                                                      match="step"),
    # a 1e308 nm bandwidth overflows sigma to inf; the rate commands name it
    "test_non_finite_pump_width_exits_3": Case((*RATE_COMMANDS, "optimize"), "[pump]\nbandwidth_nm = 1e308\n", 3,
                                               "error: sigma must be finite, got inf"),
    "test_failed_run_writes_no_file": [
        Case("scan", "[scan]\nhalfwidth_fs = 1\n", 3, name="scan-too-short"),
        Case("scan", "[scan]\ntheta_a_deg = 0\ntheta_b_deg = 0\n", 3, name="scan-zero-rate"),
        Case("polarization", "[polarization]\ntheta_b_stop_deg = 90\n", 3, name="polarization-too-short"),
        Case("emission-map", "[interference]\nbeam_phi_a_deg = 90\nbeam_phi_b_deg = 450\n", 2,
             name="emission-map-equal-beams"),
        Case("visibility-curve", "[visibility_curve]\ntau_b_min_fs = 500\ntau_b_max_fs = 400\n", 2,
             name="visibility-curve-empty-range"),
    ],
    # checked before allocating: the grids asked for here need 0.7 to 4.4 TiB
    "test_grid_over_point_budget_exits_3": [
        Case(command, f"[{section}]\n{key} = 1e-9\n", 3, match="points", name=command)
        for command, section, key in [("scan", "scan", "step_fs"), ("polarization", "polarization", "step_deg"),
                                      ("visibility-curve", "visibility_curve", "step_fs")]
    ],
}
