"""Golden-output regression test for the command-line front end.

Every subcommand runs in process on the README reference configuration;
each CSV cell and each JSON summary value must match the fixtures in
tests/golden/ to a relative tolerance of 1e-9 (non-numeric values and CSV
headers exactly).  The fixtures are regenerated with

    PYTHONPATH=src python tests/test_golden.py

which is only right for a deliberate change of the package's numbers.  It
rewrites only the values that moved: a summary value or CSV cell that the
new run matches under `assert_matches` keeps its recorded text, so rounding
differences between machines do not churn the fixtures.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import pytest

from spdc_cascade.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL_TOL = 1e-9

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

# subcommand -> extra positional arguments
COMMANDS = {
    "indices": ["395", "790"],
    "emission-map": [],
    "scan": [],
    "visibility-curve": [],
    "polarization": [],
    "optimize": [],
}
# commands whose stdout is a one-line JSON summary (indices prints its table)
SUMMARY_COMMANDS = ("emission-map", "scan", "visibility-curve", "polarization", "optimize")
# commands whose --out file is a CSV table (optimize writes its summary)
CSV_COMMANDS = ("indices", "emission-map", "scan", "visibility-curve", "polarization")


def run_command(name: str, workdir: str) -> tuple:
    """Run one subcommand; returns (csv_text or None, summary dict or None)."""
    config_path = os.path.join(workdir, "reference.ini")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(REFERENCE_INI)
    out_path = os.path.join(workdir, f"{name}.out")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([name, "--config", config_path, "--out", out_path, *COMMANDS[name]])
    assert code == 0, f"{name} exited with {code}"
    csv_text = None
    if name in CSV_COMMANDS:
        with open(out_path, encoding="utf-8") as fh:
            csv_text = fh.read()
    summary = json.loads(stdout.getvalue()) if name in SUMMARY_COMMANDS else None
    return csv_text, summary


def assert_matches(got, want, where: str):
    if isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def load_golden_summaries() -> dict:
    with open(os.path.join(GOLDEN_DIR, "summaries.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_matches_golden_output(name, tmp_path):
    csv_text, summary = run_command(name, str(tmp_path))
    if name in CSV_COMMANDS:
        with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), encoding="utf-8") as fh:
            want_lines = fh.read().splitlines()
        got_lines = csv_text.splitlines()
        assert got_lines[0] == want_lines[0], f"{name}: CSV header changed"
        assert len(got_lines) == len(want_lines), f"{name}: row count changed"
        for row, (got, want) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
            got_cells, want_cells = got.split(","), want.split(",")
            assert len(got_cells) == len(want_cells), f"{name} row {row}: column count"
            for col, (g, w) in enumerate(zip(got_cells, want_cells)):
                assert_matches(float(g), float(w), f"{name} row {row} col {col}")
    if name in SUMMARY_COMMANDS:
        want = load_golden_summaries()[name]
        assert sorted(summary) == sorted(want), f"{name}: summary keys changed"
        for key, value in want.items():
            assert_matches(summary[key], value, f"{name} summary {key}")


def _matches(got, want) -> bool:
    try:
        assert_matches(got, want, "")
    except AssertionError:
        return False
    return True


def _kept_csv(got: str, path: str) -> str:
    """The CSV text got, with each cell that matches the fixture at path kept
    as recorded; a new header or row count replaces the whole file."""
    if not os.path.exists(path):
        return got
    with open(path, encoding="utf-8") as fh:
        want_lines = fh.read().splitlines()
    got_lines = got.splitlines()
    if got_lines[0] != want_lines[0] or len(got_lines) != len(want_lines):
        return got
    rows = [got_lines[0]]
    for got_row, want_row in zip(got_lines[1:], want_lines[1:]):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        if len(got_cells) != len(want_cells):
            rows.append(got_row)
            continue
        rows.append(",".join(w if _matches(float(g), float(w)) else g for g, w in zip(got_cells, want_cells)))
    return "\n".join(rows) + "\n"


def record():
    """Rewrite the fixtures from the current package, only where they moved."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    try:
        recorded = load_golden_summaries()
    except FileNotFoundError:
        recorded = {}
    summaries = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in COMMANDS:
            csv_text, summary = run_command(name, workdir)
            if csv_text is not None:
                path = os.path.join(GOLDEN_DIR, f"{name}.csv")
                csv_text = _kept_csv(csv_text, path)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(csv_text)
            if summary is not None:
                want = recorded.get(name, {})
                summaries[name] = {key: want[key] if key in want and _matches(value, want[key]) else value
                                   for key, value in summary.items()}
    with open(os.path.join(GOLDEN_DIR, "summaries.json"), "w", encoding="utf-8") as fh:
        json.dump(summaries, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(record())
