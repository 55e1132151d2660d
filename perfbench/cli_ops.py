"""Cold CLI ops: one `python -m spdc_cascade.cli` subprocess each.

Ops run one at a time, in the input directory, with the checkout's `src`
first on PYTHONPATH.  Every op's exit code, stderr, stdout summary and
output file are checked.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import checks

OP_TIMEOUT_S = 120.0
CSV_COLUMNS = {"emission-map": 5, "scan": 2, "visibility-curve": 2, "polarization": 2}
HERE = os.path.dirname(os.path.abspath(__file__))


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def untraced_command(argv) -> list:
    return [sys.executable, "-m", "spdc_cascade.cli", *argv]


def traced_command(argv, trace_path: str, op_id: int) -> list:
    return [sys.executable, os.path.join(HERE, "cli_entry.py"), trace_path, str(op_id), *argv]


def run(command: list, cwd: str, env: dict) -> tuple:
    """Run one child to completion; returns (wall seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run(
        command, cwd=cwd, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S
    )
    return time.perf_counter() - start, proc


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def prepare(argv, cwd: str):
    """Remove the op's output file, so the check sees only what this op wrote."""
    out = _option(argv, "--out")
    if out is not None and os.path.exists(os.path.join(cwd, out)):
        os.unlink(os.path.join(cwd, out))


def check(argv, proc, cwd: str) -> dict:
    """Check one finished op; returns its JSON summary ({} for indices)."""
    command = argv[0]
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        raise checks.CheckFailed(f"{command} exited {proc.returncode}: {last[0]}")
    if "Traceback" in proc.stderr:
        raise checks.CheckFailed(f"{command} printed a traceback")
    if command == "indices":
        # argv is: indices --config PATH NM...
        checks.finite_csv(proc.stdout, 5, min_rows=len(argv) - 3)
        return {}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise checks.CheckFailed(f"{command} printed no summary")
    summary = checks.strict_json(lines[-1])
    out = _option(argv, "--out")
    if out is not None:
        with open(os.path.join(cwd, out), encoding="utf-8") as fh:
            checks.finite_csv(fh.read(), CSV_COLUMNS[command])
    if command == "optimize":
        checks.optimiser_agrees(
            (summary["numeric_tau_a_fs"], summary["numeric_tau_b_fs"]),
            (summary["tau_a_fs"], summary["tau_b_fs"]),
        )
        for key in ("quartz_a_mm", "quartz_b_mm", "envelope_value"):
            checks.finite(key, summary[key])
    elif command == "emission-map":
        checks.pairing_mismatch(summary["pairing_mismatch_fs"])
    elif command == "visibility-curve":
        checks.visibility("peak visibility", summary["peak_visibility"])
    else:
        checks.visibility("visibility", summary["visibility"])
        checks.finite("fringe period", summary["fringe_period_fs"])
    return summary


# the paper's numbers, and the subcommand on the reference config reporting them
REFERENCE_OPS = (
    (["scan", "--config", "reference.ini", "--out", "out/reference-scan.csv"],
     {"fringe_period_fs": "fringe_period_fs", "tau_a_fs": "tau_a_fs", "tau_b_fs": "tau_b_fs"}),
    (["visibility-curve", "--config", "reference.ini", "--out", "out/reference-vis.csv"],
     {"max_visibility": "peak_visibility"}),
    (["emission-map", "--config", "reference.ini", "--out", "out/reference-map.csv"],
     {"pairing_mismatch_256_fs": "pairing_mismatch_fs"}),
)


def check_reference(cwd: str, env: dict):
    for argv, fields in REFERENCE_OPS:
        prepare(argv, cwd)
        _, proc = run(untraced_command(argv), cwd, env)
        summary = check(argv, proc, cwd)
        checks.paper_numbers({paper: summary[key] for paper, key in fields.items()})
