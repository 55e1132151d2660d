"""Output checks shared by every workload.

Each check raises CheckFailed with a one-line reason; the caller counts
the op as failed.
"""

from __future__ import annotations

import json
import math

# the source paper's numbers at the reference configuration, with the
# number of decimals they are quoted to
PAPER = {
    "fringe_period_fs": (2.635, 3),
    "max_visibility": (0.861, 3),
    "tau_a_fs": (26.6, 1),
    "tau_b_fs": (408.9, 1),
    "pairing_mismatch_256_fs": (0.61, 2),
}

MAX_PAIRING_MISMATCH_FS = 5.0
MAX_OPTIMISER_GAP_FS = 0.5


class CheckFailed(Exception):
    """An output of the program failed a check."""


def _reject_constant(token):
    raise CheckFailed(f"non-finite JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity tokens."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from exc


def finite_csv(text: str, columns: int, min_rows: int = 2) -> int:
    """Check a header line plus rows of finite numbers; returns the row count."""
    lines = text.splitlines()
    if not lines or len(lines[0].split(",")) != columns:
        raise CheckFailed(f"CSV header is not {columns} columns")
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != columns:
            raise CheckFailed(f"CSV line {lineno} has {len(fields)} fields")
        for field in fields:
            try:
                value = float(field)
            except ValueError as exc:
                raise CheckFailed(f"CSV line {lineno}: {field!r} is not a number") from exc
            if not math.isfinite(value):
                raise CheckFailed(f"CSV line {lineno}: non-finite value {field}")
    if len(lines) - 1 < min_rows:
        raise CheckFailed(f"CSV has {len(lines) - 1} rows, expected at least {min_rows}")
    return len(lines) - 1


def finite(name: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise CheckFailed(f"{name} = {value!r} is not a finite number")
    return float(value)


def visibility(name: str, value) -> float:
    value = finite(name, value)
    if not 0.0 < value <= 1.0:
        raise CheckFailed(f"{name} = {value} outside (0, 1]")
    return value


def pairing_mismatch(value) -> float:
    value = finite("pairing mismatch", value)
    if not 0.0 <= value < MAX_PAIRING_MISMATCH_FS:
        raise CheckFailed(f"pairing mismatch {value} fs not below {MAX_PAIRING_MISMATCH_FS} fs")
    return value


def optimiser_agrees(numeric: tuple, closed: tuple):
    """The numeric delay optimiser lands within 0.5 fs of the closed form."""
    gap = max(abs(finite("numeric delay", n) - finite("closed-form delay", c))
              for n, c in zip(numeric, closed))
    if gap > MAX_OPTIMISER_GAP_FS:
        raise CheckFailed(f"numeric optimiser {gap:.3f} fs from the closed form")


def paper_numbers(values: dict):
    """Reference values must round to the paper's quoted numbers."""
    for name, value in values.items():
        expected, decimals = PAPER[name]
        if round(finite(name, value), decimals) != expected:
            raise CheckFailed(f"reference {name} = {value}, paper quotes {expected}")
