"""Small numerical helpers: `_check_range` of every sampled range, searches
included, and `_csv`, the writer of every CSV table, with `_fixed`, the
conversion of its abscissas."""

from __future__ import annotations

import math

import numpy as np


def _check_range(name: str, lo, hi, step, unit: str = "fs",
                 extent: str = "the range needs positive extent"):
    """Raise ValueError unless lo < hi and the samples lo, lo + step, ... up
    to hi are distinct doubles.

    The message reads "<name>, <lo> and <hi> <unit>, <problem>", plus
    "; <extent>" for ends that do not increase.  Neighbouring samples could
    round equal unless the step exceeds the spacing of doubles at the larger
    end plus that at the width, which bounds the rounding of its multiples.
    """
    ends = f"{float(lo)!r} and {float(hi)!r} {unit}"
    if not hi > lo:
        how = "coincide in floating point" if hi == lo else "are not increasing"
        raise ValueError(f"{name}, {ends}, {how}; {extent}")
    gap = math.ulp(max(abs(lo), abs(hi)))
    if not step > gap + math.ulp(hi - lo):
        raise ValueError(f"{name}, {ends}, are too far from 0 for a step of {float(step)!r} {unit}: "
                         f"doubles there lie {gap!r} {unit} apart, so neighbouring samples could "
                         "round equal")


def _csv(header: str, rows, template: str) -> str:
    """The header line, then one `template % row` line per row (a tuple of floats), newline-ended."""
    return "\n".join([header, *(template % row for row in rows)]) + "\n"


def _fixed(xs) -> str:
    """The `%` conversion of a strictly increasing abscissa column: 4 decimals,
    or more where its smallest step is below 1e-3.  Each printed value then
    lies within a twentieth of a step of its own, so the column stays
    strictly increasing wherever it is centred."""
    step = float(np.diff(xs).min(initial=math.inf))
    return f"%.{4 if step >= 1e-3 else math.ceil(-math.log10(step)) + 1}f"
