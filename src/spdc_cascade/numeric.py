"""Small numerical helpers: `_check_range` of every sampled range, searches
included, three-point parabolic interpolation of sampled extrema, and
`_csv`, the writer of every CSV table."""

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


def parabola_vertex(x0, y0, x1, y1, x2, y2) -> tuple:
    """Vertex (x, y) of the parabola through three points, elementwise.

    Used to refine sampled extrema bracketed by their neighbours; falls
    back to the middle point where the three are collinear.
    """
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    curv = (d2 - d1) / (x2 - x0)
    collinear = curv == 0.0
    curv = np.where(collinear, 1.0, curv)  # any nonzero value; its vertex is discarded
    xv = 0.5 * (x0 + x1 - d1 / curv)
    # evaluate the interpolating parabola at its vertex
    yv = y0 + d1 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    return np.where(collinear, x1, xv), np.where(collinear, y1, yv)


def _csv(header: str, rows, template: str) -> str:
    """The header line, then one `template % row` line per row (a tuple of floats), newline-ended."""
    return "\n".join([header, *(template % row for row in rows)]) + "\n"
