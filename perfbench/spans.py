"""Span recorder for the traced run, and the per-layer metrics built from it.

`install` wraps the public functions of the spdc_cascade layers from
outside the package.  Every module-level name that refers to a wrapped
function is rebound, including the names that `from .materials import ...`
copies into geometry, interference, analysis, config and cli, so calls
between modules are recorded too.  The CLI layer is entered through
`cli.main` only: the subcommand bodies count as its self time.  The CSV
writers (`ScanSeries.to_csv`, `EmissionTimeMap.to_csv`) are recorded as the
`output` layer.

A span holds its name, start, end, parent span and op id, plus one
measured value (points evaluated, bytes written, ...) and an error code.
Spans live in compact arrays in memory and are written out once, at the
end, by `SpanTable.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import types
from array import array

PACKAGE = "spdc_cascade"
LAYERS = ("config", "materials", "geometry", "interference", "analysis", "numeric", "cli")
CLI_ENTRY_POINTS = ("main",)
OUTPUT_CLASSES = (("analysis", "ScanSeries"), ("geometry", "EmissionTimeMap"))

NO_ERROR, NOT_PHASE_MATCHABLE, OTHER_ERROR = 0, 1, 2
N_PHOTON_CLASSES = 4  # 1e, 1o, 2e, 2o


def _size(result) -> float:
    shape = getattr(result, "shape", ())
    return float(math.prod(shape))


def _csv_bytes(text) -> float:
    return float(len(text.encode("utf-8")))


# span name -> the value recorded from the function's result
MEASURES = {
    "interference.coincidence_rate": _size,
    "interference.envelope": _size,
    "geometry.class_emission_times": lambda r: float(len(r)),
    "geometry.emission_time_map": lambda r: float(r.phi_grid.size),
    "output.ScanSeries.to_csv": _csv_bytes,
    "output.EmissionTimeMap.to_csv": _csv_bytes,
}
# golden-section searches record how often they evaluated their objective
COUNT_EVALS = ("numeric.golden_section_min",)

_COLUMNS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"),
            ("value", "d"), ("error", "b"))


class SpanTable:
    """Spans in parallel arrays; a span's parent always has a lower index."""

    def __init__(self, names=None):
        self.names = list(names or [])
        self._ids = {n: i for i, n in enumerate(self.names)}
        for column, code in _COLUMNS:
            setattr(self, column, array(code))

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name, start, end, parent=-1, op=0, value=math.nan, error=NO_ERROR) -> int:
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        self.value.append(value)
        self.error.append(error)
        return len(self.start) - 1

    def extend(self, other: "SpanTable"):
        """Append another table's spans, keeping their tree structure."""
        offset = len(self)
        remap = [self.name_id(n) for n in other.names]
        self.name.extend(remap[i] for i in other.name)
        self.parent.extend(p + offset if p >= 0 else -1 for p in other.parent)
        for column in ("op", "start", "end", "value", "error"):
            getattr(self, column).extend(getattr(other, column))

    def dump(self, path: str, extra: dict | None = None):
        header = {"names": self.names, "spans": len(self), "extra": extra or {}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column, _ in _COLUMNS:
                getattr(self, column).tofile(fh)

    @classmethod
    def load(cls, path: str) -> tuple:
        """Read a dumped table; returns (table, extra)."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            table = cls(header["names"])
            for column, _ in _COLUMNS:
                getattr(table, column).fromfile(fh, header["spans"])
        return table, header["extra"]


class Recorder(SpanTable):
    """A SpanTable filled by wrappers installed around the package's functions."""

    def __init__(self):
        super().__init__()
        self.op_id = 0
        self._stack = [-1]
        self._restore = []

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, values, errors = self.start, self.end, self.value, self.error
        stack = self._stack
        measure = MEASURES.get(name)
        clock = time.perf_counter
        not_matchable = sys.modules[f"{PACKAGE}.errors"].NotPhaseMatchableError

        if name in COUNT_EVALS:
            fn = _counting_evals(fn, values, stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            values.append(math.nan)
            errors.append(NO_ERROR)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except not_matchable:
                errors[i] = NOT_PHASE_MATCHABLE
                raise
            except BaseException:
                errors[i] = OTHER_ERROR
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if measure is not None:
                values[i] = measure(result)
            return result

        return wrapper

    def install(self):
        """Wrap the package's public functions and CSV writers in spans."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and (layer != "cli" or attr in CLI_ENTRY_POINTS)
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, obj))
        for layer, cls_name in OUTPUT_CLASSES:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__["to_csv"]
            setattr(cls, "to_csv", self._wrap(f"output.{cls_name}.to_csv", original))
            self._restore.append((cls, "to_csv", original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _counting_evals(fn, values, stack):
    """Record in the enclosing span how often fn evaluates its objective."""

    @functools.wraps(fn)
    def counted_search(f, *args, **kwargs):
        evals = 0

        def objective(x):
            nonlocal evals
            evals += 1
            return f(x)

        try:
            return fn(objective, *args, **kwargs)
        finally:
            values[stack[-1]] = evals

    return counted_search


def self_times(parent, start, end) -> list:
    """Each span's duration minus the durations of its child spans.

    The recorder is synchronous and single-threaded, so children lie inside
    their parent and one after another.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


# per-layer metrics: name -> unit; counts repeat exactly for the same inputs
COUNT_METRICS = {
    "output.csv_bytes": "bytes",
    "materials.index_ordinary.calls": "count",
    "materials.index_extraordinary.calls": "count",
    "materials.group_index.calls": "count",
    "materials.calls_per_azimuth": "count",
    "geometry.cone_direction.calls": "count",
    "geometry.class_emission_times.calls": "count",
    "geometry.class_emission_times.useful_ratio": "ratio",
    # always 0 on a correct run: the package never catches
    # NotPhaseMatchableError, so a count here comes with a failed op
    "geometry.not_phase_matchable": "count",
    "interference.coincidence_rate.calls": "count",
    "interference.coincidence_rate.points": "count",
    "interference.envelope.calls": "count",
    "interference.envelope.points": "count",
    "interference.points_per_call": "count",
    "analysis.local_fringe_visibility.calls": "count",
    "numeric.golden_section.calls": "count",
    "numeric.golden_section.evals": "count",
    "trace.spans": "count",
}
TIME_METRICS = {
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "config.load_config.s": "s",
    "config.self_s": "s",
    "output.to_csv.s": "s",
    "materials.self_s": "s",
    "geometry.self_s": "s",
    "geometry.emission_time_map.s": "s",
    "geometry.cone_direction.s": "s",
    "geometry.class_emission_times.s": "s",
    "geometry.phase_match_cones.s": "s",
    "geometry.collinear_cut_angle.s": "s",
    "interference.self_s": "s",
    "interference.coincidence_rate.s": "s",
    "interference.envelope.s": "s",
    "interference.max_visibility.s": "s",
    "interference.fringe_locked_delays.s": "s",
    "analysis.self_s": "s",
    "analysis.visibility_curve.s": "s",
    "analysis.optimize_delays_numeric.s": "s",
    "analysis.extract_visibility.s": "s",
    "analysis.polarization_scan.s": "s",
    "numeric.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(table: SpanTable) -> dict:
    """Per-layer metrics of one traced pass, except cli.import_s and
    trace.overhead_ratio, which the caller measures."""
    n_names = len(table.names)
    calls = [0] * n_names
    total = [0.0] * n_names
    own = [0.0] * n_names
    value = [0.0] * n_names
    layer_own = {}
    selfs = self_times(table.parent, table.start, table.end)
    ids = {name: i for i, name in enumerate(table.names)}
    map_id = ids.get("geometry.emission_time_map", -1)
    cet_id = ids.get("geometry.class_emission_times", -1)
    in_map = bytearray(len(table))
    raised_below = bytearray(len(table))
    materials_in_map = classes_in_map = 0
    for i, (nid, p) in enumerate(zip(table.name, table.parent)):
        calls[nid] += 1
        total[nid] += table.end[i] - table.start[i]
        own[nid] += selfs[i]
        v = table.value[i]
        if v == v:  # not NaN
            value[nid] += v
        in_map[i] = nid == map_id or (p >= 0 and in_map[p])
        if in_map[i]:
            if table.names[nid].startswith("materials."):
                materials_in_map += 1
            elif nid == cet_id:
                classes_in_map += v
        if p >= 0 and table.error[i] == NOT_PHASE_MATCHABLE:
            raised_below[p] = 1
    for nid, name in enumerate(table.names):
        layer = name.split(".", 1)[0]
        layer_own[layer] = layer_own.get(layer, 0.0) + own[nid]

    def get(name, stat):
        return stat[ids[name]] if name in ids else 0.0

    azimuths = get("geometry.emission_time_map", value)
    rate_calls = get("interference.coincidence_rate", calls)
    env_calls = get("interference.envelope", calls)
    rate_points = get("interference.coincidence_rate", value)
    env_points = get("interference.envelope", value)
    origin_errors = sum(
        1 for i in range(len(table))
        if table.error[i] == NOT_PHASE_MATCHABLE and not raised_below[i]
        and table.names[table.name[i]].startswith("geometry.")
    )
    return {
        "cli.main_self_s": get("cli.main", own),
        "config.load_config.s": get("config.load_config", total),
        "config.self_s": layer_own.get("config", 0.0),
        "output.to_csv.s": get("output.ScanSeries.to_csv", total)
        + get("output.EmissionTimeMap.to_csv", total),
        "output.csv_bytes": get("output.ScanSeries.to_csv", value)
        + get("output.EmissionTimeMap.to_csv", value),
        "materials.index_ordinary.calls": get("materials.index_ordinary", calls),
        "materials.index_extraordinary.calls": get("materials.index_extraordinary", calls),
        "materials.group_index.calls": get("materials.group_index", calls),
        "materials.self_s": layer_own.get("materials", 0.0),
        "materials.calls_per_azimuth": materials_in_map / azimuths if azimuths else 0.0,
        "geometry.self_s": layer_own.get("geometry", 0.0),
        "geometry.emission_time_map.s": get("geometry.emission_time_map", total),
        "geometry.cone_direction.calls": get("geometry.cone_direction", calls),
        "geometry.cone_direction.s": get("geometry.cone_direction", total),
        "geometry.class_emission_times.calls": get("geometry.class_emission_times", calls),
        "geometry.class_emission_times.s": get("geometry.class_emission_times", total),
        "geometry.class_emission_times.useful_ratio":
            N_PHOTON_CLASSES * azimuths / classes_in_map if classes_in_map else 0.0,
        "geometry.phase_match_cones.s": get("geometry.phase_match_cones", total),
        "geometry.collinear_cut_angle.s": get("geometry.collinear_cut_angle", total),
        "geometry.not_phase_matchable": origin_errors,
        "interference.self_s": layer_own.get("interference", 0.0),
        "interference.coincidence_rate.calls": rate_calls,
        "interference.coincidence_rate.points": rate_points,
        "interference.coincidence_rate.s": get("interference.coincidence_rate", total),
        "interference.envelope.calls": env_calls,
        "interference.envelope.points": env_points,
        "interference.envelope.s": get("interference.envelope", total),
        "interference.points_per_call":
            (rate_points + env_points) / (rate_calls + env_calls) if rate_calls + env_calls else 0.0,
        "interference.max_visibility.s": get("interference.max_visibility", total),
        "interference.fringe_locked_delays.s": get("interference.fringe_locked_delays", total),
        "analysis.self_s": layer_own.get("analysis", 0.0),
        "analysis.visibility_curve.s": get("analysis.visibility_curve", total),
        "analysis.optimize_delays_numeric.s": get("analysis.optimize_delays_numeric", total),
        "analysis.extract_visibility.s": get("analysis.extract_visibility", total),
        "analysis.polarization_scan.s": get("analysis.polarization_scan", total),
        "analysis.local_fringe_visibility.calls": get("analysis.local_fringe_visibility", calls),
        "numeric.self_s": layer_own.get("numeric", 0.0),
        "numeric.golden_section.calls": get("numeric.golden_section_min", calls),
        "numeric.golden_section.evals": get("numeric.golden_section_min", value),
        "trace.spans": len(table),
    }
