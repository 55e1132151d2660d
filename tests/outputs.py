"""Compare every output of the package with a parent tree's.

    python tests/outputs.py PARENT_DIR [--rtol RTOL] [--designs N] [--azimuths 256,4096,65536]

Each tree computes one fixed manifest in its own subprocess, with its
`src` first on the path (PARENT_DIR/src, then this checkout's src) and its
own tests/cli_contract.py.  The manifest covers the reference design and
the 21 designs of perfbench's seeds 1-3 (this checkout's perfbench/inputs.py):

* every subcommand's CSV sha256 and summary values, run in process;
* each design's emission map with its flattening delays at every azimuth
  count: CSV sha256, class times (up to 4096 azimuths), delays and
  worst pair mismatch;
* the message of every exit-3 row of tests/cli_contract.py, and the
  message and `.residual` of the library's phase-matching refusals;
* the collinear edge at 395 nm: maps 1e-9 and 1e-3 deg above the collinear
  cut angle (CSV sha256 and class times), and whether a design 1e-13 rad
  above and below it is mapped (its CSV sha256) or refused (as above);
* the exported functions: cone summaries, the collinear cut angle,
  propagation times, closed-form and fringe-locked delays,
  `max_visibility`, `aligned_contrast` on a delay grid, and the index
  functions on a wavelength x angle grid.

It prints one table row per output: "identical", or the largest absolute
and relative differences and where they occur.  It exits 1 only when
--rtol is given and exceeded; a hash or a text that differs exceeds any
--rtol.  Not a test: pytest does not collect it, and timing is perfbench's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import math
import os
import pickle
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
AZIMUTHS = (256, 4096, 65536)
TIMES_UP_TO = 4096  # class times are kept for maps up to this size; larger ones by hash
# subcommand -> extra positional arguments
COMMANDS = {"indices": ["395", "790"], "emission-map": [], "scan": [], "visibility-curve": [],
            "polarization": [], "optimize": []}


def benchmark_designs(count=None):
    """The first count of: the reference design, then the 21 designs of
    perfbench's seeds 1-3, read from this checkout's perfbench/inputs.py."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(inputs)
    return ([inputs.REFERENCE] + [d for seed in (1, 2, 3) for d in inputs.draw_designs(seed)])[:count]


def _ini(design):
    return ("[crystal]\nmaterial = bbo\n"
            f"thickness_mm = {design['thickness_mm']}\ncut_angle_deg = {design['cut_angle_deg']}\ncascade = true\n\n"
            f"[pump]\ncenter_nm = {design['center_nm']}\nbandwidth_nm = {design['bandwidth_nm']}\n")


def _run_cli(main, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cone_values(cones):
    """The (tilt, half-angle) of each cone of a ConePair, as one tuple."""
    return tuple(x for field in ("o_cone", "e_cone", "external_o", "external_e")
                 for x in (getattr(cones, field).tilt, getattr(cones, field).half_angle))


def _refusal(call, values=repr):
    """(message, residual) of the NotPhaseMatchableError that call raises,
    or values of its result."""
    import spdc_cascade as sc

    try:
        return values(call())
    except sc.NotPhaseMatchableError as err:
        return str(err), err.residual


def manifest(count=None, azimuths=AZIMUTHS, contract=True):
    """{(output, where): value} of the package on the path: floats, tuples
    of floats, numpy arrays, or text."""
    import json

    import numpy as np

    import spdc_cascade as sc
    from spdc_cascade.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        config, path = os.path.join(workdir, "design.ini"), os.path.join(workdir, "out.csv")
        for i, design in enumerate(benchmark_designs(count)):
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(_ini(design))
            for name, args in COMMANDS.items():
                code, stdout, stderr = _run_cli(main, [name, "--config", config, "--out", path, *args])
                out[(f"cli {name} exit and stderr", i)] = f"{code} {stderr}"
                with open(path, encoding="utf-8") as fh:
                    out[(f"cli {name} csv sha256", i)] = _sha256(fh.read())
                if name != "indices":
                    for key, value in json.loads(stdout).items():
                        out[(f"cli {name} summary {key}", i)] = value

            cut = math.radians(design["cut_angle_deg"])
            crystal1, crystal2 = (sc.CrystalSpec(sc.BBO, design["thickness_mm"], cut, axis_sign=s) for s in (1, -1))
            pump = sc.PumpSpec(design["center_nm"], design["bandwidth_nm"])
            for n in azimuths:
                base = sc.emission_time_map(crystal1, crystal2, pump, {}, sc.geometry.default_phi_grid(n))
                delays = sc.map_flattening_delays(base)
                delayed = base.with_delays(delays)
                out[(f"map {n} csv sha256", i)] = _sha256(delayed.to_csv())
                out[(f"map {n} flattening delays", i)] = (delays["1e"], delays["2e"])
                out[(f"map {n} pairing mismatch", i)] = sc.pairing_mismatch(delayed)
                if n <= TIMES_UP_TO:
                    out[(f"map {n} class times", i)] = np.array([base.times[c] for c in sc.geometry.CLASS_NAMES])
            for sign, crystal in ((1, crystal1), (-1, crystal2)):
                out[(f"phase_match_cones, {sign:+d} crystal", i)] = _cone_values(sc.phase_match_cones(crystal, pump))
            out[("collinear_cut_angle", i)] = sc.collinear_cut_angle(sc.BBO, pump)
            times = sc.propagation_times(crystal1, pump)
            out[("propagation_times", i)] = times.as_tuple()
            tau_a, tau_b = sc.optimal_delays(times)
            out[("optimal_delays", i)] = (tau_a, tau_b)
            params = sc.params_from_crystal(crystal1, pump)
            out[("max_visibility", i)] = sc.max_visibility(params)
            for given in ({}, {"tau_a": tau_a}, {"tau_b": tau_b}):
                locked = sc.interference.fringe_locked_pair(params, **given)
                out[(f"fringe_locked_pair given {', '.join(given) or 'neither'}", i)] = locked
            offsets = np.linspace(-60.0, 60.0, 121)
            out[("aligned_contrast on a delay grid", i)] = np.asarray(
                sc.aligned_contrast(params, tau_a + offsets[:, None], tau_b + offsets[None, :]))

    lam, theta = np.linspace(300.0, 1000.0, 15), np.linspace(0.0, math.pi / 2, 19)
    for model in (sc.BBO, sc.QUARTZ):
        out[(f"index_ordinary, index_principal_e {model.name}", 0)] = np.array(
            [[sc.index_ordinary(model, x), sc.index_principal_e(model, x)] for x in lam])
        out[(f"index_extraordinary {model.name}", 0)] = np.array([sc.index_extraordinary(model, x, theta) for x in lam])
        out[(f"group_index o and e {model.name}", 0)] = np.array(
            [np.append(sc.group_index(model, x, theta), sc.group_index(model, x)) for x in lam])

    pump = sc.PumpSpec(395.0, 1.0)
    refused = {"BBO 40 deg": (sc.BBO, 40.0), "BBO 42.5 deg": (sc.BBO, 42.5), "quartz 43.65 deg": (sc.QUARTZ, 43.65)}
    for label, (model, cut) in refused.items():
        crystals = [sc.CrystalSpec(model, 1.07, math.radians(cut), axis_sign=s) for s in (1, -1)]
        out[(f"refusal phase_match_cones {label}", 0)] = _refusal(lambda: sc.phase_match_cones(crystals[0], pump),
                                                                  _cone_values)
        out[(f"refusal emission_time_map {label}", 0)] = _refusal(lambda: sc.emission_time_map(*crystals, pump))
    out[("refusal collinear_cut_angle quartz", 0)] = _refusal(lambda: sc.collinear_cut_angle(sc.QUARTZ, pump))
    psi_c, grid = sc.collinear_cut_angle(sc.BBO, pump), sc.geometry.default_phi_grid(256)

    def edge_map(cut):
        crystals = [sc.CrystalSpec(sc.BBO, 1.07, cut, axis_sign=s) for s in (1, -1)]
        return sc.emission_time_map(*crystals, pump, {}, grid)

    for above_deg in (1e-9, 1e-3):
        edge = edge_map(psi_c + math.radians(above_deg))
        out[(f"edge map {above_deg:g} deg above the collinear cut csv sha256", 0)] = _sha256(edge.to_csv())
        out[(f"edge map {above_deg:g} deg above the collinear cut class times", 0)] = np.array(
            [edge.times[c] for c in sc.geometry.CLASS_NAMES])
    for offset in (1e-13, -1e-13):
        out[(f"edge map or refusal at the collinear cut {offset:+g} rad", 0)] = _refusal(
            lambda: edge_map(psi_c + offset), lambda edge: _sha256(edge.to_csv()))
    if contract:
        out.update(_contract_refusals(main))
    return out


def _contract_refusals(main):
    """The stderr line of every exit-3 run of tests/cli_contract.py's rows,
    its temporary paths replaced by {config} and {material}."""
    from cli_contract import CASES, Case

    out = {}
    for test, cases in CASES.items():
        for case in [cases] if isinstance(cases, Case) else cases:
            if case.code != 3:
                continue
            with tempfile.TemporaryDirectory() as workdir:
                config, material = os.path.join(workdir, "config.ini"), os.path.join(workdir, "custom.mat")
                if case.material is not None:
                    with open(material, "w", encoding="utf-8") as fh:
                        fh.write(case.material)
                with open(config, "w", encoding="utf-8") as fh:
                    fh.write(case.ini.format(material=material))
                options = ["--config", config] + (["--out", os.path.join(workdir, "out.csv")] if case.out else [])
                for command in (case.commands,) if isinstance(case.commands, str) else case.commands:
                    head, *positional = command.split()
                    code, _, stderr = _run_cli(main, [head, *options, *positional])
                    text = stderr.replace(config, "{config}").replace(material, "{material}")
                    out[(f"contract {test}", f"{case.name or ''} {command}")] = f"{code} {text}"
    return out


def _differences(old, new):
    """(largest |new - old|, largest relative difference) of two numeric
    values, or None when they are not numbers of one shape."""
    import numpy as np

    if isinstance(old, str) or isinstance(new, str) or isinstance(old, bool) or isinstance(new, bool):
        return None
    try:
        a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    except (TypeError, ValueError):
        return None
    if a.shape != b.shape:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.abs(b - a)
        rel = np.where(diff == 0.0, 0.0, diff / np.maximum(np.abs(a), np.abs(b)))
    same_nan = np.isnan(a) & np.isnan(b)
    diff, rel = np.where(same_nan, 0.0, diff), np.where(same_nan, 0.0, rel)
    return float(np.nan_to_num(diff, nan=math.inf).max(initial=0.0)), float(np.nan_to_num(rel, nan=math.inf).max(initial=0.0))


def compare(old, new, rtol=None):
    """[(output, points, result, exceeded)]: one row per output of either
    manifest, in the new manifest's order.  exceeded is False without rtol;
    with it, a relative difference above rtol, a hash or a text that
    differs, or an output of one manifest only exceeds it."""
    rows, order = [], list(dict.fromkeys([k[0] for k in new] + [k[0] for k in old]))
    for name in order:
        wheres = list(dict.fromkeys([w for n, w in new if n == name] + [w for n, w in old if n == name]))
        worst_abs, worst_rel, where_abs, differ = 0.0, 0.0, None, []
        for where in wheres:
            key = (name, where)
            if key not in old or key not in new:
                differ.append(f"{where}: only {'here' if key in new else 'in the parent'}")
                continue
            a, b = old[key], new[key]
            numbers = _differences(a, b)
            if numbers is None:
                if a != b:
                    differ.append(str(where))
                continue
            d_abs, d_rel = numbers
            if d_abs > worst_abs:
                worst_abs, where_abs = d_abs, where
            worst_rel = max(worst_rel, d_rel)
        if differ:
            result = f"{len(differ)} of {len(wheres)} differ, first at {differ[0]}"
        elif worst_abs == 0.0:
            result = "identical"
        else:
            result = f"max abs {worst_abs:.3g} (at {where_abs}), max rel {worst_rel:.3g}"
        rows.append((name, len(wheres), result, rtol is not None and (bool(differ) or worst_rel > rtol)))
    return rows


def _dump(tree, path, count, azimuths):
    """Run the manifest in a subprocess on tree's package and contract table; write it to path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", tree, path, "--designs", str(count),
                    "--azimuths", ",".join(map(str, azimuths))], env=env, check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare every output with a parent tree's.")
    parser.add_argument("parent", nargs="?", help="the parent tree's directory")
    parser.add_argument("--rtol", type=float, help="exit 1 when an output differs by more, relatively")
    parser.add_argument("--designs", type=int, default=22, help="the first N benchmark designs")
    parser.add_argument("--azimuths", default=",".join(map(str, AZIMUTHS)), help="map sizes, comma-separated")
    parser.add_argument("--dump", nargs=2, metavar=("TREE", "PATH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    azimuths = tuple(int(n) for n in args.azimuths.split(","))
    if args.dump:
        tree, path = args.dump
        sys.path.insert(0, os.path.join(os.path.abspath(tree), "tests"))
        with open(path, "wb") as fh:
            pickle.dump(manifest(args.designs, azimuths), fh)
        return 0
    if args.parent is None:
        parser.error("PARENT_DIR is required")
    with tempfile.TemporaryDirectory() as workdir:
        old = _dump(os.path.abspath(args.parent), os.path.join(workdir, "parent.pkl"), args.designs, azimuths)
        new = _dump(ROOT, os.path.join(workdir, "here.pkl"), args.designs, azimuths)
    rows = compare(old, new, args.rtol)
    print("| output | points | against the parent |\n|---|---|---|")
    for name, points, result, _ in rows:
        print(f"| {name} | {points} | {result} |")
    return int(any(exceeded for *_, exceeded in rows))


if __name__ == "__main__":
    sys.exit(main())
