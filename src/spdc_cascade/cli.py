"""Command-line front end.

Subcommands dispatch to the computation modules and emit CSV data files
plus one-line JSON summaries on stdout.  Each subcommand computes its file
and stdout text first; only then is the file written, via a temporary file
and atomic rename, and the summary printed, so a failed run writes no file.
Exit codes: 0 success, 2 configuration error, 3 numeric or domain error,
4 I/O error.  Warnings print as one `warning: <message>` line on stderr,
each distinct message once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import analysis, geometry, interference, materials
from .config import RunConfig, load_config
from .errors import ConfigError, DegenerateParametersError
from .interference import AnalyzerDelayConfig, optimal_delays

CONFIG_ENV_VAR = "SPDC_CASCADE_CONFIG"


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _summary(record: dict) -> str:
    # strict JSON: a non-finite value raises ValueError (exit 3), never prints NaN
    return json.dumps(record, sort_keys=True, allow_nan=False)


# Each cmd_* returns (file text, stdout text); main writes both.


def cmd_indices(cfg: RunConfig, args) -> tuple:
    lines = ["lambda_nm,n_o,n_e,n_g_o,n_g_e"]
    for lam in args.wavelengths:
        n_o = materials.index_ordinary(cfg.model, lam)
        n_e = materials.index_principal_e(cfg.model, lam)
        ng_o = materials.group_index(cfg.model, lam)
        ng_e = materials.group_index(cfg.model, lam, math.pi / 2.0)
        lines.append(f"{lam:.6g},{n_o:.6f},{n_e:.6f},{ng_o:.6f},{ng_e:.6f}")
    table = "\n".join(lines) + "\n"
    return table, table


def cmd_emission_map(cfg: RunConfig, args) -> tuple:
    if not cfg.cascade:
        raise ConfigError("emission map requires cascade: set [crystal] cascade = true")
    opts = cfg.emission_map
    phi_grid = geometry.default_phi_grid(opts["phi_points"])
    base = geometry.emission_time_map(cfg.crystal1, cfg.crystal2, cfg.pump, {}, phi_grid)
    auto = geometry.map_flattening_delays(base)
    delays = {c: opts[f"delay_{c}_fs"] for c in geometry.CLASS_NAMES}
    delays = {c: auto[c] if value is None else value for c, value in delays.items()}
    emission_map = base.with_delays(delays)
    at_a = geometry.mismatch_at_azimuth(emission_map, cfg.beam_phi_a)
    at_b = geometry.mismatch_at_azimuth(emission_map, cfg.beam_phi_b)
    return emission_map.to_csv(), _summary({
        "pairing_mismatch_fs": geometry.pairing_mismatch(emission_map),
        "beam_a_mismatch_fs": max(at_a["1e_2o"], at_a["1o_2e"]),
        "beam_b_mismatch_fs": max(at_b["1e_2o"], at_b["1o_2e"]),
        "delay_1e_fs": delays["1e"],
        "delay_2e_fs": delays["2e"],
        "phi_points": opts["phi_points"],
    }) + "\n"


def cmd_scan(cfg: RunConfig, args) -> tuple:
    opts = cfg.scan
    params = cfg.interference_params()
    tau_a_opt, tau_b_opt = optimal_delays(params.times)
    tau_a = opts["tau_a_fs"] if opts["tau_a_fs"] is not None else tau_a_opt
    center = opts["center_fs"] if opts["center_fs"] is not None else tau_b_opt
    series = analysis.delay_scan(
        params,
        AnalyzerDelayConfig(
            theta_a=math.radians(opts["theta_a_deg"]),
            theta_b=math.radians(opts["theta_b_deg"]),
            tau_a=tau_a,
            tau_b=0.0,
        ),
        center - opts["halfwidth_fs"],
        center + opts["halfwidth_fs"],
        opts["step_fs"],
    )
    try:
        spacing = analysis.measure_fringe_spacing(series)
    except ValueError:
        spacing = None
    return series.to_csv(), _summary({
        "visibility": analysis.extract_visibility(series),
        "fringe_spacing_fs": spacing,
        "fringe_period_fs": interference.fringe_period(params),
        "tau_a_fs": tau_a,
        "tau_b_fs": center,
    }) + "\n"


def cmd_visibility_curve(cfg: RunConfig, args) -> tuple:
    opts = cfg.visibility_curve
    params = cfg.interference_params()
    tau_a_opt, tau_b_opt = optimal_delays(params.times)
    tau_a = opts["tau_a_fs"] if opts["tau_a_fs"] is not None else tau_a_opt
    lo = opts["tau_b_min_fs"] if opts["tau_b_min_fs"] is not None else tau_b_opt - 300.0
    hi = opts["tau_b_max_fs"] if opts["tau_b_max_fs"] is not None else tau_b_opt + 300.0
    if hi <= lo:
        raise ConfigError("[visibility_curve] needs tau_b_max_fs > tau_b_min_fs")
    grid = analysis._grid(lo, hi, opts["step_fs"])
    series = analysis.visibility_curve(params, tau_a, grid, method=opts["method"])
    peak = int(np.argmax(series.rates))
    return series.to_csv(), _summary({
        "peak_tau_b_fs": float(series.xs[peak]),
        "peak_visibility": float(series.rates[peak]),
        "tau_a_fs": tau_a,
    }) + "\n"


def cmd_polarization(cfg: RunConfig, args) -> tuple:
    opts = cfg.polarization
    params = cfg.interference_params()
    tau_a, tau_b = opts["tau_a_fs"], opts["tau_b_fs"]
    if tau_a is None or tau_b is None:
        locked_a, locked_b = interference.fringe_locked_delays(params)
        tau_a = locked_a if tau_a is None else tau_a
        tau_b = locked_b if tau_b is None else tau_b
    series = analysis.polarization_scan(
        params,
        tau_a,
        tau_b,
        math.radians(opts["theta_a_deg"]),
        math.radians(opts["theta_b_start_deg"]),
        math.radians(opts["theta_b_stop_deg"]),
        math.radians(opts["step_deg"]),
    )
    return series.to_csv(), _summary({
        "visibility": analysis.extract_visibility(series),
        "fringe_period_fs": interference.fringe_period(params),
        "theta_a_rad": math.radians(opts["theta_a_deg"]),
        "tau_a_fs": tau_a,
        "tau_b_fs": tau_b,
    }) + "\n"


def cmd_optimize(cfg: RunConfig, args) -> tuple:
    params = cfg.interference_params()
    plan = analysis.prescribe_delays(params.times, materials.QUARTZ, cfg.pump.degenerate_nm)
    tau_a, tau_b = plan.tau_a_fs, plan.tau_b_fs
    try:
        numeric = analysis.optimize_delays_numeric(
            params, ((tau_a - 50.0, tau_a + 50.0), (tau_b - 50.0, tau_b + 50.0))
        )
        numeric_record = {
            "numeric_tau_a_fs": numeric.tau_a,
            "numeric_tau_b_fs": numeric.tau_b,
            "numeric_agrees_closed_form": bool(
                abs(numeric.tau_a - tau_a) <= 0.5 and abs(numeric.tau_b - tau_b) <= 0.5
            ),
            "envelope_value": numeric.envelope_value,
        }
    except DegenerateParametersError:
        # closed form is still defined (no compensation needed when all
        # propagation times coincide) but the envelope model is singular
        numeric_record = dict.fromkeys(
            ("numeric_tau_a_fs", "numeric_tau_b_fs", "numeric_agrees_closed_form", "envelope_value")
        )
    record = {
        "tau_a_fs": tau_a,
        "tau_b_fs": tau_b,
        "quartz_a_mm": plan.quartz_a_mm,
        "quartz_b_mm": plan.quartz_b_mm,
        **numeric_record,
    }
    text = _summary(record) + "\n"
    return text, text


_COMMANDS = {
    "indices": cmd_indices,
    "emission-map": cmd_emission_map,
    "scan": cmd_scan,
    "visibility-curve": cmd_visibility_curve,
    "polarization": cmd_polarization,
    "optimize": cmd_optimize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdc-cascade",
        description="Simulation toolkit for cascaded type-II down-conversion sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out):
        p.add_argument("--config", help=f"configuration file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--out", required=needs_out, help="output data file")

    p = sub.add_parser("indices", help="tabulate refractive and group indices")
    add_common(p, needs_out=False)
    p.add_argument("wavelengths", nargs="+", type=float, metavar="NM")

    for name, help_text in [
        ("emission-map", "angle-resolved average emission times of the four photon classes"),
        ("scan", "coincidence rate versus the delay in path B"),
        ("visibility-curve", "space-time visibility versus the delay in path B"),
        ("polarization", "coincidence rate versus the angle of analyzer B"),
    ]:
        p = sub.add_parser(name, help=help_text)
        add_common(p, needs_out=True)

    p = sub.add_parser("optimize", help="compensating delays and quartz equivalents")
    add_common(p, needs_out=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not config_path:
        print(f"error: no configuration (use --config or ${CONFIG_ENV_VAR})", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # whatever PYTHONWARNINGS or -W say
            cfg = load_config(config_path)
            file_text, stdout_text = _COMMANDS[args.command](cfg, args)
        if args.out:
            _write_atomic(args.out, file_text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
    sys.stdout.write(stdout_text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
