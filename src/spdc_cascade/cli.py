"""Command-line front end.

Subcommands dispatch to the computation modules and emit CSV data files
plus one-line JSON summaries on stdout.  Each subcommand computes its file
and stdout text first; only then is the file written, via a temporary file
and atomic rename, and the summary printed, so a failed run writes no file
(one whose stdout fails removes it).  Exit codes, each chosen in `main`:
0 success, 2 usage or configuration error, 3 numeric or domain error, 4 I/O
error, stdout included.  Warnings print as one `warning: <message>` line on
stderr, each distinct message once.
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
from .errors import ConfigError
from .interference import AnalyzerDelayConfig, optimal_delays
from .numeric import _csv

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
    rows = [(lam, materials.index_ordinary(cfg.model, lam), materials.index_principal_e(cfg.model, lam),
             materials.group_index(cfg.model, lam), materials.group_index(cfg.model, lam, math.pi / 2.0))
            for lam in args.wavelengths]
    table = _csv("lambda_nm,n_o,n_e,n_g_o,n_g_e", rows, "%.6g,%.6f,%.6f,%.6f,%.6f")
    return table, table


def cmd_emission_map(cfg: RunConfig, args) -> tuple:
    opts = cfg.emission_map
    phi_grid = geometry.default_phi_grid(opts["phi_points"])
    base = geometry.emission_time_map(cfg.crystal1, cfg.crystal2, cfg.pump, {}, phi_grid)
    auto = geometry.map_flattening_delays(base)
    delays = {c: opts[f"delay_{c}_fs"] for c in geometry.CLASS_NAMES}
    delays = {c: auto[c] if value is None else value for c, value in delays.items()}
    for e, o in geometry.PAIRS:  # only a flattening delay can be negative
        if delays[e] < 0.0:
            raise ValueError(f"the flattening delay of class {e} is {delays[e]:.3f} fs, and a delay line only adds "
                             f"delay; delay its partner {o} instead: set [emission_map] delay_{e}_fs = 0 and "
                             f"delay_{o}_fs = {delays[o] - delays[e]:.3f}")
    emission_map = base.with_delays(delays)
    return emission_map.to_csv(), _summary({
        "pairing_mismatch_fs": geometry.pairing_mismatch(emission_map),
        "beam_a_mismatch_fs": geometry.mismatch_at_azimuth(emission_map, cfg.beam_phi_a),
        "beam_b_mismatch_fs": geometry.mismatch_at_azimuth(emission_map, cfg.beam_phi_b),
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
    grid = analysis._grid(lo, hi, opts["step_fs"], "visibility-curve range ends of tau_B")
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
    tau_a, tau_b = interference.fringe_locked_pair(params, opts["tau_a_fs"], opts["tau_b_fs"])
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
    # the plates first, so a quartz source names its negative tau_A
    times = geometry.propagation_times(cfg.crystal1, cfg.pump)
    plan = analysis.prescribe_delays(times, materials.QUARTZ, cfg.pump.degenerate_nm)
    params = cfg.interference_params()
    tau_a, tau_b = plan.tau_a_fs, plan.tau_b_fs
    numeric = analysis.optimize_delays_numeric(
        params, ((tau_a - 50.0, tau_a + 50.0), (tau_b - 50.0, tau_b + 50.0))
    )
    record = {
        "tau_a_fs": tau_a,
        "tau_b_fs": tau_b,
        "quartz_a_mm": plan.quartz_a_mm,
        "quartz_b_mm": plan.quartz_b_mm,
        "numeric_tau_a_fs": numeric.tau_a,
        "numeric_tau_b_fs": numeric.tau_b,
        "numeric_agrees_closed_form": bool(
            abs(numeric.tau_a - tau_a) <= 0.5 and abs(numeric.tau_b - tau_b) <= 0.5
        ),
        "envelope_value": numeric.envelope_value,
    }
    text = _summary(record) + "\n"
    return text, text


# name -> (command, help, whether it needs --out), in the order of --help
_COMMANDS = {
    "indices": (cmd_indices, "tabulate refractive and group indices", False),
    "emission-map": (cmd_emission_map, "angle-resolved average emission times of the four photon classes", True),
    "scan": (cmd_scan, "coincidence rate versus the delay in path B", True),
    "visibility-curve": (cmd_visibility_curve, "space-time visibility versus the delay in path B", True),
    "polarization": (cmd_polarization, "coincidence rate versus the angle of analyzer B", True),
    "optimize": (cmd_optimize, "compensating delays and quartz equivalents", False),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it in one line, exit 2
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spdc-cascade",
        description="Simulation toolkit for cascaded type-II down-conversion sources",
    )

    def add_common(p, default):
        p.add_argument("--config", default=default, help=f"configuration file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--out", default=default, help="output data file")

    # before or after the subcommand; after it, one given overrides
    add_common(parser, None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        add_common(sub.add_parser(name, help=help_text), argparse.SUPPRESS)
    sub.choices["indices"].add_argument("wavelengths", nargs="+", type=float, metavar="NM")
    return parser


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # whatever PYTHONWARNINGS or -W say
            args = build_parser().parse_args(argv)
            command, _, needs_out = _COMMANDS[args.command]
            if args.out is None and needs_out:
                raise argparse.ArgumentError(None, "the following arguments are required: --out")
            config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
            if not config_path:
                raise ConfigError(f"no configuration (use --config or ${CONFIG_ENV_VAR})")
            cfg = load_config(config_path)
            file_text, stdout_text = command(cfg, args)
        if args.out:
            _write_atomic(args.out, file_text)
        try:
            sys.stdout.write(stdout_text)
            sys.stdout.flush()
        except OSError:
            if args.out:
                os.unlink(args.out)  # a failed run leaves no file
            raise
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
