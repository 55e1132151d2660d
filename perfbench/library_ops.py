"""In-process ops of the emission-map-dense and interference-sweep workloads.

Each op starts from a generated config file and checks every output it
produces.  Package functions are called through their module attributes,
so the span recorder's wrappers see every call.
"""

from __future__ import annotations

import math

import numpy as np

import checks
from spdc_cascade import analysis, config, geometry, interference
from spdc_cascade.interference import AnalyzerDelayConfig

OPTIMISER_BOX_FS = 50.0  # half-width of the numeric search box around the closed form
SCAN_HALFWIDTH_FS = 50.0
SCAN_STEP_FS = 0.25
CURVE_HALFWIDTH_FS = 300.0
RATE_MAP_SIDE = 317  # 317 x 317 = 100489 (tau_A, tau_B) points
RATE_MAP_HALFWIDTH_FS = 30.0
POLARIZATION_STEP_DEG = 2.0
QUARTER = math.pi / 4


def _finite_array(name, values):
    if not np.all(np.isfinite(values)):
        raise checks.CheckFailed(f"{name} has non-finite values")


def emission_map_op(config_path: str) -> dict:
    """Cone summaries, then the emission-time map, its flattening delays and
    the residual pair mismatch."""
    cfg = config.load_config(config_path)
    for crystal in (cfg.crystal1, cfg.crystal2):
        cones = geometry.phase_match_cones(crystal, cfg.pump)
        for cone in (cones.o_cone, cones.e_cone, cones.external_o, cones.external_e):
            if not (math.isfinite(cone.half_angle) and cone.half_angle > 0.0):
                raise checks.CheckFailed(f"cone half-angle {cone.half_angle}")
    collinear = checks.finite("collinear cut angle", geometry.collinear_cut_angle(cfg.model, cfg.pump))
    if not collinear < cfg.crystal1.cut_angle:
        raise checks.CheckFailed("cut angle below the collinear cut angle")
    phi = geometry.default_phi_grid(cfg.emission_map["phi_points"])
    base = geometry.emission_time_map(cfg.crystal1, cfg.crystal2, cfg.pump, {}, phi)
    for name in geometry.CLASS_NAMES:
        _finite_array(f"emission times {name}", base.times[name])
    delays = geometry.map_flattening_delays(base)
    mismatch = checks.pairing_mismatch(geometry.pairing_mismatch(base.with_delays(delays)))
    return {"pairing_mismatch_fs": mismatch, "phi_points": int(phi.size)}


def design_point_op(config_path: str) -> dict:
    """Delays, visibility and scans of one source design."""
    cfg = config.load_config(config_path)
    params = cfg.interference_params()
    tau_a, tau_b = interference.optimal_delays(params.times)
    v_max = checks.visibility("max visibility", interference.max_visibility(params))
    box = OPTIMISER_BOX_FS
    numeric = analysis.optimize_delays_numeric(
        params, ((tau_a - box, tau_a + box), (tau_b - box, tau_b + box))
    )
    checks.optimiser_agrees((numeric.tau_a, numeric.tau_b), (tau_a, tau_b))
    locked_a, locked_b = interference.fringe_locked_delays(params)
    period = checks.finite("fringe period", interference.fringe_period(params))

    scan = analysis.delay_scan(
        params, AnalyzerDelayConfig(QUARTER, QUARTER, tau_a, 0.0),
        tau_b - SCAN_HALFWIDTH_FS, tau_b + SCAN_HALFWIDTH_FS, SCAN_STEP_FS,
    )
    checks.visibility("scan visibility", analysis.extract_visibility(scan))
    spacing = checks.finite("fringe spacing", analysis.measure_fringe_spacing(scan))
    if abs(spacing / period - 1.0) > 1e-3:
        raise checks.CheckFailed(f"fringe spacing {spacing} fs, period {period} fs")

    opts = cfg.visibility_curve
    step = opts["step_fs"]
    grid = np.arange(tau_b - CURVE_HALFWIDTH_FS, tau_b + CURVE_HALFWIDTH_FS + 0.5 * step, step)
    curve = analysis.visibility_curve(params, tau_a, grid, method=opts["method"])
    _finite_array("visibility curve", curve.rates)
    checks.visibility("visibility curve peak", float(curve.rates.max()))

    half = RATE_MAP_HALFWIDTH_FS
    grid_a, grid_b = np.meshgrid(
        np.linspace(tau_a - half, tau_a + half, RATE_MAP_SIDE),
        np.linspace(tau_b - half, tau_b + half, RATE_MAP_SIDE),
        indexing="ij",
    )
    rates = interference.coincidence_rate(
        params, AnalyzerDelayConfig(QUARTER, QUARTER, grid_a, grid_b)
    )
    _finite_array("rate map", rates)
    if rates.min() < 0.0:
        raise checks.CheckFailed("negative coincidence rate")

    pol = analysis.polarization_scan(
        params, locked_a, locked_b, QUARTER, 0.0, 2.0 * math.pi,
        math.radians(POLARIZATION_STEP_DEG),
    )
    checks.visibility("polarization visibility", analysis.extract_visibility(pol))
    return {
        "fringe_period_fs": period,
        "max_visibility": v_max,
        "tau_a_fs": tau_a,
        "tau_b_fs": tau_b,
    }


OPS = {"emission-map-dense": emission_map_op, "interference-sweep": design_point_op}


def check_reference(workload: str, reference_config: str):
    """Run the workload's op on the paper's configuration and compare."""
    out = OPS[workload](reference_config)
    if workload == "emission-map-dense":
        checks.paper_numbers({"pairing_mismatch_256_fs": out["pairing_mismatch_fs"]})
    else:
        checks.paper_numbers({
            key: out[key] for key in ("fringe_period_fs", "max_visibility", "tau_a_fs", "tau_b_fs")
        })
