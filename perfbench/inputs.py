"""Seeded input generator: INI configs and CLI argument lists.

The program under test receives only what this module writes.  The same
seed always yields byte-identical files.

Design space (every point phase-matches at every azimuth and passes every
output check on the seed commit):

* thickness 0.5-3 mm, pump centre 390-400 nm;
* cut angle 43.6-44.5 deg: below about 43.55 deg a 390 nm pump has no
  phase-matched emission at some azimuths (the collinear cut angle there
  is 43.52 deg);
* bandwidth 0.3-3 nm, capped at 6 mm*nm / thickness: beyond that product
  the fringe envelope is flat to rounding at its top, so the numerical
  delay optimiser's position is not unique (40 fs from the closed form at
  3 mm and 3 nm).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

THICKNESS_MM = (0.5, 3.0)
CUT_ANGLE_DEG = (43.6, 44.5)
BANDWIDTH_NM = (0.3, 3.0)
MAX_THICKNESS_X_BANDWIDTH = 6.0  # mm * nm
CENTER_NM = (390.0, 400.0)

# seven designs per seed; 7 is coprime with the six CLI subcommands, so one
# 42-op cli-cold cycle pairs every subcommand with every design
N_DESIGNS = 7

CLI_COMMANDS = ("indices", "optimize", "emission-map", "scan", "visibility-curve", "polarization")

# azimuths per emission map, per workload
PHI_POINTS = {"cli-cold": 256, "emission-map-dense": 1024, "interference-sweep": 256}

# the source paper's configuration: 1.07 mm BBO at 43.65 deg, 395 nm pump, 1 nm
REFERENCE = {"thickness_mm": 1.07, "cut_angle_deg": 43.65, "bandwidth_nm": 1.0, "center_nm": 395.0}


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files and, for cli-cold, the argument lists."""

    directory: str
    configs: tuple
    reference: str
    cli_ops: tuple  # argv of each op in one cycle; empty unless cli-cold


def draw_designs(seed: int, n: int = N_DESIGNS) -> list:
    rng = random.Random(seed)
    designs = []
    for _ in range(n):
        thickness = rng.uniform(*THICKNESS_MM)
        bw_hi = min(BANDWIDTH_NM[1], MAX_THICKNESS_X_BANDWIDTH / thickness)
        designs.append({
            "thickness_mm": round(thickness, 4),
            "cut_angle_deg": round(rng.uniform(*CUT_ANGLE_DEG), 4),
            "bandwidth_nm": round(rng.uniform(BANDWIDTH_NM[0], bw_hi), 4),
            "center_nm": round(rng.uniform(*CENTER_NM), 3),
        })
    return designs


def config_text(design: dict, phi_points: int, visibility_method: str) -> str:
    return (
        "[crystal]\n"
        "material = bbo\n"
        f"thickness_mm = {design['thickness_mm']}\n"
        f"cut_angle_deg = {design['cut_angle_deg']}\n"
        "cascade = true\n\n"
        "[pump]\n"
        f"center_nm = {design['center_nm']}\n"
        f"bandwidth_nm = {design['bandwidth_nm']}\n\n"
        "[emission_map]\n"
        f"phi_points = {phi_points}\n\n"
        "[visibility_curve]\n"
        f"method = {visibility_method}\n"
    )


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cli_cycle(seed: int, designs: list) -> list:
    """One cycle of cli-cold ops: every subcommand on every design.

    Paths are relative to the input directory, the ops' working directory.
    """
    rng = random.Random(seed + 1)
    ops = []
    for i in range(len(CLI_COMMANDS) * len(designs)):
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        k = i % len(designs)
        argv = [command, "--config", f"design{k}.ini"]
        if command == "indices":
            center = designs[k]["center_nm"]
            extra = round(rng.uniform(300.0, 1000.0), 3)
            argv += [str(center), str(round(2.0 * center, 3)), str(extra)]
        elif command != "optimize":
            argv += ["--out", f"out/{command}.csv"]
        ops.append(tuple(argv))
    return ops


def generate(workload: str, seed: int, directory: str) -> Inputs:
    """Write the inputs of one run into `directory` (created if missing)."""
    if workload not in PHI_POINTS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    phi_points = PHI_POINTS[workload]
    designs = draw_designs(seed)
    configs = []
    for k, design in enumerate(designs):
        path = os.path.join(directory, f"design{k}.ini")
        _write(path, config_text(design, phi_points, "scan"))
        configs.append(path)
    # aligned visibility curve, so its peak is the maximum visibility
    reference = os.path.join(directory, "reference.ini")
    _write(reference, config_text(REFERENCE, 256, "aligned"))
    cli_ops = []
    if workload == "cli-cold":
        os.makedirs(os.path.join(directory, "out"), exist_ok=True)
        cli_ops = _cli_cycle(seed, designs)
    _write(
        os.path.join(directory, "inputs.json"),
        json.dumps({"workload": workload, "seed": seed, "designs": designs,
                    "cli_ops": cli_ops}, indent=1, sort_keys=True) + "\n",
    )
    return Inputs(directory, tuple(configs), reference, tuple(cli_ops))
