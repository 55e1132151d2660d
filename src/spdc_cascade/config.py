"""Declarative run configuration for the command-line front end.

Flat INI-style text: sections of key = value pairs, degrees and nm at this
boundary only (converted to internal units once, at load time).  Unknown
sections or keys are rejected, and every value is validated against the
module-level preconditions before any computation starts.

Minimal example::

    [crystal]
    material = bbo
    thickness_mm = 1.07
    cut_angle_deg = 43.65
    cascade = true

    [pump]
    center_nm = 395
    bandwidth_nm = 1.0

Numbers must be finite (``nan`` and ``inf`` are rejected),
``[emission_map] phi_points`` must lie in [64, MAX_PHI_POINTS], and the
two beam azimuths of ``[interference]`` must differ (mod 360 deg).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .constants import TWO_PI
from .errors import ConfigError
from .interference import RECT_CONVENTIONS, InterferenceParams, params_from_crystal
from .materials import CrystalSpec, DispersionModel, PumpSpec, get_model

MAX_PHI_POINTS = 65536  # emission-map azimuths; the map's arrays scale with it


def _parse_float(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_positive(text):
    value = _parse_float(text)
    if value <= 0:
        raise ConfigError(f"expected a positive number, got {text!r}")
    return value


def _parse_nonnegative(text):
    value = _parse_float(text)
    if value < 0:
        raise ConfigError(f"expected a nonnegative number, got {text!r}")
    return value


def _parse_int(text):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_int_in(lo, hi):
    def parse(text):
        value = _parse_int(text)
        if not lo <= value <= hi:
            raise ConfigError(f"expected an integer in [{lo}, {hi}], got {text!r}")
        return value

    return parse


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_auto(inner):
    def parse(text):
        if text.strip().lower() == "auto":
            return None
        return inner(text)

    return parse


def _parse_str(text):
    return text.strip()


def _parse_choice(choices):
    def parse(text):
        value = text.strip()
        if value not in choices:
            raise ConfigError(f"expected one of {choices}, got {text!r}")
        return value

    return parse


# section -> key -> (parser, default); defaults apply when key or section is absent
_SCHEMA = {
    "crystal": {
        "material": (_parse_str, "bbo"),
        "thickness_mm": (_parse_nonnegative, 1.07),
        "cut_angle_deg": (_parse_positive, 43.65),
        "cascade": (_parse_bool, True),
    },
    "pump": {
        "center_nm": (_parse_positive, 395.0),
        "bandwidth_nm": (_parse_positive, 1.0),
    },
    "interference": {
        "phi0_rad": (_parse_float, 0.0),
        "e_angle_dc_deg": (_parse_auto(_parse_positive), None),
        "e_angle_dc_prime_deg": (_parse_auto(_parse_positive), None),
        # beams A and B: the experiment selects the non-overlap regions, the
        # tops of the two cones at phi = 90 and 270 deg, where each direction
        # belongs to a single cone of each crystal; they must be distinct
        "beam_phi_a_deg": (_parse_float, 90.0),
        "beam_phi_b_deg": (_parse_float, 270.0),
        "rect_convention": (_parse_choice(RECT_CONVENTIONS), "zero_aligned"),
    },
    "scan": {
        "theta_a_deg": (_parse_float, 45.0),
        "theta_b_deg": (_parse_float, 45.0),
        "tau_a_fs": (_parse_auto(_parse_float), None),
        "center_fs": (_parse_auto(_parse_float), None),
        "halfwidth_fs": (_parse_positive, 50.0),
        "step_fs": (_parse_positive, 0.25),
    },
    "emission_map": {
        "phi_points": (_parse_int_in(64, MAX_PHI_POINTS), 256),
        "delay_1e_fs": (_parse_auto(_parse_nonnegative), None),
        "delay_2e_fs": (_parse_auto(_parse_nonnegative), None),
        "delay_1o_fs": (_parse_nonnegative, 0.0),
        "delay_2o_fs": (_parse_nonnegative, 0.0),
    },
    "visibility_curve": {
        "tau_a_fs": (_parse_auto(_parse_float), None),
        "tau_b_min_fs": (_parse_auto(_parse_float), None),
        "tau_b_max_fs": (_parse_auto(_parse_float), None),
        "step_fs": (_parse_positive, 5.0),
        "method": (_parse_choice(("aligned", "scan")), "aligned"),
    },
    "polarization": {
        "theta_a_deg": (_parse_float, 45.0),
        "tau_a_fs": (_parse_auto(_parse_float), None),
        "tau_b_fs": (_parse_auto(_parse_float), None),
        "theta_b_start_deg": (_parse_float, 0.0),
        "theta_b_stop_deg": (_parse_float, 360.0),
        "step_deg": (_parse_positive, 2.0),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: crystals, pump, and per-command settings."""

    crystal1: CrystalSpec
    crystal2: CrystalSpec | None
    pump: PumpSpec
    model: DispersionModel
    cascade: bool
    phi0: float
    e_angle_dc: float | None
    e_angle_dc_prime: float | None
    beam_phi_a: float
    beam_phi_b: float
    rect_convention: str
    scan: dict
    emission_map: dict
    visibility_curve: dict
    polarization: dict

    def interference_params(self) -> InterferenceParams:
        return params_from_crystal(
            self.crystal1,
            self.pump,
            phi0=self.phi0,
            e_angle_dc=self.e_angle_dc,
            e_angle_dc_prime=self.e_angle_dc_prime,
            rect_convention=self.rect_convention,
        )


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), strict=True
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
    for section, keys in _SCHEMA.items():
        for key, (parse, default) in keys.items():
            if parser.has_option(section, key):
                try:
                    values[(section, key)] = parse(parser.get(section, key))
                except ConfigError as exc:
                    raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc
            else:
                values[(section, key)] = default

    def get(section, key):
        return values[(section, key)]

    try:
        model = get_model(get("crystal", "material"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: [crystal] material: {exc}") from exc

    cut = math.radians(get("crystal", "cut_angle_deg"))
    thickness = get("crystal", "thickness_mm")
    cascade = get("crystal", "cascade")
    try:
        crystal1 = CrystalSpec(model, thickness, cut, axis_sign=+1)
        crystal2 = CrystalSpec(model, thickness, cut, axis_sign=-1) if cascade else None
        pump = PumpSpec(get("pump", "center_nm"), get("pump", "bandwidth_nm"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    beam_phi_a = math.radians(get("interference", "beam_phi_a_deg"))
    beam_phi_b = math.radians(get("interference", "beam_phi_b_deg"))
    if abs((beam_phi_a - beam_phi_b + math.pi) % TWO_PI - math.pi) <= 1e-9:
        raise ConfigError(f"{path}: [interference] beam_phi_a_deg equals beam_phi_b_deg (mod 360)")

    def maybe_rad(value):
        return None if value is None else math.radians(value)

    return RunConfig(
        crystal1=crystal1,
        crystal2=crystal2,
        pump=pump,
        model=model,
        cascade=cascade,
        phi0=get("interference", "phi0_rad"),
        e_angle_dc=maybe_rad(get("interference", "e_angle_dc_deg")),
        e_angle_dc_prime=maybe_rad(get("interference", "e_angle_dc_prime_deg")),
        beam_phi_a=beam_phi_a,
        beam_phi_b=beam_phi_b,
        rect_convention=get("interference", "rect_convention"),
        **{
            section: {key: get(section, key) for key in _SCHEMA[section]}
            for section in ("scan", "emission_map", "visibility_curve", "polarization")
        },
    )
