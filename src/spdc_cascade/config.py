"""Declarative run configuration for the command-line front end.

Flat INI-style text in UTF-8, degrees and nm at this boundary only.  Blank
lines and lines whose first non-blank character is ``#`` or ``;`` are
skipped, and a ``#`` after whitespace starts a comment.  A line that is
exactly ``[name]`` opens a section (names are case-sensitive); every other
line is ``key = value``, split at the first ``=``, with case-insensitive
keys and values taken verbatim: ``%`` is a character like any other, not
an interpolation.  Leading whitespace is not significant, so no line
continues another.  A key before the first section, a repeated section or
key, and any other line are errors of one line, ``<path>:<line>: <what>``.
The crystal, pump and beam settings are converted to internal units once,
at load time; the per-command sections ([scan], [emission_map],
[visibility_curve], [polarization]) are kept as parsed, so their angles
stay in degrees in `RunConfig` and the CLI converts them.  Unknown
sections or keys are rejected, ``[DEFAULT]`` among them (it is an
ordinary, unknown section here, not one inherited by the others), and
every value is validated against the module-level preconditions before
any computation starts.

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
``[crystal] thickness_mm`` must be positive,
``[emission_map] phi_points`` must lie in [MIN_PHI_POINTS, MAX_PHI_POINTS],
the two beam azimuths of ``[interference]`` must differ (mod 360 deg), and
``[visibility_curve] tau_b_max_fs`` must exceed ``tau_b_min_fs`` where both
are set.
The simulator models the two-crystal cascade only: ``[crystal] cascade``
accepts every spelling of true and rejects false.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import TWO_PI
from .errors import ConfigError
from .geometry import MIN_PHI_POINTS
from .interference import InterferenceParams, params_from_crystal
from .materials import CrystalSpec, DispersionModel, PumpSpec, _read_entries, get_model

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


def _parse_cascade(text):
    if not _parse_bool(text):
        raise ConfigError("the simulator models the two-crystal cascade only; "
                          "set cascade = true or leave the key out")
    return True


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
        "thickness_mm": (_parse_positive, 1.07),
        "cut_angle_deg": (_parse_positive, 43.65),
        "cascade": (_parse_cascade, True),
    },
    "pump": {
        "center_nm": (_parse_positive, 395.0),
        "bandwidth_nm": (_parse_positive, 1.0),
    },
    "interference": {
        "phi0_rad": (_parse_float, 0.0),
        # beams A and B: the experiment selects the non-overlap regions, the
        # tops of the two cones at phi = 90 and 270 deg, where each direction
        # belongs to a single cone of each crystal; they must be distinct
        "beam_phi_a_deg": (_parse_float, 90.0),
        "beam_phi_b_deg": (_parse_float, 270.0),
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
        "phi_points": (_parse_int_in(MIN_PHI_POINTS, MAX_PHI_POINTS), 256),
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
    crystal2: CrystalSpec
    pump: PumpSpec
    model: DispersionModel
    phi0: float
    beam_phi_a: float
    beam_phi_b: float
    scan: dict
    emission_map: dict
    visibility_curve: dict
    polarization: dict

    def interference_params(self) -> InterferenceParams:
        return params_from_crystal(self.crystal1, self.pump, phi0=self.phi0)


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    # every default, then each entry of the file in its order, so an error names its first defect
    values = {section: {key: default for key, (_, default) in keys.items()} for section, keys in _SCHEMA.items()}
    for section, entries in _read_entries(path).items():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, (text, _) in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = _SCHEMA[section][key][0](text)
            except ConfigError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc

    try:
        model = get_model(values["crystal"]["material"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: [crystal] material: {exc}") from exc

    cut = math.radians(values["crystal"]["cut_angle_deg"])
    thickness = values["crystal"]["thickness_mm"]
    try:
        crystal1 = CrystalSpec(model, thickness, cut, axis_sign=+1)
        crystal2 = CrystalSpec(model, thickness, cut, axis_sign=-1)
        pump = PumpSpec(values["pump"]["center_nm"], values["pump"]["bandwidth_nm"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    beam_phi_a = math.radians(values["interference"]["beam_phi_a_deg"])
    beam_phi_b = math.radians(values["interference"]["beam_phi_b_deg"])
    if abs((beam_phi_a - beam_phi_b + math.pi) % TWO_PI - math.pi) <= 1e-9:
        raise ConfigError(f"{path}: [interference] beam_phi_a_deg equals beam_phi_b_deg (mod 360)")

    tau_b_min, tau_b_max = values["visibility_curve"]["tau_b_min_fs"], values["visibility_curve"]["tau_b_max_fs"]
    if tau_b_min is not None and tau_b_max is not None and not tau_b_max > tau_b_min:
        raise ConfigError(f"{path}: [visibility_curve] needs tau_b_max_fs > tau_b_min_fs")

    return RunConfig(
        crystal1=crystal1,
        crystal2=crystal2,
        pump=pump,
        model=model,
        phi0=values["interference"]["phi0_rad"],
        beam_phi_a=beam_phi_a,
        beam_phi_b=beam_phi_b,
        **{section: values[section] for section in ("scan", "emission_map", "visibility_curve", "polarization")},
    )
