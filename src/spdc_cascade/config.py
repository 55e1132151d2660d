"""Every input file of the command-line front end: run configurations and
material files.

One key-value format serves both: UTF-8 text, a leading byte-order mark
skipped.  Blank lines and lines whose first non-blank character is ``#``
or ``;`` are skipped, and a ``#`` after whitespace starts a comment.  A
line that is exactly ``[name]`` opens a section (names are
case-sensitive); every other line is ``key = value``, split at the first
``=``, with case-insensitive keys and values taken verbatim: ``%`` is a
character like any other, not an interpolation.  Leading whitespace is not
significant, so no line continues another.  A key before the first
section, a repeated section or key, and any other line are errors of one
line, ``<path>:<line>: <what>``.  ``[crystal] material`` names a built-in
material or a material file (`get_model`), which holds no sections (see
`load_dispersion_model`).

A config file gives angles in degrees and wavelengths in nm.  The
crystal, pump and beam settings are converted to internal units once, at
load time; the per-command sections ([scan], [emission_map],
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
import re
from dataclasses import dataclass

from .constants import TWO_PI
from .errors import ConfigError
from .geometry import MIN_PHI_POINTS
from .interference import InterferenceParams, params_from_crystal
from .materials import BBO, QUARTZ, CrystalSpec, DispersionModel, PumpSpec, SellmeierForm

MAX_PHI_POINTS = 65536  # emission-map azimuths; the map's arrays scale with it

BUILTIN_MODELS = {"bbo": BBO, "quartz": QUARTZ}
_INLINE_COMMENT = re.compile(r"\s#")  # a '#' after whitespace starts a comment


def _read_entries(path, headers=True) -> dict:
    """{section: {key: (value, line number)}} of a UTF-8 file in the format
    of the module docstring; without headers, every line is ``key = value``
    and the keys go under None.  A leading byte-order mark is skipped, as
    Windows editors write one.  Errors are one-line ConfigErrors.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    entries = {} if headers else {None: {}}
    current = entries.get(None)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        line = _INLINE_COMMENT.split(line, 1)[0].rstrip()
        if headers and line[0] == "[":
            if len(line) < 3 or line[-1] != "]":
                raise ConfigError(f"{path}:{lineno}: expected '[section]', got {line!r}")
            if line[1:-1] in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate section {line!r}")
            entries[line[1:-1]] = current = {}
            continue
        key, equals, value = line.partition("=")
        key = key.rstrip().lower()
        if not (equals and key):
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key {key!r} before the first section header")
        if key in current:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        current[key] = (value.lstrip(), lineno)
    return entries


def load_dispersion_model(path) -> DispersionModel:
    """Read a DispersionModel from a flat key-value text file.

    Expected keys (one per line, ``key = value``)::

        name           = mycrystal
        valid_range_nm = 200 1100
        o.form         = resonant
        o.coefficients = 2.7359 0.01878 0.01822 -0.01354
        e.form         = resonant
        e.coefficients = 2.3753 0.01224 0.01667 -0.01516

    It shares the config files' reader (see the module docstring), without
    sections: a line that starts with '#' or ';' is a comment, so is a '#'
    after whitespace, but not one inside a value; keys are case-insensitive.
    Unknown keys are rejected so typos cannot silently change a material,
    and every number must be finite; a malformed entry raises a ValueError
    that names the file and the key, or the file and the line.
    """
    required = {"name", "valid_range_nm", "o.form", "o.coefficients", "e.form", "e.coefficients"}
    entries = {}
    for key, (value, lineno) in _read_entries(path, headers=False)[None].items():
        if key not in required:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value
    missing = required - set(entries)
    if missing:
        raise ValueError(f"{path}: missing keys: {sorted(missing)}")

    def numbers(key):
        try:
            values = tuple(float(tok) for tok in entries[key].split())
        except ValueError:
            values = None
        if values is None or not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: {key} must be finite numbers, got {entries[key]!r}")
        return values

    wavelengths = numbers("valid_range_nm")
    if len(wavelengths) != 2 or not 0 < wavelengths[0] < wavelengths[1]:
        raise ValueError(f"{path}: valid_range_nm must be 0 < lo < hi nm, got {entries['valid_range_nm']!r}")
    forms = {}
    for pol in ("o", "e"):
        coefficients = numbers(f"{pol}.coefficients")
        try:
            forms[pol] = SellmeierForm(entries[f"{pol}.form"], coefficients)
        except ValueError as exc:
            raise ValueError(f"{path}: {pol}.form, {pol}.coefficients: {exc}") from None
    return DispersionModel(
        name=entries["name"],
        sellmeier_o=forms["o"],
        sellmeier_e=forms["e"],
        valid_range_nm=wavelengths,
    )


def get_model(name_or_path: str) -> DispersionModel:
    """Resolve a built-in material name or a material definition file.

    A name that is neither raises a FileNotFoundError that lists the
    built-in materials; any other OSError keeps its own message.
    """
    key = name_or_path.lower()
    if key in BUILTIN_MODELS:
        return BUILTIN_MODELS[key]
    try:
        return load_dispersion_model(name_or_path)
    except FileNotFoundError:
        raise FileNotFoundError(f"{name_or_path!r} is neither a built-in material ({', '.join(BUILTIN_MODELS)}) "
                                "nor an existing file") from None


def _parse_float(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


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


def _checked(parse, ok, expected):
    """parse, then refuse a value that fails ok: ``expected <expected>, got <text>``."""
    def parse_checked(text):
        value = parse(text)
        if not ok(value):
            raise ConfigError(f"expected {expected}, got {text!r}")
        return value

    return parse_checked


_POSITIVE = _checked(_parse_float, lambda value: value > 0, "a positive number")
_NONNEGATIVE = _checked(_parse_float, lambda value: value >= 0, "a nonnegative number")
_METHODS = ("aligned", "scan")


# section -> key -> (parser, default); defaults apply when key or section is absent
_SCHEMA = {
    "crystal": {
        "material": (str.strip, "bbo"),
        "thickness_mm": (_POSITIVE, 1.07),
        "cut_angle_deg": (_POSITIVE, 43.65),
        "cascade": (_parse_cascade, True),
    },
    "pump": {
        "center_nm": (_POSITIVE, 395.0),
        "bandwidth_nm": (_POSITIVE, 1.0),
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
        "halfwidth_fs": (_POSITIVE, 50.0),
        "step_fs": (_POSITIVE, 0.25),
    },
    "emission_map": {
        "phi_points": (_checked(_parse_int, lambda value: MIN_PHI_POINTS <= value <= MAX_PHI_POINTS,
                                 f"an integer in [{MIN_PHI_POINTS}, {MAX_PHI_POINTS}]"), 256),
        "delay_1e_fs": (_parse_auto(_NONNEGATIVE), None),
        "delay_2e_fs": (_parse_auto(_NONNEGATIVE), None),
        "delay_1o_fs": (_NONNEGATIVE, 0.0),
        "delay_2o_fs": (_NONNEGATIVE, 0.0),
    },
    "visibility_curve": {
        "tau_a_fs": (_parse_auto(_parse_float), None),
        "tau_b_min_fs": (_parse_auto(_parse_float), None),
        "tau_b_max_fs": (_parse_auto(_parse_float), None),
        "step_fs": (_POSITIVE, 5.0),
        "method": (_checked(str.strip, _METHODS.__contains__, f"one of {_METHODS}"), "aligned"),
    },
    "polarization": {
        "theta_a_deg": (_parse_float, 45.0),
        "tau_a_fs": (_parse_auto(_parse_float), None),
        "tau_b_fs": (_parse_auto(_parse_float), None),
        "theta_b_start_deg": (_parse_float, 0.0),
        "theta_b_stop_deg": (_parse_float, 360.0),
        "step_deg": (_POSITIVE, 2.0),
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
