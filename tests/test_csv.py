"""Byte-level checks of the CSV tables against their per-row f-string
renderings, kept here as the oracle: `ScanSeries.to_csv`,
`EmissionTimeMap.to_csv` and the `indices` table all go through one
`%`-template writer, and no digit, header or newline may move."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import spdc_cascade as sc
from spdc_cascade.cli import cmd_indices
from spdc_cascade.config import MAX_PHI_POINTS
from spdc_cascade.geometry import CLASS_NAMES

# magnitudes across the double range (subnormals and the largest double
# too), near ties of the last printed digit, and exact binary ties:
# 100000.5, 1234565 and 2**-10 for 6 significant digits, k/128 for 6 decimals
_EDGES = [
    1e-300, 2.5e-308, 5e-324, 1e-5, 0.0001, 0.00099999951, 2.0**-10, 0.0078125, 1.0078125,
    0.5, 1.0, 9.999995, 99999.95, 100000.5, 999999.5, 1234565.0, 12154.0, 12074.7,
    1e15, 1.7976931348623157e308, 1e300,
]
_RNG = np.random.default_rng(20)
_RANDOM = (10.0 ** _RNG.uniform(-300, 300, 500)).tolist() + _RNG.uniform(0, 2e4, 500).tolist()
_MAGNITUDES = _EDGES + _RANDOM
_SIGNED = [0.0, -0.0] + _MAGNITUDES + [-v for v in _MAGNITUDES]


def _scan_csv_oracle(series):
    ordinate = series.meta.get("ordinate", "rate")
    lines = [f"{series.abscissa_kind},{ordinate}"]
    for x, r in zip(series.xs, series.rates):
        lines.append(f"{x:.6g},{r:.6g}")
    return "\n".join(lines) + "\n"


def _map_csv_oracle(emission_map):
    lines = ["phi_deg,t_1e_fs,t_1o_fs,t_2e_fs,t_2o_fs"]
    for i, phi in enumerate(emission_map.phi_grid):
        row = [math.degrees(phi)] + [emission_map.times[c][i] for c in CLASS_NAMES]
        lines.append(",".join(f"{v:.6g}" for v in row))
    return "\n".join(lines) + "\n"


def _indices_oracle(model, wavelengths):
    lines = ["lambda_nm,n_o,n_e,n_g_o,n_g_e"]
    for lam in wavelengths:
        n_o = sc.materials.index_ordinary(model, lam)
        n_e = sc.materials.index_principal_e(model, lam)
        ng_o = sc.materials.group_index(model, lam)
        ng_e = sc.materials.group_index(model, lam, math.pi / 2.0)
        lines.append(f"{lam:.6g},{n_o:.6f},{n_e:.6f},{ng_o:.6f},{ng_e:.6f}")
    return "\n".join(lines) + "\n"


def _assert_same_text(text, oracle):
    # line by line first: pytest's diff of two long strings takes minutes
    lines, expected = text.split("\n"), oracle.split("\n")
    assert [(i, a, b) for i, (a, b) in enumerate(zip(lines, expected)) if a != b][:3] == []
    assert len(lines) == len(expected)
    assert text == oracle


@pytest.mark.parametrize("kind, ordinate", [("delay_fs", None), ("analyzer_rad", "visibility")])
def test_scan_csv_bytes_match_oracle(kind, ordinate):
    xs = np.unique(np.array(_SIGNED))  # strictly increasing; -0.0 and 0.0 merge
    rates = np.resize(np.array([-0.0] + _MAGNITUDES), xs.size)  # -0.0 is not negative
    meta = {} if ordinate is None else {"ordinate": ordinate}
    series = sc.ScanSeries(kind, xs, rates, meta)
    _assert_same_text(series.to_csv(), _scan_csv_oracle(series))


def test_scan_csv_of_a_command_matches_oracle(params):
    # a delay scan far from the origin, where 6 digits repeat abscissas
    series = sc.delay_scan(params, sc.AnalyzerDelayConfig(math.pi / 4, math.pi / 4, 26.6, 0.0),
                           1e6 - 50.0, 1e6 + 50.0, 0.25)
    _assert_same_text(series.to_csv(), _scan_csv_oracle(series))


def test_map_csv_bytes_match_oracle(base_map):
    _assert_same_text(base_map.to_csv(), _map_csv_oracle(base_map))
    phi = np.unique([v for v in _SIGNED if abs(v) <= 1e300])  # degrees stay finite
    values = np.array(_SIGNED)
    times = {c: np.roll(values, 7 * k)[: phi.size] for k, c in enumerate(CLASS_NAMES)}
    extreme_map = sc.EmissionTimeMap(phi, times)
    _assert_same_text(extreme_map.to_csv(), _map_csv_oracle(extreme_map))


def test_map_degrees_match_the_scalar_conversion():
    # the writer converts the whole grid with np.degrees; the oracle took
    # math.degrees of each azimuth
    phi = sc.geometry.default_phi_grid(MAX_PHI_POINTS)
    assert np.degrees(phi).tolist() == [math.degrees(p) for p in phi]


def test_indices_table_matches_oracle():
    wavelengths = [395.0, 790.0, 220.5, 1059.5, 512.345678]
    table, stdout = cmd_indices(SimpleNamespace(model=sc.BBO), SimpleNamespace(wavelengths=wavelengths))
    assert stdout == table
    _assert_same_text(table, _indices_oracle(sc.BBO, wavelengths))


def test_indices_table_of_extreme_values_matches_oracle(monkeypatch):
    # every column through its template: the indices are stood in by values
    # across the double range, so the table is checked beyond real crystals
    values = dict(zip(_SIGNED, np.roll(np.array(_SIGNED), 3).tolist()))

    def fake(model, lam, theta=None):
        return values[lam] if theta is None else -values[lam]

    for name in ("index_ordinary", "index_principal_e", "group_index"):
        monkeypatch.setattr(sc.materials, name, fake)
    table, _ = cmd_indices(SimpleNamespace(model=None), SimpleNamespace(wavelengths=_SIGNED))
    _assert_same_text(table, _indices_oracle(None, _SIGNED))
