import math

import numpy as np
import pytest

import spdc_cascade as sc
from spdc_cascade.materials import SellmeierForm, DispersionModel

from cli_contract import material

C = 299.792458  # nm/fs


# --- independent dispersion oracles -----------------------------------------
# Direct transcriptions of the published formulas, evaluated here without any
# package code so a transcription or unit slip in the library cannot hide.

def bbo_no_ref(lam_nm):
    # beta-BBO ordinary, Kato-form set (Newlight Photonics / SPDCalc), lam in um
    l2 = (lam_nm / 1000.0) ** 2
    return math.sqrt(2.7359 + 0.01878 / (l2 - 0.01822) - 0.01354 * l2)


def bbo_ne_ref(lam_nm):
    l2 = (lam_nm / 1000.0) ** 2
    return math.sqrt(2.3753 + 0.01224 / (l2 - 0.01667) - 0.01516 * l2)


def quartz_no_ref(lam_nm):
    # crystalline quartz ordinary, Newlight Photonics power series, lam in um
    l = lam_nm / 1000.0
    return math.sqrt(
        2.3573 - 0.01170 * l**2 + 0.01054 / l**2 + 1.3414e-4 / l**4
        - 4.4537e-7 / l**6 + 5.9236e-8 / l**8
    )


def quartz_ne_ref(lam_nm):
    l = lam_nm / 1000.0
    return math.sqrt(
        2.3849 - 0.01259 * l**2 + 0.01079 / l**2 + 1.6518e-4 / l**4
        - 1.9474e-6 / l**6 + 9.3648e-8 / l**8
    )


def quartz_no_ghosh(lam_nm):
    # independent parameterization: Ghosh, Opt. Commun. 163, 95 (1999)
    l2 = (lam_nm / 1000.0) ** 2
    return math.sqrt(
        1.28604141 + 1.07044083 * l2 / (l2 - 0.0100585997) + 1.10202242 * l2 / (l2 - 100.0)
    )


def quartz_ne_ghosh(lam_nm):
    l2 = (lam_nm / 1000.0) ** 2
    return math.sqrt(
        1.28851804 + 1.09509924 * l2 / (l2 - 0.0102101864) + 1.15662475 * l2 / (l2 - 100.0)
    )


def bbo_no_eimerl(lam_nm):
    # independent parameterization: Eimerl et al., J. Appl. Phys. 62, 1968 (1987)
    l2 = (lam_nm / 1000.0) ** 2
    return math.sqrt(2.7405 + 0.0184 / (l2 - 0.0179) - 0.0155 * l2)


def bbo_ne_eimerl(lam_nm):
    l2 = (lam_nm / 1000.0) ** 2
    return math.sqrt(2.3730 + 0.0128 / (l2 - 0.0156) - 0.0044 * l2)


# values of the reference formulas frozen before the build (scripted evaluation)
BBO_TABLE = {395.0: (1.694127, 1.568683), 532.0: (1.674213, 1.554659), 790.0: (1.660857, 1.544665)}
QUARTZ_TABLE = {500.0: (1.548763, 1.558029), 790.0: (1.538580, 1.547497), 1064.0: (1.534102, 1.542824)}


@pytest.mark.parametrize("lam", sorted(BBO_TABLE))
def test_bbo_indices_match_reference_table(lam):
    no_ref, ne_ref = BBO_TABLE[lam]
    assert sc.index_ordinary(sc.BBO, lam) == pytest.approx(no_ref, abs=1e-4)
    assert sc.index_principal_e(sc.BBO, lam) == pytest.approx(ne_ref, abs=1e-4)
    # and against the live reference expressions, far below table rounding
    assert sc.index_ordinary(sc.BBO, lam) == pytest.approx(bbo_no_ref(lam), abs=1e-9)
    assert sc.index_principal_e(sc.BBO, lam) == pytest.approx(bbo_ne_ref(lam), abs=1e-9)


@pytest.mark.parametrize("lam", sorted(QUARTZ_TABLE))
def test_quartz_indices_match_reference_table(lam):
    no_ref, ne_ref = QUARTZ_TABLE[lam]
    assert sc.index_ordinary(sc.QUARTZ, lam) == pytest.approx(no_ref, abs=1e-4)
    assert sc.index_principal_e(sc.QUARTZ, lam) == pytest.approx(ne_ref, abs=1e-4)
    assert sc.index_ordinary(sc.QUARTZ, lam) == pytest.approx(quartz_no_ref(lam), abs=1e-9)
    assert sc.index_principal_e(sc.QUARTZ, lam) == pytest.approx(quartz_ne_ref(lam), abs=1e-9)


@pytest.mark.parametrize("lam", [500.0, 632.8, 790.0, 1064.0])
def test_quartz_agrees_with_independent_parameterization(lam):
    # two unrelated published fits agree below 1e-4 across the working range
    assert sc.index_ordinary(sc.QUARTZ, lam) == pytest.approx(quartz_no_ghosh(lam), abs=1e-4)
    assert sc.index_principal_e(sc.QUARTZ, lam) == pytest.approx(quartz_ne_ghosh(lam), abs=1e-4)


@pytest.mark.parametrize("lam", [395.0, 532.0, 790.0])
def test_bbo_agrees_with_independent_parameterization(lam):
    # published BBO fits scatter at the 1e-3 level; check we sit inside it
    assert sc.index_ordinary(sc.BBO, lam) == pytest.approx(bbo_no_eimerl(lam), abs=2e-3)
    assert sc.index_principal_e(sc.BBO, lam) == pytest.approx(bbo_ne_eimerl(lam), abs=2e-3)


def test_uniaxial_sign_conventions():
    # BBO negative uniaxial, quartz positive uniaxial, indices above 1
    for lam in np.linspace(300, 1000, 15):
        assert 1.0 < sc.index_principal_e(sc.BBO, lam) < sc.index_ordinary(sc.BBO, lam)
    for lam in np.linspace(200, 1400, 15):
        assert sc.index_ordinary(sc.QUARTZ, lam) > 1.0
        assert sc.index_principal_e(sc.QUARTZ, lam) > sc.index_ordinary(sc.QUARTZ, lam)


def test_wavelength_range_errors_name_the_interval():
    with pytest.raises(sc.WavelengthRangeError, match=r"\[220.0, 1060.0\]"):
        sc.index_ordinary(sc.BBO, 100.0)
    with pytest.raises(sc.WavelengthRangeError):
        sc.index_extraordinary(sc.BBO, 5000.0, 0.3)
    with pytest.raises(sc.WavelengthRangeError):
        sc.index_ordinary(sc.QUARTZ, 50.0)


def test_group_index_rejects_boundary_wavelength():
    lo, hi = sc.BBO.valid_range_nm
    with pytest.raises(sc.WavelengthRangeError):
        sc.group_index(sc.BBO, lo)
    with pytest.raises(sc.WavelengthRangeError):
        sc.group_index(sc.BBO, hi, 0.5)


def test_angle_dependent_index_endpoints_and_interior():
    lam = 790.0
    assert sc.index_extraordinary(sc.BBO, lam, 0.0) == pytest.approx(
        sc.index_ordinary(sc.BBO, lam), abs=1e-12
    )
    assert sc.index_extraordinary(sc.BBO, lam, math.pi / 2) == pytest.approx(
        sc.index_principal_e(sc.BBO, lam), abs=1e-12
    )
    mid = sc.index_extraordinary(sc.BBO, lam, math.radians(43.65))
    assert sc.index_principal_e(sc.BBO, lam) < mid < sc.index_ordinary(sc.BBO, lam)


def test_angle_dependent_index_monotone_in_theta():
    lam = 790.0
    thetas = np.linspace(0.0, math.pi / 2, 181)
    values = [sc.index_extraordinary(sc.BBO, lam, t) for t in thetas]
    assert all(a > b for a, b in zip(values, values[1:]))
    # positive uniaxial: increasing instead
    values_q = [sc.index_extraordinary(sc.QUARTZ, lam, t) for t in thetas]
    assert all(a < b for a, b in zip(values_q, values_q[1:]))
    # the group index follows: a larger angle to the axis of BBO is faster
    assert sc.group_index(sc.BBO, lam, math.radians(40.0)) > sc.group_index(
        sc.BBO, lam, math.radians(47.0)
    )


def test_index_functions_accept_angle_arrays():
    thetas = np.linspace(0.0, math.pi / 2, 37).reshape(37, 1) + np.array([0.0, 0.01])
    for model in (sc.BBO, sc.QUARTZ):
        n = sc.index_extraordinary(model, 790.0, thetas)
        ng = sc.group_index(model, 790.0, thetas)
        assert n.shape == ng.shape == thetas.shape
        for t, n_t, ng_t in zip(thetas.ravel(), n.ravel(), ng.ravel()):
            assert n_t == sc.index_extraordinary(model, 790.0, float(t))
            # array powers may round differently from scalar pow in the last bit
            assert ng_t == pytest.approx(sc.group_index(model, 790.0, float(t)), rel=4e-16)
    # the one ellipse, evaluated in its cos^2 form, against the textbook
    # 1/n^2 = cos^2/n_o^2 + sin^2/n_e^2 on the same squared principal indices
    angles = np.linspace(0.0, math.pi / 2, 181)
    for model in (sc.BBO, sc.QUARTZ):
        for lam in (300.0, 395.0, 532.0, 790.0, 1000.0):
            no2, ne2 = sc.materials.squared_principal_indices(model, lam)
            textbook = 1.0 / np.sqrt(np.cos(angles) ** 2 / no2 + np.sin(angles) ** 2 / ne2)
            rel = np.abs(sc.index_extraordinary(model, lam, angles) / textbook - 1.0)
            assert rel.max() <= 2 * np.finfo(float).eps


def constant_index_model(n0):
    form = SellmeierForm("power_series", (n0 * n0,))
    return DispersionModel("constant", form, form, (100.0, 10000.0))


def test_group_index_of_constant_model_is_the_index():
    model = constant_index_model(1.5)
    assert sc.group_index(model, 790.0) == pytest.approx(1.5, abs=1e-15)
    assert sc.group_index(model, 790.0, 0.7) == pytest.approx(1.5, abs=1e-15)


def _fd_group_index(model, lam, theta=None, step=0.01):
    if theta is None:
        n = lambda x: sc.index_ordinary(model, x)
    else:
        n = lambda x: sc.index_extraordinary(model, x, theta)
    return n(lam) - lam * (n(lam + step) - n(lam - step)) / (2 * step)


@pytest.mark.parametrize("model", [sc.BBO, sc.QUARTZ], ids=lambda m: m.name)
def test_group_index_matches_finite_differences(model):
    rng = np.random.default_rng(20240917)
    lo, hi = model.valid_range_nm
    lams = rng.uniform(lo + 20, hi - 20, size=12)
    thetas = [None, math.pi / 2, math.radians(43.65), 0.2]
    for lam in np.concatenate([lams, [395.0, 790.0]]):
        for theta in thetas:
            analytic = sc.group_index(model, lam, theta)
            fd = _fd_group_index(model, lam, theta)
            assert abs(analytic - fd) < 1e-6, (lam, theta)


def test_group_index_at_experiment_wavelengths():
    # frozen from the scripted finite-difference evaluation of the reference
    # formulas (group index exceeds phase index in normal dispersion)
    assert sc.group_index(sc.BBO, 790.0) == pytest.approx(1.685171, abs=2e-5)
    assert sc.group_index(sc.BBO, 395.0, math.radians(43.65)) == pytest.approx(1.708216, abs=2e-5)
    assert sc.group_index(sc.QUARTZ, 790.0) == pytest.approx(1.554748, abs=2e-5)
    assert sc.group_index(sc.QUARTZ, 790.0, math.pi / 2) == pytest.approx(1.564281, abs=2e-5)


# --- pump spectral model -----------------------------------------------------

def test_pump_derived_quantities(pump):
    assert pump.omega_bar == pytest.approx(2 * math.pi * C / 395.0, rel=1e-12)
    assert pump.degenerate_nm == 790.0
    # 1 nm FWHM at 395 nm -> sigma for the exp[-2 (w-wbar)^2/sigma^2] spectrum
    dw = 2 * math.pi * C * 1.0 / 395.0**2
    assert pump.sigma == pytest.approx(dw / math.sqrt(2 * math.log(2)), rel=1e-12)
    assert pump.sigma == pytest.approx(0.0102537, abs=1e-6)


def test_pump_validation():
    with pytest.raises(ValueError):
        sc.PumpSpec(-395.0, 1.0)
    with pytest.raises(ValueError):
        sc.PumpSpec(395.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            sc.PumpSpec(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            sc.PumpSpec(395.0, bad)


# --- propagation times -------------------------------------------------------

def test_propagation_times_constant_model():
    model = constant_index_model(1.5)
    crystal = sc.CrystalSpec(model, 1.0, math.radians(43.65))
    pump = sc.PumpSpec(500.0, 1.0)
    times = sc.propagation_times(crystal, pump)
    expected = 1.0e6 * 1.5 / C  # = 5003.461 fs
    for t in times.as_tuple():
        assert t == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(5003.46, abs=0.01)


def test_propagation_times_reference_geometry(crystal1, pump):
    times = sc.propagation_times(crystal1, pump)
    tau_b = 0.5 * (times.t_o - times.t_e - 2 * times.t_e2 + 2 * times.t_p)
    assert abs(tau_b - 410.0) < 30.0
    assert times.t_o > times.t_e
    for t in times.as_tuple():
        assert math.isfinite(t) and t > 0


def test_propagation_times_linear_in_thickness(pump):
    psi = math.radians(43.65)
    t1 = sc.propagation_times(sc.CrystalSpec(sc.BBO, 1.07, psi), pump)
    t2 = sc.propagation_times(sc.CrystalSpec(sc.BBO, 2.14, psi), pump)
    for a, b in zip(t1.as_tuple(), t2.as_tuple()):
        assert b == pytest.approx(2 * a, rel=1e-14)


# --- crystal/pump data validation and material files --------------------------

def test_crystal_spec_validation():
    with pytest.raises(ValueError):
        sc.CrystalSpec(sc.BBO, -1.0, 0.5)
    with pytest.raises(ValueError):
        sc.CrystalSpec(sc.BBO, 1.0, 2.0)
    with pytest.raises(ValueError):
        sc.CrystalSpec(sc.BBO, 1.0, 0.5, axis_sign=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            sc.CrystalSpec(sc.BBO, bad, 0.5)
        with pytest.raises(ValueError):
            sc.CrystalSpec(sc.BBO, 1.0, bad)
    # the source is a cascade of two crystals: neither may be absent
    with pytest.raises(ValueError, match="> 0 mm"):
        sc.CrystalSpec(sc.BBO, 0.0, 0.5)


def test_load_dispersion_model_roundtrip(tmp_path):
    path = tmp_path / "bbo_copy.mat"
    path.write_text(
        "# comment line\n"
        "name = bbo_copy\n"
        "valid_range_nm = 220 1060\n"
        "o.form = resonant\n"
        "o.coefficients = 2.7359 0.01878 0.01822 -0.01354\n"
        "e.form = resonant\n"
        "e.coefficients = 2.3753 0.01224 0.01667 -0.01516\n"
    )
    model = sc.load_dispersion_model(path)
    assert model.name == "bbo_copy"
    for lam in (395.0, 790.0):
        assert sc.index_ordinary(model, lam) == sc.index_ordinary(sc.BBO, lam)
        assert sc.index_principal_e(model, lam) == sc.index_principal_e(sc.BBO, lam)


def test_load_dispersion_model_rejects_unknown_and_missing_keys(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("name = x\nmystery = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        sc.load_dispersion_model(bad)
    incomplete = tmp_path / "incomplete.mat"
    incomplete.write_text("name = x\n")
    with pytest.raises(ValueError, match="missing keys"):
        sc.load_dispersion_model(incomplete)


def test_load_dispersion_model_reads_by_the_config_rules(tmp_path):
    # ';' starts a comment line, keys are case-insensitive, and only a '#'
    # after whitespace starts a comment: one inside a value is kept
    path = tmp_path / "custom.mat"
    path.write_text(material({"name": "bbo#2 # the copy"}, bad_line="; comment line").replace("name =", "Name ="))
    assert sc.load_dispersion_model(path).name == "bbo#2"
    path.write_text(material({"valid_range_nm": "220 1060#nm"}))
    with pytest.raises(ValueError, match="valid_range_nm must be finite numbers, got '220 1060#nm'"):
        sc.load_dispersion_model(path)
    path.write_text(material(bad_line="[o]"))
    with pytest.raises(ValueError, match=r"custom\.mat:3: expected 'key = value', got '\[o\]'"):
        sc.load_dispersion_model(path)


def test_get_model_builtins():
    assert sc.get_model("bbo") is sc.BBO
    assert sc.get_model("QUARTZ") is sc.QUARTZ
