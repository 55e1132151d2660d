import math
import os
import shutil
import tempfile

import pytest

import spdc_cascade as sc

PSI_DEG = 43.65
THICKNESS_MM = 1.07
PUMP_NM = 395.0
BANDWIDTH_NM = 1.0


def pytest_configure(config):
    # hypothesis caches the constants of local source files in its storage
    # directory, .hypothesis/ under the working directory unless this names
    # another, even with database=None; keep the checkout as the tests found it
    storage = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(storage, ignore_errors=True))
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = storage


@pytest.fixture(autouse=True)
def _cold_inplane_solve_cache():
    """Each test starts with no cached in-plane cone solve, so none depends on
    the designs that earlier tests solved."""
    sc.geometry._inplane_solve.cache_clear()


@pytest.fixture(scope="session")
def pump():
    return sc.PumpSpec(PUMP_NM, BANDWIDTH_NM)


@pytest.fixture(scope="session")
def crystal1():
    return sc.CrystalSpec(sc.BBO, THICKNESS_MM, math.radians(PSI_DEG), axis_sign=+1)


@pytest.fixture(scope="session")
def crystal2():
    return sc.CrystalSpec(sc.BBO, THICKNESS_MM, math.radians(PSI_DEG), axis_sign=-1)


@pytest.fixture(scope="session")
def params(crystal1, pump):
    return sc.params_from_crystal(crystal1, pump)


@pytest.fixture(scope="session")
def base_map(crystal1, crystal2, pump):
    """Undelayed emission-time map at the experimental geometry."""
    return sc.emission_time_map(crystal1, crystal2, pump)


@pytest.fixture(scope="session")
def doubled_map(pump):
    c1 = sc.CrystalSpec(sc.BBO, 2 * THICKNESS_MM, math.radians(PSI_DEG), axis_sign=+1)
    c2 = sc.CrystalSpec(sc.BBO, 2 * THICKNESS_MM, math.radians(PSI_DEG), axis_sign=-1)
    return sc.emission_time_map(c1, c2, pump)


@pytest.fixture()
def benchmark_designs(monkeypatch):
    """The reference design, then the 21 designs of the benchmark's seeds 1-3."""
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.inputs import REFERENCE, draw_designs

    designs = [REFERENCE] + [d for seed in (1, 2, 3) for d in draw_designs(seed)]
    assert len(designs) == 22
    return designs


@pytest.fixture()
def benchmark_params(benchmark_designs):
    """InterferenceParams of each of `benchmark_designs`."""
    return [
        sc.params_from_crystal(sc.CrystalSpec(sc.BBO, d["thickness_mm"], math.radians(d["cut_angle_deg"])),
                               sc.PumpSpec(d["center_nm"], d["bandwidth_nm"]))
        for d in benchmark_designs
    ]
