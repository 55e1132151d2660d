"""The output comparison of tests/outputs.py, on one tree: the tool that
a refactor's "outputs match the parent" rests on must not rot."""

import outputs


def test_manifest_of_two_designs_compares_identical_and_reports_each_kind_of_difference():
    old = outputs.manifest(2, (256,))
    rows = outputs.compare(old, old, rtol=0.0)
    assert {result for _, _, result, _ in rows} == {"identical"} and not any(exceeded for *_, exceeded in rows)
    assert {name for name, *_ in rows} >= {"cli emission-map csv sha256", "map 256 class times", "collinear_cut_angle",
                                            "refusal emission_time_map BBO 42.5 deg"}
    assert any(name.startswith("contract ") for name, *_ in rows)
    new = dict(old)
    new[("collinear_cut_angle", 1)] = old[("collinear_cut_angle", 1)] * (1.0 + 2e-12)
    new[("map 256 csv sha256", 0)] = "0" * 64
    del new[("max_visibility", 1)]
    rows = {name: (points, result, exceeded) for name, points, result, exceeded in outputs.compare(old, new, 1e-9)}
    points, result, exceeded = rows["collinear_cut_angle"]
    assert points == 2 and result.startswith("max abs ") and "(at 1)" in result and not exceeded
    assert rows["map 256 csv sha256"] == (2, "1 of 2 differ, first at 0", True)
    assert rows["max_visibility"] == (2, "1 of 2 differ, first at 1: only in the parent", True)
    assert rows["map 256 class times"] == (2, "identical", False)
