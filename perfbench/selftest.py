"""The benchmark's own tests (kept out of the repository's pytest suite).

    python3 perfbench/selftest.py

Smoke runs copy the package and the benchmark into a temporary checkout
under .perfbench/tmp, so they leave no results behind.
"""

from __future__ import annotations

import contextlib
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench", "tmp")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def temp_dir():
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=TMP_ROOT)


class InputTests(unittest.TestCase):
    def setUp(self):
        self.dirs = [temp_dir() for _ in range(3)]

    def tearDown(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def test_same_seed_gives_identical_inputs(self):
        for workload in run.WORKLOADS:
            a = inputs.generate(workload, 7, os.path.join(self.dirs[0], workload))
            b = inputs.generate(workload, 7, os.path.join(self.dirs[1], workload))
            c = inputs.generate(workload, 8, os.path.join(self.dirs[2], workload))
            names = sorted(f for f in os.listdir(a.directory) if f.endswith((".ini", ".json")))
            match, mismatch, errors = filecmp.cmpfiles(a.directory, b.directory, names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []), workload)
            self.assertEqual(a.cli_ops, b.cli_ops)
            _, differ, _ = filecmp.cmpfiles(a.directory, c.directory, names, shallow=False)
            self.assertIn("design0.ini", differ)

    def test_designs_stay_in_the_phase_matched_box(self):
        for seed in range(200):
            for d in inputs.draw_designs(seed):
                self.assertTrue(inputs.THICKNESS_MM[0] <= d["thickness_mm"] <= inputs.THICKNESS_MM[1])
                self.assertTrue(inputs.CUT_ANGLE_DEG[0] <= d["cut_angle_deg"] <= inputs.CUT_ANGLE_DEG[1])
                self.assertTrue(inputs.CENTER_NM[0] <= d["center_nm"] <= inputs.CENTER_NM[1])
                self.assertTrue(inputs.BANDWIDTH_NM[0] <= d["bandwidth_nm"] <= inputs.BANDWIDTH_NM[1])
                self.assertLessEqual(d["thickness_mm"] * d["bandwidth_nm"],
                                     inputs.MAX_THICKNESS_X_BANDWIDTH + 1e-3)

    def test_cli_cycle_pairs_every_subcommand_with_every_design(self):
        ops = inputs.generate("cli-cold", 3, self.dirs[0]).cli_ops
        pairs = {(argv[0], argv[2]) for argv in ops}
        self.assertEqual(len(pairs), len(inputs.CLI_COMMANDS) * inputs.N_DESIGNS)


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_the_children(self):
        table = spans.SpanTable()
        root = table.add("geometry.emission_time_map", 0.0, 10.0)
        a = table.add("geometry.cone_direction", 1.0, 4.0, parent=root)
        table.add("materials.index_ordinary", 2.0, 3.0, parent=a)
        table.add("geometry.cone_direction", 4.0, 6.0, parent=root)
        table.add("geometry.class_emission_times", 7.0, 9.5, parent=root)
        got = spans.self_times(table.parent, table.start, table.end)
        self.assertEqual(got, [10.0 - 3.0 - 2.0 - 2.5, 2.0, 1.0, 2.0, 2.5])
        metrics = spans.layer_metrics(table)
        self.assertEqual(metrics["materials.self_s"], 1.0)
        self.assertEqual(metrics["geometry.self_s"], 2.5 + 2.0 + 2.0 + 2.5)
        self.assertEqual(metrics["geometry.cone_direction.calls"], 2)
        self.assertEqual(metrics["geometry.cone_direction.s"], 5.0)

    def test_dump_and_load_round_trip(self):
        table = spans.SpanTable()
        table.add("cli.main", 0.0, 2.0, op=3)
        table.add("config.load_config", 0.5, 1.0, parent=0, op=3, value=7.0)
        directory = temp_dir()
        try:
            path = os.path.join(directory, "t.spans")
            table.dump(path, {"import_s": 0.25})
            loaded, extra = spans.SpanTable.load(path)
        finally:
            shutil.rmtree(directory)
        self.assertEqual(extra, {"import_s": 0.25})
        merged = spans.SpanTable()
        merged.extend(loaded)
        merged.extend(loaded)
        self.assertEqual(list(merged.parent), [-1, 0, -1, 2])
        self.assertEqual([merged.names[i] for i in merged.name],
                         ["cli.main", "config.load_config"] * 2)

    def test_traced_counts_repeat_exactly(self):
        import library_ops
        import spdc_cascade.cli  # noqa: F401
        from spdc_cascade import geometry

        directory = temp_dir()
        path = os.path.join(directory, "small.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.config_text(inputs.draw_designs(5)[0], 64, "scan"))
        original = geometry.cone_direction
        try:
            passes = []
            for _ in range(2):
                recorder = spans.Recorder()
                recorder.install()
                try:
                    self.assertIsNot(geometry.cone_direction, original)
                    library_ops.emission_map_op(path)
                finally:
                    recorder.uninstall()
                passes.append(spans.layer_metrics(recorder))
        finally:
            shutil.rmtree(directory)
        self.assertIs(geometry.cone_direction, original)
        first, second = passes
        self.assertEqual(first["geometry.class_emission_times.calls"], 4 * 64)
        self.assertEqual(first["geometry.cone_direction.calls"], 4 * 64)
        self.assertEqual(first["geometry.class_emission_times.useful_ratio"], 0.25)
        self.assertGreater(first["materials.group_index.calls"], 0)
        for name in spans.COUNT_METRICS:
            self.assertEqual(first[name], second[name], name)

    def test_rebound_names_are_wrapped_and_restored(self):
        import spdc_cascade.cli
        from spdc_cascade import analysis, config, geometry, materials

        before = (geometry.group_index, analysis.group_index, spdc_cascade.cli.load_config,
                  config.params_from_crystal, materials.group_index)
        recorder = spans.Recorder()
        recorder.install()
        try:
            wrapped = (geometry.group_index, analysis.group_index, spdc_cascade.cli.load_config,
                       config.params_from_crystal, materials.group_index)
            for old, new in zip(before, wrapped):
                self.assertIsNot(old, new)
                self.assertIs(new.__wrapped__, old)
            self.assertIs(geometry.group_index, materials.group_index)
        finally:
            recorder.uninstall()
        after = (geometry.group_index, analysis.group_index, spdc_cascade.cli.load_config,
                 config.params_from_crystal, materials.group_index)
        self.assertEqual(after, before)


class StatisticTests(unittest.TestCase):
    def test_nearest_rank_percentiles(self):
        xs = [float(i) for i in range(1, 46)]
        self.assertEqual(run.percentile(xs, 10), 5.0)
        self.assertEqual(run.percentile(xs, 75), 34.0)  # 11 ops beyond it
        self.assertEqual(run.percentile([3.0], 90), 3.0)
        self.assertEqual(run.percentile(xs, 100), 45.0)

    def test_strict_json_and_finite_csv(self):
        self.assertEqual(checks.strict_json('{"a": 1.5}'), {"a": 1.5})
        for bad in ('{"a": NaN}', '{"a": Infinity}', "{"):
            with self.assertRaises(checks.CheckFailed):
                checks.strict_json(bad)
        self.assertEqual(checks.finite_csv("x,y\n1,2\n3,4\n", 2), 2)
        with self.assertRaises(checks.CheckFailed):
            checks.finite_csv("x,y\n1,nan\n3,4\n", 2)

    def test_paper_numbers_round_to_quoted_digits(self):
        checks.paper_numbers({"max_visibility": 0.86059, "tau_b_fs": 408.913})
        with self.assertRaises(checks.CheckFailed):
            checks.paper_numbers({"max_visibility": 0.8594})

    def test_compare_verdicts(self):
        parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
        faster = [0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80]
        self.assertEqual(compare.compare_metric(parent, faster, "lower", 0.1)["verdict"], "gain")
        self.assertEqual(compare.compare_metric(parent, faster, "higher", 0.1)["verdict"],
                         "regression")
        self.assertEqual(compare.compare_metric(parent, parent, "lower", 0.1)["verdict"],
                         "within bound")
        noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.5, 1.5, 0.6, 1.4]
        self.assertEqual(compare.compare_metric(parent, noisy, "lower", 0.1)["verdict"],
                         "unresolved")
        self.assertEqual(compare.compare_metric(parent, noisy, "lower", None)["verdict"],
                         "no bound")

    def test_compare_pairs_by_seed_and_counts_failures(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)

        def record(seed, started, scale, failed=0):
            values = {m["name"]: {"value": scale} for m in spec["end_to_end"]}
            values["peak_rss_mb"] = {"value": 80.0}
            return {"workload": "cli-cold", "trace": 0, "seconds": 30, "seed": seed,
                    "started_unix": started, "correct": failed == 0, "attempted": 40,
                    "failed": failed, "metrics": values,
                    "unbounded_metrics": {name: {"value": scale}
                                          for name, _ in compare.UNBOUNDED}}

        parent = [record(s, 2 * s, 1.0 + 0.001 * s) for s in range(10)]
        faster = [record(s, 2 * s + 1, 0.8 + 0.001 * s) for s in reversed(range(10))]
        pairs = compare.pair_by_seed(parent, faster)
        self.assertEqual([(p["seed"], c["seed"]) for p, c in pairs], [(s, s) for s in range(10)])
        quiet = open(os.devnull, "w")
        with quiet, contextlib.redirect_stdout(quiet):
            self.assertFalse(compare.compare_workload("cli-cold", spec, parent, faster, 30))
            failing = faster[:9] + [record(0, 1, 0.8, failed=1)]
            self.assertTrue(compare.compare_workload("cli-cold", spec, parent, failing, 30))
            broken = [record(s, 2 * s + 1, 0.8, failed=40) for s in range(10)]
            self.assertTrue(compare.compare_workload("cli-cold", spec, parent, broken, 30))
            self.assertFalse(compare.compare_workload("emission-map-dense", spec, parent,
                                                      faster, 30))


def _checkout(with_src: bool) -> str:
    """A temporary checkout holding BENCHMARK.json, the benchmark and maybe src."""
    root = temp_dir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(SRC, os.path.join(root, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


class SmokeTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)
        cls.root = _checkout(with_src=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root, ignore_errors=True)

    def check_result(self, proc, metric_names):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(metric_names))
        for metric in result["metrics"].values():
            self.assertTrue(math.isfinite(metric["value"]))

    def test_every_workload_at_minimal_length(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                self.check_result(_run(self.root, workload, 0), names)

    def test_traced_run_reports_every_layer_metric(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        self.check_result(_run(self.root, "interference-sweep", 1), names)

    def test_fails_without_the_program(self):
        root = _checkout(with_src=False)
        try:
            proc = _run(root, "interference-sweep", 0)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
