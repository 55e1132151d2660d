"""Compare two result sets of the benchmark, a parent and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are result directories (or single result files) written
by run.py, e.g. each checkout's .perfbench/results.  Every workload of
BENCHMARK.json that has runs on both sides is compared.  Runs are paired
by seed: the k-th run of a seed on one side with the k-th run of that
seed on the other.  Only runs with the parent's usual --seconds count.
To make the pairs, alternate which side runs first, with the same seeds
and --seconds on both sides, for example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      if [ $((s % 2)) = 1 ]; then first=$PARENT; second=$CHANGE; else first=$CHANGE; second=$PARENT; fi
      (cd $first && python3 perfbench/run.py --workload cli-cold --seed $s --seconds 30 --trace 0)
      (cd $second && python3 perfbench/run.py --workload cli-cold --seed $s --seconds 30 --trace 0)
    done

Failures come first.  A workload regressed if the change's paired
untraced runs fail a larger share of their ops than the parent's, or if
either side has no correct run among them; a workload whose change fails
more ops gets no gain.  Then, per end-to-end metric, over the pairs in
which both runs are correct, the verdict is:

  gain          at least 10 pairs, the change wins at least 9 in 10 of
                them (ties count for neither side), and the medians differ
                by more than the parent's interquartile range
  unresolved    the spread of either side (interquartile range over
                median) exceeds the metric's bound, and not every change
                run beats every parent run
  better        as unresolved, but every change run beats every parent run
  regression    the change's median is worse than the parent's by more
                than the metric's bound
  within bound  none of the above

Metrics that the benchmark reports without a bound (op_s_p50, op_s_p90,
ops_per_s) get the gain test only; otherwise their verdict is "no bound".

Counts from traced runs are listed where the traced runs of the first
seed that both sides traced differ.  The exit code is 1 if a workload or
a metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from spans import COUNT_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9
UNBOUNDED = (("op_s_p50", "lower"), ("op_s_p90", "lower"), ("ops_per_s", "higher"))
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load_results(path: str) -> list:
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
    runs = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return sorted(runs, key=lambda r: r["started_unix"])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare_metric(parent: list, change: list, better: str, bound) -> dict:
    """Verdict for one metric; parent[i] and change[i] form pair i."""
    sign = 1.0 if better == "lower" else -1.0  # positive sign * (c - p) means worse
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1_p, q3_p = _quartiles(parent)
    q1_c, q3_c = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse_by = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    spread = max((q3_p - q1_p) / abs(med_p) if med_p else 0.0,
                 (q3_c - q1_c) / abs(med_c) if med_c else 0.0)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if (len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pairs)
            and sign * (med_c - med_p) < 0 and abs(med_c - med_p) > q3_p - q1_p):
        verdict = "gain"
    elif bound is None:
        verdict = "no bound"
    elif spread > bound:
        verdict = "better" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "parent_median": med_p, "parent_q1": q1_p, "parent_q3": q3_p,
        "change_median": med_c, "change_q1": q1_c, "change_q3": q3_c,
        "pairs": len(pairs), "wins": wins, "worse_by": worse_by, "spread": spread,
        "verdict": verdict,
    }


def pair_by_seed(parent_runs, change_runs) -> list:
    """(parent, change) run pairs with equal seeds, in seed order."""
    by_seed = {}
    for side, runs in enumerate((parent_runs, change_runs)):
        for run in runs:
            by_seed.setdefault(run["seed"], ([], []))[side].append(run)
    return [pair for seed in sorted(by_seed) for pair in zip(*by_seed[seed])]


def failure_share(runs) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def _alternating(pairs) -> bool:
    pairs = sorted(pairs, key=lambda pair: pair[0]["started_unix"])
    firsts = [p["started_unix"] < c["started_unix"] for p, c in pairs]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare_workload(workload, spec, parent_all, change_all, seconds) -> bool:
    """Print the comparison of one workload; returns True if it regressed."""
    def runs(all_runs, traced):
        return [r for r in all_runs
                if r["workload"] == workload and r["trace"] == traced and r["seconds"] == seconds]

    pairs = pair_by_seed(runs(parent_all, 0), runs(change_all, 0))
    if not pairs:
        print(f"{workload}: no untraced runs with the same seed on both sides; skipped")
        return False
    share_p = failure_share([p for p, _ in pairs])
    share_c = failure_share([c for _, c in pairs])
    more_failures = share_c > share_p
    correct = [(p, c) for p, c in pairs if p["correct"] and c["correct"]]
    print(f"{workload}: {len(pairs)} seed pairs, {len(correct)} with both runs correct; "
          f"failed ops: parent {share_p:.2%}, change {share_c:.2%}")
    if not any(p["correct"] for p, _ in pairs) or not any(c["correct"] for _, c in pairs):
        print("  regression: a side has no correct run")
        return True
    regressed = more_failures
    if more_failures:
        print("  regression: the change fails a larger share of ops")
    if not correct:
        print("  no pair in which both runs are correct")
        return True
    n = len(correct)
    print(f"  {'alternating' if _alternating(correct) else 'NOT alternating'}"
          f"{'' if n >= MIN_PAIRS else f', fewer than {MIN_PAIRS} pairs: no gain can be claimed'}")
    print(f"  {'metric':14s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'wins':>7s} {'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    rows = [("metrics", m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rows += [("unbounded_metrics", name, better, None) for name, better in UNBOUNDED]
    for section, name, better, bound in rows:
        result = compare_metric(
            [p[section][name]["value"] for p, _ in correct],
            [c[section][name]["value"] for _, c in correct],
            better, bound,
        )
        if more_failures and result["verdict"] == "gain":
            result["verdict"] = "no gain: more failures"
        regressed |= result["verdict"] == "regression"
        p = f"{result['parent_median']:.5g} [{result['parent_q1']:.5g}, {result['parent_q3']:.5g}]"
        c = f"{result['change_median']:.5g} [{result['change_q1']:.5g}, {result['change_q3']:.5g}]"
        print(f"  {name:14s} {p:34s} {c:34s} {result['wins']:3d}/{result['pairs']:<3d} "
              f"{result['worse_by']:+9.2%} {result['spread']:7.2%} "
              f"{'-' if bound is None else f'{bound:.0%}':>6s}  "
              f"{result['verdict']}")
    traced = [(p, c) for p, c in pair_by_seed(runs(parent_all, 1), runs(change_all, 1))
              if p["correct"] and c["correct"]]
    if traced:
        before, after = traced[0][0]["metrics"], traced[0][1]["metrics"]
        for name in COUNT_METRICS:
            if before[name]["value"] != after[name]["value"]:
                print(f"  count {name}: parent {before[name]['value']:.6g}, "
                      f"change {after[name]['value']:.6g}")
    return regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    parent_all, change_all = load_results(args.parent), load_results(args.change)
    seconds = statistics.mode(r["seconds"] for r in parent_all)
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        regressed |= compare_workload(workload, spec, parent_all, change_all, seconds)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
