"""Smoke tests: the scripts under scripts/ run to completion, and a bad bound exits 2."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_sweep_graphs():
    r = run_script("sweep_graphs.py", "--vertices", "3", "--bound", "4")
    assert r.returncode == 0, r.stderr
    assert "0 mismatches" in r.stdout


def test_run_models():
    r = run_script("run_models.py", "--bound", "3")
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("script, args", [
    ("sweep_graphs.py", ["--bound", "1"]), ("sweep_graphs.py", ["--bound", "0"]),
    ("sweep_graphs.py", ["--bound", "-1"]), ("sweep_graphs.py", ["--vertices", "-1"]),
    ("run_models.py", ["--bound", "-3"])])
def test_bad_bounds_exit_2(script, args):
    # 1 is the sweep's exit code for mismatches found: a bad bound must not read as one
    r = run_script(script, *args)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "must be at least" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


def bench_pairs():
    """scripts/bench_pairs.py as a module; nothing is run."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"workload": "w", "seed": seed, "side": side, "position": 1,
             "result": {"metrics": {"m": {"value": value}}}}
            for seed, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


class TestBenchPairs:
    def test_summary_reproduces_a_committed_bench_file(self):
        bp = bench_pairs()
        bench = json.loads((ROOT / "BENCH_17.json").read_text())
        better = {m["name"]: m["better"]
                  for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        summary = bp.summarize(bench["runs"], better)
        assert summary == bench["summary"]
        assert bp.claim(summary, "dense-tor", "instances_per_s", "higher") == bench["claim"]

    def test_no_regression(self):
        bp = bench_pairs()

        def verdict(parent, factor, better):
            s = bp.summarize(_runs(parent, [p * factor for p in parent]), {"m": better})
            return bp.no_regression(s, [{"name": "m", "better": better, "bound": 0.25}])["w"]["m"]

        tight = [100.0 + k for k in range(10)]  # IQR 4.5, 4.3% of the median 104.5
        got = verdict(tight, 0.8, "higher")
        assert got["status"] == "ok" and got["bound"] == 0.25
        assert abs(got["relative_change"] + 0.2) < 1e-12
        assert abs(got["parent_iqr_relative"] - 4.5 / 104.5) < 1e-12
        assert verdict(tight, 0.7, "higher")["status"] == "worse"
        assert verdict(tight, 1.3, "higher")["status"] == "ok"
        assert verdict(tight, 1.3, "lower")["status"] == "worse"
        assert verdict(tight, 0.7, "lower")["status"] == "ok"
        # an IQR of 4.5 about a median of 14.5 is 31%, wider than the bound:
        # the runs cannot tell, however far the medians move
        wide = [10.0 + k for k in range(10)]
        assert verdict(wide, 0.5, "higher")["status"] == "unresolved"
        assert verdict(wide, 1.0, "lower")["status"] == "unresolved"

    def test_claim_rule(self):
        bp = bench_pairs()
        parent = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # IQR 4.5
        wins_9 = [p + 6 for p in parent[:9]] + [parent[9] - 1]
        s = bp.summarize(_runs(parent, wins_9), {"m": "higher"})["w"]["m"]
        assert (s["change_better_pairs"], s["pairs"]) == (9, 10)
        assert s["parent"] == {"median": 14.5, "q1": 12.25, "q3": 16.75}
        assert bp.claim({"w": {"m": s}}, "w", "m", "higher")["met"]
        # 8 of 10 pairs won is too few, whatever the medians
        wins_8 = [p + 20 for p in parent[:8]] + [p - 1 for p in parent[8:]]
        s = bp.summarize(_runs(parent, wins_8), {"m": "higher"})
        assert not bp.claim(s, "w", "m", "higher")["met"]
        # every pair won, but by less than the parent's IQR
        s = bp.summarize(_runs(parent, [p + 4 for p in parent]), {"m": "higher"})
        assert s["w"]["m"]["change_better_pairs"] == 10
        assert not bp.claim(s, "w", "m", "higher")["met"]
        # lower is better: the same numbers read the other way round
        s = bp.summarize(_runs([p + 6 for p in parent], parent), {"m": "lower"})
        assert bp.claim(s, "w", "m", "lower")["met"]
        assert not bp.claim(s, "w", "m", "higher")["met"]


def _counted_runs(parent: list[tuple], change: list[tuple]) -> list[dict]:
    """Paired runs of one workload with metric m = 10 (parent) or 20
    (change), from (attempted, failed, correct) per run."""
    return [{"workload": "w", "seed": seed, "side": side, "position": 1,
             "result": {"attempted": a, "failed": f, "correct": ok,
                        "metrics": {"m": {"value": value}}}}
            for seed, pair in enumerate(zip(parent, change))
            for side, value, (a, f, ok) in zip(("parent", "change"), (10.0, 20.0), pair)]


class TestBenchPairsCounts:
    def test_counts_per_workload_and_side(self):
        bp = bench_pairs()
        runs = _counted_runs([(100, 0, True), (90, 1, True)], [(120, 2, True), (80, 0, False)])
        assert bp.run_counts(runs) == {"w": {
            "parent": {"runs": 2, "attempted": 190, "failed": 1, "incorrect_runs": 0},
            "change": {"runs": 2, "attempted": 200, "failed": 2, "incorrect_runs": 1}}}

    def test_claim_needs_correct_runs_and_no_larger_failed_share(self):
        bp = bench_pairs()

        def met(parent, change):
            runs = _counted_runs(parent, change)
            s = bp.summarize(runs, {"m": "higher"})
            assert bp.claim(s, "w", "m", "higher")["met"]  # the metric alone wins
            return bp.claim(s, "w", "m", "higher", bp.run_counts(runs))["met"]

        clean = [(100, 0, True)] * 10
        assert met(clean, clean)
        # one change run marked wrong
        assert not met(clean, clean[:9] + [(100, 0, False)])
        # an incorrect parent run does not count against the change
        assert met(clean[:9] + [(100, 0, False)], clean)
        # 1 failed in 1000 attempted against none
        assert not met(clean, clean[:9] + [(100, 1, True)])
        # the same failed share, 1%, on more operations
        assert met([(100, 1, True)] * 10, [(200, 2, True)] * 10)
        assert not met([(100, 1, True)] * 10, [(100, 2, True)] * 10)

    def test_counts_of_a_committed_bench_file(self):
        bp = bench_pairs()
        bench = json.loads((ROOT / "BENCH_17.json").read_text())
        counts = bp.run_counts(bench["runs"])
        for workload, sides in counts.items():
            assert set(sides) == {"parent", "change"}
            assert all(c["runs"] == 10 and c["attempted"] > 0 for c in sides.values())
        assert bp.counts_ok(counts)
