#!/usr/bin/env python3
"""Paired benchmark runs of two commits, and the claim rule applied to them.

Each commit is exported with `git archive` into its own directory, and
`benchmark/run.py` runs there once per workload and seed, the two sides
alternating which goes first (the parent first at even pair indices).  The
runs, a summary of every end-to-end metric (median and quartiles of each
side, and the pairs the change won), the no-regression verdict of every
workload and metric and, with --claim, the verdict of the claim rule are
written as one JSON file.  The claim rule:

* the change must win at least 9 in 10 of the pairs,
* its median must be better than the parent's by more than the parent's
  interquartile range (IQR), and
* no run of the change, on any workload, may have outputs that a check
  marked wrong (`correct` false), nor fail a larger share of the
  operations it attempted than the parent's runs of that workload.

Each side's operations attempted and failed and its incorrect runs are
written per workload, with or without --claim.

The no-regression verdict compares the relative change of the medians with
the metric's `bound` in BENCHMARK.json: `unresolved` where the parent's IQR
is more than the bound of its median, so that the runs spread too widely
to tell, else `worse` where the change's median is worse by more than the
bound, else `ok`.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --parent REV --change REV --out BENCH_N.json \\
        [--workloads dense-tor,graph-sweep,paper-models] [--seeds 4-13] \\
        [--seconds 15] [--claim dense-tor:instances_per_s] [--what TEXT] \\
        [--workdir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, by the inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """For each workload and metric named in `better` ("lower" or "higher"):
    each side's quartiles over the seeds, and the pairs (same workload and
    seed) in which the change read strictly better."""
    out: dict = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict = {}
        for r in runs:
            if r["workload"] == w:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [s for s in by_seed.values() if set(s) == {"parent", "change"}]
        out[w] = {}
        for metric, way in better.items():
            sides = {side: [s[side][metric]["value"] for s in pairs] for side in ("parent", "change")}
            won = sum((c < p) if way == "lower" else (c > p)
                      for p, c in zip(sides["parent"], sides["change"]))
            out[w][metric] = {"parent": quartiles(sides["parent"]),
                              "change": quartiles(sides["change"]),
                              "change_better_pairs": won, "pairs": len(pairs)}
    return out


def run_counts(runs: list[dict]) -> dict:
    """For each workload and side: the operations attempted and failed,
    summed over the runs, and the runs whose outputs a check marked wrong."""
    out: dict = {}
    for r in runs:
        side = out.setdefault(r["workload"], {}).setdefault(
            r["side"], {"runs": 0, "attempted": 0, "failed": 0, "incorrect_runs": 0})
        side["runs"] += 1
        side["attempted"] += r["result"]["attempted"]
        side["failed"] += r["result"]["failed"]
        side["incorrect_runs"] += not r["result"]["correct"]
    return out


def counts_ok(counts: dict) -> bool:
    """No change run incorrect, and on no workload a larger failed share of
    the attempted operations than the parent's."""
    def share(c):
        return c["failed"] / c["attempted"] if c["attempted"] else 0.0
    return all(c["change"]["incorrect_runs"] == 0 and share(c["change"]) <= share(c["parent"])
               for c in counts.values())


def claim(summary: dict, workload: str, metric: str, better: str,
          counts: dict | None = None) -> dict:
    """The claim rule: at least 9 in 10 pairs won, and the medians further
    apart, in the better direction, than the parent's IQR; with the run
    counts of `run_counts`, also `counts_ok`."""
    s = summary[workload][metric]
    parent, change = s["parent"], s["change"]
    iqr = parent["q3"] - parent["q1"]
    gain = change["median"] - parent["median"] if better == "higher" else \
        parent["median"] - change["median"]
    out = {"workload": workload, "metric": metric, "better": better,
           "change_better_pairs": s["change_better_pairs"], "pairs": s["pairs"],
           "parent_median": parent["median"], "parent_iqr": iqr,
           "change_median": change["median"],
           "met": 10 * s["change_better_pairs"] >= 9 * s["pairs"] and gain > iqr}
    if counts is not None:
        out["counts_ok"] = counts_ok(counts)
        out["met"] = out["met"] and out["counts_ok"]
    return out


def no_regression(summary: dict, end_to_end: list[dict]) -> dict:
    """For each workload and end-to-end metric of BENCHMARK.json: the
    relative change of the medians, (change - parent) / parent, against the
    metric's bound, and its status (module docstring)."""
    out: dict = {}
    for w, metrics in summary.items():
        out[w] = {}
        for m in end_to_end:
            parent, change = metrics[m["name"]]["parent"], metrics[m["name"]]["change"]
            rel = (change["median"] - parent["median"]) / parent["median"]
            spread = (parent["q3"] - parent["q1"]) / parent["median"]
            worse = rel if m["better"] == "lower" else -rel
            status = "unresolved" if spread > m["bound"] else \
                "worse" if worse > m["bound"] else "ok"
            out[w][m["name"]] = {"relative_change": rel, "bound": m["bound"],
                                 "parent_iqr_relative": spread, "status": status}
    return out


def export(rev: str, where: Path) -> str:
    """The files of `rev` under `where`; returns the full commit id."""
    where.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive.stdout, check=True)
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(where: Path, workload: str, seed: int, seconds: float) -> dict:
    r = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds)],
                       cwd=where, capture_output=True, text=True)
    if r.returncode != 0:
        raise RuntimeError(f"{where.name} {workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="dense-tor,graph-sweep,paper-models")
    ap.add_argument("--seeds", default="4-13", help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--claim", help="workload:metric")
    ap.add_argument("--what", default="")
    ap.add_argument("--workdir", help="where the exports go (default: a new temporary directory)")
    args = ap.parse_args()

    first, last = map(int, args.seeds.split("-"))
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    commits = {side: export(rev, work / side) for side, rev in
               (("parent", args.parent), ("change", args.change))}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs = []
    for workload in args.workloads.split(","):
        for k, seed in enumerate(range(first, last + 1)):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order, 1):
                result = run_once(work / side, workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "position": position, "result": result})
                print(workload, seed, side, json.dumps(result["metrics"]), file=sys.stderr)
    summary, counts = summarize(runs, better), run_counts(runs)
    out = {"what": args.what, "parent_commit": commits["parent"],
           "change_commit": commits["change"],
           "command": f"python3 benchmark/run.py --workload W --seed N --seconds {args.seconds:g}",
           "protocol": f"seeds {first}-{last} per workload; even pair indices run the parent "
                       "first, odd ones the change first; each side runs from its own "
                       "git archive export",
           "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                      f"Python {platform.python_version()}"}
    if args.claim:
        workload, metric = args.claim.split(":")
        out["claim"] = claim(summary, workload, metric, better[metric], counts)
        print(json.dumps(out["claim"]), file=sys.stderr)
    out["counts"] = counts
    print(json.dumps(counts), file=sys.stderr)
    out["no_regression"] = no_regression(summary, bench["end_to_end"])
    for w, metrics in out["no_regression"].items():
        print(w, json.dumps({m: v["status"] for m, v in metrics.items()}), file=sys.stderr)
    out.update(summary=summary, runs=runs)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
