#!/usr/bin/env python3
"""Time to verdict of the koszulity workbench, end to end and per layer.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload graph-sweep|dense-tor|paper-models \
        --seed N --seconds S --trace 0|1

The program is imported from `src/` of the current directory.  The run
builds its inputs from the seed, runs whole rounds of the workload's
instances until the instances have taken S seconds, checks every output,
and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s,
instances_per_s, instance_p50_s, peak_rss_mb).  With --trace 1 the run
times one round untraced, then repeats the set-up and one round with the
per-layer tracer on, and prints the per-layer metrics with the tracing
overhead.  Each result, with the problems any check found, is also
written to benchmark/out/.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP: the workloads are single-threaded, and
# a 2-core machine gives no room for a second pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402,F401  (a dependency; imported before set-up is timed)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from layertrace import Tracer  # noqa: E402

LAYERS = ("gf", "monomials", "algebra", "graded", "graphs", "homology",
          "symplectic", "models", "cli")
SETUP_REPEATS = 5
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def import_koszulity(src: str) -> SimpleNamespace:
    """A fresh import of the package from `src`, one attribute per layer."""
    for name in [n for n in sys.modules if n == "koszulity" or n.startswith("koszulity.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    kz = SimpleNamespace(**{layer: importlib.import_module(f"koszulity.{layer}")
                            for layer in LAYERS})
    origin = os.path.realpath(kz.gf.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"koszulity was imported from {origin}, not from {src}")
    return kz


def setup(src: str, workload, seed: int):
    t0 = time.perf_counter()
    kz = import_koszulity(src)
    insts = workload.setup(kz, seed)
    return time.perf_counter() - t0, kz, insts


@dataclass
class Tally:
    """What a run attempted: instance durations, failures and problems.

    An instance that raises is a failed operation; one whose output fails a
    check is failed and also makes the run incorrect.
    """

    durations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)


def run_round(kz, workload, insts, tally: Tally, tracer=None) -> float:
    """One round: every instance on a fresh copy, timed, then checked.

    Returns the round's timed seconds.  With a tracer, tracing is on only
    while an instance runs.
    """
    total = 0.0
    for inst in insts:
        data = wl.fresh(inst)
        if tracer is not None:
            tracer.on = True
        t0 = time.perf_counter()
        try:
            out = workload.run(kz, data)
        except Exception as e:  # recorded as a failed operation
            out, found = None, [f"raised {type(e).__name__}: {e}"]
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.on = False
        total += dt
        tally.durations.append(dt)
        tally.attempted += 1
        if out is not None:
            found = workload.check(kz, wl.fresh(inst), out)
            tally.wrong += bool(found)
        tally.failed += bool(found)
        tally.problems += [f"{inst.label}: {p}" for p in found]
    found = workload.check_round(insts)
    tally.wrong += bool(found)
    tally.problems += found
    return total


def traced_run(kz, workload, seed: int, tally: Tally, untraced_s: float):
    """Set-up and one round again with the tracer on; per-layer metrics."""
    tracer = Tracer(kz)
    tracer.install()
    try:
        tracer.on = True
        insts = workload.setup(kz, seed)
        tracer.on = False
        traced_s = run_round(kz, workload, insts, tally, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.untraced_round_s"] = (untraced_s, "s")
    metrics["trace.traced_round_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def write_json(path: str, obj: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "koszulity", "__init__.py")):
        print(f"error: no koszulity sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = wl.WORKLOADS[args.workload]

    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        dt, kz, insts = setup(src, workload, args.seed)
        setups.append(dt)

    # whole rounds until the instances have taken --seconds (one round traced)
    tally = Tally()
    timed = run_round(kz, workload, insts, tally)
    while not args.trace and timed < args.seconds:
        timed += run_round(kz, workload, insts, tally)

    if args.trace:
        metrics = traced_run(kz, workload, args.seed, tally, timed)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "instances_per_s": (len(tally.durations) / timed, "1/s"),
            "instance_p50_s": (statistics.median(tally.durations), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for p in tally.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    kind = "trace" if args.trace else "result"
    write_json(os.path.join(OUT_DIR, f"{kind}-{args.workload}-{args.seed}.json"),
               dict(result, workload=args.workload, seed=args.seed, problems=tally.problems))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
