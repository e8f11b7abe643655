"""The benchmark's three workloads.

A workload builds its inputs from a seed (`setup`), and then runs rounds:
one round is the same fixed list of instances every time.  `run` computes
one instance and is the only timed call; `check` verifies its output
against `checks` and returns the problems found.  Inputs are deep-copied
before every instance, so that caches the program keeps on its objects
(multiplication matrices, word bases) never carry over from one instance
or round to the next.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass, field

import numpy as np

import checks

BOUND = 5  # homology window i, j <= 5 and truncation n_max = 5


@dataclass
class Instance:
    label: str
    data: dict = field(default_factory=dict)


def fresh(inst: Instance) -> dict:
    return copy.deepcopy(inst.data)


def interleave(insts: list[Instance], name: str) -> list[Instance]:
    """The round's instances in a fixed shuffled order, the same for every
    seed, so that each kind of instance is timed all through the run and
    not in one stretch of it."""
    out = list(insts)
    random.Random(f"{name}:order").shuffle(out)
    return out


# ------------------------------------------------------------- graph sweep


class GraphSweep:
    """Every loop-free graph on 4 vertices, plus one seeded 5-vertex graph
    per edge count 0..10, at l = 2 and bound 5."""

    name = "graph-sweep"

    def setup(self, kz, seed: int) -> list[Instance]:
        fld = kz.gf.PrimeField(2)
        rng = random.Random(f"graph-sweep:{seed}")
        out = []
        for nv in (4, 5):
            order = kz.monomials.GeneratorOrder(tuple(f"x{i}" for i in range(nv)))
            lam = kz.algebra.free_algebra(fld, kz.algebra.SymmetryMode.SUPERCOMMUTATIVE,
                                          order, BOUND)
            if nv == 4:
                graphs = list(kz.graphs.all_graphs(4))
            else:
                pairs = list(itertools.combinations(range(nv), 2))
                graphs = [kz.graphs.QuadGraph.build(order.names, rng.sample(pairs, k))
                          for k in range(len(pairs) + 1)]
            for t in graphs:
                a = kz.graphs.graph_algebra(t, fld, n_max=BOUND)
                edges = sorted(tuple(sorted(e)) for e in t.edges)
                out.append(Instance(f"{nv}v:{edges}", {"t": t, "a": a, "lam": lam}))
        return interleave(out, self.name)

    def run(self, kz, d: dict) -> dict:
        a, lam, t = d["a"], d["lam"], d["t"]
        ta = kz.homology.tor_algebra(a, BOUND, BOUND)
        m = kz.algebra.augmentation_module(a, lam)
        tm = kz.homology.tor_module(lam, m, BOUND, BOUND)
        return {"alg": ta.dims, "mod": tm.dims,
                "alg_verdict": kz.graphs.algebra_verdict(t),
                "mod_verdict": kz.graphs.module_verdict(t),
                "h_a": list(a.dims), "h_lam": list(lam.dims), "h_m": list(m.dims)}

    def check(self, kz, d: dict, out: dict) -> list[str]:
        return (checks.euler_hilbert(out["alg"], BOUND, BOUND, out["h_a"])
                + checks.euler_hilbert(out["mod"], BOUND, BOUND, out["h_lam"], out["h_m"])
                + checks.graph_criterion(out["alg"], out["mod"],
                                         out["alg_verdict"], out["mod_verdict"]))

    def check_round(self, insts: list[Instance]) -> list[str]:
        four = {i.label for i in insts if i.label.startswith("4v:")}
        return [] if len(four) == 64 else [f"{len(four)} distinct 4-vertex graphs, want 64"]


# --------------------------------------------------------------- dense Tor

# (generators, relations, mode, l, generic Hilbert function through degree
# 5, draws per round).  A seeded draw whose Hilbert function differs is
# redrawn, so the work per instance is the same for every seed.  The draw
# counts put as many instances below the 3-generator, l = 5 shape as above
# it, so the median instance is the middle one of its nine draws.
DENSE_SHAPES = (
    (3, 1, "super", 3, [1, 3, 2, 0, 0, 0], 2),
    (3, 2, "comm", 2, [1, 3, 4, 4, 4, 4], 2),
    (3, 1, "comm", 5, [1, 3, 5, 7, 9, 11], 9),
    (4, 3, "super", 2, [1, 4, 3, 0, 0, 0], 2),
    (5, 8, "super", 5, [1, 5, 2, 0, 0, 0], 1),
    (4, 3, "comm", 3, [1, 4, 7, 8, 8, 8], 1),
)


def random_presentation(kz, n: int, r: int, mode: str, l: int, rng):
    """r relations with uniformly random coefficients mod l."""
    order = kz.monomials.GeneratorOrder(tuple(f"x{i}" for i in range(n)))
    sym = kz.algebra.SymmetryMode(mode)
    nq = len(kz.algebra.normal_monomials(order, 2, sym))
    rel = rng.integers(0, l, size=(r, nq))
    return kz.algebra.QuadraticPresentation(kz.gf.PrimeField(l), sym, order, rel)


class DenseTor:
    """Seeded generic non-monomial quadratic algebras of fixed shapes."""

    name = "dense-tor"

    def setup(self, kz, seed: int) -> list[Instance]:
        out = []
        for k, (n, r, mode, l, hilbert, draws) in enumerate(DENSE_SHAPES):
            rng = np.random.default_rng([seed, k])
            for draw in range(draws):
                while True:
                    pres = random_presentation(kz, n, r, mode, l, rng)
                    if pres.relations.shape[0] != r:
                        continue
                    a = kz.algebra.degreewise_expand(pres, BOUND)
                    if list(a.dims) == hilbert:
                        break
                out.append(Instance(f"n={n} r={r} {mode} l={l} #{draw}", {"a": a}))
        return interleave(out, self.name)

    def run(self, kz, d: dict) -> dict:
        return {"alg": kz.homology.tor_algebra(d["a"], BOUND, BOUND).dims}

    def check(self, kz, d: dict, out: dict) -> list[str]:
        h_a = list(d["a"].dims)
        ref = kz.homology.tor_algebra(d["a"], BOUND, BOUND, engine="resolution").dims
        return (checks.euler_hilbert(out["alg"], BOUND, BOUND, h_a)
                + checks.quadratic_table(out["alg"], BOUND, h_a)
                + checks.same_table(out["alg"], ref, "resolution engine"))

    def check_round(self, insts: list[Instance]) -> list[str]:
        return []


# ------------------------------------------------------------ paper models

LOCAL_DIMS = {"symplectic": (2, 4), "two_zero": (2, 4), "two_nonzero": (3, 5),
              "noroot": (1, 2)}

# `gen` arguments of each global kind and the Hilbert function through
# degree 5 that most of its seeds give.  The builders' random choices change
# the number of generators for some seeds, and with it the work; a seed whose
# model has another Hilbert function is passed over.
# The model counts put as many instances below the global-general models as
# above them, so the median instance is the middle one of those seven.
GLOBAL_KINDS = (
    (["global-symplectic", "--l", "3", "--s-places", "3", "--outside", "2,2"],
     [1, 9, 8, 0, 0, 0], 2),
    (["global-general", "--l", "2", "--s-places", "2", "--real-places", "1"],
     [1, 6, 5, 1, 1, 1], 7),
    (["annihilator", "--l", "2", "--s-places", "3", "--real-places", "1"],
     [1, 7, 6, 1, 1, 1], 2),
    (["noroot", "--l", "3", "--s-places", "2", "--outside", "1"],
     [1, 7, 3, 0, 0, 0], 2),
)
SPARE_SEEDS = 4


class PaperModels:
    """Every `gen` kind: the four local cases at both admissible dimensions
    (odd l seeded), and each global kind at seeded `--seed` values."""

    name = "paper-models"

    def setup(self, kz, seed: int) -> list[Instance]:
        rng = random.Random(f"paper-models:{seed}")
        out = []
        for case, dims in LOCAL_DIMS.items():
            for dim in dims:
                l = 2 if case.startswith("two") else rng.choice((3, 5))
                argv = ["gen", "local", "--case", case, "--dim", str(dim), "--l", str(l)]
                out.append(Instance(f"local {case} dim={dim} l={l}",
                                    {"argv": argv, "case": (case, dim, l)}))
        for args, hilbert, count in GLOBAL_KINDS:
            # try the same number of seeds whatever --seed is, so that the
            # set-up work does not depend on it (more only if too few pass)
            found, tried = [], 0
            while tried < count + SPARE_SEEDS or len(found) < count:
                argv = ["gen"] + args + ["--seed", str(rng.randrange(10 ** 6))]
                tried += 1
                code, text = self._cli(kz, argv)
                if code != 0:
                    continue
                datum = kz.models.datum_from_json(json.loads(text))
                if list(kz.models.datum_to_algebra(datum, BOUND).dims) == hilbert:
                    found.append(argv)
            out += [Instance(f"{args[0]} {argv[-1]}", {"argv": argv, "case": None})
                    for argv in found[:count]]
        return interleave(out, self.name)

    @staticmethod
    def _cli(kz, argv: list[str], stdin: str = "") -> tuple[int, str]:
        buf, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(buf):
                code = kz.cli.main(argv)
        finally:
            sys.stdin = saved
        return code, buf.getvalue()

    def run(self, kz, d: dict) -> dict:
        code, text = self._cli(kz, d["argv"])
        if code != 0:
            return {"gen_code": code}
        check_code, check_out = self._cli(kz, ["check", "-", "--format", "json"], text)
        obj = json.loads(text)
        sym = kz.algebra.SymmetryMode
        if "relations" in obj:
            a = kz.algebra.degreewise_expand(kz.algebra.presentation_from_json(obj), BOUND)
        else:
            a = kz.models.datum_to_algebra(kz.models.datum_from_json(obj), BOUND)
        out = {"gen_code": code, "check_code": check_code, "check_out": check_out,
               "h_a": list(a.dims)}
        cover = None
        if a.mode is sym.SUPERCOMMUTATIVE:
            cover = kz.algebra.free_algebra(a.fld, sym.SUPERCOMMUTATIVE, a.order, BOUND)
        elif d["case"] is not None:
            case = kz.models.LocalCase(*d["case"])
            cover = kz.algebra.degreewise_expand(kz.models.build_local(case, BOUND)[1], BOUND)
        if cover is not None:
            m = kz.algebra.augmentation_module(a, cover)
            out["plus"] = kz.homology.tor_module(cover, m, BOUND, BOUND).dims
            out["h_cover"], out["h_plus"] = list(cover.dims), list(m.dims)
        c = None
        if d["case"] is not None:
            c = kz.models.local_annihilator_choices(kz.models.LocalCase(*d["case"]))[0][1]
        elif d["argv"][1] == "annihilator":
            c = np.eye(a.dims[1], dtype=np.int64)[0]
        if c is not None:
            ideal = kz.algebra.ideal_module(a, c)
            out["ideal"] = kz.homology.tor_module(a, ideal, BOUND, BOUND).dims
            out["h_ideal"] = list(ideal.dims)
        return out

    def check(self, kz, d: dict, out: dict) -> list[str]:
        if out["gen_code"] != 0:
            return [f"gen exited {out['gen_code']}"]
        try:
            result = json.loads(out["check_out"])
        except json.JSONDecodeError:
            result = {}
        problems = checks.check_result(out["check_code"], result)
        if "plus" in out:
            problems += checks.module_strand(out["plus"], "A_+")
            problems += checks.euler_hilbert(out["plus"], BOUND, BOUND,
                                             out["h_cover"], out["h_plus"])
        if "ideal" in out:
            problems += checks.module_strand(out["ideal"], "(c)")
            problems += checks.euler_hilbert(out["ideal"], BOUND, BOUND,
                                             out["h_a"], out["h_ideal"])
        return problems

    def check_round(self, insts: list[Instance]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (GraphSweep(), DenseTor(), PaperModels())}
