"""Per-layer counters and timers, recorded from outside the program.

The tracer replaces chosen public functions of `koszulity` by wrappers,
wherever a module holds them (a module that did `from .gf import rank`
holds its own reference), and restores them on `uninstall`.  Each wrapper
counts calls and, while tracing is on, times the call inclusive of its
callees.  Spans are kept on a stack so that a homology engine's self time
can leave out the time spent in the wrapped `gf`, `algebra` and `monomials`
calls it makes directly.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# Layers whose time is subtracted from an engine's span to give its self time.
CHILD_LAYERS = ("gf", "algebra", "monomials")

ENGINES = ("bar_tor_algebra", "bar_tor_module", "resolution_tor_algebra",
           "resolution_tor_module", "koszul_tor_module")

BUILDERS = ("build_local", "build_global_symplectic", "build_global_general",
            "build_annihilator", "build_noroot")


@dataclass
class Stat:
    calls: int = 0
    time_s: float = 0.0
    self_s: float = 0.0
    size: int = 0
    depth: int = 0


def _cells(a, *args, **kwargs) -> int:
    return int(a.size)


def _nnz(m, *args, **kwargs) -> int:
    return len(m.entries)


class Tracer:
    """Wraps the traced functions of one imported `koszulity` package."""

    def __init__(self, kz):
        self.kz = kz
        self.on = False
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []      # [time in child layers] per open call
        self._restore: list[tuple] = []   # (owner, attribute, original)

    # -------------------------------------------------------------- install

    def _targets(self):
        """(owner, attribute, stat name, layer, size function)."""
        kz = self.kz
        out = [
            (kz.gf, "rank", "gf.rank", "gf", _cells),
            (kz.gf, "sparse_rank", "gf.sparse_rank", "gf", _nnz),
            (kz.gf, "nullspace", "gf.nullspace", "gf", None),
            (kz.gf, "solve_combination", "gf.solve_combination", "gf", None),
            (kz.gf.RowSpan, "add", "gf.RowSpan.add", "gf", None),
            (kz.monomials, "mono_mul", "monomials.mono_mul", "monomials", None),
            (kz.algebra, "degreewise_expand", "algebra.degreewise_expand", "algebra", None),
            (kz.algebra.DegreewiseAlgebra, "mult_matrix", "algebra.mult_matrix", "algebra", None),
            (kz.algebra.DegreewiseAlgebra, "element_product", "algebra.element_product",
             "algebra", None),
            (kz.graded, "associated_graded", "graded.associated_graded", "graded", None),
            (kz.graded, "pbw_verdict", "graded.pbw_verdict", "graded", None),
            (kz.graphs, "graph_algebra", "graphs.graph_algebra", "graphs", None),
            (kz.graphs, "algebra_verdict", "graphs.verdicts", "graphs", None),
            (kz.graphs, "module_verdict", "graphs.verdicts", "graphs", None),
            (kz.symplectic, "lagrangian_transversal", "symplectic.lagrangian_transversal",
             "symplectic", None),
            (kz.models, "datum_to_algebra", "models.datum_to_algebra", "models", None),
            (kz.cli, "main", "cli.main", "cli", None),
        ]
        out += [(kz.models, b, "models.builders", "models", None) for b in BUILDERS]
        out += [(kz.homology, e, f"homology.{e}", "homology", None) for e in ENGINES]
        return out

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "koszulity" or name.startswith("koszulity."))]
        for owner, attr, name, layer, size in self._targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, layer, size)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # rebind the function in every module that holds it by name
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.on = False

    def _wrap(self, fn, name: str, layer: str, size):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stat.calls += 1
            if size is not None:
                stat.size += size(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stat.depth -= 1
                stack.pop()
                if stat.depth == 0:
                    stat.time_s += dt
                    stat.self_s += dt - frame[0]
                if stack and layer in CHILD_LAYERS:
                    stack[-1][0] += dt

        return wrapper

    # --------------------------------------------------------------- report

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {}

        def put(stat_name, field, unit, metric=None):
            out[metric or f"{stat_name}.{field}"] = (getattr(s[stat_name], field), unit)

        put("gf.rank", "calls", "count")
        put("gf.rank", "time_s", "s")
        put("gf.rank", "size", "count", "gf.rank.cells")
        put("gf.sparse_rank", "calls", "count")
        put("gf.sparse_rank", "time_s", "s")
        put("gf.sparse_rank", "size", "count", "gf.sparse_rank.nnz")
        for name in ("gf.nullspace", "gf.RowSpan.add", "gf.solve_combination",
                     "monomials.mono_mul", "algebra.degreewise_expand",
                     "algebra.mult_matrix", "graded.associated_graded", "cli.main"):
            put(name, "calls", "count")
            put(name, "time_s", "s")
        put("algebra.element_product", "calls", "count")
        for name in ("graded.pbw_verdict", "graphs.graph_algebra", "graphs.verdicts",
                     "symplectic.lagrangian_transversal", "models.builders",
                     "models.datum_to_algebra"):
            put(name, "time_s", "s")
        for e in ENGINES:
            put(f"homology.{e}", "calls", "count")
            put(f"homology.{e}", "self_s", "s")
        return out
