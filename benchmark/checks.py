"""Correctness checks on the benchmark's outputs.

Each check takes plain data (Tor tables as {(i, j): dim} dicts, Hilbert
functions as lists, verdicts as booleans or parsed JSON) and returns a list
of problems; an empty list means the output passed.  The right-hand sides
come from properties the mathematics requires, computed here from the
dimensions, and never from the code being timed or from stored output.
"""

from __future__ import annotations


def inverse_series(h: list[int], n: int) -> list[int]:
    """The first n+1 coefficients of 1/h(t) for a series with h[0] = 1."""
    if not h or h[0] != 1:
        raise ValueError("the series must start with 1")
    inv = [0] * (n + 1)
    inv[0] = 1
    for j in range(1, n + 1):
        inv[j] = -sum(h[k] * inv[j - k] for k in range(1, min(j, len(h) - 1) + 1))
    return inv


def series_product(f: list[int], g: list[int], n: int) -> list[int]:
    return [sum(f[k] * g[j - k] for k in range(j + 1) if k < len(f) and j - k < len(g))
            for j in range(n + 1)]


def euler_hilbert(dims: dict[tuple[int, int], int], i_max: int, j_max: int,
                  h_a: list[int], h_m: list[int] | None = None) -> list[str]:
    """Sum_i (-1)^i dim H_{i,j} = [t^j] h_M(t)/h_A(t) in each degree j.

    With h_m None the table is Tor of the algebra (h_M = 1) and needs
    i_max >= j_max; a module table needs i_max >= j_max - 1, since its
    entries vanish for i >= j.
    """
    need = j_max if h_m is None else j_max - 1
    if i_max < need:
        return [f"i_max {i_max} is below {need}: the identity needs every i"]
    rhs = inverse_series(h_a, j_max)
    if h_m is not None:
        rhs = series_product(list(h_m), rhs, j_max)
    problems = []
    for j in range(j_max + 1):
        lhs = sum((-1) ** i * dims.get((i, j), 0) for i in range(min(i_max, j) + 1))
        if lhs != rhs[j]:
            problems.append(f"Euler-Hilbert fails at j={j}: {lhs} != {rhs[j]}")
    return problems


def off_strand(dims: dict[tuple[int, int], int], module: bool) -> list[tuple[int, int, int]]:
    """Nonzero entries off the diagonal i = j (algebra) or i = j-1 (module)."""
    shift = 1 if module else 0
    return sorted((i, j, d) for (i, j), d in dims.items() if d and i != j - shift)


def graph_criterion(alg_dims, mod_dims, alg_verdict: bool, mod_verdict: bool) -> list[str]:
    """The homology verdicts must equal the graph criteria (no triangle,
    acyclic), computed by `graphs` without homology."""
    problems = []
    if (not off_strand(alg_dims, False)) != alg_verdict:
        problems.append(f"algebra: homology says {not off_strand(alg_dims, False)}, "
                        f"graph criterion says {alg_verdict}")
    if (not off_strand(mod_dims, True)) != mod_verdict:
        problems.append(f"module: homology says {not off_strand(mod_dims, True)}, "
                        f"graph criterion says {mod_verdict}")
    return problems


def quadratic_table(dims: dict[tuple[int, int], int], j_max: int, h_a: list[int]) -> list[str]:
    """H_{1,1} = n, H_{2,2} = n^2 - dim A_2, and nothing else in rows 1 and 2,
    for a quadratic algebra with n = dim A_1."""
    n = h_a[1]
    problems = []
    if dims.get((1, 1), 0) != n:
        problems.append(f"H_(1,1) = {dims.get((1, 1), 0)}, want {n}")
    if dims.get((2, 2), 0) != n * n - h_a[2]:
        problems.append(f"H_(2,2) = {dims.get((2, 2), 0)}, want {n * n - h_a[2]}")
    for i in (1, 2):
        for j in range(j_max + 1):
            if j != i and dims.get((i, j), 0):
                problems.append(f"H_({i},{j}) = {dims[(i, j)]}, want 0 off the diagonal")
    return problems


def same_table(dims, other, label: str) -> list[str]:
    a = {k: v for k, v in dims.items() if v}
    b = {k: v for k, v in other.items() if v}
    return [] if a == b else [f"table differs from the {label}: {a} != {b}"]


def check_result(code: int, result: dict) -> list[str]:
    """`koszulity check` must report an agreed Koszul verdict (exit 0)."""
    problems = []
    if code != 0:
        problems.append(f"check exited {code}, want 0")
    if result.get("verdict") != "koszul":
        problems.append(f"check verdict {result.get('verdict')!r}, want 'koszul'")
    if result.get("agreement") != "AGREE":
        problems.append(f"check agreement {result.get('agreement')!r}, want 'AGREE'")
    return problems


def module_strand(dims: dict[tuple[int, int], int], label: str) -> list[str]:
    bad = off_strand(dims, True)
    return [f"{label}: entries off the strand i = j-1: {bad}"] if bad else []
