"""Command line front end: tor tables, Koszulity checks, model generators.

Inputs are JSON files (or "-" for stdin) holding either a quadratic
presentation ("relations" key) or a global symbol datum ("s_places" key).
All JSON output is canonical: sorted keys, no insignificant whitespace.

Exit codes for `check`: 0 all verdicts agree and the object is Koszul
through the bound, 1 all verdicts agree on non-Koszul, 2 parse/validator
error, 3 internal disagreement between verdicts, 4 internal error (an
uncaught exception, such as a failed d^2=0 check; every command).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import (SymmetryMode, degreewise_expand, presentation_from_json,
                      presentation_to_json)
from .graded import MonomialTruncation, pbw_verdict
from .graphs import algebra_verdict, graph_from_truncation
from .homology import koszul_scan, tor_algebra
from .models import (LocalCase, build_annihilator, build_global_general,
                     build_global_symplectic, build_noroot, datum_from_json,
                     datum_to_algebra, datum_to_json, local_presentation)

EXIT_OK = 0
EXIT_NON_KOSZUL = 1
EXIT_INPUT = 2
EXIT_DISAGREE = 3
EXIT_INTERNAL = 4


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class InputError(Exception):
    pass


def _read_json(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else open(path).read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(obj, dict):
        raise InputError("top-level JSON value must be an object")
    return obj


def _load_algebra(obj: dict, n_max: int):
    """Build the degreewise algebra from either input flavor."""
    try:
        if "s_places" in obj:
            datum = datum_from_json(obj)
            problems = datum.validate()
            if problems:
                raise InputError("invalid datum: " + "; ".join(problems))
            return datum_to_algebra(datum, n_max), datum
        if "relations" in obj:
            return degreewise_expand(presentation_from_json(obj), n_max), None
    except InputError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise InputError(f"malformed input: {e}") from e
    raise InputError("input must contain either 'relations' or 's_places'")


def _check_window(args) -> None:
    for flag in ("max_i", "max_j", "max_n"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise InputError(f"--{flag.replace('_', '-')} must be non-negative, got {value}")


def cmd_tor(args) -> int:
    _check_window(args)
    obj = _read_json(args.input)
    n_max = max(args.max_n or 0, args.max_j, 2)
    a, _ = _load_algebra(obj, n_max)
    table = tor_algebra(a, args.max_i, args.max_j, engine=args.engine)
    if args.format == "json":
        print(canonical_json(table.to_json()))
    else:
        print(table.to_text())
    return EXIT_OK


def cmd_check(args) -> int:
    _check_window(args)
    obj = _read_json(args.input)
    n_max = max(args.max_n or 0, args.max_j, 3)
    a, _ = _load_algebra(obj, n_max)
    bound_i, bound_j = args.max_i, args.max_j

    pbw = pbw_verdict(a)
    g = MonomialTruncation(a.order, a.mode, a.n_max, pbw.certificate)
    graph_applies = a.mode is SymmetryMode.SUPERCOMMUTATIVE \
        and a.dims[3:] == [0] * (a.n_max - 2)
    graph_koszul = None
    if graph_applies:
        t = graph_from_truncation(g)
        try:
            graph_koszul = algebra_verdict(t)
        except ValueError:
            graph_koszul = None  # loops: the criterion withholds its verdict

    table = tor_algebra(a, bound_i, bound_j)
    scan = koszul_scan(table)

    lines = [
        f"pbw: {'certified' if pbw.koszul else 'inconclusive'}",
        "graph: " + ("n/a" if graph_koszul is None
                     else ("koszul" if graph_koszul else "non-koszul")),
        f"homology[i<={bound_i},j<={bound_j}]: "
        + ("clean" if scan.koszul_through_bound
           else "offenders " + " ".join(f"({i},{j})={d}" for i, j, d in scan.offenders)),
    ]

    disagree = (pbw.koszul and not scan.koszul_through_bound) or \
        (graph_koszul is not None and graph_koszul != scan.koszul_through_bound)
    if disagree:
        verdict, code = "internal-disagreement", EXIT_DISAGREE
    elif scan.koszul_through_bound:
        verdict, code = "koszul", EXIT_OK
    else:
        verdict, code = "non-koszul", EXIT_NON_KOSZUL
    lines.append("agreement: " + ("DISAGREE" if disagree else "AGREE"))
    lines.append(f"verdict: {verdict}")
    if args.format == "json":
        print(canonical_json({
            "pbw_certified": pbw.koszul,
            "graph": graph_koszul,
            "homology_clean": scan.koszul_through_bound,
            "offenders": [list(o) for o in scan.offenders],
            "agreement": "DISAGREE" if disagree else "AGREE",
            "verdict": verdict,
        }))
    else:
        print("\n".join(lines))
    return code


def _parse_outside(s: str | None, default: str) -> tuple[int, ...]:
    s = default if s is None else s
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError as e:
        raise InputError(f"bad --outside value {s!r}") from e


_GEN_KINDS = {
    # positional generator kinds mapping onto --case spellings
    "local": None,  # case given by --case directly
    "global-symplectic": "global-symplectic",
    "global-general": "global-general",
    "annihilator": "global-annihilator",
    "noroot": "global-noroot",
}


def cmd_gen(args) -> int:
    case = args.case.replace("_", "-")
    if args.kind is not None:
        if args.kind not in _GEN_KINDS:
            raise InputError(f"unknown generator kind {args.kind!r}")
        if _GEN_KINDS[args.kind] is not None:
            case = _GEN_KINDS[args.kind]
    try:
        if case in ("symplectic", "two-zero", "two-nonzero", "noroot"):
            lc = LocalCase(case.replace("-", "_"), args.dim, args.l,
                           sqrt_minus1=args.sqrt_minus1)
            obj = presentation_to_json(local_presentation(lc))
        elif case == "global-symplectic":
            d, _ = build_global_symplectic(
                args.s_places, _parse_outside(args.outside, "1,1"), l=args.l,
                sqrt_minus1=args.sqrt_minus1, seed=args.seed)
            obj = datum_to_json(d)
        elif case == "global-general":
            d, _ = build_global_general(
                args.s_places, args.real_places, _parse_outside(args.outside, "1,1"),
                l=args.l, seed=args.seed)
            obj = datum_to_json(d)
        elif case == "global-annihilator":
            d, _ = build_annihilator(
                args.s_places, args.real_places, args.c_places,
                _parse_outside(args.outside, "1,1"), l=args.l, seed=args.seed)
            obj = datum_to_json(d)
        elif case in ("global-noroot", "global-noroot-annihilator"):
            variant = 1 if case == "global-noroot" else 2
            counts = _parse_outside(args.outside, "1")
            if len(counts) != 1:
                raise InputError(f"expected 1 outside place count (r) for {case}, "
                                 f"got {len(counts)}")
            num_r, = counts
            d, _ = build_noroot(args.s_places, num_r, l=args.l, seed=args.seed,
                                variant=variant, num_c_places=args.c_places)
            obj = datum_to_json(d)
        else:
            raise InputError(f"unknown case {args.case!r}")
    except (ValueError, RuntimeError) as e:
        raise InputError(str(e)) from e
    print(canonical_json(obj))
    return EXIT_OK


@functools.cache  # one parser per process: each parse_args makes a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="koszulity",
        description="Koszulity workbench for quadratic symbol algebras over F_l")
    sub = ap.add_subparsers(dest="command", required=True)

    tor = sub.add_parser("tor", help="print the Tor_{i,j}(k,k) table")
    tor.add_argument("input", help="presentation or datum JSON, '-' for stdin")
    tor.add_argument("--max-i", type=int, default=4)
    tor.add_argument("--max-j", type=int, default=4)
    tor.add_argument("--max-n", type=int, default=None,
                     help="truncation bound for the algebra expansion")
    tor.add_argument("--engine", choices=("auto", "bar", "resolution"), default="auto")
    tor.add_argument("--format", choices=("text", "json"), default="text")
    tor.set_defaults(func=cmd_tor)

    chk = sub.add_parser("check", help="run all Koszulity verdicts and compare")
    chk.add_argument("input", help="presentation or datum JSON, '-' for stdin")
    chk.add_argument("--max-i", type=int, default=4)
    chk.add_argument("--max-j", type=int, default=4)
    chk.add_argument("--max-n", type=int, default=None)
    chk.add_argument("--format", choices=("text", "json"), default="text")
    chk.set_defaults(func=cmd_check)

    gen = sub.add_parser("gen", help="generate a synthetic model as JSON")
    gen.add_argument("kind", nargs="?", default=None,
                     help="optional generator kind: local | global-symplectic | "
                          "global-general | annihilator | noroot")
    gen.add_argument("--case", default="symplectic",
                     help="symplectic | two_zero | two_nonzero | noroot | "
                          "global-symplectic | global-general | "
                          "global-annihilator | global-noroot[-annihilator]")
    gen.add_argument("--l", type=int, default=2)
    gen.add_argument("--dim", type=int, default=2, help="local generator dim")
    gen.add_argument("--s-places", type=int, default=2)
    gen.add_argument("--real-places", type=int, default=1)
    gen.add_argument("--outside", default=None,
                     help="outside place counts, comma-separated: two (q, r) for the "
                          "global kinds, default 1,1; one (r) for noroot, default 1")
    gen.add_argument("--c-places", type=int, default=1)
    gen.add_argument("--sqrt-minus1", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("json",), default="json")
    gen.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
