"""Command line interface: JSON in, JSON out, deterministic byte-for-byte.

Exit codes: 0 on success, 2 for invalid or inconsistent input (including
unreadable files and schema violations), 1 when an internal consistency
assertion fires.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio, selftest
from .errors import InputError, InternalCheckError, SchemaViolation
from .homology import (
    ComplexSpec,
    build_complex,
    duality_check,
    inclusion_induced,
    independence_carrier,
    mayer_vietoris,
    operator_action,
    simplicial_carrier,
)
from .hypergraphs import ClosureOp, CombineOp, closure, combine, join_hg, trace
from .invariance import invariant_trace, invariant_vertices
from .persistence import barcode, persistent_ranks
from .rings import ring_from_name
from .words import VertexSet


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path} is not valid JSON: {exc}") from None


def _load_hypergraph(path: str):
    return jsonio.hypergraph_from_json(_load_json(path))


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _ring(args):
    return ring_from_name(args.ring, args.p)


def _comma_list(text: str) -> list:
    return [part for part in text.split(",") if part]


CLOSURE_NAMES = {op.value: op for op in ClosureOp}


def cmd_closure(args) -> int:
    if args.op not in CLOSURE_NAMES:
        raise SchemaViolation(
            f"unknown closure operator {args.op!r}; expected one of "
            + ", ".join(sorted(CLOSURE_NAMES))
        )
    h = _load_hypergraph(args.file)
    _emit(jsonio.hypergraph_to_json(closure(h, CLOSURE_NAMES[args.op])))
    return 0


def cmd_combine(args) -> int:
    ops = {"intersect": CombineOp.INTERSECT, "union": CombineOp.UNION}
    if args.op not in ops:
        raise SchemaViolation("combine --op must be 'intersect' or 'union'")
    a = _load_hypergraph(args.left)
    b = _load_hypergraph(args.right)
    _emit(jsonio.hypergraph_to_json(combine(a, b, ops[args.op])))
    return 0


def cmd_join(args) -> int:
    a = _load_hypergraph(args.left)
    b = _load_hypergraph(args.right)
    _emit(jsonio.hypergraph_to_json(join_hg(a, b)))
    return 0


def cmd_trace(args) -> int:
    h = _load_hypergraph(args.file)
    _emit(jsonio.hypergraph_to_json(trace(h, _comma_list(args.vertices))))
    return 0


def cmd_classify(args) -> int:
    h = _load_hypergraph(args.file)
    _emit({"class": h.classify().value})
    return 0


def cmd_invariant_vertices(args) -> int:
    h = _load_hypergraph(args.file)
    verts = invariant_vertices(h, args.mode)
    _emit({"mode": args.mode, "vertices": [h.vertices.labels[v] for v in verts]})
    return 0


def cmd_invariant_trace(args) -> int:
    h = _load_hypergraph(args.file)
    rep = invariant_trace(h, args.mode)
    _emit(
        {
            "mode": rep.mode,
            "vertices": [h.vertices.labels[v] for v in rep.invariant_vertices],
            "trace": jsonio.hypergraph_to_json(rep.trace),
        }
    )
    return 0


def _homology_command(args, kind: str) -> int:
    h = _load_hypergraph(args.file)
    op = jsonio.operator_from_json(_load_json(args.operator), h.vertices)
    if op.kind != kind:
        raise SchemaViolation(
            f"this command needs a {kind!r} operator, got {op.kind!r}"
        )
    ring = _ring(args)
    make = simplicial_carrier if kind == "partial" else independence_carrier
    built = build_complex(ComplexSpec(make(h), op, args.q, ring))
    if args.n is not None:
        group = built.homology(args.n)
        _emit(jsonio.group_to_json(group.degree, group.presentation))
        return 0
    rows = [
        jsonio.group_to_json(g.degree, g.presentation)
        for g in (built.homology(n) for n in built.spec.degrees())
    ]
    _emit({"ring": str(ring), "q": built.spec.q, "groups": rows})
    return 0


def cmd_homology(args) -> int:
    return _homology_command(args, "partial")


def cmd_cohomology(args) -> int:
    return _homology_command(args, "d")


def _induced_map_json(m, ring) -> dict:
    return {
        "source_n": m.source_degree,
        "target_n": m.target_degree,
        "source_rank": m.source_rank,
        "target_rank": m.target_rank,
        "matrix": jsonio.matrix_to_json(m.matrix, ring),
    }


def cmd_act(args) -> int:
    h = _load_hypergraph(args.file)
    op = jsonio.operator_from_json(_load_json(args.operator), h.vertices)
    even = jsonio.operator_from_json(_load_json(args.even), h.vertices)
    ring = _ring(args)
    make = simplicial_carrier if op.kind == "partial" else independence_carrier
    spec = ComplexSpec(make(h), op, args.q, ring)
    maps = operator_action(spec, even)
    _emit({"maps": [_induced_map_json(maps[n], ring) for n in sorted(maps)]})
    return 0


def cmd_include(args) -> int:
    small = _load_hypergraph(args.left)
    large = _load_hypergraph(args.right)
    op = jsonio.operator_from_json(_load_json(args.operator), small.vertices)
    ring = _ring(args)
    maps = inclusion_induced(small, large, op, args.q, ring)
    if args.n is not None:
        if args.n not in maps:
            raise SchemaViolation(f"degree {args.n} is not on the grid")
        _emit(_induced_map_json(maps[args.n], ring))
        return 0
    _emit({"maps": [_induced_map_json(maps[n], ring) for n in sorted(maps)]})
    return 0


def cmd_duality(args) -> int:
    labels = _comma_list(args.vertices)
    vs = VertexSet(tuple(labels))
    if args.coeffs:
        coeffs = [jsonio.coefficient_from_json(c) for c in _comma_list(args.coeffs)]
    else:
        coeffs = [1] * len(vs)
    report = duality_check(vs, coeffs, args.q, args.max_degree)
    _emit(
        {
            "q": args.q,
            "max_degree": args.max_degree,
            "degrees": [
                {"n": n, "lowering": lo, "raising": hi, "equal": lo == hi}
                for n, lo, hi in report.degrees
            ],
            "all_equal": report.all_equal,
        }
    )
    return 0


def cmd_mv(args) -> int:
    a = _load_hypergraph(args.left)
    b = _load_hypergraph(args.right)
    op = jsonio.operator_from_json(_load_json(args.operator), a.vertices)
    ring = _ring(args)
    les = mayer_vietoris(a, b, op, args.q, ring)
    _emit(
        {
            "exact": les.all_exact,
            "nodes": [
                {"part": n.label, "n": n.degree, "rank": n.free_rank}
                for n in les.nodes
            ],
            "maps": [jsonio.matrix_to_json(m, ring) for m in les.maps],
            "junctions": [
                {"rank_in": rin, "nullity_out": nout, "exact": ok}
                for rin, nout, ok in les.junctions
            ],
        }
    )
    return 0


def cmd_persist(args) -> int:
    f = jsonio.filtration_from_json(_load_json(args.filtration))
    op = jsonio.operator_from_json(_load_json(args.operator), f.vertices)
    ring = _ring(args)
    pr = persistent_ranks(f, op, args.q, ring, args.n)
    _emit(
        {
            "n": pr.degree,
            "grid": [str(x) for x in pr.grid],
            "ranks": [
                {"from": str(pr.grid[i]), "to": str(pr.grid[j]), "rank": pr.rank(i, j)}
                for i in range(len(pr.grid))
                for j in range(i, len(pr.grid))
            ],
        }
    )
    return 0


def cmd_barcode(args) -> int:
    f = jsonio.filtration_from_json(_load_json(args.filtration))
    op = jsonio.operator_from_json(_load_json(args.operator), f.vertices)
    ring = _ring(args)
    bc = barcode(f, op, args.q, ring, args.n)
    _emit(
        {
            "n": bc.degree,
            "bars": [
                {
                    "birth": str(birth),
                    "death": "inf" if death is None else str(death),
                    "mult": mult,
                }
                for birth, death, mult in bc.bars
            ],
        }
    )
    return 0


def cmd_selftest(args) -> int:
    names = args.suite if args.suite else None
    for name in names or ():
        if name not in selftest.SUITES:
            raise SchemaViolation(
                f"unknown suite {name!r}; expected one of "
                + ", ".join(selftest.SUITES)
            )
    results = selftest.run_all(
        names, seed=args.seed, progress=lambda s: print(s, file=sys.stderr)
    )
    _emit(
        {
            "suites": [
                {"name": r.name, "cases": r.cases, "failures": r.failures,
                 **({"detail": r.detail} if r.detail else {})}
                for r in results
            ],
            "ok": all(r.ok for r in results),
        }
    )
    return 0 if all(r.ok for r in results) else 1


def _ring_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring", required=True, choices=["Z", "Q", "Fp"],
                   help="coefficient ring")
    p.add_argument("--p", type=int, default=None,
                   help="odd prime modulus for --ring Fp")
    p.add_argument("--q", type=int, default=0, help="degree offset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperhom",
        description="Exact (co)homology of simplicial complexes and "
        "independence hypergraphs, hypergraph closure algebra, and "
        "persistence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="apply a closure or complement operator")
    p.add_argument("--op", required=True,
                   help="Delta, delta, barDelta, bardelta, gamma, or Gamma")
    p.add_argument("file", help="hypergraph JSON file")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("combine", help="intersect or union two hypergraphs")
    p.add_argument("--op", required=True, help="intersect or union")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(fn=cmd_combine)

    p = sub.add_parser("join", help="join two hypergraphs on disjoint vertices")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(fn=cmd_join)

    p = sub.add_parser("trace", help="restrict a hypergraph onto a vertex subset")
    p.add_argument("--vertices", required=True, help="comma separated labels")
    p.add_argument("file")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("classify", help="closure class of a hypergraph")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("invariant-vertices", help="derivation-invariant vertices")
    p.add_argument("--mode", required=True, choices=["partial", "d"])
    p.add_argument("file")
    p.set_defaults(fn=cmd_invariant_vertices)

    p = sub.add_parser("invariant-trace", help="trace onto the invariant vertices")
    p.add_argument("--mode", required=True, choices=["partial", "d"])
    p.add_argument("file")
    p.set_defaults(fn=cmd_invariant_trace)

    p = sub.add_parser("homology", help="constrained homology of a simplicial complex")
    p.add_argument("--operator", required=True, help="operator JSON file")
    _ring_flags(p)
    p.add_argument("--n", type=int, default=None, help="single degree to report")
    p.add_argument("file")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("cohomology",
                       help="constrained cohomology of an independence hypergraph")
    p.add_argument("--operator", required=True)
    _ring_flags(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("file")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("act", help="even wedge operator action on (co)homology")
    p.add_argument("--operator", required=True, help="odd operator JSON file")
    p.add_argument("--even", required=True, help="even operator JSON file")
    _ring_flags(p)
    p.add_argument("file")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("include", help="inclusion-induced maps on (co)homology")
    p.add_argument("--left", required=True, help="smaller hypergraph JSON")
    p.add_argument("--right", required=True, help="larger hypergraph JSON")
    p.add_argument("--operator", required=True)
    _ring_flags(p)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_include)

    p = sub.add_parser("duality",
                       help="Betti comparison of the two weighted word complexes")
    p.add_argument("--vertices", required=True, help="comma separated labels")
    p.add_argument("--coeffs", default=None,
                   help="comma separated rational weights, default all ones")
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    p.set_defaults(fn=cmd_duality)

    p = sub.add_parser("mv", help="Mayer-Vietoris long exact sequence")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--operator", required=True)
    _ring_flags(p)
    p.set_defaults(fn=cmd_mv)

    p = sub.add_parser("persist", help="persistent rank grid of a filtration")
    p.add_argument("--filtration", required=True)
    p.add_argument("--operator", required=True)
    _ring_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_persist)

    p = sub.add_parser("barcode", help="barcode of a filtration")
    p.add_argument("--filtration", required=True)
    p.add_argument("--operator", required=True)
    _ring_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_barcode)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--suite", action="append", default=None,
                   help="run only the named suite (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 2
    except InternalCheckError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
