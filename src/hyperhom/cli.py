"""Command line interface: JSON in, JSON out, deterministic byte-for-byte.

Each command is one row of `COMMANDS`: its name, help text, handler and
arguments. A handler takes the parsed arguments and returns the JSON
document that `main` prints.

`main` reads a plain command line straight from the command's row: the
name, then options by their exact long names (`--opt value` or
`--opt=value`) and positionals, with each row's types, choices, appends,
required flags and defaults, into the namespace argparse would give.
Every other line (help, an unknown or abbreviated flag, a missing or
extra argument, a bad int or choice, a token starting with '-' that is
no exact option, a value of exactly '--') goes to the argparse parser of
`build_parser`, which alone writes help and argv-error text; argparse is
imported, and the parser built, only then. An argv item that is not a
string is bad input, refused before either reader runs.

Exit codes: 0 on success, 2 for invalid or inconsistent input (including
unreadable files and schema violations), 1 when an internal consistency
assertion fires or a selftest suite fails.
"""

from __future__ import annotations

import functools
import json
import sys
import types

from . import jsonio
from .errors import InputError, InternalCheckError, SchemaViolation
from .homology import (
    ComplexSpec,
    build_complex,
    duality_check,
    edge_carrier,
    inclusion_induced,
    mayer_vietoris,
    operator_action,
)
from .hypergraphs import ClosureOp, CombineOp, closure, combine, join_hg, trace
from .invariance import invariant_trace, invariant_vertices
from .persistence import barcode, persistent_ranks
from .rings import Ring
from .words import VertexSet


def _load_json(path: str):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(jsonio.MAX_DIGITS)  # `main` lifts the bound for answers only
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaViolation(f"{path} nests too deeply to parse") from None
    except ValueError:  # the bound on int(str) refused an integer
        raise SchemaViolation(
            f"{path} holds an integer of more than {jsonio.MAX_DIGITS} digits") from None
    finally:
        sys.set_int_max_str_digits(limit)


def _load_hypergraph(path: str):
    return jsonio.hypergraph_from_json(_load_json(path))


def _load_filtration(path: str):
    return jsonio.filtration_from_json(_load_json(path))


def _load_operator(path: str, vertices):
    return jsonio.operator_from_json(_load_json(path), vertices)


def _inputs(args, *names, load=_load_hypergraph, kind=None) -> list:
    """The documents in the files named by the options `names`, the
    `--operator` on the first one's vertices (of family `kind`, when
    given) and the ring, read in that order: the first bad input is the
    one reported."""
    docs = [load(getattr(args, name)) for name in names]
    op = _load_operator(args.operator, docs[0].vertices)
    if kind is not None and op.kind != kind:
        raise SchemaViolation(
            f"this command needs a {kind!r} operator, got {op.kind!r}"
        )
    return [*docs, op, Ring(args.ring, args.p)]


def _comma_list(text: str) -> list:
    """Every comma-separated slot, an empty one the label ""; an empty
    value has no slots."""
    return text.split(",") if text else []


CLOSURE_NAMES = {op.value: op for op in ClosureOp}


def cmd_closure(args) -> dict:
    if args.op not in CLOSURE_NAMES:
        raise SchemaViolation(
            f"unknown closure operator {args.op!r}; expected one of "
            + ", ".join(sorted(CLOSURE_NAMES))
        )
    h = _load_hypergraph(args.file)
    return jsonio.hypergraph_to_json(closure(h, CLOSURE_NAMES[args.op]))


def cmd_combine(args) -> dict:
    ops = {"intersect": CombineOp.INTERSECT, "union": CombineOp.UNION}
    if args.op not in ops:
        raise SchemaViolation("combine --op must be 'intersect' or 'union'")
    a = _load_hypergraph(args.left)
    b = _load_hypergraph(args.right)
    return jsonio.hypergraph_to_json(combine(a, b, ops[args.op]))


def cmd_join(args) -> dict:
    a = _load_hypergraph(args.left)
    b = _load_hypergraph(args.right)
    return jsonio.hypergraph_to_json(join_hg(a, b))


def cmd_trace(args) -> dict:
    h = _load_hypergraph(args.file)
    return jsonio.hypergraph_to_json(trace(h, _comma_list(args.vertices)))


def cmd_classify(args) -> dict:
    return {"class": _load_hypergraph(args.file).classify().value}


def cmd_invariant_vertices(args) -> dict:
    h = _load_hypergraph(args.file)
    verts = invariant_vertices(h, args.mode)
    return {"mode": args.mode, "vertices": [h.vertices.labels[v] for v in verts]}


def cmd_invariant_trace(args) -> dict:
    h = _load_hypergraph(args.file)
    rep = invariant_trace(h, args.mode)
    return {
        "mode": rep.mode,
        "vertices": [h.vertices.labels[v] for v in rep.invariant_vertices],
        "trace": jsonio.hypergraph_to_json(rep.trace),
    }


def _homology_command(args, kind: str) -> dict:
    h, op, ring = _inputs(args, "file", kind=kind)
    built = build_complex(ComplexSpec(edge_carrier(h), op, args.q, ring))
    if args.n is not None:
        group = built.homology(args.n)
        return jsonio.group_to_json(group.degree, group.presentation)
    rows = [jsonio.group_to_json(g.degree, g.presentation) for g in built.table()]
    return {"ring": str(ring), "q": built.spec.q, "groups": rows}


def cmd_homology(args) -> dict:
    return _homology_command(args, "partial")


def cmd_cohomology(args) -> dict:
    return _homology_command(args, "d")


def _induced_map_json(m) -> dict:
    return {
        "source_n": m.source_degree,
        "target_n": m.target_degree,
        "source_rank": m.source_rank,
        "target_rank": m.target_rank,
        "matrix": jsonio.matrix_to_json(m.matrix),
    }


def _maps_json(maps: dict) -> dict:
    return {"maps": [_induced_map_json(maps[n]) for n in sorted(maps)]}


def cmd_act(args) -> dict:
    h = _load_hypergraph(args.file)
    op = _load_operator(args.operator, h.vertices)
    even = _load_operator(args.even, h.vertices)
    spec = ComplexSpec(edge_carrier(h), op, args.q, Ring(args.ring, args.p))
    return _maps_json(operator_action(spec, even))


def cmd_include(args) -> dict:
    small, large, op, ring = _inputs(args, "left", "right")
    maps = inclusion_induced(small, large, op, args.q, ring, args.n)
    return _maps_json(maps) if args.n is None else _induced_map_json(maps[args.n])


def cmd_duality(args) -> dict:
    labels = _comma_list(args.vertices)
    vs = VertexSet(tuple(labels))
    if args.coeffs:
        coeffs = [jsonio.coefficient_from_json(c) for c in args.coeffs.split(",")]
    else:
        coeffs = [1] * len(vs)
    report = duality_check(vs, coeffs, args.q, args.max_degree)
    return {
        "q": args.q,
        "max_degree": args.max_degree,
        "degrees": [
            {"n": n, "lowering": lo, "raising": hi, "equal": lo == hi}
            for n, lo, hi in report.degrees
        ],
        "all_equal": report.all_equal,
    }


def cmd_mv(args) -> dict:
    a, b, op, ring = _inputs(args, "left", "right")
    les = mayer_vietoris(a, b, op, args.q, ring)
    return {
        "exact": les.all_exact,
        "nodes": [
            {"part": n.label, "n": n.degree, "rank": n.free_rank}
            for n in les.nodes
        ],
        "maps": [jsonio.matrix_to_json(m) for m in les.maps],
        "junctions": [
            {"rank_in": rin, "nullity_out": nout, "exact": ok}
            for rin, nout, ok in les.junctions
        ],
    }


def cmd_persist(args) -> dict:
    f, op, ring = _inputs(args, "filtration", load=_load_filtration)
    pr = persistent_ranks(f, op, args.q, ring, args.n)
    grid = [str(x) for x in pr.grid]
    return {
        "n": pr.degree,
        "grid": grid,
        "ranks": [
            {"from": grid[i], "to": grid[j], "rank": pr.ranks[i, j]}
            for i in range(len(grid)) for j in range(i, len(grid))
        ],
    }


def cmd_barcode(args) -> dict:
    f, op, ring = _inputs(args, "filtration", load=_load_filtration)
    bc = barcode(f, op, args.q, ring, args.n)
    return {
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


def cmd_selftest(args) -> dict:
    from . import selftest  # only this command runs the suites

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
    return {
        "suites": [
            {"name": r.name, "cases": r.cases, "failures": r.failures,
             **({"detail": r.detail} if r.detail else {})}
            for r in results
        ],
        "ok": all(r.ok for r in results),
    }


# One entry per argument, as (flag or name, add_argument options), in the
# order that the usage line and the missing-argument error list them.
FILE = ("file", {})
LEFT = ("--left", {"required": True})
RIGHT = ("--right", {"required": True})
OPERATOR = ("--operator", {"required": True})
FILTRATION = ("--filtration", {"required": True})
MODE = ("--mode", {"required": True, "choices": ["partial", "d"]})
DEGREE = ("--n", {"type": int})
GRID_DEGREE = ("--n", {"type": int, "required": True})
RING = [
    ("--ring", {"required": True, "choices": ["Z", "Q", "Fp"], "help": "coefficient ring"}),
    ("--p", {"type": int, "help": "odd prime modulus for --ring Fp"}),
    ("--q", {"type": int, "default": 0, "help": "degree offset"}),
]

# name, help, handler, arguments
COMMANDS = [
    ("closure", "apply a closure or complement operator", cmd_closure, [
        ("--op", {"required": True,
                  "help": "Delta, delta, barDelta, bardelta, gamma, or Gamma"}),
        ("file", {"help": "hypergraph JSON file"})]),
    ("combine", "intersect or union two hypergraphs", cmd_combine, [
        ("--op", {"required": True, "help": "intersect or union"}), LEFT, RIGHT]),
    ("join", "join two hypergraphs on disjoint vertices", cmd_join, [LEFT, RIGHT]),
    ("trace", "restrict a hypergraph onto a vertex subset", cmd_trace, [
        ("--vertices", {"required": True, "help": "comma separated labels"}), FILE]),
    ("classify", "closure class of a hypergraph", cmd_classify, [FILE]),
    ("invariant-vertices", "derivation-invariant vertices", cmd_invariant_vertices,
     [MODE, FILE]),
    ("invariant-trace", "trace onto the invariant vertices", cmd_invariant_trace,
     [MODE, FILE]),
    ("homology", "constrained homology of a simplicial complex", cmd_homology, [
        ("--operator", {"required": True, "help": "operator JSON file"}), *RING,
        ("--n", {"type": int, "help": "single degree to report"}), FILE]),
    ("cohomology", "constrained cohomology of an independence hypergraph", cmd_cohomology,
     [OPERATOR, *RING, DEGREE, FILE]),
    ("act", "even wedge operator action on (co)homology", cmd_act, [
        ("--operator", {"required": True, "help": "odd operator JSON file"}),
        ("--even", {"required": True, "help": "even operator JSON file"}), *RING, FILE]),
    ("include", "inclusion-induced maps on (co)homology", cmd_include, [
        ("--left", {"required": True, "help": "smaller hypergraph JSON"}),
        ("--right", {"required": True, "help": "larger hypergraph JSON"}),
        OPERATOR, *RING, DEGREE]),
    ("duality", "Betti comparison of the two weighted word complexes", cmd_duality, [
        ("--vertices", {"required": True, "help": "comma separated labels"}),
        ("--coeffs", {"help": "comma separated rational weights, default all ones"}),
        ("--q", {"type": int, "default": 0}),
        ("--max-degree", {"type": int, "required": True})]),
    ("mv", "Mayer-Vietoris long exact sequence", cmd_mv, [LEFT, RIGHT, OPERATOR, *RING]),
    ("persist", "persistent rank grid of a filtration", cmd_persist,
     [FILTRATION, OPERATOR, *RING, GRID_DEGREE]),
    ("barcode", "barcode of a filtration", cmd_barcode,
     [FILTRATION, OPERATOR, *RING, GRID_DEGREE]),
    ("selftest", "run the property suites", cmd_selftest, [
        ("--suite", {"action": "append",
                     "help": "run only the named suite (repeatable)"}),
        ("--seed", {"type": int, "default": 0})]),
]


def build_parser():
    """The argparse parser: the only producer of help and argv-error text.
    A bad argv (an unknown flag, a missing option, a bad int or choice)
    raises SchemaViolation, so that it gets one error document and exit 2
    like any other bad input."""
    import argparse  # only help and argv errors come here

    class Parser(argparse.ArgumentParser):  # subparsers are built from it too
        def error(self, message):
            raise SchemaViolation(message)

    parser = Parser(
        prog="hyperhom",
        description="Exact (co)homology of simplicial complexes and "
        "independence hypergraphs, hypergraph closure algebra, and "
        "persistence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(fn=handler)
    return parser


def _check_option_values(args) -> None:
    """argparse in Python 3.11 reads an option value of exactly '--' (as in
    `--vertices=--`) as an empty list instead of a string; reject it."""
    for name, value in vars(args).items():
        if isinstance(value, list) and (not value or any(isinstance(v, list) for v in value)):
            raise SchemaViolation(f"option --{name.replace('_', '-')} needs one value")


@functools.cache
def _parser():
    """The parser, built once per process: parsing keeps no state in it."""
    return build_parser()


_ROWS = {name: (handler, arguments) for name, _, handler, arguments in COMMANDS}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _plain_args(argv: list):
    """The arguments of a plain command line, read straight from its
    `COMMANDS` row, as argparse would read them; None for anything else.

    Plain is: a command name, then options by their exact long names
    (`--opt value` or `--opt=value`) and the row's positionals, in any
    order, each option value passing the row's `type` and `choices`, and
    every required argument given. Any other token starting with '-' (a
    prefix, `-h`, a negative number, `--`) and a value of exactly '--'
    leave the whole line to argparse, which alone writes help and argv
    errors."""
    row = _ROWS.get(argv[0]) if argv else None
    if row is None:
        return None
    handler, arguments = row
    flags = {flag: options for flag, options in arguments if flag.startswith("-")}
    names = [flag for flag, _ in arguments if not flag.startswith("-")]
    values = {"command": argv[0], "fn": handler}
    values.update((_dest(flag), options.get("default")) for flag, options in flags.items())
    given, seen = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        flag, eq, value = token.partition("=")
        options = flags.get(flag)
        if options is None or value == "--":
            return None
        if not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        if "type" in options:
            try:
                value = options["type"](value)
            except ValueError:
                return None
        choices = options.get("choices")
        if choices is not None and value not in choices:
            return None
        dest = _dest(flag)
        if options.get("action") == "append":
            value = [*(values[dest] or ()), value]
        values[dest] = value
        seen.add(flag)
    if len(given) != len(names) or any(
            options.get("required") and flag not in seen for flag, options in flags.items()):
        return None
    values.update(zip(names, given))
    return types.SimpleNamespace(**values)


def _parse(argv):
    """The arguments of `argv`, a list or tuple of strings: read from the
    table when the line is plain, else by argparse (help, or a
    SchemaViolation for a bad argv)."""
    if not isinstance(argv, (list, tuple)):
        raise SchemaViolation(
            f"the command line is not a list or tuple of strings: {type(argv).__name__}")
    argv = list(argv)
    for i, item in enumerate(argv):
        if not isinstance(item, str):
            raise SchemaViolation(f"command line item {i} is not a string: {item!r}")
    args = _plain_args(argv)
    if args is None:
        args = _parser().parse_args(argv)
        _check_option_values(args)
    return args


def main(argv=None) -> int:
    # an exact answer prints whole, however long its integers; what is read
    # keeps its own bound (`jsonio.MAX_DIGITS`)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _answer(sys.argv[1:] if argv is None else argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _answer(argv) -> int:
    try:
        args = _parse(argv)
        doc = args.fn(args)
        code = 1 if doc.get("ok") is False else 0  # a failed selftest suite
    except SystemExit as exc:
        # only --help exits the parser, with code 0 after printing its text
        return exc.code or 0
    except InputError as exc:
        doc, code = {"error": type(exc).__name__, "detail": str(exc)}, 2
    except InternalCheckError as exc:
        doc, code = {"error": type(exc).__name__, "detail": str(exc)}, 1
    sys.stdout.write(json.dumps(doc) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
