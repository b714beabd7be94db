"""JSON schemas for hypergraphs, operators, filtrations, and reports.

Canonical emission: vertex order defines the total order, edges are
sorted by (size, lexicographic), rationals are "a/b" strings, and
integers ride as JSON numbers unless they leave the 53-bit safe range.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import SchemaViolation
from .hypergraphs import Hypergraph, _edge_parser, _indexer
from .persistence import Filtration
from .rings import canonical
from .words import VertexSet, WedgeOperator


_COEFFICIENT = re.compile(r"-?[0-9]+(/[0-9]+)?")
# the most digits an integer read may spell: Python's default bound on
# `int(str)`, kept for what is read while `cli.main` lifts it for answers
MAX_DIGITS = 4300


def _require(cond, msg):
    if not cond:
        raise SchemaViolation(msg)


def vertexset_from_json(data) -> VertexSet:
    _require(isinstance(data, list) and all(isinstance(x, str) for x in data),
             "vertices must be a list of strings")
    return VertexSet(tuple(data))


def hypergraph_from_json(data) -> Hypergraph:
    _require(isinstance(data, dict), "hypergraph document must be an object")
    _require("vertices" in data and "edges" in data,
             "hypergraph needs 'vertices' and 'edges'")
    vs = vertexset_from_json(data["vertices"])
    edges = data["edges"]
    _require(isinstance(edges, list), "'edges' must be a list")
    for e in edges:
        _require(isinstance(e, list), "each edge must be a list")
    return Hypergraph.of(vs, edges)


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {
        "vertices": list(h.vertices.labels),
        "edges": [[h.vertices.labels[v] for v in e] for e in h.sorted_edges()],
    }


def coefficient_from_json(value):
    """An integer, or a string of an optional '-', digits, and optionally
    '/' and more digits; nothing else (no exponent, point or space)."""
    if isinstance(value, bool):
        raise SchemaViolation("coefficients must be numbers or 'a/b' strings")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and _COEFFICIENT.fullmatch(value):
        num, _, den = value.partition("/")
        den = den or "1"
        # no zero denominator, and no part longer than what is read
        if den.strip("0") and max(len(num.lstrip("-")), len(den)) <= MAX_DIGITS:
            return canonical(Fraction(int(num), int(den)))
    raise SchemaViolation(f"bad coefficient {value!r}")


def coefficient_to_json(value):
    f = Fraction(value)
    if f.denominator == 1:
        n = f.numerator
        return n if abs(n) <= 2**53 else str(n)
    return str(f)


def operator_from_json(data, vertices: VertexSet) -> WedgeOperator:
    _require(isinstance(data, dict), "operator document must be an object")
    kind = data.get("kind")
    _require(kind in ("partial", "d"), "operator kind must be 'partial' or 'd'")
    terms = data.get("terms")
    _require(isinstance(terms, list) and terms, "operator needs a nonempty term list")
    parsed = []
    arity = None
    indices = _indexer(vertices)
    for term in terms:
        _require(isinstance(term, dict) and "coeff" in term and "vertices" in term,
                 "each term needs 'coeff' and 'vertices'")
        coeff = coefficient_from_json(term["coeff"])
        _require(isinstance(term["vertices"], list), "term vertices must be a list")
        gens = indices(term["vertices"])
        _require(all(a < b for a, b in zip(gens, gens[1:])),
                 "term vertices must be strictly increasing in the vertex order")
        if arity is None:
            arity = len(gens)
        _require(len(gens) == arity, "all terms must share one arity")
        parsed.append((coeff, tuple(gens)))
    return WedgeOperator.build(kind, arity, parsed)


def operator_to_json(op: WedgeOperator, vertices: VertexSet) -> dict:
    return {
        "kind": op.kind,
        "terms": [
            {
                "coeff": coefficient_to_json(c),
                "vertices": [vertices.labels[g] for g in gens],
            }
            for c, gens in op.terms
        ],
    }


def filtration_from_json(data) -> Filtration:
    _require(isinstance(data, dict), "filtration document must be an object")
    for key in ("vertices", "class", "edges"):
        _require(key in data, f"filtration needs '{key}'")
    vs = vertexset_from_json(data["vertices"])
    cls = data["class"]
    _require(cls in ("simplicial", "independence"),
             "'class' must be 'simplicial' or 'independence'")
    rows = []
    _require(isinstance(data["edges"], list), "'edges' must be a list")
    parse = _edge_parser(vs)
    parsed = {}  # each distinct birth string is parsed once; ints are not looked up
    for row in data["edges"]:
        _require(isinstance(row, dict) and "edge" in row and "birth" in row,
                 "each filtration row needs 'edge' and 'birth'")
        _require(isinstance(row["edge"], list), "each edge must be a list")
        (edge, mask), birth = parse(row["edge"]), row["birth"]
        if not (isinstance(birth, str) and birth in parsed):
            parsed[birth] = coefficient_from_json(birth)  # only valid births are stored
        rows.append((edge, mask, parsed[birth]))
    return Filtration.of_parsed(vs, rows, cls)


def filtration_to_json(f: Filtration) -> dict:
    births = [str(x) for x in f.grid]
    return {
        "vertices": list(f.vertices.labels),
        "class": f.monotonicity_class,
        "edges": [{"edge": [f.vertices.labels[v] for v in e], "birth": births[k]}
                  for k, e in f.indexed],
    }


def group_to_json(degree: int, presentation) -> dict:
    return {
        "n": degree,
        "free_rank": presentation.free_rank,
        "torsion": [coefficient_to_json(t) for t in presentation.torsion_factors],
    }


def matrix_to_json(matrix) -> list:
    return [[matrix.ring.format(v) for v in row] for row in matrix.dense_rows()]
