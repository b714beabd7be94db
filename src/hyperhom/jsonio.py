"""JSON schemas for hypergraphs, operators, filtrations, and reports.

Canonical emission: vertex order defines the total order, edges are
sorted by (size, lexicographic), rationals are "a/b" strings, and
integers ride as JSON numbers unless they leave the 53-bit safe range.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaViolation
from .hypergraphs import Hypergraph, _as_edge, _vertex_indices
from .persistence import Filtration
from .rings import Ring
from .words import VertexSet, WedgeOperator


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
    if isinstance(value, bool):
        raise SchemaViolation("coefficients must be numbers or 'a/b' strings")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaViolation(f"bad coefficient {value!r}") from exc
        return f.numerator if f.denominator == 1 else f
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
    for term in terms:
        _require(isinstance(term, dict) and "coeff" in term and "vertices" in term,
                 "each term needs 'coeff' and 'vertices'")
        coeff = coefficient_from_json(term["coeff"])
        _require(isinstance(term["vertices"], list), "term vertices must be a list")
        gens = _vertex_indices(vertices, term["vertices"])
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
    births = []
    _require(isinstance(data["edges"], list), "'edges' must be a list")
    for row in data["edges"]:
        _require(isinstance(row, dict) and "edge" in row and "birth" in row,
                 "each filtration row needs 'edge' and 'birth'")
        _require(isinstance(row["edge"], list), "each edge must be a list")
        births.append((_as_edge(vs, row["edge"]), coefficient_from_json(row["birth"])))
    return Filtration.of(vs, births, cls)


def filtration_to_json(f: Filtration) -> dict:
    return {
        "vertices": list(f.vertices.labels),
        "class": f.monotonicity_class,
        "edges": [
            {
                "edge": [f.vertices.labels[v] for v in e],
                "birth": str(birth),
            }
            for e, birth in f.births
        ],
    }


def group_to_json(degree: int, presentation) -> dict:
    return {
        "n": degree,
        "free_rank": presentation.free_rank,
        "torsion": list(presentation.torsion_factors),
    }


def matrix_to_json(matrix, ring: Ring) -> list:
    return [[ring.format(v) for v in row] for row in matrix]
