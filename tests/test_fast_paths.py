"""Differential tests of the integer-speed paths against the routes they
replaced.

* Matrix assembly against the per-word route: one validated
  `FreeChain.single` per basis word, applied through the composition
  oracle of `test_words`, and `SparseMatrix.from_entries` over the
  collected entries, which range-checks, duplicate-checks and coerces.
* `SparseMatrix.mul` and `apply` against dense products reduced term by
  term with `ring.add` and `ring.mul`.
* `Hypergraph.classify` against the subface oracle of `test_hypergraphs`
  on ten and more vertices, and its flip set against the two set
  comprehensions it replaced; so are both class properties and the pair
  `_closed` that `proved_closed`, `combine` and a filtration's sublevels
  carry without the flip set.
* The one-pass edge ingest against the route it replaced: each letter
  checked alone and repeats found by a set, through all three `jsonio`
  readers, errors included.

It also guards the routes the work takes: the layer boundaries a trace
wraps, one product per boundary pair in a `homology` command, one
complex per `act` whose even operator keeps the offset, and one assembled
complex per `mv` or `include`.
"""

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hyperhom.cli import main
from hyperhom.errors import CompositionNotZero, OperatorLeavesCarrier, SchemaViolation
from hyperhom.homology import (
    ComplexSpec,
    _assemble_matrix,
    build_complex,
    edge_carrier,
    word_carrier,
)
from hyperhom.hypergraphs import (
    ClosureOp,
    CombineOp,
    Hypergraph,
    HypergraphClass,
    _vertex_indices,
    closure,
    combine,
    power_set,
    proved_closed,
)
from hyperhom.jsonio import (
    _require,
    coefficient_from_json,
    filtration_from_json,
    hypergraph_from_json,
    operator_from_json,
    vertexset_from_json,
)
from hyperhom.linalg import SparseMatrix, homology_presentation
from hyperhom.persistence import Filtration, persistent_mv
from hyperhom.rings import GF, QQ, ZZ
from hyperhom.words import FreeChain, VertexSet, WedgeOperator

import hypergraph_oracle as oracle
from test_hypergraphs import random_hypergraph
from test_words import SCAN_FLOORS, composed_wedge_apply, longest_run, scan_features

RINGS = [ZZ, QQ, GF(5), GF(7)]
WEIGHTS = [0, 1, -1, 2, 3, 5, -7, Fraction(1, 2), Fraction(-3, 5), Fraction(5, 3)]


def per_word_assembly(op, carrier, ring, src_basis, n_target):
    """The replaced route: a validated one-word chain per basis word and a
    checked `from_entries` over everything collected."""
    target = carrier.basis(n_target)
    index = {w: i for i, w in enumerate(target)}
    items = []
    truncate_top = carrier.hypergraph is None and n_target > carrier.top_degree
    for j, w in enumerate(src_basis):
        image = composed_wedge_apply(op, FreeChain.single(ring, w), carrier.ambient)
        for word, c in image.terms.items():
            i = index.get(word)
            if i is None:
                if word == () or truncate_top:
                    continue
                raise OperatorLeavesCarrier(
                    f"image word {word} of basis element {w} is outside the carrier"
                )
            items.append(((i, j), c))
    return SparseMatrix.from_entries(len(target), len(src_basis), ring, items)


def outcome(fn, *args):
    """Shape, ring and typed entries of a matrix, or the error raised."""
    try:
        m = fn(*args)
    except (SchemaViolation, OperatorLeavesCarrier) as exc:
        return type(exc), str(exc)
    return m.rows, m.cols, m.ring, [(pos, type(v), v) for pos, v in m.entries]


def random_operator(rng, kind, nv, arity):
    """A built operator, or one built directly with repeated generator
    tuples and zero coefficients. Direct terms stay in generator order,
    the order of every operator the engine builds: an error names the
    first image outside the carrier, and the oracle takes the images of a
    word in term order."""
    terms = [(rng.choice(WEIGHTS), tuple(sorted(rng.sample(range(nv), arity))))
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        terms += [(rng.choice([0, *WEIGHTS]), g) for _, g in rng.choices(terms, k=2)]
        return WedgeOperator(kind, arity, tuple(sorted(terms, key=lambda t: t[1])))
    return WedgeOperator.build(kind, arity, terms)


def random_carrier(rng, kind, vs):
    """An edge carrier of the operator family, with or without the empty
    edge; sometimes an all-words or increasing-words carrier instead, and
    sometimes an edge family that is not closed, so images leave it."""
    pick = rng.random()
    if pick < 0.15:
        return word_carrier(vs, rng.randint(-1, 2))
    if pick < 0.25:
        return edge_carrier(Hypergraph(vs, power_set(vs)))
    h = random_hypergraph(rng, vs, p=rng.choice([0.2, 0.4]))
    if pick < 0.35:
        return edge_carrier(h)
    h = closure(h, ClosureOp.DELTA_UP if kind == "partial" else ClosureOp.BAR_DELTA_UP)
    if kind == "partial" and rng.random() < 0.5:
        h = h.with_masks(h.masks ^ {0})
    return edge_carrier(h)


def test_assembly_matches_per_word_route():
    """Odd arities, and the even arities 0 and 2 as `operator_action`
    assembles them, on edge and all-words carriers. All-words carriers of two or
    three letters reach degree 3 or 4, so columns have runs of 2 to 4
    equal letters and unsorted words without repeats. At arity 1 each of
    the three scans meets the features of `test_words.scan_features`."""
    rng = random.Random(1107)
    shapes, errors, features, runs, scans = set(), set(), set(), {}, {}
    for _ in range(500):
        kind = rng.choice(["partial", "d"])
        arity = rng.choice([0, 1, 1, 2, 3, 3])
        if rng.random() < 0.2:
            nv = rng.randint(max(arity, 2), 3)
            vs = VertexSet.of(*[f"v{i}" for i in range(nv)])
            carrier = word_carrier(vs, rng.randint(3, 7 - nv))
        else:
            vs = VertexSet.of(*[f"v{i}" for i in range(rng.randint(3, 5))])
            carrier = random_carrier(rng, kind, vs)
        op = random_operator(rng, kind, len(vs), arity)
        ring = rng.choice(RINGS)
        shift = -arity if kind == "partial" else arity
        for n in range(-1, carrier.top_degree + 1):
            src, target = carrier.basis(n), n + shift
            args = (op, carrier, ring, src, target)
            want = outcome(per_word_assembly, *args)
            assert outcome(_assemble_matrix, *args) == want, (op, carrier, ring, n)
            shapes.add((kind, "words" if carrier.hypergraph is None else "edges", arity))
            if isinstance(want[0], type):
                errors.add(want[0])
                continue
            entries = want[3]
            features.add("entries" if entries else "zero")
            if arity == 1:
                images, target_basis = {}, carrier.basis(target)
                for (i, j), _, _ in entries:
                    images.setdefault(j, []).append(target_basis[i])
                for j, w in enumerate(src):
                    for key in scan_features(op, ring, carrier.ambient, w, images.get(j, ())):
                        scans[key] = scans.get(key, 0) + 1
            if any(t is Fraction for _, t, _ in entries):
                features.add(f"fractions over {ring}")
            if target == -1 and src:
                features.add("empty word kept" if carrier.basis(-1) else "empty word cut")
            if carrier.hypergraph is None and target > carrier.top_degree and src:
                features.add("truncated")
            for (_, j), _, _ in entries:
                w = src[j]
                if 2 <= longest_run(w):
                    key = (kind, arity, min(longest_run(w), 4))
                    runs[key] = runs.get(key, 0) + 1
                elif list(w) != sorted(w):
                    features.add("unsorted without repeats")
    assert shapes >= {(k, c, a) for k in ("partial", "d") for c in ("edges", "words")
                      for a in (0, 1, 2, 3)}
    assert errors == {SchemaViolation, OperatorLeavesCarrier}
    assert features == {"entries", "zero", "fractions over Q", "empty word kept",
                        "empty word cut", "truncated", "unsorted without repeats"}, features
    # entries from columns with runs of 2, 3 and 4 letters for both kinds
    # at arity 1; at arity 3 an insertion column below the truncation has
    # at most two letters, so its runs have length 2
    floors = {(k, 1, r): 20 for k in ("partial", "d") for r in (2, 3, 4)}
    floors.update({("partial", 3, 2): 20, ("partial", 3, 3): 20, ("d", 3, 2): 20})
    assert all(runs.get(key, 0) >= n for key, n in floors.items()), runs
    assert all(scans.get(key, 0) >= n for key, n in SCAN_FLOORS.items()), scans


def test_assembly_coerces_only_when_a_column_is_assembled():
    # over Z a coefficient 1/2 is an error, but only once a word meets it
    op = WedgeOperator.weighted_sum("partial", [Fraction(1, 2), 1])
    vs = VertexSet.of("a", "b")
    empty = edge_carrier(Hypergraph(vs, frozenset()))
    assert _assemble_matrix(op, empty, ZZ, [], -1) == SparseMatrix.zero(0, 0, ZZ)
    points = edge_carrier(Hypergraph.of(vs, [[], ["a"]]))
    with pytest.raises(SchemaViolation, match="is not an integer"):
        _assemble_matrix(op, points, ZZ, points.basis(0), -1)


def dense(m):
    return [list(row) for row in m.dense_rows()]


def sparse(rows, ring):
    return SparseMatrix.from_entries(
        len(rows), len(rows[0]), ring,
        [((i, j), v) for i, row in enumerate(rows) for j, v in enumerate(row)])


def random_matrix(rng, ring, rows, cols, density=0.4, pool=WEIGHTS):
    """Entries drawn from `pool`, the ones that are not elements of the ring
    left out; small pools make sums cancel."""
    pool = [v for v in pool if type(v) is int
            or ring.is_field and (not ring.p or v.denominator % ring.p)]
    items = [((i, j), rng.choice(pool)) for i in range(rows) for j in range(cols)
             if rng.random() < density]
    return SparseMatrix.from_entries(rows, cols, ring, items)


def dense_product(a, b, cols, ring):
    """Each entry summed term by term with `ring.add` and `ring.mul`."""
    out = []
    for row in a:
        out.append([])
        for j in range(cols):
            acc = ring.zero
            for k, v in enumerate(row):
                acc = ring.add(acc, ring.mul(v, b[k][j]))
            out[-1].append(acc)
    return out


def typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_mul_and_apply_match_dense_products(ring):
    rng = random.Random(f"mul:{ring}")
    fractions = cancelled = 0
    for _ in range(150):
        r, k, c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        pool = rng.choice([WEIGHTS, [1, -1, Fraction(1, 2), Fraction(-1, 2)]])
        a = random_matrix(rng, ring, r, k, pool=pool)
        b = random_matrix(rng, ring, k, c, density=rng.choice([0.2, 0.6]), pool=pool)
        want = dense_product(dense(a), dense(b), c, ring)
        got = a.mul(b)
        assert (got.rows, got.cols, got.ring) == (r, c, ring)
        assert typed(dense(got)) == typed(want), (a, b)
        fractions += any(type(v) is Fraction for _, v in got.entries)
        products = {(i, j) for (i, m), _ in a.entries for (m2, j), _ in b.entries if m == m2}
        cancelled += len(products) > len(got.entries)
    assert cancelled > 5
    assert (fractions > 0) == (ring == QQ)


def test_mul_reduces_each_sum_once():
    # 2 + 3 = 0 over F_5, and 1/2 + 1/2 is the int 1 over Q
    f5 = GF(5)
    a = SparseMatrix.from_entries(1, 2, f5, [((0, 0), 1), ((0, 1), 1)])
    b = SparseMatrix.from_entries(2, 1, f5, [((0, 0), 2), ((1, 0), 3)])
    assert a.mul(b).is_zero()
    h = SparseMatrix.from_entries(1, 2, QQ, [((0, 0), Fraction(1, 2)), ((0, 1), 1)])
    col = SparseMatrix.from_entries(2, 1, QQ, [((0, 0), 1), ((1, 0), Fraction(1, 2))])
    assert h.mul(col).entries == (((0, 0), 1),)
    assert type(h.mul(col).entries[0][1]) is int


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_nonzero_square_is_caught_on_every_pair(ring):
    """[X | X] after [Y ; -Y] is zero; one changed entry of the inner map
    makes it nonzero exactly when the matching column of X is nonzero,
    and then the check raises."""
    rng = random.Random(f"square:{ring}")
    raised = 0
    for _ in range(80):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        x, y = dense(random_matrix(rng, ring, r, k)), dense(random_matrix(rng, ring, k, c))
        out = [row + row for row in x]
        inner = [list(row) for row in y] + [[ring.neg(v) for v in row] for row in y]
        assert homology_presentation(sparse(out, ring), sparse(inner, ring))
        i, j = rng.randrange(2 * k), rng.randrange(c)
        inner[i][j] = ring.add(inner[i][j], 1)
        if any(row[i % k] for row in x):
            raised += 1
            with pytest.raises(CompositionNotZero):
                homology_presentation(sparse(out, ring), sparse(inner, ring))
        else:
            assert homology_presentation(sparse(out, ring), sparse(inner, ring))
    assert raised > 40


def test_classify_matches_subface_oracle_on_ten_and_more_vertices():
    rng = random.Random(1210)
    seen = {}
    for _ in range(80):
        nv = rng.randint(10, 11)
        vs = VertexSet.of(*[f"v{i}" for i in range(nv)])
        op = rng.choice([None, ClosureOp.DELTA_UP, ClosureOp.BAR_DELTA_UP])
        # seeds small enough below (or large enough above) that the closure
        # and the oracle stay in the thousands of edges
        low, high = {None: (0, nv), ClosureOp.DELTA_UP: (0, 7),
                     ClosureOp.BAR_DELTA_UP: (nv - 7, nv)}[op]
        seeds = [tuple(sorted(rng.sample(range(nv), rng.randint(low, high))))
                 for _ in range(rng.randint(1, 5))]
        h = Hypergraph.of(vs, seeds)
        if op is not None:
            h = closure(h, op)
        if rng.random() < 0.5:
            h = h.with_masks(h.masks ^ {0})
        if h.edges and rng.random() < 0.4:
            # drop one edge: often just breaks a closure property
            h = Hypergraph.of(vs, h.edges - {rng.choice(sorted(h.edges))})
        want = oracle.classify(h.edges, nv)
        assert h.classify() is want, sorted(h.edges)
        seen.setdefault(want, set()).add(h.has_empty_edge)
    vs = VertexSet.of(*[f"v{i}" for i in range(10)])
    full = Hypergraph(vs, power_set(vs))
    for h in (full, full.with_masks(full.masks - {0})):
        assert h.classify() is oracle.classify(h.edges, 10) is HypergraphClass.BOTH
    assert set(seen) == set(HypergraphClass)
    assert seen[HypergraphClass.NEITHER] == {True, False}
    assert seen[HypergraphClass.SIMPLICIAL_COMPLEX] == {True, False}


def test_vertex_parse_errors_are_unchanged():
    vs = VertexSet.of("a", "b", "c")
    assert _vertex_indices(vs, ["c", 0, "a", 2]) == [2, 0, 0, 2]
    cases = [(["x"], "unknown vertex 'x'"),
             ([True], "vertex True is neither a label nor an index"),
             ([1.0], "vertex 1.0 is neither a label nor an index"),
             ([None], "vertex None is neither a label nor an index"),
             ([3], "vertex index 3 out of range"),
             ([-1], "vertex index -1 out of range")]
    for raw, text in cases:
        with pytest.raises(SchemaViolation) as info:
            _vertex_indices(vs, ["a"] + raw)
        assert str(info.value) == text
    with pytest.raises(SchemaViolation, match="vertex labels must be distinct"):
        VertexSet.of("a", "b", "a")


# The ingest route the one-pass parser replaced, kept as its oracle: every
# letter is checked and looked up on its own, a set finds repeats, and the
# three readers are as they were before.

def old_vertex_indices(vertices, raw) -> list:
    n, index = len(vertices), vertices.index
    idx = []
    for v in raw:
        if isinstance(v, str):
            v = index(v)
        elif isinstance(v, bool) or not isinstance(v, int):
            raise SchemaViolation(f"vertex {v!r} is neither a label nor an index")
        elif not 0 <= v < n:
            raise SchemaViolation(f"vertex index {v} out of range")
        idx.append(v)
    return idx


def old_as_edge(vertices, raw) -> tuple:
    idx = old_vertex_indices(vertices, raw)
    edge = tuple(sorted(set(idx)))
    if len(edge) != len(idx):
        raise SchemaViolation(f"edge {raw} repeats a vertex")
    return edge


def old_hypergraph_from_json(data):
    _require(isinstance(data, dict), "hypergraph document must be an object")
    _require("vertices" in data and "edges" in data,
             "hypergraph needs 'vertices' and 'edges'")
    vs = vertexset_from_json(data["vertices"])
    edges = data["edges"]
    _require(isinstance(edges, list), "'edges' must be a list")
    for e in edges:
        _require(isinstance(e, list), "each edge must be a list")
    return Hypergraph(vs, edge_masks(old_as_edge(vs, e) for e in edges))


def old_operator_from_json(data, vertices):
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
        gens = old_vertex_indices(vertices, term["vertices"])
        _require(all(a < b for a, b in zip(gens, gens[1:])),
                 "term vertices must be strictly increasing in the vertex order")
        if arity is None:
            arity = len(gens)
        _require(len(gens) == arity, "all terms must share one arity")
        parsed.append((coeff, tuple(gens)))
    return WedgeOperator.build(kind, arity, parsed)


def old_filtration_from_json(data):
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
        births.append((old_as_edge(vs, row["edge"]), coefficient_from_json(row["birth"])))
    return Filtration.of(vs, births, cls)


def read(reader, *args):
    """What a reader returns, or the class and text of what it raises."""
    try:
        return reader(*args)
    except Exception as exc:  # the class itself is compared
        return type(exc), str(exc)


def edge_masks(edges) -> frozenset:
    return frozenset(sum(1 << v for v in e) for e in edges)


# Letters the parser must reject; True and 1.0 hash equal to the index 1.
JUNK = [True, False, 1.0, 2.5, None, "zz", ["a"], {"a": 1}, -1, 99]


def mixed(rng, vs, edge):
    """An edge of indices written as labels and indices, mixed."""
    return [vs.labels[v] if rng.random() < 0.6 else v for v in edge]


def letter_fault(rng, vs, raw):
    """The edge with one fault: a junk letter, or one vertex twice, as a
    label, as an index or as both."""
    raw = list(raw)
    v = rng.randrange(len(vs))
    pick = rng.random()
    for letter in ([rng.choice(JUNK)] if pick < 0.5 else
                   [v, vs.labels[v]] if pick < 0.7 else rng.choice([[v, v], [vs.labels[v]] * 2])):
        raw.insert(rng.randint(0, len(raw)), letter)
    return raw


def random_documents(rng, vs):
    """A hypergraph, an operator and a filtration document over vs, each
    with up to two faults at random places, so that the first one must
    win."""
    n = len(vs)
    up = rng.random() < 0.5
    family = sorted(closure(random_hypergraph(rng, vs, p=0.3),
                            ClosureOp.BAR_DELTA_UP if up else ClosureOp.DELTA_UP).edges)
    rng.shuffle(family)
    raws = [mixed(rng, vs, e) for e in family]
    births = [n - len(e) if up else len(e) for e in family]
    rows = [{"edge": raw, "birth": b} for raw, b in zip(raws, births)]
    arity = rng.randint(1, n)
    terms = [{"coeff": rng.choice([1, -2, "1/2"]),
              "vertices": mixed(rng, vs, sorted(rng.sample(range(n), arity)))}
             for _ in range(rng.randint(1, 3))]
    for _ in range(rng.choice([0, 1, 2, 2])):
        if raws:
            k = rng.randrange(len(raws))
            pick = rng.random()
            if pick < 0.1 or pick >= 0.3:
                raws[k] = "a" if pick < 0.1 else letter_fault(rng, vs, raws[k])
            rows[k] = ({"edge": raws[k]} if 0.1 <= pick < 0.2 else
                       {"edge": raws[k], "birth": "1/0" if 0.2 <= pick < 0.3 else births[k]})
        term = rng.choice(terms)
        pick = rng.random()
        term["vertices"] = (term["vertices"][::-1] if pick < 0.2 else
                            term["vertices"][:-1] if pick < 0.3 else
                            letter_fault(rng, vs, term["vertices"]))
    cls = "independence" if up else "simplicial"
    return ({"vertices": list(vs.labels), "edges": raws},
            {"kind": "d" if up else "partial", "terms": terms},
            {"vertices": list(vs.labels), "class": cls, "edges": rows})


def test_ingest_matches_old_route():
    """The three readers give the old route's edges, masks, operators and
    filtrations, or its exception class and text, on random label and
    index mixes with up to two faults per document."""
    rng = random.Random(1606)
    errors, results = set(), Counter()
    for _ in range(600):
        vs = VertexSet.of(*[f"v{i}" for i in range(rng.randint(1, 5))])
        hdoc, odoc, fdoc = random_documents(rng, vs)
        for name, new, old, args in (
                ("hypergraph", hypergraph_from_json, old_hypergraph_from_json, (hdoc,)),
                ("operator", operator_from_json, old_operator_from_json, (odoc, vs)),
                ("filtration", filtration_from_json, old_filtration_from_json, (fdoc,))):
            got, want = read(new, *args), read(old, *args)
            assert got == want, (name, args)
            if isinstance(want, tuple):
                errors.add(want)
            else:
                results[name] += 1
            if name == "hypergraph" and not isinstance(want, tuple):
                assert edge_masks(got.edges) == got.masks
    for part in ("each edge must be a list", "repeats a vertex", "is neither a label",
                 "unknown vertex", "out of range", "strictly increasing", "one arity",
                 "needs 'edge' and 'birth'", "bad coefficient"):
        assert any(part in text for _, text in errors), part
    assert min(results.values()) > 100 and len(results) == 3


@pytest.mark.parametrize("edges", [[["a"]], [[["a"]]], [["a", 0]], [[0, "a"]],
                                   [["a", True]], [["b", 1.0]], [["zz"], "a"],
                                   [["zz", "a", "a"]], [["a", "a", "zz"]]])
def test_ingest_matches_old_route_on_fixed_edges(edges):
    """An unhashable letter, the same vertex as a label and as an index,
    letters that hash like an index, and two faults in one document: the
    hypergraph reader checks that every edge is a list before it parses
    one, the filtration reader goes row by row."""
    vs = VertexSet.of("a", "b")
    hdoc = {"vertices": ["a", "b"], "edges": edges}
    fdoc = {"vertices": ["a", "b"], "class": "simplicial",
            "edges": [{"edge": e, "birth": 1} for e in edges]}
    odoc = {"kind": "partial", "terms": [{"coeff": 1, "vertices": e} for e in edges]}
    assert read(hypergraph_from_json, hdoc) == read(old_hypergraph_from_json, hdoc)
    assert read(filtration_from_json, fdoc) == read(old_filtration_from_json, fdoc)
    assert read(operator_from_json, odoc, vs) == read(old_operator_from_json, odoc, vs)


def two_comprehension_classify(h):
    """The check the flip set replaced: for each vertex bit b, clearing b
    in every edge but {b} and setting it in every edge stay in the family."""
    bits = [1 << v for v in range(len(h.vertices))]
    masks = {sum(map(bits.__getitem__, e)) for e in h.edges}
    down = all({m & ~b for m in masks if m != b} <= masks for b in bits)
    up = all({m | b for m in masks} <= masks for b in bits)
    return oracle.CLASSES[down, up]


# the (closed downward, closed upward) pair of each class
CLOSED = {cls: pair for pair, cls in oracle.CLASSES.items()}


def carried_closures(rng, h):
    """(who set it, family) for each `_closed` that a caller sets on h's
    edges without the flip loop: `proved_closed` in every way the oracle
    finds h closed, `combine` of h with a random classified partner, and
    the final complex and every sublevel of a filtration of h in each of
    its classes. A combine that carries nothing is checked here."""
    vs, n = h.vertices, len(h.vertices)
    down, up = CLOSED[two_comprehension_classify(h)]
    out = [("proved_closed", proved_closed(Hypergraph(vs, h.masks), way))
           for way, holds in ((True, down), (False, up)) if holds]
    partner = random_hypergraph(rng, vs, p=rng.choice([0.1, 0.4, 0.9]))
    op = rng.choice([None, ClosureOp.DELTA_UP, ClosureOp.BAR_DELTA_UP])
    a, b = Hypergraph(vs, h.masks), partner if op is None else closure(partner, op)
    a.classify(), b.classify()
    for op in CombineOp:
        c = combine(a, b, op)
        shared = any(x and y for x, y in zip(a._closed, b._closed))
        assert ("_closed" in vars(c)) == shared, (sorted(a.edges), sorted(b.edges))
        if shared:
            out.append(("combine", c))
    for cls, holds in (("simplicial", down), ("independence", up)):
        if not holds:
            continue
        # faces are born no later than their edges (simplicial), cofaces no
        # later (independence); the empty edge comes with the first edges
        birth = (len if cls == "simplicial" else (lambda e: 0) if () in h.edges
                 else (lambda e: n - len(e)))
        f = Filtration.of(vs, [(e, birth(e)) for e in h.edges], cls)
        out.append(("final_complex", f.final_complex))
        out += [("complex_at", f.complex_at(x)) for x in f.grid]
    return out


def test_classify_matches_two_comprehension_check():
    """Random closed families of both classes, with and without the
    empty edge, some with one edge dropped, classified as built and again
    as parsed from their words (`Hypergraph.of`). The fixed families miss exactly one face, or one
    coface, or are the empty family, {()}, and the power set with and
    without (). On every family both properties read the oracle's pair,
    and so does every `_closed` that `carried_closures` finds set."""
    rng = random.Random(1607)
    partners = random.Random(1608)
    s3, s2 = VertexSet.of("a", "b", "c"), VertexSet.of("a", "b")
    families = [Hypergraph(s3, power_set(s3) - {0b011}),
                Hypergraph(s2, frozenset({0b01})),
                Hypergraph(s3, frozenset()), Hypergraph(s3, frozenset({0})),
                Hypergraph(s3, power_set(s3)), Hypergraph(s3, power_set(s3) - {0})]
    for _ in range(400):
        vs = VertexSet.of(*[f"v{i}" for i in range(rng.randint(0, 7))])
        h = random_hypergraph(rng, vs, p=rng.choice([0.05, 0.2, 0.5]))
        op = rng.choice([None, ClosureOp.DELTA_UP, ClosureOp.BAR_DELTA_UP])
        if op is not None:
            h = closure(h, op)
        if rng.random() < 0.5:
            h = h.with_masks(h.masks ^ {0})
        if h.edges and rng.random() < 0.3:
            h = Hypergraph.of(vs, h.edges - {rng.choice(sorted(h.edges))})
        families.append(h)
    seen, carried = set(), Counter()
    for h in families:
        want = two_comprehension_classify(h)
        parsed = Hypergraph.of(h.vertices, [mixed(rng, h.vertices, e) for e in h.edges])
        assert parsed == h and parsed.masks == edge_masks(h.edges)
        assert parsed.classify() is want and h.classify() is want, sorted(h.edges)
        for g in (parsed, h):
            assert (g.is_simplicial_complex, g.is_independence_hypergraph) == CLOSED[want]
        seen.add((want, h.has_empty_edge))
        for who, g in carried_closures(partners, h):
            fresh = two_comprehension_classify(g)
            assert vars(g)["_closed"] == CLOSED[fresh], (who, sorted(g.edges))
            assert g.classify() is fresh
            carried[who, fresh] += 1
    # closed up with the empty edge is the power set, which is both
    assert seen == {(c, empty) for c in HypergraphClass for empty in (True, False)} - {
        (HypergraphClass.INDEPENDENCE_HYPERGRAPH, True)}
    # every carrier sets every pair a family closed some way can hold
    assert min(carried[who, c] for who in (
        "proved_closed", "combine", "final_complex", "complex_at") for c in (
        HypergraphClass.BOTH, HypergraphClass.SIMPLICIAL_COMPLEX,
        HypergraphClass.INDEPENDENCE_HYPERGRAPH)) >= 10, carried


def test_edges_are_bucketed_by_degree():
    vs = VertexSet.of(*[f"v{i}" for i in range(6)])
    rng = random.Random(6)
    for _ in range(50):
        h = random_hypergraph(rng, vs, p=rng.random())
        assert h.top_degree == max((len(e) - 1 for e in h.edges), default=-2)
        for n in range(-2, 7):
            got = h.degree_edges(n)
            assert got == sorted(e for e in h.edges if len(e) == n + 1)
            got.append(("changed",))
            assert ("changed",) not in h.degree_edges(n)


def wrap_bindings(monkeypatch, module, name):
    """Wrap every binding of one engine object in the hyperhom modules, the
    way an outside tracer does, and return the list its calls land in."""
    owner = sys.modules[f"hyperhom.{module}"]
    *parents, attr = name.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, wrapped)
        return calls
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hyperhom" or mod_name.startswith("hyperhom."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapped)
    return calls


def write_docs(tmp_path, docs):
    paths = {}
    for key, doc in docs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    return paths


def test_traced_layers_are_reached(monkeypatch, tmp_path, capsys):
    """The layer boundaries that a per-layer trace wraps are still the
    routes the work takes: every assembled matrix calls the module
    binding of `wedge_apply` once, on its whole source basis, and so does
    `duality`; `BuiltComplex.homology` calls `homology_presentation`, and
    `include` builds `DegreeSolver`s."""
    wedge = wrap_bindings(monkeypatch, "words", "wedge_apply")
    presentation = wrap_bindings(monkeypatch, "linalg", "homology_presentation")
    solver = wrap_bindings(monkeypatch, "homology", "DegreeSolver.__init__")
    vs = VertexSet.of("s0", "s1", "s2")
    circle = Hypergraph.of(vs, [[], [0], [1], [2], [0, 1], [1, 2], [0, 2]])
    spec = ComplexSpec(edge_carrier(circle),
                       WedgeOperator.weighted_sum("partial", [1, 1, 1]), 0, QQ)
    built = build_complex(spec)
    assert [call[1] for call in wedge] == [built.basis(n) for n in spec.degrees()]
    built.homology(1)
    assert len(presentation) == 1

    # two complexes on all words of two letters, four degrees each
    wedge.clear()
    assert main(["duality", "--vertices", "a,b", "--max-degree", "2"]) == 0
    capsys.readouterr()
    assert len(wedge) == 8

    docs = {"left": {"vertices": ["s0", "s1", "s2"], "edges": [[], ["s0"], ["s1"]]},
            "right": {"vertices": ["s0", "s1", "s2"],
                      "edges": [[], ["s0"], ["s1"], ["s0", "s1"]]},
            "op": {"kind": "partial", "terms": [{"coeff": 1, "vertices": ["s0"]},
                                                 {"coeff": 1, "vertices": ["s1"]}]}}
    paths = write_docs(tmp_path, docs)
    assert main(["include", "--left", str(paths["left"]), "--right", str(paths["right"]),
                 "--operator", str(paths["op"]), "--ring", "Q"]) == 0
    capsys.readouterr()
    assert solver


@pytest.mark.parametrize("command", ["mv", "include"])
def test_mv_and_include_assemble_one_complex(monkeypatch, tmp_path, capsys, command):
    """`mv` assembles and squares the union of its two sides alone, and
    `include` the larger side alone; the other complexes are restricted
    from it. So `build_complex` runs once, and `wedge_apply` once per
    matrix of that complex, on its source basis."""
    labels = ["s0", "s1", "s2", "s3"]
    path = [[], ["s0"], ["s1"], ["s2"], ["s0", "s1"], ["s1", "s2"]]
    fan = [[], ["s0"], ["s2"], ["s3"], ["s0", "s2"], ["s2", "s3"], ["s0", "s3"],
           ["s0", "s2", "s3"]]
    union = path + fan[4:] + [["s3"]]
    right = fan if command == "mv" else union
    paths = write_docs(tmp_path, {
        "left": {"vertices": labels, "edges": path},
        "right": {"vertices": labels, "edges": right},
        "op": {"kind": "partial", "terms": [{"coeff": c, "vertices": [v]}
                                            for c, v in zip([1, 2, 1, 3], labels)]}})
    h = Hypergraph.of(VertexSet.of(*labels), union)
    op = WedgeOperator.weighted_sum("partial", [1, 2, 1, 3])
    spec = ComplexSpec(edge_carrier(h), op, 0, QQ)
    want = [build_complex(spec).basis(n) for n in spec.degrees()]
    assert len(want) == 4 and all(want)
    wedge = wrap_bindings(monkeypatch, "words", "wedge_apply")
    builds = wrap_bindings(monkeypatch, "homology", "build_complex")
    assert main([command, "--left", str(paths["left"]), "--right", str(paths["right"]),
                 "--operator", str(paths["op"]), "--ring", "Q"]) == 0
    capsys.readouterr()
    assert [call[0].carrier.hypergraph.edges for call in builds] == [h.edges]
    assert [call[1] for call in wedge] == want


def test_each_call_builds_one_complex(monkeypatch, tmp_path, capsys):
    """Every command assembles one complex and restricts or reads the rest
    from it, `persistent_mv` along all its thresholds included; `act` with
    an arity-1 boundary acts within its one complex. `duality` compares
    two word complexes, so it builds two."""
    labels = ["s0", "s1", "s2"]
    circle = [["s0"], ["s1"], ["s2"], ["s0", "s1"], ["s1", "s2"], ["s0", "s2"]]
    rows = [{"edge": e, "birth": b} for e, b in zip(circle, [0, 0, 1, 1, 2, 3])]
    weights = zip([1, 2, 1], labels)
    paths = write_docs(tmp_path, {
        "circle": {"vertices": labels, "edges": circle},
        "path": {"vertices": labels, "edges": circle[:5]},
        "arc": {"vertices": labels, "edges": [["s0"], ["s2"], ["s0", "s2"]]},
        "upward": {"vertices": labels, "edges": [e for e in circle if len(e) == 2]
                   + [["s0", "s1", "s2"]]},
        "filtration": {"vertices": labels, "class": "simplicial", "edges": rows},
        "partial": {"kind": "partial", "terms": [{"coeff": c, "vertices": [v]} for c, v in weights]},
        "d": {"kind": "d", "terms": [{"coeff": 1, "vertices": [v]} for v in labels]},
        "even": {"kind": "partial", "terms": [{"coeff": 1, "vertices": ["s0", "s2"]}]}})
    p = {key: str(path) for key, path in paths.items()}
    ring = ["--ring", "Q"]
    graded = ["--operator", p["partial"], *ring, "--n", "0"]
    argvs = {
        "homology": ["homology", "--operator", p["partial"], *ring, p["circle"]],
        "cohomology": ["cohomology", "--operator", p["d"], *ring, p["upward"]],
        "include": ["include", "--left", p["path"], "--right", p["circle"],
                    "--operator", p["partial"], *ring],
        "mv": ["mv", "--left", p["path"], "--right", p["arc"], "--operator", p["partial"], *ring],
        "barcode": ["barcode", "--filtration", p["filtration"], *graded],
        "persist": ["persist", "--filtration", p["filtration"], *graded],
        "act": ["act", "--operator", p["partial"], "--even", p["even"], *ring, p["circle"]],
        "duality": ["duality", "--vertices", "a,b", "--max-degree", "3"],
    }
    builds = wrap_bindings(monkeypatch, "homology", "build_complex")
    counts = {}
    for name, argv in argvs.items():
        builds.clear()
        assert main(argv) == 0, capsys.readouterr().out
        assert "error" not in json.loads(capsys.readouterr().out)
        counts[name] = len(builds)
    fa = filtration_from_json(json.loads(paths["filtration"].read_text()))
    fb = Filtration.of(fa.vertices, [((0,), 1), ((2,), 0), ((0, 2), Fraction(5, 2))], "simplicial")
    op = operator_from_json(json.loads(paths["partial"].read_text()), fa.vertices)
    builds.clear()
    assert len(persistent_mv(fa, fb, op, 0, QQ).grid) == 5
    counts["persistent_mv"] = len(builds)
    assert counts == {name: 2 if name == "duality" else 1 for name in counts}


@pytest.mark.parametrize("ring", ["Z", "Q"])
@pytest.mark.parametrize("arity", [1, 3])
def test_homology_squares_each_boundary_pair_once(monkeypatch, tmp_path, capsys, ring, arity):
    """A `homology` command multiplies each consecutive pair of boundary
    matrices once: `BuiltComplex` checks the pair, and the presentation it
    asks for does not form the product again."""
    labels = [f"s{i}" for i in range(7)]
    edges = [[labels[i] for i in e] for e in Hypergraph(VertexSet.of(*labels),
                                                        power_set(VertexSet.of(*labels))).edges]
    if arity == 1:
        terms = [{"coeff": c, "vertices": [v]} for c, v in zip([1, 2, 3, 2, 1, 2, 3], labels)]
    else:
        terms = [{"coeff": 2, "vertices": ["s0", "s1", "s3"]},
                 {"coeff": 1, "vertices": ["s1", "s2", "s4"]},
                 {"coeff": 1, "vertices": ["s2", "s5", "s6"]}]
    paths = write_docs(tmp_path, {"cx": {"vertices": labels, "edges": edges},
                                  "op": {"kind": "partial", "terms": terms}})
    mul = wrap_bindings(monkeypatch, "linalg", "SparseMatrix.mul")
    assert main(["homology", "--operator", str(paths["op"]), "--ring", ring,
                 str(paths["cx"])]) == 0
    groups = json.loads(capsys.readouterr().out)["groups"]
    assert len(groups) >= 3
    assert len(mul) == len(groups) - 1


def test_nonzero_square_in_a_homology_command_exits_one(monkeypatch, tmp_path, capsys):
    """A boundary pair whose product is nonzero still stops the command
    with exit 1 and the error document of the complex's own check."""
    def perturbed(op, carrier, ring, src_basis, n_target):
        m = _assemble_matrix(op, carrier, ring, src_basis, n_target)
        if n_target != 0 or not src_basis:
            return m
        entries = m.entry_dict()
        entries[(0, 0)] = entries.get((0, 0), 0) + 1
        return SparseMatrix.from_entries(m.rows, m.cols, ring, entries.items())

    monkeypatch.setattr(sys.modules["hyperhom.homology"], "_assemble_matrix", perturbed)
    labels = ["s0", "s1", "s2"]
    paths = write_docs(tmp_path, {
        "cx": {"vertices": labels, "edges": [[], ["s0"], ["s1"], ["s2"], ["s0", "s1"],
                                             ["s1", "s2"], ["s0", "s2"]]},
        "op": {"kind": "partial", "terms": [{"coeff": 1, "vertices": [v]} for v in labels]}})
    for ring in ("Z", "Q"):
        assert main(["homology", "--operator", str(paths["op"]), "--ring", ring,
                     str(paths["cx"])]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "CompositionNotZero", "detail": "operator squared is nonzero from degree 1"}


def test_operator_action_builds_a_second_complex_only_off_the_offset(
        monkeypatch, tmp_path, capsys):
    """`act` builds the target complex only when the even operator moves
    the offset. An arity-1 boundary reduces every offset to 0, so its
    action builds one complex; an arity-3 boundary under an arity-2
    operator builds two. The arity-3 maps stay the ones pinned in
    printed_maps.json."""
    builds = wrap_bindings(monkeypatch, "homology", "build_complex")
    labels = ["a", "b", "c", "d"]
    vs = VertexSet.of(*labels)
    sphere = [[labels[i] for i in e] for e in Hypergraph(vs, power_set(vs)).edges if len(e) < 4]
    paths = write_docs(tmp_path, {
        "file": {"vertices": labels, "edges": sphere},
        "operator": {"kind": "partial", "terms": [{"coeff": c, "vertices": [v]}
                                                  for c, v in zip([1, 2, 1, 3], labels)]},
        "even": {"kind": "partial", "terms": [{"coeff": 1, "vertices": ["a", "c"]}]}})
    for ring in ("Q", "F5"):
        builds.clear()
        flags = ["--ring", "Q"] if ring == "Q" else ["--ring", "Fp", "--p", "5"]
        assert main(["act", "--operator", str(paths["operator"]), "--even",
                     str(paths["even"]), *flags, str(paths["file"])]) == 0
        assert len(json.loads(capsys.readouterr().out)["maps"]) == 4
        assert len(builds) == 1

    pinned = json.loads((Path(__file__).parent / "printed_maps.json").read_text())
    acts = [case for case in pinned if case["command"] == "act"]
    assert len(acts) == 4
    for case in acts:
        docs = case["docs"]
        assert {len(t["vertices"]) for t in docs["operator"]["terms"]} == {3}
        assert {len(t["vertices"]) for t in docs["even"]["terms"]} == {2}
        paths = write_docs(tmp_path, docs)
        builds.clear()
        assert main(["act", "--operator", str(paths["operator"]), "--even",
                     str(paths["even"]), *case["flags"], str(paths["file"])]) == 0
        assert capsys.readouterr().out == case["stdout"]
        assert len(builds) == 2
