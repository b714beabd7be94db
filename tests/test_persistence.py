import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from hyperhom.errors import MonotonicityViolation, SchemaViolation
from hyperhom.homology import (
    MV_NODE_PARTS,
    BuiltComplex,
    ComplexSpec,
    LongExactSequence,
    build_complex,
    edge_carrier,
    homology_table,
    inclusion_induced,
    inclusion_map,
    mayer_vietoris,
    mv_complexes,
    mv_sequence,
    operator_action,
)
from hyperhom import persistence
from hyperhom.hypergraphs import (
    ClosureOp,
    CombineOp,
    Hypergraph,
    HypergraphClass,
    closure,
    combine,
    power_set,
)
from hyperhom.linalg import SparseMatrix
from hyperhom.persistence import (
    Filtration,
    PersistentMV,
    _mv_square_check,
    barcode,
    complex_at,
    persistent_mv,
    persistent_ranks,
)
from hyperhom.rings import GF, QQ
from hyperhom.words import VertexSet, WedgeOperator

import persistence_oracle
from field_oracle import modp_row_rank, q_rank
from persistence_oracle import rank_between, unvalidated
from test_map_route import random_boundary

S3 = VertexSet.of("s0", "s1", "s2")


def alpha(*r):
    return WedgeOperator.weighted_sum("partial", r)


def omega(*r):
    return WedgeOperator.weighted_sum("d", r)


SEG = Filtration.of(S3, [((0,), 0), ((1,), 0), ((0, 1), 1)], "simplicial")


def test_complex_at():
    assert complex_at(SEG, -1).edges == frozenset()
    assert complex_at(SEG, 5).edges == {(0,), (1,), (0, 1)}
    assert complex_at(SEG, Fraction(1, 2)).edges == {(0,), (1,)}


def test_final_complex_is_made_once():
    f = Filtration.of(S3, [((0,), 0), ((1,), 0), ((0, 1), 1)], "simplicial")
    assert f.final_complex is f.final_complex
    assert f.final_complex.edges == {(0,), (1,), (0, 1)}


def test_final_complex_carries_the_class_validate_proved():
    """`final_complex` comes with the class `validate` proved, set without
    a classify, and it is the class a fresh classify finds: on random
    filtrations of both classes, the empty filtration and the power set
    (with and without the empty edge) in either class."""
    rng = random.Random(131)
    filtrations = [Filtration.of(S3, [(e, 0) for e in edges], cls)
                   for cls in ("simplicial", "independence")
                   for edges in ([], power_set(S3), power_set(S3) - {()})]
    for _ in range(60):
        nv = rng.randint(1, 4)
        filtrations += [random_simplicial_filtration(rng, nv),
                        random_independence_filtration(rng, nv)]
    seen = Counter()
    for f in filtrations:
        final = f.final_complex
        assert "_closed" in vars(final)
        fresh = Hypergraph(f.vertices, final.edges).classify()
        assert final.classify() is fresh, (f.monotonicity_class, final.sorted_edges())
        seen[fresh] += 1
    assert set(seen) == {HypergraphClass.SIMPLICIAL_COMPLEX,
                         HypergraphClass.INDEPENDENCE_HYPERGRAPH, HypergraphClass.BOTH}, seen


def test_sublevels_and_their_squares_carry_the_fresh_class(monkeypatch):
    """Every sublevel `complex_at` gives, and every intersection and union
    of two sublevels that `mv_complexes` forms, carries the class
    `validate` proved, set without a classify, and it is the class of a
    fresh `Hypergraph` on the same edges: on random pairs of both classes,
    with one side the whole power set now and then. `persistent_mv` then
    computes no `_closed` at all."""
    rng = random.Random(139)
    pairs = []
    for _ in range(40):
        nv, empty = rng.randint(1, 4), rng.random() < 0.3
        fa, fb = (random_simplicial_filtration(rng, nv, empty) for _ in range(2))
        if fa.final_complex.has_empty_edge == fb.final_complex.has_empty_edge:
            pairs.append((fa, fb, "partial"))
        fa, fb = random_independence_filtration(rng, nv), random_independence_filtration(rng, nv)
        if rng.random() < 0.2:
            fa = Filtration.of(fa.vertices, [(e, 0) for e in power_set(fa.vertices)],
                               "independence")
        pairs.append((fa, fb, "d"))
    seen = Counter()
    for fa, fb, _ in pairs:
        for x in sorted(set(fa.grid) | set(fb.grid)):
            a, b = fa.complex_at(x), fb.complex_at(x)
            for h in (a, b, combine(a, b, CombineOp.INTERSECT), combine(a, b, CombineOp.UNION)):
                assert "_closed" in vars(h)
                fresh = Hypergraph(h.vertices, h.edges).classify()
                assert h.classify() is fresh, (fa.monotonicity_class, h.sorted_edges())
                seen[fresh] += 1
    assert min(seen[c] for c in (HypergraphClass.SIMPLICIAL_COMPLEX, HypergraphClass.BOTH,
                                 HypergraphClass.INDEPENDENCE_HYPERGRAPH)) >= 20, seen
    classified = []
    rule = Hypergraph.__dict__["_closed"]
    counted = cached_property(lambda h: classified.append(h) or rule.func(h))
    counted.__set_name__(Hypergraph, "_closed")
    monkeypatch.setattr(Hypergraph, "_closed", counted)
    for fa, fb, kind in pairs[:20]:
        op = WedgeOperator.weighted_sum(kind, [1] * len(fa.vertices))
        persistent_mv(fa, fb, op, 0, QQ)
    assert classified == []


def test_barcode_classifies_nothing(monkeypatch):
    """The class rule is written once, in `ComplexSpec`: `persistence`
    names no carrier kind, and `barcode` reads the class of the final
    complex without computing a `_closed`, where the oracle, which
    classifies a fresh copy, computes one per call."""
    source = Path(persistence.__file__).read_text()
    assert re.findall(r"\bCarrier\b|\b_closed\b|_EDGES\b|_WORDS\b", source) == []
    package = [p.read_text() for p in Path(persistence.__file__).parent.glob("*.py")]
    for text in ("carrier is not an augmented simplicial complex",
                 "carrier is not an augmented independence hypergraph"):
        assert sum(src.count(text) for src in package) == 1
    classified = []
    rule = Hypergraph.__dict__["_closed"]
    counted = cached_property(lambda h: classified.append(h) or rule.func(h))
    counted.__set_name__(Hypergraph, "_closed")
    monkeypatch.setattr(Hypergraph, "_closed", counted)
    for cls, kind in (("simplicial", "partial"), ("independence", "d")):
        f = rips_filtration(random.Random(7), 8, 4, cls)
        op = WedgeOperator.weighted_sum(kind, [1] * 8)
        for n in range(-1, 8):
            barcode(f, op, 0, QQ, n)
        assert classified == []
        assert persistence_oracle.barcode(f, op, 0, QQ, 0) == barcode(f, op, 0, QQ, 0)
        assert len(classified) == 1
        classified.clear()


def test_monotonicity_validation():
    with pytest.raises(MonotonicityViolation):
        Filtration.of(S3, [((0, 1), 0), ((0,), 1), ((1,), 1)], "simplicial")
    # an independence filtration must contain supersets from the start:
    # a lone two-vertex edge on three vertices is not upward closed
    with pytest.raises(MonotonicityViolation):
        Filtration.of(S3, [((0, 1), 0), ((0, 1, 2), 1)], "independence")
    with pytest.raises(MonotonicityViolation):
        Filtration.of(S3, [((0,), 0), ((), 1)], "simplicial")


@pytest.mark.parametrize("edge", [(-1,), (5,), (0, 0), (True,), ("c",), ("a", "a")])
def test_filtration_of_parses_edges_as_hypergraph_of(edge):
    vs = VertexSet.of("a", "b")
    with pytest.raises(SchemaViolation) as want:
        Hypergraph.of(vs, [edge])
    with pytest.raises(SchemaViolation) as got:
        Filtration.of(vs, [(edge, 0)], "simplicial")
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_filtration_of_takes_labels_or_indices():
    vs = VertexSet.of("a", "b")
    by_label = Filtration.of(vs, [(("a",), 0), (("b",), 0), (("b", "a"), 1)], "simplicial")
    mixed = Filtration.of(vs, [((0,), 0), (("b",), 0), ((1, "a"), 1)], "simplicial")
    assert by_label == mixed
    assert by_label.indexed == ((0, (0,)), (0, (1,)), (1, (0, 1)))
    assert by_label._masks == (1, 2, 3)


def test_persistent_ranks_segment():
    pr = persistent_ranks(SEG, alpha(1, 1, 1), 0, QQ, 0)
    assert pr.grid == (0, 1)
    assert pr.rank(0, 0) == 2
    assert pr.rank(0, 1) == 1
    assert pr.rank(1, 1) == 1


def test_single_threshold_ranks_equal_betti():
    f = Filtration.of(S3, [((0,), 0), ((1,), 0)], "simplicial")
    pr = persistent_ranks(f, alpha(1, 1, 1), 0, QQ, 0)
    assert pr.grid == (0,)
    assert pr.betti_diagonal == [2]


def test_constant_filtration_constant_ranks():
    f = Filtration.of(S3, [((0,), 2), ((1,), 2), ((0, 1), 2)], "simplicial")
    pr = persistent_ranks(f, alpha(1, 1, 1), 0, QQ, 0)
    assert pr.ranks == {(0, 0): 1}


def test_barcode_segment():
    bc = barcode(SEG, alpha(1, 1, 1), 0, QQ, 0)
    assert set(bc.bars) == {(Fraction(0), Fraction(1), 1), (Fraction(0), None, 1)}


def test_barcode_empty_filtration():
    f = Filtration.of(S3, [], "simplicial")
    assert barcode(f, alpha(1, 1, 1), 0, QQ, 0).bars == ()


def test_independence_barcode_class_dies():
    # top simplex first, then a smaller edge whose insertion image fills
    # the degree-two group (weight 2 is invertible mod 3)
    f = Filtration.of(S3, [((0, 1, 2), 0), ((0, 1), 1)], "independence")
    bc = barcode(f, omega(1, 1, 2), 0, GF(3), 2)
    assert bc.bars == ((Fraction(0), Fraction(1), 1),)


def test_barcode_rank_duality():
    pr = persistent_ranks(SEG, alpha(1, 1, 1), 0, QQ, 0)
    bc = barcode(SEG, alpha(1, 1, 1), 0, QQ, 0)
    for i in range(len(pr.grid)):
        for j in range(i, len(pr.grid)):
            assert rank_between(bc.bars, pr.grid[i], pr.grid[j]) == pr.rank(i, j)


def random_simplicial_filtration(rng, nverts, with_empty=None):
    vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
    pool = sorted(power_set(vs), key=lambda e: (len(e), e))
    final = closure(
        Hypergraph(vs, frozenset(e for e in pool if e and rng.random() < 0.5)),
        ClosureOp.DELTA_UP,
    )
    births = {}
    for e in sorted(final.edges, key=len):
        floor = max((births[tuple(f)] for k in range(1, len(e))
                     for f in itertools.combinations(e, k)), default=0)
        births[e] = floor + rng.choice([0, 0, 1, Fraction(1, 2)])
    if with_empty is None:
        with_empty = rng.random() < 0.3
    if with_empty and births:
        births[()] = 0
    return Filtration.of(vs, list(births.items()), "simplicial")


def random_independence_filtration(rng, nverts):
    """Edgewise complement of a simplicial filtration that has the empty
    edge but not the full simplex: an independence filtration."""
    f = random_simplicial_filtration(rng, nverts, with_empty=True)
    full = tuple(range(nverts))
    births = [(tuple(v for v in full if v not in e), b) for e, b in f.births if e != full]
    return Filtration.of(f.vertices, births, "independence")


def validate_by_thresholds(f):
    """The per-threshold route that `Filtration.validate` replaced, kept as
    its oracle: build and classify the sublevel family at every critical
    value, in order. Each family is classified as a fresh `Hypergraph`, so
    that no class `complex_at` may carry is trusted."""
    births = dict(f.births)
    if () in births and f.births and births[()] > min(b for _, b in f.births):
        raise MonotonicityViolation("the empty edge must be born with the first edges")
    for x in f.critical_values():
        h = f.complex_at(x)
        h = Hypergraph(h.vertices, h.edges)
        ok = (h.is_simplicial_complex if f.monotonicity_class == "simplicial"
              else h.is_independence_hypergraph)
        if not ok:
            offender = sorted(h.edges, key=lambda e: (len(e), e))
            raise MonotonicityViolation(f"sublevel family at {x} is not closed; edges {offender}")


def validation_outcome(check, f):
    try:
        check(f)
    except MonotonicityViolation as exc:
        return str(exc)
    return None


def mutated_births(rng, f):
    """The births of f, unchanged or with one edge moved, dropped or added,
    or the empty edge added or removed."""
    births = dict(f.births)
    edges = sorted(births, key=lambda e: (len(e), e))
    pool = sorted(power_set(f.vertices), key=lambda e: (len(e), e))
    later = [0, Fraction(1, 2), 1, 2, 3]
    move = rng.choice(["keep", "keep", "delay", "drop", "add", "empty"])
    if move == "delay" and edges:
        e = rng.choice(edges)
        births[e] += rng.choice(later[1:])
    elif move == "drop" and edges:
        del births[rng.choice(edges)]
    elif move == "add":
        births.setdefault(rng.choice(pool), rng.choice(later))
    elif move == "empty":
        if () in births:
            del births[()]
        else:
            births[()] = rng.choice(later)
    return births


@pytest.mark.parametrize("cls", ["simplicial", "independence"])
def test_one_pass_validation_matches_per_threshold_route(cls):
    rng = random.Random(f"validate:{cls}")
    seen = set()
    for _ in range(600):
        nverts = rng.randint(1, 5)
        if cls == "simplicial":
            base = random_simplicial_filtration(rng, nverts)
        elif rng.random() < 0.2:
            # with the empty edge, an independence family holds every
            # subset from the first threshold on
            vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
            base = Filtration.of(vs, [(e, 1) for e in power_set(vs)], cls)
        else:
            base = random_independence_filtration(rng, nverts)
        births = mutated_births(rng, base)
        f = unvalidated(base.vertices, births, cls)
        want = validation_outcome(validate_by_thresholds, f)
        assert validation_outcome(Filtration.validate, f) == want, f
        seen.add((() in births, "valid" if want is None else want.split()[1]))
    assert seen == {(empty, result) for empty in (False, True)
                    for result in ("valid", "family")} | {(True, "empty")}


def random_operator(rng, kind, nverts, arity):
    if arity == 1:
        return WedgeOperator.weighted_sum(kind, [rng.randint(1, 3) for _ in range(nverts)])
    terms = [(rng.randint(1, 3), tuple(sorted(rng.sample(range(nverts), 3))))
             for _ in range(rng.randint(1, 2))]
    return WedgeOperator.build(kind, 3, terms)


def grid_degrees(f, op, q):
    return [n for n in range(-1, f.final_complex.top_degree + 1) if (n - q) % op.arity == 0]


def ranks_by_pairs(f, op, q, ring):
    """The per-pair route: one inclusion_induced call per grid pair and the
    Betti number of each threshold on the diagonal, for every degree."""
    grid = f.critical_values()
    degrees = grid_degrees(f, op, q)
    out = {n: {} for n in degrees}
    for i, x in enumerate(grid):
        betti = {g.degree: g.presentation.free_rank
                 for g in homology_table(ComplexSpec(edge_carrier(f.complex_at(x)), op, q, ring))}
        for n in degrees:
            out[n][(i, i)] = betti.get(n, 0)
        for j in range(i + 1, len(grid)):
            maps = inclusion_induced(f.complex_at(x), f.complex_at(grid[j]), op, q, ring)
            for n in degrees:
                out[n][(i, j)] = maps[n].rank() if n in maps else 0
    return out


def bars_from_ranks(grid, ranks):
    """Interval decomposition by inclusion-exclusion over a rank grid
    {(i, j): rank}, in order of birth, then death, open bars last."""
    m = len(grid)
    bars = []
    for i in range(m):
        for j in range(i + 1, m):
            mult = ranks[(i, j - 1)] - ranks[(i, j)]
            if i > 0:
                mult -= ranks[(i - 1, j - 1)] - ranks[(i - 1, j)]
            if mult > 0:
                bars.append((grid[i], grid[j], mult))
        mult = ranks[(i, m - 1)]
        if i > 0:
            mult -= ranks[(i - 1, m - 1)]
        if mult > 0:
            bars.append((grid[i], None, mult))
    return tuple(bars)


@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("arity", [1, 3])
@pytest.mark.parametrize("cls", ["simplicial", "independence"])
def test_persistent_ranks_match_per_pair_route(cls, arity, ring):
    rng = random.Random(f"{cls}:{arity}:{ring}")
    kind = "partial" if cls == "simplicial" else "d"
    persisting = dying = 0
    for t in range(8):
        nverts = rng.randint(3, 4) if arity == 1 else rng.randint(4, 5)
        if cls == "simplicial":
            f = random_simplicial_filtration(rng, nverts, with_empty=t % 2 == 0)
        else:
            f = random_independence_filtration(rng, nverts)
        op = random_operator(rng, kind, nverts, arity)
        if op.is_zero:
            continue
        grid = f.critical_values()
        for q in range(arity):
            for n, expected in ranks_by_pairs(f, op, q, ring).items():
                got = persistent_ranks(f, op, q, ring, n).ranks
                assert got == expected
                assert barcode(f, op, q, ring, n).bars == bars_from_ranks(grid, expected)
                for (i, j), r in got.items():
                    if i < j:
                        persisting += r > 0
                        dying += r < got[(i, i)]
    assert persisting > 0 and dying > 0


def spelled(rng, x):
    """The birth x as Filtration.of takes it: a Fraction, an int when
    integral, a float when exact, or an "a/b" string, reduced or not."""
    options = [x, str(x), f"{2 * x.numerator}/{2 * x.denominator}"]
    if x.denominator == 1:
        options.append(x.numerator)
    if x.denominator in (1, 2, 4):
        options.append(float(x))
    return rng.choice(options)


def random_births(rng, vs, cls, with_empty, single):
    """Births {edge: Fraction} of a valid filtration of class `cls`, from
    a start in [-3/2, 2/3] up by steps of 0, 1/3, 1/2 or 1 (all 0 when
    `single`). In the independence class the edges are the complements of
    a simplicial filtration's, and with the empty edge the family is the
    whole power set, born at once."""
    start = rng.choice([Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(2, 3)])
    if cls == "independence" and with_empty:
        return {e: start for e in power_set(vs)}
    steps = [0] if single else [0, 0, Fraction(1, 3), Fraction(1, 2), 1]
    final = closure(Hypergraph(vs, frozenset(e for e in power_set(vs)
                                             if e and rng.random() < 0.5)),
                    ClosureOp.DELTA_UP)
    births = {}
    for e in sorted(final.edges, key=len):
        faces = [births[e[:i] + e[i + 1:]] for i in range(len(e))] if len(e) > 1 else []
        births[e] = max(faces, default=start) + rng.choice(steps)
    if cls == "independence":
        full = tuple(range(len(vs)))
        births.setdefault((), start)
        return {tuple(v for v in full if v not in e): b for e, b in births.items() if e != full}
    if with_empty and births:
        births[()] = start
    return births


@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("arity", [1, 3])
@pytest.mark.parametrize("cls", ["simplicial", "independence"])
def test_birth_index_route_matches_fraction_route(cls, arity, ring):
    """`Filtration.of`, `validate`, `barcode` and `persistent_ranks` on birth
    indices against the Fraction route of `persistence_oracle`, with births
    repeated, negative, non-integral and spelled several ways, with and
    without the empty edge, and on a single threshold."""
    rng = random.Random(f"indices:{cls}:{arity}:{ring}")
    kind = "partial" if cls == "simplicial" else "d"
    seen = Counter()
    for t in range(30):
        nverts = rng.randint(3, 4) if arity == 1 else rng.randint(4, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
        births = random_births(rng, vs, cls, with_empty=t % 3 == 0, single=t % 4 == 1)
        rows = [(tuple(rng.sample(e, len(e))), spelled(rng, x)) for e, x in births.items()]
        rng.shuffle(rows)
        f = Filtration.of(vs, rows, cls)
        assert f.births == tuple(sorted(births.items(), key=lambda kv: (kv[1], kv[0])))
        assert f == unvalidated(vs, births, cls)
        for _ in range(6):
            g = unvalidated(vs, mutated_births(rng, f), cls)
            want = validation_outcome(persistence_oracle.validate, g)
            assert validation_outcome(Filtration.validate, g) == want
            seen["valid" if want is None else "invalid"] += 1
        op = random_operator(rng, kind, nverts, arity)
        if op.is_zero:
            continue
        for q in range(arity):
            for n in grid_degrees(f, op, q):
                want = persistence_oracle.barcode(f, op, q, ring, n)
                assert barcode(f, op, q, ring, n) == want
                assert (persistent_ranks(f, op, q, ring, n)
                        == persistence_oracle.persistent_ranks(f, op, q, ring, n))
                seen["finite"] += any(death is not None for _, death, _ in want.bars)
                seen["open"] += any(death is None for _, death, _ in want.bars)
        seen["single"] += len(f.grid) == 1
        seen["empty"] += () in births
        seen["negative"] += any(x < 0 for x in f.grid)
        seen["fractional"] += any(x.denominator > 1 for x in f.grid)
    assert all(seen[key] > 0 for key in ("valid", "invalid", "finite", "open", "single",
                                         "empty", "negative", "fractional")), seen


def rips_filtration(rng, npts, top, cls):
    """Clique filtration of npts integer points jittered around a circle,
    with cliques of up to `top` points, each born at its longest squared
    side, and the empty edge and the points at 0. In the independence
    class every edge is replaced by its complement."""
    vs = VertexSet.of(*[f"p{i}" for i in range(npts)])
    pts = [(round(1000 * math.cos(2 * math.pi * i / npts)) + rng.randint(-150, 150),
            round(1000 * math.sin(2 * math.pi * i / npts)) + rng.randint(-150, 150))
           for i in range(npts)]
    births = {}
    for k in range(top + 1):
        for e in itertools.combinations(range(npts), k):
            births[e] = max((sum((s - t) ** 2 for s, t in zip(pts[a], pts[b]))
                             for a, b in itertools.combinations(e, 2)), default=0)
    if cls == "independence":
        births = {tuple(v for v in range(npts) if v not in e): b for e, b in births.items()}
    return Filtration.of(vs, list(births.items()), cls)


def map_rank(induced, ring):
    """Rank of an induced map by the eliminations that F_p and Q `rank`
    used before `field_reduce`."""
    m = induced.matrix
    if ring.p:
        rows = [{} for _ in range(m.rows)]
        for (i, j), v in m.entries:
            rows[i][j] = v
        return modp_row_rank(rows, ring.p)
    return q_rank(m)


def ranks_by_built_pairs(f, op, q, ring):
    """The rank-grid route: each threshold's complex built once, the
    Betti numbers on the diagonal and one inclusion descended per grid
    pair, for every degree."""
    built = [build_complex(ComplexSpec(edge_carrier(f.complex_at(x)), op, q, ring))
             for x in f.critical_values()]
    out = {}
    for n in grid_degrees(f, op, q):
        out[n] = {}
        for i, small in enumerate(built):
            out[n][(i, i)] = small.solver(n).betti
            for j in range(i + 1, len(built)):
                out[n][(i, j)] = map_rank(inclusion_map(small, built[j], n), ring)
    return out


# one offset per arity-3 case, the one whose complex has a nonzero map
# between two of its degrees
@pytest.mark.parametrize("cls, arity, q, ring", [
    ("simplicial", 1, 0, GF(5)), ("simplicial", 3, 0, QQ),
    ("independence", 1, 0, GF(5)), ("independence", 3, 2, GF(5)),
], ids=["simplicial-1-F5", "simplicial-3-Q", "independence-1-F5", "independence-3-F5"])
def test_long_rips_filtrations_match_rank_grid_route(cls, arity, q, ring):
    rng = random.Random(f"rips:{cls}:{arity}")
    f = rips_filtration(rng, 10, 4 if arity == 3 else 3, cls)
    grid = f.critical_values()
    assert len(grid) >= 40
    op = random_operator(rng, "partial" if cls == "simplicial" else "d", 10, arity)
    finite = set()
    for n, expected in ranks_by_built_pairs(f, op, q, ring).items():
        assert persistent_ranks(f, op, q, ring, n).ranks == expected
        bars = barcode(f, op, q, ring, n).bars
        assert bars == bars_from_ranks(grid, expected)
        finite.update(n for _, death, _ in bars if death is not None)
    assert len(finite) >= (2 if arity == 1 else 1)


@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
def test_complement_law_on_barcodes(ring):
    """Complementing edges sends an edge e of degree n to V - e, of degree
    npts - 2 - n, and deleting s from e to inserting s into V - e. With
    every weight 1 their signs, -1 to the number of letters below s in
    the word, differ by (-1)^s, so e -> (-1)^(sum e) (V - e) carries the
    deletion complex of a simplicial filtration onto the insertion
    complex of its complemented independence filtration, births kept:
    their bars agree at degrees n and npts - 2 - n. Cliques stop at
    npts - 1 points, as the full set's complement would be a late empty
    edge."""
    compared = finite = 0
    for seed in range(6):
        for npts in (6, 7, 8):
            f, g = (rips_filtration(random.Random(seed), npts, npts - 1, cls)
                    for cls in ("simplicial", "independence"))
            deletion, insertion = (WedgeOperator.weighted_sum(kind, [1] * npts)
                                   for kind in ("partial", "d"))
            for n in range(-1, npts):
                bars = barcode(f, deletion, 0, ring, n).bars
                assert bars == barcode(g, insertion, 0, ring, npts - 2 - n).bars, (seed, npts, n)
                compared += 1
                finite += any(death is not None for _, death, _ in bars)
    assert compared == 6 * (7 + 8 + 9) and finite >= 40


def test_rank_monotonicity_and_functoriality_random():
    rng = random.Random(67)
    for _ in range(15):
        f = random_simplicial_filtration(rng, rng.randint(2, 4))
        op = alpha(*[rng.randint(1, 3) for _ in range(len(f.vertices))])
        for n in (0, 1):
            pr = persistent_ranks(f, op, 0, QQ, n)
            m = len(pr.grid)
            for i in range(m):
                for j in range(i, m):
                    if j + 1 < m:
                        assert pr.rank(i, j) >= pr.rank(i, j + 1)
                    if i > 0:
                        assert pr.rank(i, j) >= pr.rank(i - 1, j)
            bc = barcode(f, op, 0, QQ, n)
            for i in range(m):
                for j in range(i, m):
                    assert rank_between(bc.bars, pr.grid[i], pr.grid[j]) == pr.rank(i, j)


def test_inclusion_composition_functoriality():
    rng = random.Random(71)
    for _ in range(10):
        f = random_simplicial_filtration(rng, 3)
        grid = f.critical_values()
        if len(grid) < 3:
            continue
        op = alpha(1, 1, 1)
        x, y, z = grid[0], grid[len(grid) // 2], grid[-1]
        for n in (0, 1):
            m_xy = inclusion_induced(f.complex_at(x), f.complex_at(y), op, 0, QQ)
            m_yz = inclusion_induced(f.complex_at(y), f.complex_at(z), op, 0, QQ)
            m_xz = inclusion_induced(f.complex_at(x), f.complex_at(z), op, 0, QQ)
            if n in m_xz and n in m_yz and n in m_xy:
                assert m_yz[n].compose(m_xy[n]).matrix == m_xz[n].matrix


def test_action_commutes_with_persistence_maps():
    rng = random.Random(73)
    for _ in range(10):
        f = random_simplicial_filtration(rng, 3)
        grid = f.critical_values()
        if len(grid) < 2:
            continue
        op = alpha(*[rng.randint(1, 2) for _ in range(3)])
        beta = WedgeOperator.build("partial", 2, [(1, (0, 1))])
        x, y = grid[0], grid[-1]
        kx, ky = f.complex_at(x), f.complex_at(y)
        act_x = operator_action(ComplexSpec(edge_carrier(kx), op, 0, QQ), beta)
        act_y = operator_action(ComplexSpec(edge_carrier(ky), op, 0, QQ), beta)
        incl = inclusion_induced(kx, ky, op, 0, QQ)
        for n, m in act_x.items():
            tgt = m.target_degree
            if tgt < -1 or n not in incl:
                continue
            lhs = act_y[n].compose(incl[n])
            if tgt in incl:
                rhs = incl[tgt].compose(m)
                assert lhs.matrix == rhs.matrix


def test_persistent_mv_identical_filtrations():
    rep = persistent_mv(SEG, SEG, alpha(1, 1, 1), 0, QQ)
    assert rep.squares_commute
    assert all(seq.all_exact for seq in rep.sequences)


def test_persistent_mv_grown_pair():
    fa = Filtration.of(S3, [((0,), 0), ((1,), 0), ((0, 1), 1)], "simplicial")
    fb = Filtration.of(S3, [((1,), 0), ((2,), 0), ((1, 2), 2)], "simplicial")
    rep = persistent_mv(fa, fb, alpha(1, 1, 1), 0, QQ)
    assert rep.grid == (0, 1, 2)
    assert rep.squares_commute
    assert all(seq.all_exact for seq in rep.sequences)


def edge_complex(h, op, q, ring):
    return build_complex(ComplexSpec(edge_carrier(h), op, q, ring))


def per_threshold_route(fa, fb, op, q, ring):
    """`persistent_mv` computed threshold by threshold, kept as its oracle:
    `mayer_vietoris` at each threshold, and the naturality squares checked
    between squares whose four complexes are each built on their own."""
    grid = sorted(set(fa.critical_values()) | set(fb.critical_values()))
    sequences, squares = [], []
    for x in grid:
        a, b = fa.complex_at(x), fb.complex_at(x)
        sequences.append(mayer_vietoris(a, b, op, q, ring))
        parts = {"cap": combine(a, b, CombineOp.INTERSECT), "a": a, "b": b,
                 "cup": combine(a, b, CombineOp.UNION)}
        squares.append({part: edge_complex(h, op, q, ring) for part, h in parts.items()})
    commute = all(square_check_by_search(squares[i], squares[i + 1], sequences[i],
                                         sequences[i + 1]) for i in range(len(grid) - 1))
    return PersistentMV(tuple(grid), tuple(sequences), commute)


def square_check_by_search(cx_x, cx_y, seq_x, seq_y) -> bool:
    """`_mv_square_check` by the route the one offset replaced, kept as its
    oracle: each pair of consecutive earlier nodes is looked up among the
    later ones by a scan."""
    ring = cx_x["cup"].spec.ring

    def vertical(label, n):
        placed, rows, cols = [], 0, 0
        for part in MV_NODE_PARTS[label]:
            small, large = cx_x[part], cx_y[part]
            m = (SparseMatrix.identity(small.solver(n).betti, ring) if small is large
                 else inclusion_map(small, large, n).matrix)
            placed.append(((rows, cols), m))
            rows, cols = rows + m.rows, cols + m.cols
        return SparseMatrix.blocks(rows, cols, ring, placed)

    keys = [(node.label, node.degree) for node in seq_x.nodes]
    keys_y = [(node.label, node.degree) for node in seq_y.nodes]
    vert = {key: vertical(*key) for key in keys}
    for idx, (src, tgt) in enumerate(zip(keys, keys[1:])):
        if src not in keys_y or keys_y[keys_y.index(src) + 1] != tgt:
            return False
        ydx = keys_y.index(src)
        if vert[tgt].mul(seq_x.maps[idx]) != seq_y.maps[ydx].mul(vert[src]):
            return False
    return True


def persistent_squares(fa, fb, op, q, ring):
    """Each threshold's square and sequence, cut as `persistent_mv` cuts
    them, with the parts that did not change kept."""
    final = edge_complex(combine(fa.final_complex, fb.final_complex, CombineOp.UNION),
                         op, q, ring)
    out, previous = [], None
    for x in sorted(set(fa.grid) | set(fb.grid)):
        previous = mv_complexes(fa.complex_at(x), fb.complex_at(x), op, ring,
                                final.restrict, previous)
        out.append((previous, mv_sequence(previous)))
    return out


def with_one_entry_changed(rng, seq):
    """seq with one entry of one nonempty map raised by one, or None."""
    ks = [k for k, m in enumerate(seq.maps) if m.rows and m.cols]
    if not ks:
        return None
    k = rng.choice(ks)
    m = seq.maps[k]
    entries = m.entry_dict()
    pos = (rng.randrange(m.rows), rng.randrange(m.cols))
    entries[pos] = m.ring.add(entries.get(pos, m.ring.zero), m.ring.one)
    changed = SparseMatrix.from_entries(m.rows, m.cols, m.ring, entries.items())
    return LongExactSequence(seq.nodes, seq.maps[:k] + (changed,) + seq.maps[k + 1:],
                             seq.junctions)


def test_mv_square_check_matches_search_route():
    """Pairs of `persistent_mv` squares one and two thresholds apart, as
    cut and with one entry of a later map changed: both operator families,
    arity 1 and 3, Q and F_5, and an arity-3 operator at offset 1, whose
    first thresholds hold vertices only and so no degree on its grid."""
    rng = random.Random(83)
    cases = []
    for cls, arity, ring in itertools.product(("simplicial", "independence"), (1, 3),
                                              (QQ, GF(5))):
        for _ in range(3):
            nverts = 3 if arity == 1 else 4
            make = (random_simplicial_filtration if cls == "simplicial"
                    else random_independence_filtration)
            fa, fb = make(rng, nverts), make(rng, nverts)
            if cls == "simplicial" and (() in fa.final_complex.edges) != (
                    () in fb.final_complex.edges):
                continue
            kind = "partial" if cls == "simplicial" else "d"
            cases.append((fa, fb, random_boundary(rng, ring, kind, nverts, arity),
                          rng.randrange(arity), ring))
    s5 = VertexSet.of(*[f"v{i}" for i in range(5)])
    fa = Filtration.of(s5, [(e, {1: 0, 2: 1, 3: 2}.get(len(e), 3))
                            for e in power_set(s5) if e], "simplicial")
    fb = Filtration.of(s5, [((v,), 0) for v in range(5)] + [
        ((0, 1), 2), ((1, 2), 2), ((0, 2), 3), ((0, 1, 2), 3)], "simplicial")
    op = WedgeOperator.build("partial", 3, [(1, (0, 1, 2)), (2, (1, 3, 4)), (1, (0, 2, 4))])
    cases.append((fa, fb, op, 1, QQ))
    seen = Counter()
    for fa, fb, op, q, ring in cases:
        squares = persistent_squares(fa, fb, op, q, ring)
        for i, j in itertools.combinations(range(len(squares)), 2):
            if j - i > 2:
                continue
            (cx_x, seq_x), (cx_y, seq_y) = squares[i], squares[j]
            assert _mv_square_check(cx_x, cx_y, seq_x, seq_y)
            assert square_check_by_search(cx_x, cx_y, seq_x, seq_y)
            seen["no degree" if not seq_x.nodes else "commute"] += 1
            changed = with_one_entry_changed(rng, seq_y)
            if changed is not None:
                want = square_check_by_search(cx_x, cx_y, seq_x, changed)
                assert _mv_square_check(cx_x, cx_y, seq_x, changed) == want
                seen[want] += 1
    assert seen["no degree"] >= 2 and seen["commute"] >= 50, seen
    assert seen[False] >= 20 and seen[True] >= 5, seen


def test_persistent_mv_random():
    """Both classes, arity 1 and 3 on every offset, Q and F_5, with and
    without the empty edge (for the independence class, one side is then
    the whole power set, born at once)."""
    rng = random.Random(79)
    nontrivial = 0
    for cls, arity, ring, with_empty in itertools.product(
            ("simplicial", "independence"), (1, 3), (QQ, GF(5)), (False, True)):
        for _ in range(3):
            nverts = 3 if arity == 1 else 4
            if cls == "simplicial":
                fa = random_simplicial_filtration(rng, nverts, with_empty=with_empty)
                fb = random_simplicial_filtration(rng, nverts, with_empty=with_empty)
            else:
                fa = random_independence_filtration(rng, nverts)
                fb = random_independence_filtration(rng, nverts)
                if with_empty:
                    birth = rng.choice([0, Fraction(1, 2), 1])
                    fa = Filtration.of(fa.vertices, [(e, birth) for e in power_set(fa.vertices)],
                                       "independence")
            kind = "partial" if cls == "simplicial" else "d"
            op = random_boundary(rng, ring, kind, nverts, arity)
            q = rng.randrange(arity)
            rep = persistent_mv(fa, fb, op, q, ring)
            assert rep == per_threshold_route(fa, fb, op, q, ring)
            assert rep.squares_commute
            assert all(seq.all_exact for seq in rep.sequences)
            nontrivial += len(rep.grid) > 1 and any(
                not m.is_zero() for seq in rep.sequences for m in seq.maps)
    assert nontrivial >= 20, nontrivial


def test_persistent_mv_reuses_a_side_that_stops_changing(monkeypatch):
    """b is born whole at the first threshold, and a grows at the next
    three: b is restricted once, and its solvers are built once per
    degree, for every threshold's square and every vertical map."""
    s4 = VertexSet.of("s0", "s1", "s2", "s3")
    fa = Filtration.of(s4, [((0,), 0), ((1,), 1), ((0, 1), 2), ((2,), 3), ((1, 2), 3)],
                       "simplicial")
    fb = Filtration.of(s4, [((2,), 0), ((3,), 0), ((2, 3), 0)], "simplicial")
    b_edges = fb.final_complex.edges
    restricted, solved = Counter(), Counter()
    restrict, solver = BuiltComplex.restrict, BuiltComplex.solver

    def counting_restrict(self, h):
        restricted[h.edges] += 1
        return restrict(self, h)

    def counting_solver(self, n):
        solved[self.spec.carrier.hypergraph.edges, n] += n not in self._solvers
        return solver(self, n)

    monkeypatch.setattr(BuiltComplex, "restrict", counting_restrict)
    monkeypatch.setattr(BuiltComplex, "solver", counting_solver)
    op = alpha(1, 2, 3, 1)
    rep = persistent_mv(fa, fb, op, 0, QQ)
    monkeypatch.undo()
    assert rep == per_threshold_route(fa, fb, op, 0, QQ)
    assert len(rep.grid) == 4 and rep.squares_commute
    assert restricted[b_edges] == 1
    assert {n: solved[b_edges, n] for n in (-1, 0, 1)} == {-1: 1, 0: 1, 1: 1}


def test_mv_square_check_sees_a_changed_entry():
    fa = Filtration.of(S3, [((0,), 0), ((1,), 0), ((0, 1), 1)], "simplicial")
    fb = Filtration.of(S3, [((1,), 0), ((2,), 0), ((1, 2), 2)], "simplicial")
    op = alpha(1, 1, 1)

    def build(union):
        return edge_complex(union, op, 0, QQ)

    cx_x = mv_complexes(fa.complex_at(0), fb.complex_at(0), op, QQ, build)
    cx_y = mv_complexes(fa.complex_at(1), fb.complex_at(1), op, QQ, build)
    seq_x, seq_y = mv_sequence(cx_x), mv_sequence(cx_y)
    assert _mv_square_check(cx_x, cx_y, seq_x, seq_y)
    # change the later intersection-to-sum map in degree 0: its source, the
    # class of s1, maps isomorphically between the thresholds, so the
    # square through it must fail
    k = [(node.label, node.degree) for node in seq_y.nodes].index(("intersection", 0))
    first = seq_y.maps[k]
    assert (first.rows, first.cols) == (3, 1)
    entries = first.entry_dict()
    entries[(0, 0)] = entries.get((0, 0), 0) + 1
    changed = SparseMatrix.from_entries(3, 1, QQ, entries.items())
    maps = seq_y.maps[:k] + (changed,) + seq_y.maps[k + 1:]
    changed_seq = LongExactSequence(seq_y.nodes, maps, seq_y.junctions)
    assert not _mv_square_check(cx_x, cx_y, seq_x, changed_seq)


def test_operator_kind_must_match_class():
    with pytest.raises(SchemaViolation):
        persistent_ranks(SEG, omega(1, 1, 1), 0, QQ, 0)
