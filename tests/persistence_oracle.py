"""The Fraction route of `hyperhom.persistence`, kept as the oracle of its
birth-index route.

Here births are compared as `Fraction`s at every stage: the one-pass
validation, the pairing (the homology pairing by two Gauss-Jordan
`field_reduce` calls, whose Counter and sort are keyed by Fraction pairs,
on a carrier that classifies the final complex again) and the rank grid,
which counts the bars alive over each grid pair one pair at a time. Each
function reads a filtration only through `births`, `vertices`,
`monotonicity_class` and `final_complex`.

`full_row_negatives` is the route that found the barcode's negative
edges before clearing across degrees: one elimination of every row of
the degree's outgoing matrix.
"""

from collections import Counter
from fractions import Fraction

from hyperhom.errors import MonotonicityViolation, SchemaViolation
from hyperhom.homology import ComplexSpec, build_complex, edge_carrier
from hyperhom.hypergraphs import Hypergraph
from hyperhom.linalg import field_reduce, forward_pivots
from hyperhom.persistence import Barcode, Filtration, PersistentRanks, _check_operator


def unvalidated(vertices, births: dict, cls: str) -> Filtration:
    """The record of births {word: birth} as `Filtration.of` lays it out,
    by birth, then word, each edge as its mask, without validating it."""
    grid = tuple(sorted({Fraction(b) for b in births.values()}))
    index = {x: k for k, x in enumerate(grid)}
    rows = sorted((index[Fraction(b)], e) for e, b in births.items())
    return Filtration(vertices, grid, tuple((k, sum(1 << v for v in e)) for k, e in rows), cls)


def validate(f) -> None:
    """The one-pass validation on Fraction births."""
    births = dict(f.births)
    if () in births and births[()] > min(births.values()):
        raise MonotonicityViolation(
            "the empty edge must be born with the first edges"
        )
    simplicial = f.monotonicity_class == "simplicial"
    nv = len(f.vertices)
    broken = []
    for edge, birth in births.items():
        if not simplicial:
            near = [tuple(sorted(edge + (v,))) for v in range(nv) if v not in edge]
        elif len(edge) > 1:
            near = [edge[:i] + edge[i + 1:] for i in range(len(edge))]
        else:
            near = ()
        if any(births.get(e, birth + 1) > birth for e in near):
            broken.append(birth)
    if broken:
        x = min(broken)
        offender = sorted((e for e, b in f.births if b <= x), key=lambda e: (len(e), e))
        raise MonotonicityViolation(
            f"sublevel family at {x} is not closed; edges {offender}"
        )


def rank_between(bars, x, y) -> int:
    """Number of bars alive on the whole closed interval [x, y]."""
    x, y = Fraction(x), Fraction(y)
    total = 0
    for birth, death, mult in bars:
        if birth <= x and (death is None or death > y):
            total += mult
    return total


def barcode(f, operator, q, ring, n) -> Barcode:
    """The standard pairing on the final complex, keyed by Fraction births.
    `field_reduce` reduces the rows in place, so a pivot row is the dict
    of the incoming edge it came from."""
    _check_operator(f, operator)
    if not ring.is_field:
        raise SchemaViolation("persistence needs field coefficients")
    final = Hypergraph(f.vertices, f.final_complex.masks)  # classified again, not trusted
    spec = ComplexSpec(edge_carrier(final), operator, q, ring)
    spec.require_on_grid(n)
    built = build_complex(spec)
    pos = {edge: k for k, (edge, _) in enumerate(f.births)}
    births = [birth for _, birth in f.births]
    last = len(births) - 1
    edges = built.basis(n)
    src_edges = built.basis(n - operator.shift)
    out_rows, in_rows = {}, {}
    for (i, j), v in built.matrix(n).entries:
        out_rows.setdefault(i, {})[pos[edges[j]]] = v
    for (i, j), v in built.incoming_matrix(n).entries:
        in_rows.setdefault(pos[src_edges[j]], {})[last - pos[edges[i]]] = v
    negative = field_reduce(list(out_rows.values()), ring)[0]
    closer = {id(row): births[k] for k, row in in_rows.items()}
    pivots, pivot_rows = field_reduce([in_rows[k] for k in sorted(in_rows, reverse=True)], ring)
    paired = set(negative).union(last - c for c in pivots)
    bars = Counter((births[last - c], closer[id(row)]) for c, row in zip(pivots, pivot_rows))
    bars.update((births[pos[e]], None) for e in edges if pos[e] not in paired)
    order = sorted((bar for bar in bars if bar[0] != bar[1]),
                   key=lambda bar: (bar[0], bar[1] is None, bar[1] or 0))
    return Barcode(n, tuple((birth, death, bars[birth, death]) for birth, death in order))


def persistent_ranks(f, operator, q, ring, n) -> PersistentRanks:
    """The rank grid by `rank_between`, once for each grid pair."""
    bars = barcode(f, operator, q, ring, n).bars
    grid = sorted({birth for _, birth in f.births})
    ranks = {(i, j): rank_between(bars, grid[i], grid[j])
             for i in range(len(grid)) for j in range(i, len(grid))}
    return PersistentRanks(n, tuple(grid), ranks)


def full_row_negatives(built, pos, n) -> set:
    """The negative n-edges of `persistence._clearing_walk`, numbered by
    `pos`, from `forward_pivots` on every row of the outgoing matrix: the
    lead set of matrix(n), with its columns in birth order."""
    place = [pos[e] for e in built.basis(n)]
    rows = {}
    for (i, j), v in built.matrix(n).entries:
        rows.setdefault(i, {})[place[j]] = v
    return set(forward_pivots(list(rows.values()), built.spec.ring))
