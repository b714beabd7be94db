"""The tuple routes that the bitmask `Hypergraph` replaced, kept as its oracle.

A family here is a frozenset of words, sorted index tuples with () the
empty edge, over the vertices range(n). Each function is the route that
`hyperhom.hypergraphs` or `hyperhom.persistence` took while edges were
held as words: subsets through `combinations`, complements through sets of
indices, and the filtration rule checked on every sublevel.
"""

from fractions import Fraction
from itertools import chain, combinations

from hyperhom.errors import MonotonicityViolation, SchemaViolation
from hyperhom.hypergraphs import HypergraphClass

CLASSES = {(True, True): HypergraphClass.BOTH,
           (True, False): HypergraphClass.SIMPLICIAL_COMPLEX,
           (False, True): HypergraphClass.INDEPENDENCE_HYPERGRAPH,
           (False, False): HypergraphClass.NEITHER}


def power_set(n: int) -> frozenset:
    return frozenset(chain.from_iterable(combinations(range(n), k) for k in range(n + 1)))


def supersets(e: tuple, n: int):
    """Every superset of the word e, e itself included."""
    rest = [v for v in range(n) if v not in e]
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            yield tuple(sorted(e + extra))


def Delta(edges: frozenset) -> frozenset:
    """The smallest simplicial complex around the family: every nonempty
    subface of an edge, and the empty edge only when it is an edge."""
    out = set()
    for e in edges:
        if e == ():
            out.add(())
        for k in range(1, len(e) + 1):
            out.update(combinations(e, k))
    return frozenset(out)


def barDelta(edges: frozenset, n: int) -> frozenset:
    """The smallest independence hypergraph around the family."""
    return frozenset(chain.from_iterable(supersets(e, n) for e in edges))


def delta(edges: frozenset) -> frozenset:
    """The edges whose nonempty proper subfaces are all edges."""
    return frozenset(e for e in edges if all(
        tau in edges for k in range(1, len(e)) for tau in combinations(e, k)))


def bardelta(edges: frozenset, n: int) -> frozenset:
    """The edges whose supersets are all edges."""
    return frozenset(e for e in edges if all(f in edges for f in supersets(e, n)))


def gamma(edges: frozenset, n: int) -> frozenset:
    return power_set(n) - edges


def Gamma(edges: frozenset, n: int) -> frozenset:
    everything = set(range(n))
    return frozenset(tuple(sorted(everything - set(e))) for e in edges)


def classify(edges: frozenset, n: int) -> HypergraphClass:
    return CLASSES[delta(edges) == edges, bardelta(edges, n) == edges]


def trace(edges: frozenset, tidx: tuple) -> frozenset:
    """Restriction onto the sorted vertex subset tidx, renumbered: the
    nonempty intersections, and the empty edge exactly when it is an edge."""
    pos = {v: i for i, v in enumerate(tidx)}
    out = {tuple(pos[v] for v in e if v in pos) for e in edges}
    out.discard(())
    return frozenset(out | (edges & {()}))


def join(a: frozenset, na: int, b: frozenset) -> frozenset:
    """The join of a, on range(na), and b, its vertices after a's."""
    shifted = [tuple(v + na for v in e) for e in b]
    return frozenset(a).union(shifted, (e + f for e in a for f in shifted))


def morphism_image(images: tuple, edges: frozenset) -> frozenset:
    """The image of each edge under the vertex map v -> images[v]."""
    return frozenset(tuple(sorted({images[v] for v in e})) for e in edges)


def filtration(n: int, rows, cls: str) -> tuple:
    """The ((birth, edge), ...) of (index list, birth) rows by birth, then
    edge, or the error `Filtration.of` raises, with its text: every
    sublevel must be closed in the class, and the empty edge born first."""
    if cls not in ("simplicial", "independence"):
        raise SchemaViolation(f"unknown filtration class {cls!r}")
    births = {}
    for raw, birth in rows:
        e = tuple(sorted(raw))
        if e in births:
            raise SchemaViolation(f"edge {e} listed twice")
        births[e] = Fraction(birth)
    grid = sorted(set(births.values()))
    if () in births and births[()] > grid[0]:
        raise MonotonicityViolation("the empty edge must be born with the first edges")
    for x in grid:
        level = frozenset(e for e, b in births.items() if b <= x)
        closed = delta(level) if cls == "simplicial" else bardelta(level, n)
        if closed != level:
            offender = sorted(level, key=lambda e: (len(e), e))
            raise MonotonicityViolation(f"sublevel family at {x} is not closed; edges {offender}")
    return tuple(sorted((b, e) for e, b in births.items()))
