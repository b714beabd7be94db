"""Words over an ordered vertex set and their discrete derivations.

A word is a tuple of vertex indices; the empty tuple is the augmentation
element of degree -1, and a word of length n+1 has degree n. Two families
of degree-shifting derivations act on formal sums of words:

* `face(i, s, w)` deletes letter i when it equals s, with sign (-1)^i,
* `insert(i, s, w)` inserts s before position i, with sign (-1)^i.

Summing over positions gives the degree-lowering operator `partial` and
the degree-raising operator `differential`. On strictly increasing words
the insertion operator descends to a quotient rule with at most one
surviving term; that quotient is selected with ambient="simplicial".

Convention: inserting into the empty word is allowed, so the raising
operator sends the degree -1 generator to the sum of single-letter words.
This is the unique extension of the insertion formula to length zero and
it preserves anticommutation (exercised by the test suite).

`face`, `insert`, `partial` and `differential` are the reference
primitives on `FreeChain`. `wedge_apply`, which every boundary matrix and
operator action goes through, uses their closed forms on plain
{word: multiplicity} dicts instead: a deletion or insertion at position i
has sign (-1)^i, a deletion of a letter absent from the word is zero, and
on strictly increasing words a simplicial insertion survives at exactly
one position (found by bisection) or not at all.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .errors import IndexOutOfRange, NotOrderPreserving, NotSimplicial, SchemaViolation
from .rings import Ring, ZZ

Word = tuple  # tuple of vertex indices

FULL = "full"
SIMPLICIAL = "simplicial"


@dataclass(frozen=True)
class VertexSet:
    """Ordered vertex labels; list position is the total order."""

    labels: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise SchemaViolation("vertex labels must be distinct")

    @staticmethod
    def of(*labels) -> "VertexSet":
        return VertexSet(tuple(labels))

    def __len__(self):
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SchemaViolation(f"unknown vertex {label!r}") from None

    def word_labels(self, w: Word) -> tuple:
        return tuple(self.labels[i] for i in w)


@dataclass(frozen=True)
class VertexMap:
    """A vertex assignment between two ordered vertex sets."""

    domain: VertexSet
    codomain: VertexSet
    images: tuple  # images[i] = index in codomain

    def __post_init__(self):
        if len(self.images) != len(self.domain):
            raise SchemaViolation("vertex map must assign every domain vertex")
        for j in self.images:
            if not 0 <= j < len(self.codomain):
                raise SchemaViolation("vertex map image outside codomain")

    @property
    def injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    @property
    def order_preserving(self) -> bool:
        return all(a <= b for a, b in zip(self.images, self.images[1:]))

    @property
    def strictly_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.images, self.images[1:]))

    def __call__(self, i: int) -> int:
        return self.images[i]

    @staticmethod
    def identity(vs: VertexSet) -> "VertexMap":
        return VertexMap(vs, vs, tuple(range(len(vs))))


class WordClass(Enum):
    CYCLIC = "cyclic"
    NON_SIMPLICIAL_ACYCLIC = "non-simplicial-acyclic"
    SIMPLICIAL_ACYCLIC = "simplicial-acyclic"


def classify_word(w: Word) -> WordClass:
    if len(set(w)) != len(w):
        return WordClass.CYCLIC
    if all(a < b for a, b in zip(w, w[1:])):
        return WordClass.SIMPLICIAL_ACYCLIC
    return WordClass.NON_SIMPLICIAL_ACYCLIC


class FreeChain:
    """Homogeneous formal sum of words with exact coefficients."""

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring: Ring, degree: int, terms=None):
        self.ring = ring
        self.degree = degree
        self.terms = {}
        if terms:
            for w, c in dict(terms).items():
                c = ring.coerce(c)
                if len(w) != degree + 1:
                    raise SchemaViolation(f"word {w} does not have degree {degree}")
                if not ring.is_zero(c):
                    self.terms[w] = c

    @staticmethod
    def zero(ring: Ring, degree: int) -> "FreeChain":
        return FreeChain(ring, degree)

    @staticmethod
    def single(ring: Ring, w: Word, coeff=1) -> "FreeChain":
        return FreeChain(ring, len(w) - 1, {tuple(w): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FreeChain") -> "FreeChain":
        if self.ring != other.ring or self.degree != other.degree:
            raise SchemaViolation("cannot add chains of different type")
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = self.ring.add(out.get(w, self.ring.zero), c)
            if self.ring.is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
        res = FreeChain(self.ring, self.degree)
        res.terms = out
        return res

    def __neg__(self) -> "FreeChain":
        res = FreeChain(self.ring, self.degree)
        res.terms = {w: self.ring.neg(c) for w, c in self.terms.items()}
        return res

    def __sub__(self, other: "FreeChain") -> "FreeChain":
        return self + (-other)

    def scaled(self, c) -> "FreeChain":
        c = self.ring.coerce(c)
        res = FreeChain(self.ring, self.degree)
        if not self.ring.is_zero(c):
            res.terms = {w: self.ring.mul(c, v) for w, v in self.terms.items()}
        return res

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeChain)
            and self.ring == other.ring
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.degree, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return f"FreeChain<0 @ deg {self.degree}>"
        body = " + ".join(f"{c}*{w}" for w, c in self.sorted_terms())
        return f"FreeChain<{body}>"


def face(i: int, s: int, w: Word, ring: Ring = ZZ) -> FreeChain:
    """Delete letter i of w when it equals s, with sign (-1)^i."""
    n = len(w) - 1
    if n < 0 or not 0 <= i <= n:
        raise IndexOutOfRange(f"face index {i} invalid for a degree {n} word")
    if w[i] != s:
        return FreeChain.zero(ring, n - 1)
    coeff = ring.one if i % 2 == 0 else ring.neg(ring.one)
    return FreeChain(ring, n - 1, {w[:i] + w[i + 1 :]: coeff})


def insert(i: int, s: int, w: Word, ring: Ring = ZZ) -> FreeChain:
    """Insert s before position i of w, with sign (-1)^i."""
    n = len(w) - 1
    if not 0 <= i <= n + 1:
        raise IndexOutOfRange(f"insertion index {i} invalid for a degree {n} word")
    coeff = ring.one if i % 2 == 0 else ring.neg(ring.one)
    return FreeChain(ring, n + 1, {w[:i] + (s,) + w[i:]: coeff})


def partial(s: int, chain: FreeChain) -> FreeChain:
    """Sum of all face deletions of s; lowers degree by one."""
    n = chain.degree
    out = FreeChain.zero(chain.ring, n - 1)
    if n < 0:
        return out
    for w, c in chain.terms.items():
        for i in range(n + 1):
            if w[i] == s:
                out = out + face(i, s, w, chain.ring).scaled(c)
    return out


def _simplicial_insert(s: int, w: Word, ring: Ring) -> FreeChain:
    # at most one insertion position keeps the word strictly increasing
    if s in w:
        return FreeChain.zero(ring, len(w))
    pos = 0
    while pos < len(w) and w[pos] < s:
        pos += 1
    return insert(pos, s, w, ring)


def differential(s: int, chain: FreeChain, ambient: str = FULL) -> FreeChain:
    """Sum of all insertions of s; raises degree by one.

    ambient="full" sums every signed insertion; ambient="simplicial"
    applies the quotient rule on strictly increasing words.
    """
    n = chain.degree
    out = FreeChain.zero(chain.ring, n + 1)
    for w, c in chain.terms.items():
        if ambient == SIMPLICIAL:
            if classify_word(w) is not WordClass.SIMPLICIAL_ACYCLIC:
                raise NotSimplicial(f"word {w} is not strictly increasing")
            out = out + _simplicial_insert(s, w, chain.ring).scaled(c)
        else:
            for i in range(n + 2):
                out = out + insert(i, s, w, chain.ring).scaled(c)
    return out


def project_simplicial(chain: FreeChain) -> FreeChain:
    """Coordinate projection onto strictly increasing words (no sorting)."""
    res = FreeChain.zero(chain.ring, chain.degree)
    res.terms = {
        w: c
        for w, c in chain.terms.items()
        if classify_word(w) is WordClass.SIMPLICIAL_ACYCLIC
    }
    return res


def _sort_sign(word: Word):
    """Sorted copy and the sign of the sorting permutation; None on repeats."""
    if len(set(word)) != len(word):
        return None, 0
    inv = 0
    items = list(word)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if items[a] > items[b]:
                inv += 1
    return tuple(sorted(items)), (-1) ** inv


def join(a: FreeChain, b: FreeChain) -> FreeChain:
    """Signed sorted concatenation, zero whenever a letter repeats."""
    if a.ring != b.ring:
        raise SchemaViolation("ring mismatch in join")
    ring = a.ring
    out = FreeChain.zero(ring, a.degree + b.degree + 1)
    for w1, c1 in a.terms.items():
        if classify_word(w1) is not WordClass.SIMPLICIAL_ACYCLIC:
            raise NotSimplicial(f"word {w1} is not strictly increasing")
        for w2, c2 in b.terms.items():
            if classify_word(w2) is not WordClass.SIMPLICIAL_ACYCLIC:
                raise NotSimplicial(f"word {w2} is not strictly increasing")
            merged, sign = _sort_sign(w1 + w2)
            if merged is None:
                continue
            c = ring.mul(c1, c2)
            if sign < 0:
                c = ring.neg(c)
            out = out + FreeChain(ring, out.degree, {merged: c})
    return out


def concat_product(a: FreeChain, b: FreeChain) -> FreeChain:
    """Free-algebra product: plain concatenation, bilinear.

    The empty word concatenates as the unit, so degree -1 factors are
    allowed and absorb into the other side.
    """
    if a.ring != b.ring:
        raise SchemaViolation("ring mismatch in product")
    out = FreeChain.zero(a.ring, a.degree + b.degree + 1)
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            out = out + FreeChain(a.ring, out.degree, {w1 + w2: a.ring.mul(c1, c2)})
    return out


@dataclass(frozen=True)
class WedgeOperator:
    """Homogeneous element of the exterior algebra on one derivation family.

    kind "partial" uses the deletion derivations, kind "d" the insertion
    derivations. Each term is (coefficient, strictly increasing vertex
    tuple); all terms share the same arity. A monomial acts by composing
    its generators in ascending vertex order (rightmost applied first);
    any other order differs by a global sign only.
    """

    kind: str  # "partial" | "d"
    arity: int
    terms: tuple  # ((coeff, gens), ...)

    def __post_init__(self):
        if self.kind not in ("partial", "d"):
            raise SchemaViolation(f"unknown operator kind {self.kind!r}")
        for coeff, gens in self.terms:
            if len(gens) != self.arity:
                raise SchemaViolation("all wedge terms must share one arity")
            if any(a >= b for a, b in zip(gens, gens[1:])):
                raise SchemaViolation(
                    f"generator list {gens} must be strictly increasing"
                )

    @staticmethod
    def build(kind: str, arity: int, terms) -> "WedgeOperator":
        acc = {}
        for coeff, gens in terms:
            gens = tuple(gens)
            acc[gens] = acc.get(gens, 0) + coeff
        clean = tuple(
            (c, gens) for gens, c in sorted(acc.items()) if c != 0
        )
        return WedgeOperator(kind, arity, clean)

    @staticmethod
    def weighted_sum(kind: str, coeffs) -> "WedgeOperator":
        """Arity-one operator: the weighted sum of single derivations."""
        return WedgeOperator.build(
            kind, 1, [(c, (i,)) for i, c in enumerate(coeffs)]
        )

    @staticmethod
    def scalar(kind: str, c=1) -> "WedgeOperator":
        return WedgeOperator.build(kind, 0, [(c, ())])

    @property
    def is_odd(self) -> bool:
        return self.arity % 2 == 1

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def wedge(self, other: "WedgeOperator") -> "WedgeOperator":
        if self.kind != other.kind:
            raise SchemaViolation("cannot wedge different derivation families")
        out = []
        for c1, g1 in self.terms:
            for c2, g2 in other.terms:
                if set(g1) & set(g2):
                    continue
                inv = sum(1 for a in g1 for b in g2 if a > b)
                c = c1 * c2 * (-1) ** inv
                out.append((c, tuple(sorted(g1 + g2))))
        return WedgeOperator.build(self.kind, self.arity + other.arity, out)

    def relabel(self, f: VertexMap) -> "WedgeOperator":
        if not f.strictly_increasing:
            raise NotOrderPreserving("relabeling needs a strictly increasing map")
        return WedgeOperator.build(
            self.kind,
            self.arity,
            [(c, tuple(f(g) for g in gens)) for c, gens in self.terms],
        )


def _delete_all(g: int, cur: dict) -> dict:
    """`partial(g, ·)` on a {word: multiplicity} dict."""
    out = {}
    for u, m in cur.items():
        for i, x in enumerate(u):
            if x == g:
                v = u[:i] + u[i + 1 :]
                out[v] = out.get(v, 0) + (-m if i & 1 else m)
    return out


def _insert_all(g: int, cur: dict) -> dict:
    """`differential(g, ·, FULL)` on a {word: multiplicity} dict."""
    out = {}
    for u, m in cur.items():
        for i in range(len(u) + 1):
            v = u[:i] + (g,) + u[i:]
            out[v] = out.get(v, 0) + (-m if i & 1 else m)
    return out


def wedge_apply(op: WedgeOperator, chain: FreeChain, ambient: str = FULL) -> FreeChain:
    """Apply a wedge operator; lowers degree by its arity for kind
    "partial", raises it for kind "d".

    Each monomial composes its generators right to left on one word at a
    time, with integer multiplicities, through the closed forms of `face`
    and `insert`: deleting or inserting at position i has sign (-1)^i. A
    deletion monomial whose generators are not all letters of the word
    gives zero. In the simplicial ambient each insertion has at most one
    surviving position, found by bisection, so the monomial's image is a
    single signed word, or zero when a generator is already a letter.
    Coefficients are coerced once, all of them, before any term is
    skipped, and one `FreeChain` is built at the end.
    """
    ring = chain.ring
    lowering = op.kind == "partial"
    simplicial = not lowering and ambient == SIMPLICIAL
    step = _delete_all if lowering else _insert_all
    if simplicial and op.arity and op.terms:
        for w in chain.terms:
            if classify_word(w) is not WordClass.SIMPLICIAL_ACYCLIC:
                raise NotSimplicial(f"word {w} is not strictly increasing")
    monomials = [(ring.coerce(c), gens[::-1]) for c, gens in op.terms]
    monomials = [(c, gens) for c, gens in monomials if c != 0]
    acc = {}
    for w, cw in chain.terms.items():
        letters = set(w)
        for c, gens in monomials:
            if lowering and not letters.issuperset(gens):
                continue
            if simplicial and not letters.isdisjoint(gens):
                continue
            if simplicial:
                u, m = w, 1
                for g in gens:
                    i = bisect_left(u, g)
                    u = u[:i] + (g,) + u[i:]
                    if i & 1:
                        m = -m
                image = {u: m}
            else:
                image = {w: 1}
                for g in gens:
                    image = step(g, image)
            k = c * cw
            for v, m in image.items():
                acc[v] = acc.get(v, 0) + k * m
    if ring.p is not None:
        acc = {v: x % ring.p for v, x in acc.items()}
    shift = -op.arity if lowering else op.arity
    out = FreeChain(ring, chain.degree + shift)
    out.terms = {v: x for v, x in acc.items() if x != 0}
    return out


def induced_map(f: VertexMap, chain: FreeChain) -> FreeChain:
    """Relabel letters through an order-preserving vertex map, then project
    back onto strictly increasing words (collapsed words die)."""
    if not f.order_preserving:
        raise NotOrderPreserving("vertex map must be order preserving")
    out = FreeChain.zero(chain.ring, chain.degree)
    for w, c in chain.terms.items():
        if classify_word(w) is not WordClass.SIMPLICIAL_ACYCLIC:
            raise NotSimplicial(f"word {w} is not strictly increasing")
        out = out + FreeChain(chain.ring, chain.degree, {tuple(f(i) for i in w): c})
    return project_simplicial(out)
