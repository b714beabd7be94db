"""Words over an ordered vertex set and their discrete derivations.

A word is a tuple of vertex indices; the empty tuple is the augmentation
element of degree -1, and a word of length n+1 has degree n. Two families
of degree-shifting derivations act on formal sums of words:

* deleting s lowers the degree: the sum, over the positions i where s
  stands, of the word without letter i, with sign (-1)^i;
* inserting s raises it: the sum, over the slots i, of the word with s
  inserted before position i, with sign (-1)^i.

On strictly increasing words the insertion derivation descends to a
quotient rule with at most one surviving term; that quotient is selected
with ambient="simplicial".

Convention: inserting into the empty word is allowed, so the raising
operator sends the degree -1 generator to the sum of single-letter words.
This is the unique extension of the insertion formula to length zero and
it preserves anticommutation (exercised by the test suite).

`wedge_apply` is the calculus: the one implementation that the engine
runs and that the selftest checks. An operator is a `WedgeOperator`, and
a single derivation is the one-term arity-1 operator
`WedgeOperator(kind, 1, ((1, (s,)),))`. `wedge_apply` takes an operator
and a list of words, and returns the image of every word in one call, so
a matrix is one call. It builds the operator's term table once, coercing
the coefficients into the ring, and never composes `FreeChain` sums.
Two run rules carry the calculus: deleting g from a run of k letters g
that starts at i gives one word with sign (-1)^i when k is odd and
nothing when k is even, and inserting g at a slot i followed by k
letters g (and not preceded by g) gives one word with sign (-1)^i when k
is even and nothing when k is odd.

An arity-1 operator, a weighted sum of single derivations, reads each
word once, in one scan over all its letters:

* deletions walk the word's runs, in position order;
* insertions on all words walk the slots once per letter, in letter
  order;
* simplicial insertions merge the sorted letters into the increasing
  word with one pointer, the sign (-1)^p of the slot p, and nothing for
  a letter already in the word.

Higher arities use closed forms where they exist:

* a deletion monomial on a word without repeated letters: each subset P
  of positions whose letters are the generators leaves the word without
  P, with sign (-1)^(sum P + inversions of the word restricted to P);
* a simplicial insertion monomial on a strictly increasing word: the
  sorted merge, with sign (-1)^(sum of the bisection positions), or zero
  when a generator is already a letter;
* on any other word, the monomial applies one derivation at a time by
  the run rules, the same scans with a single letter.

`wedge_chain` applies an operator to a `FreeChain`, as the weighted sum of
the images of its words.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from itertools import combinations, repeat

from .errors import NotSimplicial, SchemaViolation
from .records import record
from .rings import Ring

_set = object.__setattr__

Word = tuple  # tuple of vertex indices

FULL = "full"
SIMPLICIAL = "simplicial"


@record
class VertexSet:
    """Ordered vertex labels; list position is the total order."""

    labels: tuple

    def __post_init__(self):
        position = {label: i for i, label in enumerate(self.labels)}
        if len(position) != len(self.labels):
            raise SchemaViolation("vertex labels must be distinct")
        object.__setattr__(self, "_position", position)

    @staticmethod
    def of(*labels) -> "VertexSet":
        return VertexSet(tuple(labels))

    def __len__(self):
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise SchemaViolation(f"unknown vertex {label!r}") from None


@record
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
    if list(w) == sorted(w):
        return WordClass.SIMPLICIAL_ACYCLIC
    return WordClass.NON_SIMPLICIAL_ACYCLIC


class FreeChain:
    """Homogeneous formal sum of words with exact coefficients.

    `terms` is a dict or an iterable of (word, coefficient) pairs. Each
    coefficient is coerced into the ring and each word checked to have
    the degree; a word that repeats has its coefficients summed in plain
    arithmetic, each sum is reduced once by `Ring.normal`, and the words
    whose sum vanishes are dropped.
    """

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring: Ring, degree: int, terms=()):
        self.ring = ring
        self.degree = degree
        acc = {}
        coerce = ring.coerce
        for w, c in terms.items() if isinstance(terms, dict) else terms or ():
            c = coerce(c)
            if len(w) != degree + 1:
                raise SchemaViolation(f"word {w} does not have degree {degree}")
            acc[w] = acc.get(w, 0) + c
        normal = ring.normal
        self.terms = {w: y for w, x in acc.items() if (y := normal(x)) != 0}

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
        return FreeChain(self.ring, self.degree, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "FreeChain":
        return FreeChain(self.ring, self.degree, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FreeChain") -> "FreeChain":
        return self + (-other)

    def scaled(self, c) -> "FreeChain":
        c = self.ring.coerce(c)
        return FreeChain(self.ring, self.degree, {w: c * v for w, v in self.terms.items()})

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


@record
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

    def __init__(self, kind, arity, terms):
        # straight-line: built for every matrix (see `records`)
        _set(self, "kind", kind)
        _set(self, "arity", arity)
        _set(self, "terms", terms)
        self.__post_init__()

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

    @property
    def shift(self) -> int:
        """The signed degree step: deletions lower the degree by the
        arity, insertions raise it."""
        return -self.arity if self.kind == "partial" else self.arity

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


def _term_table(op: WedgeOperator, ring: Ring) -> dict:
    """{gens: (c, -c)} of `op` over `ring`: repeated generator tuples are
    summed, each coefficient and its negation is reduced by `Ring.normal`,
    and the terms that vanish are dropped. A nonzero coefficient that is
    not an int is coerced first, so one outside the ring raises here."""
    acc = {}
    for c, gens in op.terms:
        if c != 0:
            acc[gens] = acc.get(gens, 0) + (c if type(c) is int else ring.coerce(c))
    normal = ring.normal
    return {gens: (y, normal(-y)) for gens, x in acc.items() if (y := normal(x)) != 0}


def _deletions(table: dict, u: Word):
    """The deletions from u of the letters of `table` by the run rule, in
    position order, as (word, table[g][i & 1]): the k deletions from a
    run of k letters g that starts at i give one word, and cancel in
    pairs down to one or none."""
    n, i = len(u), 0
    while i < n:
        g = u[i]
        j = i + 1
        while j < n and u[j] == g:
            j += 1
        if (j - i) & 1 and g in table:
            yield u[:i] + u[i + 1 :], table[g][i & 1]
        i = j


def _insertions(table: dict, u: Word):
    """The insertions into u of the letters of `table` by the run rule,
    letter by letter and slot by slot, as (word, table[g][i & 1]): the
    k + 1 slots from slot i through a run of k letters g give one word,
    and cancel in pairs down to one or none."""
    n = len(u)
    for g, t in table.items():
        i = 0
        while i <= n:
            j = i
            while j < n and u[j] == g:
                j += 1
            if not (j - i) & 1:
                yield u[:i] + (g,) + u[i:], t[i & 1]
            i = j + 1


def _merges(table: dict, u: Word):
    """The simplicial insertions into the increasing word u of the
    letters of `table`, taken in increasing order, as (word,
    table[g][p & 1]): one pointer into u passes as the letters do, a
    letter of u gives nothing, and any other goes in at its sorted slot p."""
    n, p = len(u), 0
    for g, t in table.items():
        while p < n and u[p] < g:
            p += 1
        if p == n or u[p] != g:
            yield u[:p] + (g,) + u[p:], t[p & 1]


def _compose(gens: tuple, w: Word, step) -> dict:
    """One monomial on one word, right to left: {word: multiplicity}."""
    cur = {w: 1}
    for g in reversed(gens):
        nxt, sign = {}, {g: (1, -1)}
        for u, m in cur.items():
            for v, s in step(sign, u):
                nxt[v] = nxt.get(v, 0) + s * m
        cur = nxt
    return cur


def wedge_apply(op: WedgeOperator, words, ring: Ring, ambient: str = FULL) -> list:
    """The matrix kernel of the calculus: the image of every word of
    `words` under `op`, as a list of (image word, column, coefficient),
    column by column, by the scans, closed forms and run rules of the
    module docstring. Within a column the image words are distinct and
    the coefficients nonzero and reduced by `Ring.normal`.

    At arity 1 each word is read once, by one scan over all the
    operator's letters, and its images go straight out with no sum:
    images of two letters differ in their letter counts, while images of
    one letter share a word only within one run or slot group, where the
    run rule leaves one image. Such a column lists deletions in
    position order and insertions in increasing letter order, slot by
    slot. On the increasing words of an edge carrier both orders are
    letter order, so `OperatorLeavesCarrier` names the image of the
    least letter that leaves the carrier.

    A simplicial insertion of nonzero arity raises `NotSimplicial` on a
    word that is not strictly increasing. The term table is built next,
    before any word is read, so a coefficient outside the ring raises
    even when `words` is empty.
    """
    lowering = op.kind == "partial"
    simplicial = not lowering and ambient == SIMPLICIAL
    if simplicial and op.arity and op.terms:
        for w in words:
            if classify_word(w) is not WordClass.SIMPLICIAL_ACYCLIC:
                raise NotSimplicial(f"word {w} is not strictly increasing")
    terms = _term_table(op, ring)
    k = op.arity
    if not terms or not k:
        return [(w, j, c) for c, _ in terms.values() for j, w in enumerate(words)]
    if k == 1:
        table = dict(sorted((g, t) for (g,), t in terms.items()))
        scan = _merges if simplicial else _deletions if lowering else _insertions
        return [(v, j, c) for j, w in enumerate(words) for v, c in scan(table, w)]
    out = []
    step = _deletions if lowering else _insertions
    normal = ring.normal
    for j, w in enumerate(words):
        if simplicial:
            letters = set(w)
            for gens, t in terms.items():
                if letters.isdisjoint(gens):
                    parity = sum(map(bisect_left, repeat(w), gens))
                    out.append((tuple(sorted(w + gens)), j, t[parity & 1]))
        elif lowering and len(w) < k:
            continue
        elif lowering and len(set(w)) == len(w):
            increasing = list(w) == sorted(w)
            # complements reverse the lexicographic order of subsets
            rest = combinations(w, len(w) - k)
            for P, key, image in zip(combinations(range(len(w)), k), combinations(w, k),
                                     reversed(list(rest))):
                parity = sum(P)
                if not increasing:
                    parity += sum(a > b for a, b in combinations(key, 2))
                    key = tuple(sorted(key))
                t = terms.get(key)
                if t is not None:
                    out.append((image, j, t[parity & 1]))
        else:
            acc = {}
            for gens, (c, _) in terms.items():
                for v, m in _compose(gens, w, step).items():
                    acc[v] = acc.get(v, 0) + m * c
            out.extend((v, j, y) for v, x in acc.items() if (y := normal(x)) != 0)
    return out


def wedge_chain(op: WedgeOperator, chain: FreeChain, ambient: str = FULL) -> FreeChain:
    """Apply a wedge operator to a chain: the sum of its words' images
    under `wedge_apply`, weighted by their coefficients. Lowers the degree
    by the arity for kind "partial" and raises it for kind "d"."""
    ring = chain.ring
    coeffs = list(chain.terms.values())
    acc = {}
    for v, j, c in wedge_apply(op, list(chain.terms), ring, ambient):
        acc[v] = acc.get(v, 0) + coeffs[j] * c
    out = FreeChain(ring, chain.degree + op.shift)
    out.terms = {v: y for v, x in acc.items() if (y := ring.normal(x)) != 0}
    return out

