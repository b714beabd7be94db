"""The free-algebra calculus by copy-on-add, as the oracle for `words`.

Each primitive builds its sum one term at a time: the term becomes a
one-word `FreeChain` from `face` or `insert`, is scaled, and is added by
copying the whole running dict. `words` built `partial`, `differential`,
`join`, `concat_product` and `induced_map` this way, before the engine's
calculus became `wedge_apply` alone. The arithmetic here (`plus`,
`scaled`) is its own and sets `terms` directly, so that a fault in the
constructor's summing cannot reach the oracle.
"""

from hyperhom.errors import InputError, NotSimplicial, SchemaViolation
from hyperhom.rings import ZZ
from hyperhom.words import SIMPLICIAL, FreeChain, WordClass, classify_word


class IndexOutOfRange(InputError):
    pass


class NotOrderPreserving(InputError):
    pass


def _chain(ring, degree, terms):
    """A chain with these terms, made without the constructor."""
    res = FreeChain.__new__(FreeChain)
    res.ring, res.degree, res.terms = ring, degree, terms
    return res


def face(i, s, w, ring=ZZ):
    """Delete letter i of w when it equals s, with sign (-1)^i."""
    n = len(w) - 1
    if n < 0 or not 0 <= i <= n:
        raise IndexOutOfRange(f"face index {i} invalid for a degree {n} word")
    if w[i] != s:
        return _chain(ring, n - 1, {})
    coeff = ring.one if i % 2 == 0 else ring.neg(ring.one)
    return _chain(ring, n - 1, {w[:i] + w[i + 1 :]: coeff})


def insert(i, s, w, ring=ZZ):
    """Insert s before position i of w, with sign (-1)^i."""
    n = len(w) - 1
    if not 0 <= i <= n + 1:
        raise IndexOutOfRange(f"insertion index {i} invalid for a degree {n} word")
    coeff = ring.one if i % 2 == 0 else ring.neg(ring.one)
    return _chain(ring, n + 1, {w[:i] + (s,) + w[i:]: coeff})


def plus(a, b):
    """a + b, by copying a's terms and adding b's one at a time."""
    if a.ring != b.ring or a.degree != b.degree:
        raise SchemaViolation("cannot add chains of different type")
    out = dict(a.terms)
    for w, c in b.terms.items():
        s = a.ring.add(out.get(w, a.ring.zero), c)
        if a.ring.is_zero(s):
            out.pop(w, None)
        else:
            out[w] = s
    return _chain(a.ring, a.degree, out)


def scaled(a, c):
    c = a.ring.coerce(c)
    if a.ring.is_zero(c):
        return _chain(a.ring, a.degree, {})
    return _chain(a.ring, a.degree, {w: a.ring.mul(c, v) for w, v in a.terms.items()})


def negated(a):
    return _chain(a.ring, a.degree, {w: a.ring.neg(c) for w, c in a.terms.items()})


def face_sum(i, s, c):
    """`face(i, s, -)` on every word of c."""
    out = FreeChain.zero(c.ring, c.degree - 1)
    for w, v in c.terms.items():
        out = plus(out, scaled(face(i, s, w, c.ring), v))
    return out


def insert_sum(i, s, c):
    """`insert(i, s, -)` on every word of c."""
    out = FreeChain.zero(c.ring, c.degree + 1)
    for w, v in c.terms.items():
        out = plus(out, scaled(insert(i, s, w, c.ring), v))
    return out


def partial(s, chain):
    n = chain.degree
    out = FreeChain.zero(chain.ring, n - 1)
    if n < 0:
        return out
    for w, c in chain.terms.items():
        for i in range(n + 1):
            if w[i] == s:
                out = plus(out, scaled(face(i, s, w, chain.ring), c))
    return out


def _simplicial_insert(s, w, ring):
    if s in w:
        return FreeChain.zero(ring, len(w))
    pos = 0
    while pos < len(w) and w[pos] < s:
        pos += 1
    return insert(pos, s, w, ring)


def _require_increasing(w):
    if classify_word(w) is not WordClass.SIMPLICIAL_ACYCLIC:
        raise NotSimplicial(f"word {w} is not strictly increasing")


def differential(s, chain, ambient):
    n = chain.degree
    out = FreeChain.zero(chain.ring, n + 1)
    for w, c in chain.terms.items():
        if ambient == SIMPLICIAL:
            _require_increasing(w)
            out = plus(out, scaled(_simplicial_insert(s, w, chain.ring), c))
        else:
            for i in range(n + 2):
                out = plus(out, scaled(insert(i, s, w, chain.ring), c))
    return out


def project_simplicial(chain):
    return _chain(chain.ring, chain.degree, {
        w: c for w, c in chain.terms.items()
        if classify_word(w) is WordClass.SIMPLICIAL_ACYCLIC})


def _sort_sign(word):
    """Sorted copy and the sign of the sorting permutation; None on repeats."""
    if len(set(word)) != len(word):
        return None, 0
    inv = sum(1 for a in range(len(word)) for b in range(a + 1, len(word))
              if word[a] > word[b])
    return tuple(sorted(word)), (-1) ** inv


def join(a, b):
    if a.ring != b.ring:
        raise SchemaViolation("ring mismatch in join")
    ring = a.ring
    out = FreeChain.zero(ring, a.degree + b.degree + 1)
    for w1, c1 in a.terms.items():
        _require_increasing(w1)
        for w2, c2 in b.terms.items():
            _require_increasing(w2)
            merged, sign = _sort_sign(w1 + w2)
            if merged is None:
                continue
            c = ring.mul(c1, c2)
            if sign < 0:
                c = ring.neg(c)
            out = plus(out, FreeChain(ring, out.degree, {merged: c}))
    return out


def concat_product(a, b):
    if a.ring != b.ring:
        raise SchemaViolation("ring mismatch in product")
    out = FreeChain.zero(a.ring, a.degree + b.degree + 1)
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            out = plus(out, FreeChain(a.ring, out.degree, {w1 + w2: a.ring.mul(c1, c2)}))
    return out


def induced_map(f, chain):
    if any(a > b for a, b in zip(f.images, f.images[1:])):
        raise NotOrderPreserving("vertex map must be order preserving")
    out = FreeChain.zero(chain.ring, chain.degree)
    for w, c in chain.terms.items():
        _require_increasing(w)
        out = plus(out, FreeChain(chain.ring, chain.degree, {tuple(f(i) for i in w): c}))
    return project_simplicial(out)
