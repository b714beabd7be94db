import itertools
import random
from fractions import Fraction

import pytest

from hyperhom.errors import IndexOutOfRange, NotSimplicial, SchemaViolation
from hyperhom.rings import GF, QQ, ZZ
from hyperhom.words import (
    FULL,
    SIMPLICIAL,
    FreeChain,
    VertexMap,
    VertexSet,
    WedgeOperator,
    WordClass,
    classify_word,
    concat_product,
    differential,
    face,
    induced_map,
    insert,
    join,
    partial,
    project_simplicial,
    wedge_apply,
)

S3 = VertexSet.of("s0", "s1", "s2")


def chain(*words, ring=ZZ):
    out = FreeChain.zero(ring, len(words[0][0]) - 1)
    for w, c in words:
        out = out + FreeChain(ring, out.degree, {tuple(w): c})
    return out


def test_face_examples():
    assert face(1, 1, (0, 1)) == chain(((0,), -1))
    assert face(0, 0, (0, 1)) == chain(((1,), 1))
    assert face(0, 1, (0, 1)).is_zero()
    with pytest.raises(IndexOutOfRange):
        face(2, 0, (0, 1))


def test_insert_examples():
    assert insert(1, 5, (0, 1)) == chain(((0, 5, 1), -1))
    assert insert(0, 0, (1,)) == chain(((0, 1), 1))
    assert insert(0, 3, ()) == chain(((3,), 1))
    with pytest.raises(IndexOutOfRange):
        insert(3, 0, (0,))


def test_partial_examples():
    assert partial(1, chain(((0, 1), 1))) == chain(((0,), -1))
    assert partial(0, chain(((0, 0), 1))).is_zero()
    assert partial(0, chain(((0,), 1))) == FreeChain(ZZ, -1, {(): 1})
    # degree -1 input maps to the zero chain below it
    assert partial(0, FreeChain(ZZ, -1, {(): 1})).is_zero()


def test_differential_examples():
    assert differential(2, chain(((0, 1), 1)), SIMPLICIAL) == chain(((0, 1, 2), 1))
    assert differential(1, chain(((0, 2), 1)), SIMPLICIAL) == chain(((0, 1, 2), -1))
    assert differential(0, chain(((0, 1), 1)), SIMPLICIAL).is_zero()
    # the full ambient keeps every insertion
    got = differential(2, chain(((0, 1), 1)), FULL)
    assert got == chain(((2, 0, 1), 1), ((0, 2, 1), -1), ((0, 1, 2), 1))
    with pytest.raises(NotSimplicial):
        differential(0, chain(((1, 0), 1)), SIMPLICIAL)


def test_differential_on_empty_word():
    empty = FreeChain(ZZ, -1, {(): 1})
    assert differential(1, empty, SIMPLICIAL) == chain(((1,), 1))
    assert differential(1, empty, FULL) == chain(((1,), 1))


def test_classify_word():
    assert classify_word((0, 1, 0)) is WordClass.CYCLIC
    assert classify_word((1, 0)) is WordClass.NON_SIMPLICIAL_ACYCLIC
    assert classify_word((0, 1)) is WordClass.SIMPLICIAL_ACYCLIC
    assert classify_word(()) is WordClass.SIMPLICIAL_ACYCLIC


def test_project_simplicial():
    assert project_simplicial(chain(((0, 1), 1))) == chain(((0, 1), 1))
    assert project_simplicial(chain(((1, 0), 1))).is_zero()
    mixed = chain(((0, 1), 1), ((1, 0), 2), ((0, 0), 1))
    assert project_simplicial(mixed) == chain(((0, 1), 1))


def test_join():
    one = lambda *w: chain((w, 1))
    assert join(one(0), one(1)) == one(0, 1)
    assert join(one(0, 2), one(1)) == chain(((0, 1, 2), -1))
    assert join(one(0), one(0)).is_zero()
    # graded commutativity: x * y = (-1)^((n+1)(m+1)) y * x
    assert join(one(1), one(0, 2)) == chain(((0, 1, 2), -1))


def test_wedge_apply_examples():
    op = WedgeOperator.build("partial", 2, [(1, (0, 1))])
    got = wedge_apply(op, chain(((0, 1), 1)), FULL)
    assert got == FreeChain(ZZ, -1, {(): -1})

    alpha = WedgeOperator.weighted_sum("partial", [1, 1, 1])
    got = wedge_apply(alpha, chain(((0, 1), 1)), SIMPLICIAL)
    assert got == chain(((1,), 1), ((0,), -1))


def test_wedge_scalar_and_zero():
    scal = WedgeOperator.scalar("d", 7)
    c = chain(((0, 2), 3))
    assert wedge_apply(scal, c, SIMPLICIAL) == c.scaled(7)
    zero_op = WedgeOperator.build("partial", 1, [])
    assert wedge_apply(zero_op, c, FULL).is_zero()


def test_wedge_product_normalizes_signs():
    a = WedgeOperator.build("partial", 1, [(1, (1,))])
    b = WedgeOperator.build("partial", 1, [(1, (0,))])
    ab = a.wedge(b)
    assert ab.terms == ((-1, (0, 1)),)
    assert a.wedge(a).is_zero


def test_odd_operator_squares_to_zero():
    rng = random.Random(3)
    for _ in range(40):
        arity = rng.choice([1, 3])
        terms = []
        for _ in range(rng.randint(1, 3)):
            gens = tuple(sorted(rng.sample(range(4), arity)))
            terms.append((rng.randint(-2, 2), gens))
        op = WedgeOperator.build("partial", arity, terms)
        dop = WedgeOperator.build("d", arity, terms)
        w = tuple(rng.randrange(4) for _ in range(rng.randint(arity, 5)))
        c = FreeChain.single(ZZ, w)
        assert wedge_apply(op, wedge_apply(op, c, FULL), FULL).is_zero()
        assert wedge_apply(dop, wedge_apply(dop, c, FULL), FULL).is_zero()
        sw = tuple(sorted(rng.sample(range(5), rng.randint(arity, 4))))
        sc = FreeChain.single(ZZ, sw)
        assert wedge_apply(dop, wedge_apply(dop, sc, SIMPLICIAL), SIMPLICIAL).is_zero()


def composed_wedge_apply(op, chain, ambient=FULL):
    """Oracle: each monomial composes `partial` or `differential` on the
    whole chain through `FreeChain` arithmetic, then scales and adds."""
    shift = -op.arity if op.kind == "partial" else op.arity
    out = FreeChain.zero(chain.ring, chain.degree + shift)
    for coeff, gens in op.terms:
        cur = chain
        for g in reversed(gens):
            if op.kind == "partial":
                cur = partial(g, cur)
            else:
                cur = differential(g, cur, ambient)
        out = out + cur.scaled(coeff)
    return out


def _outcome(fn, *args):
    """Typed terms of the result, or the exception type it raised."""
    try:
        got = fn(*args)
    except Exception as exc:  # compared by type against the oracle
        return type(exc)
    return got.degree, sorted((w, type(c), c) for w, c in got.terms.items())


def test_wedge_apply_matches_composition_oracle():
    rng = random.Random(20240606)
    rings = [ZZ, QQ, GF(3), GF(5)]
    coeffs = [0, 1, -1, 2, 3, -4, 7, Fraction(1, 2), Fraction(-3, 5)]
    raised, nonzero = set(), 0
    for _ in range(2000):
        ring = rng.choice(rings)
        kind = rng.choice(["partial", "d"])
        ambient = rng.choice([FULL, SIMPLICIAL])
        arity = rng.randint(0, 4)
        nl = rng.randint(max(arity, 1), 5)
        terms = tuple(
            (rng.choice(coeffs), tuple(sorted(rng.sample(range(nl), arity))))
            for _ in range(rng.choice([0, 1, 2, 3, 4, 4]))
        )
        op = WedgeOperator(kind, arity, terms)
        degree = rng.randint(arity - 1, 3) if kind == "partial" else rng.randint(-1, 3)
        words = {}
        for _ in range(rng.choice([0, 1, 2, 3, 4, 4])):
            if ambient == SIMPLICIAL and rng.random() < 0.85 and degree < nl:
                w = tuple(sorted(rng.sample(range(nl), degree + 1)))
            else:
                w = tuple(rng.randrange(nl) for _ in range(degree + 1))
            words[w] = rng.choice([c for c in coeffs if not isinstance(c, Fraction)])
        if ring is not ZZ:
            words = {w: ring.coerce(c) * ring.coerce(Fraction(1, 2)) for w, c in words.items()}
        c = FreeChain(ring, degree, words)
        want = _outcome(composed_wedge_apply, op, c, ambient)
        assert _outcome(wedge_apply, op, c, ambient) == want, (op, c, ambient)
        if isinstance(want, type):
            raised.add(want)
        elif want[1]:
            nonzero += 1
    # both error paths were exercised: 1/2 over Z and non-increasing words
    assert raised == {SchemaViolation, NotSimplicial}
    assert nonzero > 400


def exhaustive_words(nletters, maxlen):
    for ln in range(maxlen + 1):
        yield from itertools.product(range(nletters), repeat=ln)


def test_simplicial_identities_exhaustive_small():
    # deletion-deletion, deletion-insertion, insertion-insertion laws
    for w in exhaustive_words(3, 4):
        n = len(w) - 1
        c = FreeChain.single(ZZ, w)
        for s in range(3):
            for t in range(3):
                for j in range(n + 1):
                    for i in range(j):
                        lhs = _face_op(i, s, _face_op(j, t, c))
                        rhs = -_face_op(j - 1, t, _face_op(i, s, c))
                        assert lhs == rhs
                for j in range(n + 2):
                    for i in range(n + 1):
                        lhs = _face_op(i, s, _insert_op(j, t, c))
                        if i < j:
                            rhs = -_insert_op(j - 1, t, _face_op(i, s, c))
                        elif i == j:
                            rhs = c if s == t else FreeChain.zero(ZZ, n)
                        else:
                            rhs = -_insert_op(j, t, _face_op(i - 1, s, c))
                        assert lhs == rhs
                for j in range(n + 2):
                    for i in range(j + 1):
                        lhs = _insert_op(i, s, _insert_op(j, t, c))
                        rhs = -_insert_op(j + 1, t, _insert_op(i, s, c))
                        assert lhs == rhs


def _face_op(i, s, c):
    out = FreeChain.zero(c.ring, c.degree - 1)
    for w, v in c.terms.items():
        out = out + face(i, s, w, c.ring).scaled(v)
    return out


def _insert_op(i, s, c):
    out = FreeChain.zero(c.ring, c.degree + 1)
    for w, v in c.terms.items():
        out = out + insert(i, s, w, c.ring).scaled(v)
    return out


def test_anticommutation_exhaustive():
    for w in exhaustive_words(3, 4):
        c = FreeChain.single(ZZ, w)
        for s in range(3):
            for t in range(3):
                assert partial(s, partial(t, c)) == -partial(t, partial(s, c))
                lhs = differential(s, differential(t, c, FULL), FULL)
                rhs = differential(t, differential(s, c, FULL), FULL)
                assert lhs == -rhs


def test_leibniz_rules():
    # The deletion operator is a graded derivation on the nose. For the
    # insertion operator, the end insertion of the left factor and the
    # front insertion of the right factor produce the same word, so the
    # derivation identity carries a junction correction xi*(s)*eta.
    for wl in exhaustive_words(3, 3):
        if not wl:
            continue
        for wr in exhaustive_words(3, 2):
            if not wr:
                continue
            xi = FreeChain.single(ZZ, wl)
            eta = FreeChain.single(ZZ, wr)
            sign = (-1) ** (xi.degree + 1)
            for s in range(3):
                lhs = partial(s, concat_product(xi, eta))
                rhs = concat_product(partial(s, xi), eta) + concat_product(
                    xi, partial(s, eta)
                ).scaled(sign)
                assert lhs == rhs
                lhs = differential(s, concat_product(xi, eta), FULL)
                junction = concat_product(
                    concat_product(xi, FreeChain.single(ZZ, (s,))), eta
                )
                rhs = (
                    concat_product(differential(s, xi, FULL), eta)
                    + concat_product(xi, differential(s, eta, FULL)).scaled(sign)
                    - junction.scaled(sign)
                )
                assert lhs == rhs


def test_quotient_rule_matches_projection():
    for nletters in (3, 4):
        vertices = list(range(nletters))
        for size in range(nletters + 1):
            for w in itertools.combinations(vertices, size):
                c = FreeChain.single(ZZ, w)
                for s in vertices:
                    quot = differential(s, c, SIMPLICIAL)
                    full = project_simplicial(differential(s, c, FULL))
                    assert quot == full


def test_induced_map():
    f = VertexMap.identity(S3)
    c = chain(((0, 1), 1))
    assert induced_map(f, c) == c
    incl = VertexMap(VertexSet.of("s0", "s1"), S3, (0, 1))
    assert induced_map(incl, c) == c
    collapse = VertexMap(VertexSet.of("s0", "s1"), VertexSet.of("t"), (0, 0))
    assert induced_map(collapse, c).is_zero()


def test_naturality_under_inclusions():
    rng = random.Random(5)
    big = VertexSet.of(*[f"v{i}" for i in range(6)])
    for _ in range(60):
        k = rng.randint(2, 4)
        images = tuple(sorted(rng.sample(range(6), k)))
        f = VertexMap(VertexSet.of(*[f"u{i}" for i in range(k)]), big, images)
        size = rng.randint(1, k)
        w = tuple(sorted(rng.sample(range(k), size)))
        c = FreeChain.single(ZZ, w)
        s = rng.randrange(k)
        lhs = induced_map(f, partial(s, c)) if size > 1 else None
        if lhs is not None:
            rhs = partial(f(s), induced_map(f, c))
            assert lhs == rhs
        lhs = induced_map(f, differential(s, c, SIMPLICIAL))
        rhs = differential(f(s), induced_map(f, c), SIMPLICIAL)
        assert lhs == rhs


def test_chains_over_prime_field():
    c = chain(((0, 1), 2), ring=GF(3))
    assert partial(1, c) == chain(((0,), 1), ring=GF(3))
    assert (c + c + c).is_zero()


def test_chain_arithmetic_rejects_mismatch():
    with pytest.raises(Exception):
        chain(((0,), 1)) + chain(((0, 1), 1))
    with pytest.raises(Exception):
        chain(((0,), 1), ring=QQ) + chain(((0,), 1), ring=ZZ)
