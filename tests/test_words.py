import itertools
import random
from fractions import Fraction

import pytest

import words_oracle as oracle
from hyperhom import selftest
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
    wedge_chain,
)

S3 = VertexSet.of("s0", "s1", "s2")


def chain(*words, ring=ZZ):
    return FreeChain(ring, len(words[0][0]) - 1, [(tuple(w), c) for w, c in words])


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
    got = wedge_chain(op, chain(((0, 1), 1)), FULL)
    assert got == FreeChain(ZZ, -1, {(): -1})

    alpha = WedgeOperator.weighted_sum("partial", [1, 1, 1])
    got = wedge_chain(alpha, chain(((0, 1), 1)), SIMPLICIAL)
    assert got == chain(((1,), 1), ((0,), -1))


def test_wedge_scalar_and_zero():
    scal = WedgeOperator.scalar("d", 7)
    c = chain(((0, 2), 3))
    assert wedge_chain(scal, c, SIMPLICIAL) == c.scaled(7)
    zero_op = WedgeOperator.build("partial", 1, [])
    assert wedge_chain(zero_op, c, FULL).is_zero()


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
        assert wedge_chain(op, wedge_chain(op, c, FULL), FULL).is_zero()
        assert wedge_chain(dop, wedge_chain(dop, c, FULL), FULL).is_zero()
        sw = tuple(sorted(rng.sample(range(5), rng.randint(arity, 4))))
        sc = FreeChain.single(ZZ, sw)
        assert wedge_chain(dop, wedge_chain(dop, sc, SIMPLICIAL), SIMPLICIAL).is_zero()


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


def longest_run(w):
    """Length of the longest run of one letter in w."""
    return max((len(list(run)) for _, run in itertools.groupby(w)), default=0)


def run_word(rng, alphabet, length):
    """A word made of runs of 1 to 4 equal letters of the alphabet."""
    w = ()
    while len(w) < length:
        w += (rng.choice(alphabet),) * rng.randint(1, 4)
    return w[:length]


def scan_features(op, ring, ambient, w, images):
    """What one column of an arity-1 operator reaches, as (route, feature)
    pairs. The routes are the deletion scan, the slot walk on all words
    and the simplicial merge. The features are an image from the word's
    first or last run or slot group, the empty word, a letter of the word
    with no term, and a letter whose nonzero weight vanishes mod p (for
    the deletion scan, a letter of the word)."""
    route = ("deletions" if op.kind == "partial"
             else "merges" if ambient == SIMPLICIAL else "insertions")
    weights = {}
    for c, (g,) in op.terms:
        weights[g] = weights.get(g, 0) + c
    live = {g for g, c in weights.items() if ring.normal(ring.coerce(c)) != 0}
    vanished = {g for g, c in weights.items() if c != 0 and g not in live}
    found = {
        "first run": any(v[1:] == w or v == w[1:] for v in images),
        "last run": any(v[:-1] == w or v == w[:-1] for v in images),
        "empty word": not w,
        "letter with no term": bool(set(w) - live),
        "weight zero mod p": bool(vanished & set(w) if route == "deletions" else vanished),
    }
    return [(route, f) for f, hit in found.items() if hit]


SCAN_FLOORS = {(r, f): 5 for r in ("deletions", "insertions", "merges")
               for f in ("first run", "last run", "empty word", "letter with no term",
                         "weight zero mod p")}


def test_wedge_apply_matches_composition_oracle():
    """The kernel, through `wedge_chain`, against the composition of the
    reference primitives: direct operators with repeated generator tuples
    and zero coefficients, words with runs of equal letters, unsorted
    words without repeats, and odd signs over F_p. At arity 1 each of the
    three scans meets the features of `scan_features`."""
    rng = random.Random(20240606)
    rings = [ZZ, QQ, GF(3), GF(5)]
    coeffs = [0, 1, -1, 2, 3, -4, 5, 7, Fraction(1, 2), Fraction(-3, 5)]
    raised, nonzero, features, scans = set(), 0, {}, {}
    for _ in range(3000):
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
        pick = rng.random()
        top = 4 if pick < 0.3 else 3
        low = arity - 1 if kind == "partial" and arity > 1 else -1
        degree = rng.randint(low, top)
        # deletions need the generators among the letters
        alphabet = list(range(nl))
        if kind == "partial" and terms:
            alphabet = sorted(set(rng.choice(terms)[1]) | {rng.randrange(nl)})
        words = {}
        for _ in range(rng.choice([0, 1, 2, 3, 4, 4])):
            if pick < 0.3 and (kind == "partial" or ambient == FULL):
                w = run_word(rng, alphabet, degree + 1)
            elif ambient == SIMPLICIAL and rng.random() < 0.85 and degree < nl:
                w = tuple(sorted(rng.sample(range(nl), degree + 1)))
            elif pick < 0.45 and degree < nl:
                w = tuple(rng.sample(range(nl), degree + 1))
            else:
                w = tuple(rng.randrange(nl) for _ in range(degree + 1))
            words[w] = rng.choice([c for c in coeffs if not isinstance(c, Fraction)])
        if ring is not ZZ:
            words = {w: ring.coerce(c) * ring.coerce(Fraction(1, 2)) for w, c in words.items()}
        c = FreeChain(ring, degree, words)
        want = _outcome(composed_wedge_apply, op, c, ambient)
        assert _outcome(wedge_chain, op, c, ambient) == want, (op, c, ambient)
        if isinstance(want, type):
            raised.add(want)
            continue
        if arity == 1:
            for w in c.terms:
                image = composed_wedge_apply(op, FreeChain.single(ring, w), ambient)
                for key in scan_features(op, ring, ambient, w, image.terms):
                    scans[key] = scans.get(key, 0) + 1
        if not want[1]:
            continue
        nonzero += 1
        found = set()
        if max(map(longest_run, words)) >= 2:
            found.add(("runs", kind, arity))
        if any(len(set(w)) == len(w) and list(w) != sorted(w) for w in words):
            found.add("unsorted without repeats")
        if len({g for _, g in terms}) < len(terms):
            found.add("repeated generators")
        if ring.p:
            found.add("F_p")
        for f in found:
            features[f] = features.get(f, 0) + 1
    # both error paths were exercised: 1/2 over Z and non-increasing words
    assert raised == {SchemaViolation, NotSimplicial}
    assert nonzero > 400
    floors = {("runs", k, a): 10 for k in ("partial", "d") for a in (1, 3)}
    floors.update({"unsorted without repeats": 50, "repeated generators": 50, "F_p": 100})
    assert all(features.get(f, 0) >= n for f, n in floors.items()), features
    assert all(scans.get(f, 0) >= n for f, n in SCAN_FLOORS.items()), scans


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
                        lhs = oracle.face_sum(i, s, oracle.face_sum(j, t, c))
                        rhs = -oracle.face_sum(j - 1, t, oracle.face_sum(i, s, c))
                        assert lhs == rhs
                for j in range(n + 2):
                    for i in range(n + 1):
                        lhs = oracle.face_sum(i, s, oracle.insert_sum(j, t, c))
                        if i < j:
                            rhs = -oracle.insert_sum(j - 1, t, oracle.face_sum(i, s, c))
                        elif i == j:
                            rhs = c if s == t else FreeChain.zero(ZZ, n)
                        else:
                            rhs = -oracle.insert_sum(j, t, oracle.face_sum(i - 1, s, c))
                        assert lhs == rhs
                for j in range(n + 2):
                    for i in range(j + 1):
                        lhs = oracle.insert_sum(i, s, oracle.insert_sum(j, t, c))
                        rhs = -oracle.insert_sum(j + 1, t, oracle.insert_sum(i, s, c))
                        assert lhs == rhs


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


COEFFS = {
    ZZ: [0, 1, -1, 2, -3, 5],
    QQ: [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 5), Fraction(4, 3)],
    GF(5): [0, 1, 2, 4, 5, 7, -1, Fraction(1, 2)],
}


def random_chain(rng, ring, degree, nl, increasing):
    """Up to four words of the degree on nl letters, strictly increasing
    when asked and possible, else with repeated letters likely."""
    terms = {}
    for _ in range(rng.choice([0, 1, 2, 3, 4])):
        if increasing and degree < nl and rng.random() < 0.9:
            w = tuple(sorted(rng.sample(range(nl), degree + 1)))
        else:
            w = tuple(rng.randrange(nl) for _ in range(degree + 1))
        terms[w] = rng.choice(COEFFS[ring])
    return FreeChain(ring, degree, terms)


def _result(fn, *args):
    """Typed terms of the result, or the type and text of what it raised."""
    try:
        got = fn(*args)
    except Exception as exc:  # compared by type and text against the oracle
        return type(exc), str(exc)
    return got.degree, sorted((w, type(c), c) for w, c in got.terms.items())


def test_calculus_matches_copy_on_add_oracle():
    """The one-sum primitives and `FreeChain` arithmetic against the
    copy-on-add route they replaced (`words_oracle`), on random chains
    over Z, over Q with Fraction coefficients and over F_5: words with
    repeated letters, the empty word, both ambients, repeated (word,
    coefficient) pairs, and order-preserving maps that merge words."""
    rng = random.Random(20261020)
    features = {}

    def seen(name, hit=True):
        features[name] = features.get(name, 0) + bool(hit)

    def same(new, old, *args):
        got, want = _result(new, *args), _result(old, *args)
        assert got == want, (new.__name__, args, got, want)
        seen(f"raised {want[0].__name__}" if isinstance(want[0], type) else "answered")

    for _ in range(1500):
        ring = rng.choice(list(COEFFS))
        nl = rng.randint(1, 4)
        degree = rng.randint(-1, 3)
        increasing = rng.random() < 0.5
        a = random_chain(rng, ring, degree, nl, increasing)
        b = random_chain(rng, ring, degree, nl, increasing)
        seen("empty word", degree == -1 and a.terms)
        seen("repeated letters", any(len(set(w)) < len(w) for w in a.terms))
        seen("Fraction over Q", ring is QQ and any(type(c) is Fraction for c in a.terms.values()))
        seen("F_5", ring.p and a.terms)

        pairs = [(rng.choice([*a.terms, *b.terms] or [(0,) * (degree + 1)]),
                  rng.choice(COEFFS[ring])) for _ in range(rng.randint(0, 6))]
        seen("repeated pairs", len({w for w, _ in pairs}) < len(pairs))
        summed = FreeChain.zero(ring, degree)
        for w, c in pairs:
            summed = oracle.plus(summed, FreeChain(ring, degree, {w: c}))
        assert _result(FreeChain, ring, degree, pairs) == _result(lambda: summed)

        same(lambda x, y: x + y, oracle.plus, a, b)
        same(lambda x: -x, oracle.negated, a)
        c = rng.choice(COEFFS[ring])
        same(lambda x: x.scaled(c), lambda x: oracle.scaled(x, c), a)

        s = rng.randrange(nl)
        same(lambda x: partial(s, x), lambda x: oracle.partial(s, x), a)
        for ambient in (FULL, SIMPLICIAL):
            same(lambda x: differential(s, x, ambient),
                 lambda x: oracle.differential(s, x, ambient), a)
        same(project_simplicial, oracle.project_simplicial, a)
        i = rng.randint(0, degree + 1)
        if i <= degree:
            same(lambda x: selftest._face_sum(i, s, x), lambda x: oracle.face_sum(i, s, x), a)
        same(lambda x: selftest._insert_sum(i, s, x), lambda x: oracle.insert_sum(i, s, x), a)

        right = random_chain(rng, ring, rng.randint(-1, 2), nl, increasing)
        same(concat_product, oracle.concat_product, a, right)
        got, want = _result(join, a, right), _result(oracle.join, a, right)
        if a.terms and not isinstance(want[0], type):
            assert got == want, (a, right)
        else:
            # join checks every word of both factors, the left ones first,
            # where the oracle skipped the right factor of a zero left one
            # and named the first bad word in the order of its double loop
            bad = [w for w in (*a.terms, *right.terms)
                   if classify_word(w) is not WordClass.SIMPLICIAL_ACYCLIC]
            assert got == ((NotSimplicial, f"word {bad[0]} is not strictly increasing")
                           if bad else want), (a, right)
            seen("join raised", bad)

        images = tuple(sorted(rng.randrange(nl + 1) for _ in range(nl)))
        if rng.random() < 0.1:
            images = images[::-1]
        f = VertexMap(VertexSet.of(*range(nl)), VertexSet.of(*range(nl + 1)), images)
        same(lambda x: induced_map(f, x), lambda x: oracle.induced_map(f, x), a)
        mapped = [tuple(map(f, w)) for w in a.terms if list(w) == sorted(set(w))]
        seen("merged images", f.order_preserving and len(set(mapped)) < len(mapped))
    floors = {"answered": 10000, "raised NotSimplicial": 100, "raised NotOrderPreserving": 50,
              "empty word": 100, "repeated letters": 200, "Fraction over Q": 100, "F_5": 200,
              "repeated pairs": 200, "merged images": 30, "join raised": 100}
    assert all(features.get(k, 0) >= n for k, n in floors.items()), features
