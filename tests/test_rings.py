"""Canonical rationals: every Q value is an int exactly when it is
integral, from the ring operations through assembly and the word
calculus. And the primality test behind F_p, against trial division."""

import contextlib
import io
import json
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hyperhom.cli import main
from hyperhom.errors import SchemaViolation
from hyperhom.homology import (
    ComplexSpec,
    build_complex,
    edge_carrier,
    word_carrier,
)
from hyperhom.hypergraphs import ClosureOp, Hypergraph, closure
from hyperhom.linalg import field_reduce, kernel_basis
from hyperhom.rings import GF, QQ, _is_prime
from hyperhom.words import FULL, SIMPLICIAL, FreeChain, VertexSet, WedgeOperator, wedge_chain

from field_oracle import matrix_of_rows


def is_canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


SMALL = st.integers(-12, 12)
INTS = st.integers(-(2**70), 2**70) | SMALL
INTEGRAL_FRACTIONS = INTS.map(Fraction)
FRACTIONS = st.builds(Fraction, SMALL, st.integers(1, 12))
VALUES = INTS | INTEGRAL_FRACTIONS | FRACTIONS
STRINGS = st.builds("{}/{}".format, SMALL, st.integers(1, 12)) | SMALL.map(str)


@given(st.one_of(VALUES, STRINGS, st.sampled_from([2.0, -0.5, 0.0, True, False])))
def test_coerce_is_canonical(x):
    got = QQ.coerce(x)
    assert got == Fraction(x) and is_canonical(got)


@pytest.mark.parametrize("name, fn", [("add", operator.add), ("sub", operator.sub),
                                      ("mul", operator.mul)])
@given(a=VALUES, b=VALUES)
def test_binary_operations_are_canonical(name, fn, a, b):
    got = getattr(QQ, name)(a, b)
    assert got == fn(Fraction(a), Fraction(b)) and is_canonical(got)


@given(VALUES)
def test_unary_operations_are_canonical(a):
    assert QQ.neg(a) == -Fraction(a) and is_canonical(QQ.neg(a))
    assume(a != 0)
    assert QQ.inv(a) == 1 / Fraction(a) and is_canonical(QQ.inv(a))


def test_zero_and_one_are_plain_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


ENTRIES = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)])


@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=5)))
def test_field_reduction_is_canonical(dense):
    m = matrix_of_rows(dense, len(dense[0]), QQ)
    rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
    _, pivot_rows = field_reduce(rows, QQ)
    assert all(is_canonical(v) for row in pivot_rows for v in row.values())
    assert all(is_canonical(v) for _, v in kernel_basis(m).entries)


WEIGHTS = [(1, 1, 1, 1), (1, 2, 3, 4), (Fraction(1, 2), 1, Fraction(-2, 3), 2),
           (Fraction(1, 2), Fraction(1, 2), Fraction(-2, 3), Fraction(-2, 3))]
VS = VertexSet.of("a", "b", "c", "d")


@pytest.mark.parametrize("weights", WEIGHTS)
def test_assembled_matrices_are_canonical(weights):
    tetra = closure(Hypergraph.of(VS, [(0, 1, 2, 3)]), ClosureOp.DELTA_UP)
    cotetra = closure(Hypergraph.of(VS, [(0,)]), ClosureOp.BAR_DELTA_UP)
    specs = [
        ComplexSpec(edge_carrier(tetra), WedgeOperator.weighted_sum("partial", weights),
                    0, QQ),
        ComplexSpec(edge_carrier(cotetra), WedgeOperator.weighted_sum("d", weights),
                    0, QQ),
        ComplexSpec(word_carrier(VS, 2), WedgeOperator.weighted_sum("d", weights), 0, QQ),
        ComplexSpec(edge_carrier(tetra), WedgeOperator.build(
            "partial", 3, [(weights[0], (0, 1, 2)), (weights[2], (1, 2, 3))]), 0, QQ),
    ]
    fractions = 0
    for spec in specs:
        built = build_complex(spec)
        for n in spec.degrees():
            values = [v for _, v in built.matrix(n).entries]
            assert all(is_canonical(v) for v in values), (spec, n)
            fractions += sum(type(v) is Fraction for v in values)
    assert (fractions > 0) == any(type(w) is Fraction for w in weights)


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("kind, ambient", [("partial", FULL), ("d", FULL), ("d", SIMPLICIAL)])
def test_wedge_apply_is_canonical(weights, kind, ambient):
    ops = [WedgeOperator.weighted_sum(kind, weights),
           WedgeOperator.build(kind, 2, [(weights[0], (0, 1)), (weights[2], (2, 3))])]
    # the doubled coefficient 3/2 and -2/3 meet weights 1/2 and -3/2 on
    # one word, so integral Fractions arise inside the accumulation
    chains = [FreeChain(QQ, 1, {(0, 1): 1, (1, 2): Fraction(3, 2), (2, 3): -2}),
              FreeChain(QQ, 2, {(0, 1, 3): Fraction(-3, 2), (0, 2, 3): 6, (1, 2, 3): 1})]
    for op in ops:
        for chain in chains:
            if kind == "partial" and op.arity > chain.degree + 1:
                continue
            out = wedge_chain(op, chain, ambient)
            assert all(is_canonical(v) for v in out.terms.values()), (op, chain)


def trial_division(n):
    """Primality by trial division, the test F_p used before Miller-Rabin."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_primality_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if trial_division(n)]


@pytest.mark.parametrize("n, prime", [
    (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
    (3825123056546413051, False),  # strong pseudoprime to bases 2 through 23
    (2**61 - 1, True), (2**64 - 59, True), (2**64 - 1, False), (10000000000000061, True),
])
def test_primality_of_large_moduli(n, prime):
    assert _is_prime(n) == prime
    if prime:
        assert GF(n).p == n
    else:
        with pytest.raises(SchemaViolation):
            GF(n)


@pytest.mark.parametrize("p", [2**64, 2**64 + 13, 2**89 - 1, 10**30 + 57])
def test_moduli_from_two_to_the_64_are_rejected(p):
    with pytest.raises(SchemaViolation, match="2\\^64"):
        GF(p)


def run_homology(tmp_path, p):
    vs = ["s0", "s1", "s2"]
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"vertices": vs, "edges": [
        [], ["s0"], ["s1"], ["s2"], ["s0", "s1"], ["s1", "s2"], ["s0", "s2"]]}))
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"kind": "partial",
                                 "terms": [{"coeff": 1, "vertices": [v]} for v in vs]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["homology", "--operator", str(alpha), "--ring", "Fp", "--p", str(p),
                     str(circle)])
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])


def test_cli_answers_a_mersenne_modulus_at_once(tmp_path):
    start = time.perf_counter()
    code, doc = run_homology(tmp_path, 2**61 - 1)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and [g["free_rank"] for g in doc["groups"]] == [0, 0, 1]


def test_cli_rejects_a_modulus_past_two_to_the_64(tmp_path):
    code, doc = run_homology(tmp_path, 2**89 - 1)
    assert code == 2 and doc["error"] == "SchemaViolation" and "2^64" in doc["detail"]
