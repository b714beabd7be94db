"""The value records of `hyperhom.records` against `dataclasses` twins.

Every record class of the package is compared with a dataclass that this
test builds from the same fields, defaults and `__post_init__`: the
constructor (positional, keyword, defaults, argument errors and the
`__post_init__` errors), the field values it stores, `==`, `hash`,
`repr`, immutability and unhashable fields. A subprocess test checks
that answering a CLI request imports neither `dataclasses` nor `inspect`.
"""

import dataclasses
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hyperhom
from hyperhom.errors import HyperhomError
from hyperhom.homology import (
    Carrier,
    ComplexSpec,
    DualityReport,
    HomologyGroup,
    InducedMap,
    LongExactSequence,
    SequenceNode,
    edge_carrier,
    word_carrier,
)
from hyperhom.hypergraphs import Hypergraph, power_set
from hyperhom.invariance import InvariantReport
from hyperhom.linalg import SparseMatrix, SubquotientPresentation
from hyperhom.persistence import Barcode, Filtration, PersistentMV, PersistentRanks
from hyperhom.records import FrozenRecordError
from hyperhom.rings import GF, QQ, ZZ, Ring
from hyperhom.selftest import SuiteResult
from hyperhom.words import VertexMap, VertexSet, WedgeOperator

V2 = VertexSet.of("a", "b")
V3 = VertexSet.of("a", "b", "c")
SEGMENT = Hypergraph.of(V2, [(), (0,), (1,), (0, 1)])
POINTS = Hypergraph.of(V2, [(0,), (1,)])
LINK = Hypergraph.of(V2, [(0, 1)])  # no faces: independence only
CUBE = Hypergraph(V3, power_set(V3))  # both classes
M1 = SparseMatrix(2, 1, QQ, (((0, 0), 1), ((1, 0), -1)))
M2 = SparseMatrix(1, 2, QQ, (((0, 1), Fraction(1, 2)),))
ALPHA = WedgeOperator("partial", 1, ((1, (0,)), (2, (1,))))
OMEGA3 = WedgeOperator("d", 3, ((1, (0, 1, 2)),))
NODE = SequenceNode("sum", 0, 2)
SEQ = LongExactSequence((NODE,), (M1,), ((0, 2, False),))

# class -> (valid argument tuples, argument tuples that __post_init__ rejects)
CASES = {
    Ring: ([("Z",), ("Q",), ("Z", None), ("Fp", 5), ("Fp", 7)],
           [("R",), ("Fp", 4), ("Fp", 2), ("Fp", None), ("Z", 3), ("Fp", 2**64 + 13)]),
    SparseMatrix: ([(2, 1, QQ, M1.entries), (2, 1, QQ, ()), (1, 2, QQ, M2.entries),
                    (2, 1, ZZ, M1.entries)], []),
    SubquotientPresentation: ([(1,), (1, ()), (0, (2, 4)), (2, (3,))],
                              [(0, (2, 3)), (0, (1,)), (0, (6, 4))]),
    VertexSet: ([(("a", "b"),), (("a",),), ((),)], [(("a", "a"),)]),
    VertexMap: ([(V2, V3, (0, 2)), (V2, V3, (2, 2)), (V2, V2, (0, 1))],
                [(V2, V3, (0,)), (V2, V3, (0, 3)), (V2, V3, (-1, 0))]),
    WedgeOperator: ([("partial", 1, ALPHA.terms), ("d", 1, ALPHA.terms),
                     ("d", 3, OMEGA3.terms), ("partial", 0, ((1, ()),))],
                    [("x", 1, ()), ("partial", 1, ((1, (0, 1)),)),
                     ("d", 2, ((1, (1, 0)),))]),
    Hypergraph: ([(V2, SEGMENT.masks), (V2, POINTS.masks), (V3, POINTS.masks)], []),
    InvariantReport: ([("partial", (0, 1), SEGMENT), ("d", (), POINTS)], []),
    Carrier: ([(V2, SEGMENT), (V2, None, 2), (V3, CUBE), (V2, None, 3)], []),
    ComplexSpec: ([(edge_carrier(SEGMENT), ALPHA, 0, QQ),
                   (edge_carrier(SEGMENT), ALPHA, 5, QQ),
                   (word_carrier(V3, 4), OMEGA3, -2, GF(5)),
                   (word_carrier(V3, 4), OMEGA3, 1, GF(5)),
                   (edge_carrier(SEGMENT), OMEGA3, 0, QQ),
                   (edge_carrier(CUBE), OMEGA3, 0, QQ),
                   (edge_carrier(POINTS), ALPHA, 0, QQ)],
                  [(edge_carrier(SEGMENT), WedgeOperator("partial", 2, ()), 0, QQ),
                   (edge_carrier(POINTS), OMEGA3, 0, QQ),
                   (edge_carrier(LINK), ALPHA, 0, QQ),
                   (edge_carrier(LINK), WedgeOperator("partial", 2, ()), 0, QQ)]),
    HomologyGroup: ([(0, SubquotientPresentation(1)), (1, SubquotientPresentation(0, (2,)))],
                    []),
    InducedMap: ([(0, 0, M1), (0, 1, M2), (1, 1, M1)], []),
    SequenceNode: ([("sum", 0, 2), ("union", 0, 2), ("intersection", -1, 0)], []),
    LongExactSequence: ([((NODE,), (M1,), ((0, 2, False),)), ((), (), ())], []),
    DualityReport: ([(((0, 1, 1),),), (((0, 1, 2), (1, 0, 0)),), ((),)], []),
    Filtration: ([(V2, (Fraction(0), Fraction(1)), ((0, 0b01), (1, 0b10)), "simplicial"),
                  (V2, (), (), "independence")], []),
    PersistentRanks: ([(0, (Fraction(0),), {(0, 0): 1}), (1, (), {})], []),
    Barcode: ([(0, ((Fraction(0), None, 1),)), (1, ())], []),
    PersistentMV: ([((Fraction(0),), (SEQ,), True), ((), (), False)], []),
    SuiteResult: ([("words", 3, 0), ("words", 3, 0, ""), ("rings", 2, 1, "x != y")], []),
}


def twin_of(cls):
    """The dataclass the record class stood for: same fields, defaults,
    `__post_init__` and qualified name, frozen."""
    fields = [(name, object, dataclasses.field(default=cls.__dict__[name]))
              if name in cls.__dict__ else (name, object)
              for name in cls.__annotations__]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    twin = dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def outcome(fn):
    """The value of fn(), or the type and text of what it raised."""
    try:
        return "value", fn()
    except (TypeError, AttributeError, HyperhomError) as exc:
        return type(exc).__name__, str(exc)


def test_every_record_class_is_covered():
    """Every class of the package with annotated fields and its own `==`."""
    modules = [m for name, m in sys.modules.items() if name.startswith("hyperhom.")]
    found = {value for module in modules for value in vars(module).values()
             if isinstance(value, type) and value.__module__.startswith("hyperhom.")
             and "__annotations__" in value.__dict__ and "__eq__" in value.__dict__}
    assert found == set(CASES)
    assert len(CASES) == 20


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = twin_of(cls)
    names = list(cls.__annotations__)
    valid, rejected = CASES[cls]
    records = [cls(*args) for args in valid]
    twins = [twin(*args) for args in valid]
    for args, rec, tw in zip(valid, records, twins):
        assert repr(rec) == repr(tw)
        assert [getattr(rec, n) for n in names] == [getattr(tw, n) for n in names]
        assert outcome(lambda: hash(rec)) == outcome(lambda: hash(tw))
        keywords = dict(zip(names, args))
        assert cls(**keywords) == rec and twin(**keywords) == tw
        if args:
            head = dict(zip(names[1:], args[1:]))
            assert cls(args[0], **head) == rec and twin(args[0], **head) == tw
        assert rec == cls(*args) and not rec != cls(*args)
        assert rec != tw and tw != rec and (rec == args) is False
    for (a, ra, ta), (b, rb, tb) in itertools.product(zip(valid, records, twins), repeat=2):
        assert (ra == rb) == (ta == tb), (a, b)
        if (ra == rb) and outcome(lambda: hash(ra))[0] == "value":
            assert hash(ra) == hash(rb)
    for args in rejected:
        got = outcome(lambda: cls(*args))
        assert got[0] != "value" and got == outcome(lambda: twin(*args))
    full = valid[0] + (None,) * (len(names) - len(valid[0]))
    bad_calls = [lambda c: c(), lambda c: c(*full, 0), lambda c: c(*valid[0], unknown=1),
                 lambda c: c(*full[:1], **{names[0]: full[0]})]
    for call in bad_calls:
        assert outcome(lambda: call(cls))[0] == outcome(lambda: call(twin))[0] == "TypeError"


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    rec = cls(*CASES[cls][0][0])
    tw = twin_of(cls)(*CASES[cls][0][0])
    name = next(iter(cls.__annotations__))
    before = repr(rec)
    for obj in (rec, tw):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 0
    with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
        setattr(rec, name, 0)
    with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
        delattr(rec, name)
    assert repr(rec) == before


def test_cached_properties_survive_freezing():
    h = Hypergraph.of(V3, [(), (0,), (1,), (2,), (0, 1)])
    assert h.degree_edges(0) == [(0,), (1,), (2,)]
    assert h.top_degree == 1 and h.is_simplicial_complex
    assert h.classify() is h.classify()
    assert h == Hypergraph(V3, frozenset(h.masks)) and hash(h) == hash(Hypergraph(V3, h.masks))


def test_cli_answers_without_importing_dataclasses_or_inspect(tmp_path):
    """The cold start of one CLI request: a fresh isolated interpreter
    imports the CLI, answers the benchmark's set-up request (`homology`
    over Z of the augmented 1-skeleton of a triangle), and has loaded
    none of `dataclasses`, `inspect` and the selftest suites."""
    cx = tmp_path / "cx.json"
    op = tmp_path / "op.json"
    cx.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [
        [], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"]]}))
    op.write_text(json.dumps({"kind": "partial", "terms": [
        {"coeff": c, "vertices": [v]} for c, v in zip([1, 2, 3], "abc")]}))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from hyperhom import cli; "
            "code = cli.main(sys.argv[2:]); "
            "print(sorted({'dataclasses', 'inspect', 'hyperhom.selftest'} & set(sys.modules)), "
            "file=sys.stderr); "
            "sys.exit(code)")
    src = Path(hyperhom.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(src), "homology", "--operator", str(op),
         "--ring", "Z", str(cx)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ring"] == "Z"
    assert proc.stderr.strip() == "[]"
