"""Planted faults: each test patches one engine function with one named
fault and asserts that the named check reports it. A check that no
planted fault trips gives no assurance.

* `Hypergraph._closed` accepting one missing codimension-1 face, or one
  missing coface: `test_fast_paths.test_classify_matches_two_comprehension_check`.
* The edge ingest accepting a repeated vertex:
  `test_fast_paths.test_ingest_matches_old_route`.
* The barcode pairing `persistence._pairing` dropping one bar, or
  reducing the coboundary rows oldest first instead of newest first: the
  `persistence` selftest suite.
* The deletion scan behind `wedge_apply` with one sign flipped, and its
  run rule skipped for even runs:
  `test_words.test_wedge_apply_matches_composition_oracle`; the
  simplicial merge putting a letter one slot late:
  `test_fast_paths.test_assembly_matches_per_word_route`.
* The `FreeChain` constructor keeping the last of a repeated word's
  coefficients instead of summing them: the `free-calculus` selftest
  suite and `test_words.test_calculus_matches_copy_on_add_oracle`.
* `partial` without its sign (-1)^i: the same suite and test.
* The simplicial `differential` inserting one slot past the sorted one:
  the `projection-compatibility` selftest suite and the same test.
* `invariance.trace` dropping a one-vertex edge, so that the invariant
  trace fails to classify: `invariant-trace` exits 1 with one error
  document, as a failed internal check.
* `smith_normal_form` dropping one invariant factor:
  `test_linalg.test_presentation_torsion` and the `linalg-properties`
  selftest suite; squaring every invariant factor, a fault stable under
  permutations that still counts the rank: that suite's known-answer
  check, U diag(d) V.
* The exact steps modulo D of `_factors_mod` without u^-1, or zeroing the
  pivot row without testing that its gcd divides the row:
  `test_snf_modulo.test_factors_mod_matches_euclidean_oracle_and_sympy`
  and the `linalg-properties` selftest suite.
* The fraction-free Q step of `forward_pivots`, the elimination behind
  `rank` and `barcode`, without its a/g cross-multiplier:
  `test_linalg.test_rank_matches_fraction_free_oracle_on_boundaries` and
  the rank-nullity check of the `linalg-properties` selftest suite;
  `forward_pivots` leaving Fraction rows unscaled: that test and that
  suite, where the gcd of a Fraction raises.
* `DegreeSolver.coords` transposing its coordinates, which transposes
  every induced map and the connecting map:
  `test_map_route.test_inclusion_maps_match_per_vector_route`; the square
  maps only, that test (on its pinned pair), the `persistence` selftest
  suite and the composition checks of the `mv-exactness` and
  `homology-functoriality` suites (on their pinned pair).
* `DegreeSolver` with two representatives swapped:
  `test_homology.test_degree_solver_against_greedy_rank_oracle`, the
  unit-coordinates check of the `homology-functoriality` selftest suite
  and the composition check of the `mv-exactness` suite.
* `DegreeSolver` keying its lows by the least index instead of the
  largest: `test_degree_solver.test_degree_solver_matches_the_solvers_it_replaced`,
  `test_homology.test_degree_solver_against_greedy_rank_oracle`, the
  greedy-pick check of the `homology-functoriality` selftest suite and
  the last pin of `tests/printed_maps.json`, an `include` over Q whose
  degree-0 map then prints in another basis. The representatives are
  another basis of the homology, read consistently, so every map is
  still a map of the same rank: only a check of the basis itself sees
  it, and no other pin does.
* `DegreeSolver.coords` skipping its check that the boundary sends every
  column to zero: the same two tests and the non-cycle check of the
  `homology-functoriality` selftest suite.
* `wedge_apply`'s simplicial insertion closed form, which serves arity
  2 and up, reading each monomial's weight from the monomial with
  vertices 0 and 1 exchanged, a legal odd operator: the complement law
  of the `duality` selftest suite, at arity 3.
* `BuiltComplex.restrict` keeping the empty-word row of a family without
  the empty edge, or dropping one entry:
  `test_homology.test_restrict_matches_build_complex` and the block check
  of the `homology-functoriality` selftest suite.
* `BuiltComplex.invariants` clearing with the leads of the wrong
  neighbour, matrix(n - shift) instead of matrix(n + shift): the groups
  of the walk against the operator's order in
  `test_clearing.test_cleared_ranks_match_full_rows` (there those leads
  are cached, and rows are dropped that are not dependent), and a solver's
  Betti number against the cleared one in
  `test_homology.test_degree_solver_against_greedy_rank_oracle`. The
  table commands walk in the operator's order, where the wrong leads are
  never cached, so no pin sees it. A rule that never clears gives the
  same answers, slower: the rows handed in the table walk see it.
* `Hypergraph._by_degree`, the step from edge masks to basis words,
  bucketing a word by its highest vertex instead of its size:
  `test_fast_paths.test_edges_are_bucketed_by_degree` and the
  `homology-functoriality` selftest suite, whose operators then leave the
  carrier.

A fault inside a function body is planted by rebuilding the function from
its source with one line changed. A suite's run without any fault comes
from the session fixture `unfaulted`, except where a test patches before
that run.
"""

import inspect
import json
import sys
import textwrap
from functools import cached_property

import pytest

from hyperhom import cli, homology, hypergraphs, invariance, linalg, persistence, selftest, words
from hyperhom.homology import (
    BuiltComplex,
    ComplexSpec,
    DegreeSolver,
    InducedMap,
    build_complex,
    edge_carrier,
    inclusion_map,
)
from hyperhom.hypergraphs import Hypergraph
from hyperhom.linalg import SparseMatrix
from hyperhom.rings import QQ

import test_clearing
import test_degree_solver
import test_fast_paths
import test_homology
import test_linalg
import test_map_route
import test_printed_maps
import test_snf_modulo
import test_words


def planted(func, old, new):
    """`func` rebuilt from its source, with its one occurrence of `old`
    replaced by `new`, in a copy of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, (func.__name__, old)
    namespace = dict(vars(sys.modules[func.__module__]))
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


def class_with_slack(faces_allowed, cofaces_allowed):
    """`Hypergraph._closed` that lets the given number of missing faces
    and cofaces pass unseen; cached, so that `proved_closed` can set it."""

    def _closed(self):
        faces = cofaces = 0
        for v in range(len(self.vertices)):
            b = 1 << v
            missing = {m ^ b for m in self.masks} - self.masks - {0}
            faces += sum(1 for m in missing if not m & b)
            cofaces += sum(1 for m in missing if m & b)
        return faces <= faces_allowed, cofaces <= cofaces_allowed

    rule = cached_property(_closed)
    rule.__set_name__(Hypergraph, "_closed")
    return rule


@pytest.fixture(scope="session")
def unfaulted():
    """The result of each suite a fault below is planted under, run once at
    seed 0 with no patch active. A test reads it before it patches."""
    return {name: selftest.run_suite(name) for name in (
        "linalg-properties", "persistence", "free-calculus", "projection-compatibility",
        "homology-functoriality", "mv-exactness", "duality")}


@pytest.mark.parametrize("faces, cofaces", [(1, 0), (0, 1)])
def test_classify_accepting_one_missing_neighbour_is_caught(monkeypatch, faces, cofaces):
    monkeypatch.setattr(Hypergraph, "_closed", class_with_slack(0, 0))
    test_fast_paths.test_classify_matches_two_comprehension_check()  # the rewrite holds
    monkeypatch.setattr(Hypergraph, "_closed", class_with_slack(faces, cofaces))
    with pytest.raises(AssertionError):
        test_fast_paths.test_classify_matches_two_comprehension_check()


def test_ingest_accepting_a_repeated_vertex_is_caught(monkeypatch):
    indexer = hypergraphs._indexer

    def forgiving_indexer(vertices):
        indices = indexer(vertices)
        return lambda raw: list(dict.fromkeys(indices(raw)))

    monkeypatch.setattr(hypergraphs, "_indexer", forgiving_indexer)
    with pytest.raises(AssertionError):
        test_fast_paths.test_ingest_matches_old_route()


def test_barcode_dropping_one_bar_is_caught(monkeypatch, unfaulted):
    pairing = persistence._pairing

    def drop_one_bar(*args):
        bars = pairing(*args)
        if not bars:
            return bars
        (birth, death, mult), *rest = bars
        return ([(birth, death, mult - 1)] if mult > 1 else []) + rest

    assert unfaulted["persistence"].failures == 0
    monkeypatch.setattr(persistence, "_pairing", drop_one_bar)
    result = selftest.run_suite("persistence")
    assert result.failures > 0 and result.detail == "bars count the inclusion rank"


def test_barcode_reducing_the_oldest_coboundary_row_first_is_caught(monkeypatch, unfaulted):
    # the homology row order on the cohomology pivots: other pairs, wrong bars
    assert unfaulted["persistence"].failures == 0
    monkeypatch.setattr(persistence, "_pairing", planted(
        persistence._pairing, "sorted(place)", "sorted(place, reverse=True)"))
    result = selftest.run_suite("persistence")
    assert result.failures > 0 and result.detail == "bars count the inclusion rank"


def test_insertion_with_two_weights_exchanged_is_caught(monkeypatch, unfaulted):
    # still d o d = 0, exact sequences and chain maps: only the complement
    # law, which sets the insertion complex against the deletion one, sees it
    assert unfaulted["duality"].failures == 0
    exchanged = planted(words.wedge_apply, "for gens, t in terms.items():", (
        "for gens, t in ((g, terms.get(tuple(sorted({0: 1, 1: 0}.get(v, v) for v in g)), t))"
        " for g, t in terms.items()):"))
    for module in (words, homology):
        monkeypatch.setattr(module, "wedge_apply", exchanged)
    result = selftest.run_suite("duality")
    assert result.failures > 0 and result.detail == "complement law at degree 0 over Z"


def test_wedge_apply_with_one_flipped_sign_is_caught(monkeypatch):
    # the deletion scan flips the sign of a run that starts at position 1
    monkeypatch.setattr(words, "_deletions", planted(
        words._deletions, "u[i + 1 :], table[g][i & 1]",
        "u[i + 1 :], table[g][(i & 1) ^ (i == 1)]"))
    with pytest.raises(AssertionError):
        test_words.test_wedge_apply_matches_composition_oracle()


def test_run_rule_skipped_for_even_runs_is_caught(monkeypatch):
    # an even run of deletions keeps one word instead of cancelling
    monkeypatch.setattr(words, "_deletions", planted(
        words._deletions, "if (j - i) & 1 and g in table:", "if g in table:"))
    with pytest.raises(AssertionError):
        test_words.test_wedge_apply_matches_composition_oracle()


def test_simplicial_merge_one_slot_late_is_caught(monkeypatch):
    # the merge puts a letter one slot past its sorted slot
    monkeypatch.setattr(words, "_merges", planted(
        words._merges, "yield u[:p] + (g,) + u[p:]", "yield u[:p + 1] + (g,) + u[p + 1 :]"))
    with pytest.raises(AssertionError):
        test_fast_paths.test_assembly_matches_per_word_route()


def test_constructor_keeping_the_last_repeated_word_is_caught(monkeypatch):
    monkeypatch.setattr(words.FreeChain, "__init__", planted(
        words.FreeChain.__init__, "acc[w] = acc.get(w, 0) + c", "acc[w] = c"))
    result = selftest.run_suite("free-calculus")
    assert result.failures > 0 and result.detail == "insertion anticommutation at ()"
    with pytest.raises(AssertionError):
        test_words.test_calculus_matches_copy_on_add_oracle()


@pytest.mark.parametrize("func, old, new, suite, detail", [
    ("partial", "-c if i & 1 else c", "c", "free-calculus",
     "deletion anticommutation at (0, 0)"),
    ("differential", "(bisect_left(w, s),)", "(bisect_left(w, s) + 1,)",
     "projection-compatibility", "projection mismatch at () 0"),
], ids=["partial-unsigned", "simplicial-slot-late"])
def test_reference_primitive_faults_are_caught(monkeypatch, unfaulted, func, old, new, suite,
                                               detail):
    assert unfaulted[suite].failures == 0
    faulty = planted(getattr(words, func), old, new)
    for module in (words, selftest, test_words):
        monkeypatch.setattr(module, func, faulty)
    result = selftest.run_suite(suite)
    assert result.failures > 0 and result.detail == detail
    with pytest.raises(AssertionError):
        test_words.test_calculus_matches_copy_on_add_oracle()


def test_unclassified_invariant_trace_exits_one(monkeypatch, tmp_path, capsys):
    trace = invariance.trace

    def trace_without_a_vertex(h, verts):
        t = trace(h, verts)
        return t.with_masks(t.masks - {min(m for m in t.masks if m.bit_count() == 1)})

    path = tmp_path / "h.json"
    path.write_text(json.dumps({"vertices": ["s0", "s1"],
                                "edges": [[], ["s0"], ["s1"], ["s0", "s1"]]}))
    argv = ["invariant-trace", "--mode", "partial", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(invariance, "trace", trace_without_a_vertex)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    assert json.loads(out) == {"error": "TraceNotClassified",
                               "detail": "invariant trace failed to classify for mode partial"}


SMITH_NORMAL_FORM = linalg.smith_normal_form


def drop_one_factor(m):
    """`smith_normal_form` without its last nonzero invariant factor."""
    diag = SMITH_NORMAL_FORM(m)
    nonzero = [d for d in diag if d]
    return nonzero[:-1] + [0] * (len(diag) - len(nonzero) + bool(nonzero))


def test_smith_form_dropping_one_invariant_factor_is_caught(monkeypatch):
    monkeypatch.setattr(linalg, "smith_normal_form", drop_one_factor)
    with pytest.raises(AssertionError):
        test_linalg.test_presentation_torsion()


def test_smith_form_dropping_one_invariant_factor_fails_a_suite(monkeypatch, unfaulted):
    # `rank` is a forward elimination of its own, apart from the Smith
    # normal form code
    assert unfaulted["linalg-properties"].failures == 0
    monkeypatch.setattr(selftest, "smith_normal_form", drop_one_factor)
    result = selftest.run_suite("linalg-properties")
    assert result.failures > 0 and result.detail == "invariant factors count the rank"


def square_every_factor(m):
    """`smith_normal_form` with every invariant factor squared."""
    return [d * d for d in SMITH_NORMAL_FORM(m)]


def test_smith_form_squaring_every_factor_fails_the_known_answer_check(monkeypatch):
    monkeypatch.setattr(selftest, "smith_normal_form", square_every_factor)
    result = selftest.run_suite("linalg-properties")
    assert result.failures > 0 and result.detail == "invariant factors of U diag(d) V are d"


@pytest.mark.parametrize("old, new, raised, detail", [
    # the Q step as row - (b/g) prow: the lead cancels, the rest is wrong
    ("if a != g:", "if False:", AssertionError, "rank-nullity"),
    # Fraction rows left as they are, so that gcd meets a Fraction
    ("if den > 1:", "if False:", TypeError, "TypeError: "),
], ids=["cross-multiplier-dropped", "lcm-scaling-skipped"])
def test_rank_faults_are_caught(monkeypatch, unfaulted, old, new, raised, detail):
    test_linalg.test_rank_matches_fraction_free_oracle_on_boundaries(QQ)  # the rewrite holds
    assert unfaulted["linalg-properties"].failures == 0
    # planted in the one elimination, where `rank` and `barcode` look it up
    faulty = planted(linalg.forward_pivots, old, new)
    monkeypatch.setattr(linalg, "forward_pivots", faulty)
    monkeypatch.setattr(persistence, "forward_pivots", faulty)
    with pytest.raises(raised):
        test_linalg.test_rank_matches_fraction_free_oracle_on_boundaries(QQ)
    result = selftest.run_suite("linalg-properties")
    assert result.failures > 0 and result.detail.startswith(detail)


def test_clearing_with_the_wrong_neighbours_leads_is_caught(monkeypatch):
    test_clearing.test_cleared_ranks_match_full_rows(monkeypatch, "partial")  # the rewrite holds
    invariants = BuiltComplex.invariants
    monkeypatch.setattr(BuiltComplex, "invariants", planted(
        invariants, "n + self.spec.operator.shift", "n - self.spec.operator.shift"))
    for kind in ("partial", "d"):
        with pytest.raises(AssertionError, match="groups against the operator's order"):
            test_clearing.test_cleared_ranks_match_full_rows(monkeypatch, kind)
    with pytest.raises(AssertionError, match="betti"):
        test_homology.test_degree_solver_against_greedy_rank_oracle()
    # a rule that never clears gives the same answers; only the count sees it
    monkeypatch.setattr(BuiltComplex, "invariants", planted(
        invariants, "n + self.spec.operator.shift", "None"))
    with pytest.raises(AssertionError, match="rows handed"):
        test_clearing.test_cleared_ranks_match_full_rows(monkeypatch, "partial")


def transposed(coords, square_only):
    """`DegreeSolver.coords` whose coordinate matrices come out transposed
    (with `square_only`, the square ones alone, so that no shape gives the
    fault away). Every induced map and the connecting map read their
    coordinates there."""

    def transposed_coords(self, vecs, error):
        m = coords(self, vecs, error)
        if square_only and m.rows != m.cols:
            return m
        return SparseMatrix.from_entries(m.cols, m.rows, m.ring,
                                         [((j, i), v) for (i, j), v in m.entries])

    return transposed_coords


def test_transposed_induced_maps_are_caught(monkeypatch):
    monkeypatch.setattr(DegreeSolver, "coords", transposed(DegreeSolver.coords, False))
    with pytest.raises(AssertionError):
        test_map_route.test_inclusion_maps_match_per_vector_route()


def test_transposed_square_induced_maps_are_caught(monkeypatch):
    monkeypatch.setattr(DegreeSolver, "coords", transposed(DegreeSolver.coords, True))
    with pytest.raises(AssertionError):
        test_map_route.test_inclusion_maps_match_per_vector_route()
    result = selftest.run_suite("persistence")
    assert result.failures > 0 and result.detail == "structure maps compose"
    result = selftest.run_suite("mv-exactness")
    assert result.failures > 0
    assert result.detail == "inclusions at degree 1 compose over Q"
    result = selftest.run_suite("homology-functoriality")
    assert result.failures > 0 and result.detail == "inclusions compose"


def test_degree_solver_with_two_representatives_swapped_is_caught(monkeypatch, unfaulted):
    init = DegreeSolver.__init__

    def swapped(self, *args):
        init(self, *args)
        if self.betti >= 2:
            cols = [1, 0, *range(2, self.betti)]
            self.reps = self.reps.permuted(list(range(self.reps.rows)), cols)

    assert unfaulted["homology-functoriality"].failures == 0
    assert unfaulted["mv-exactness"].failures == 0
    monkeypatch.setattr(DegreeSolver, "__init__", swapped)
    with pytest.raises(AssertionError):
        test_homology.test_degree_solver_against_greedy_rank_oracle()
    result = selftest.run_suite("homology-functoriality")
    assert result.failures > 0 and result.detail == "representatives have unit coordinates"
    result = selftest.run_suite("mv-exactness")
    assert result.failures > 0
    assert result.detail == "inclusions at degree 1 compose over Q"


def test_degree_solver_lows_keyed_by_the_least_index_are_caught(monkeypatch, unfaulted,
                                                                tmp_path, capsys):
    pin = test_printed_maps.CASES[-1]
    test_printed_maps.test_printed_maps_are_byte_identical(pin, tmp_path, capsys)
    assert unfaulted["homology-functoriality"].failures == 0
    monkeypatch.setattr(homology, "_reduce_by_lows", planted(
        homology._reduce_by_lows, "low = max(col)", "low = min(col)"))
    with pytest.raises(AssertionError):
        test_degree_solver.test_degree_solver_matches_the_solvers_it_replaced()
    with pytest.raises(AssertionError):
        test_homology.test_degree_solver_against_greedy_rank_oracle()
    result = selftest.run_suite("homology-functoriality")
    assert result.failures > 0 and result.detail == "representatives are the greedy pick"
    # the degree-0 map prints [["3", "1"]] instead of [["1", "1/3"]]
    with pytest.raises(AssertionError):
        test_printed_maps.test_printed_maps_are_byte_identical(pin, tmp_path, capsys)


def test_coords_skipping_the_cycle_check_is_caught(monkeypatch, unfaulted):
    assert unfaulted["homology-functoriality"].failures == 0
    monkeypatch.setattr(DegreeSolver, "coords", planted(
        DegreeSolver.coords, "if not self._out.mul(vecs).is_zero():", "if False:"))
    with pytest.raises(AssertionError):
        test_degree_solver.test_degree_solver_matches_the_solvers_it_replaced()
    with pytest.raises(AssertionError):
        test_homology.test_degree_solver_against_greedy_rank_oracle()
    result = selftest.run_suite("homology-functoriality")
    assert result.failures > 0 and result.detail == "coords refuses a non-cycle"


def inclusion_by_rebuild(small, large, op, q, ring):
    """`inclusion_induced` building both sides, so that no restriction
    reaches a suite except through the check under test."""
    src, tgt = (build_complex(ComplexSpec(edge_carrier(h), op, q, ring))
                for h in (small, large))
    return {n: inclusion_map(src, tgt, n) for n in tgt.spec.degrees()}


@pytest.mark.parametrize("old, new", [
    # the degree -1 truncation forgotten: the empty-word row stays
    ("if w in words]", "if w in words or w == ()]"),
    # one entry of each matrix dropped
    ("if i in rows and j in cols))", "if i in rows and j in cols and (i, j) != (0, 0)))"),
], ids=["empty-word-row-kept", "one-entry-dropped"])
def test_restrict_faults_are_caught(monkeypatch, old, new):
    monkeypatch.setattr(selftest, "inclusion_induced", inclusion_by_rebuild)
    assert selftest.run_suite("homology-functoriality").failures == 0
    monkeypatch.setattr(BuiltComplex, "restrict", planted(BuiltComplex.restrict, old, new))
    with pytest.raises(AssertionError):
        test_homology.test_restrict_matches_build_complex()
    result = selftest.run_suite("homology-functoriality")
    assert result.failures > 0 and result.detail == "edge complex is the word complex restricted"


def test_words_bucketed_by_their_highest_vertex_are_caught(monkeypatch, unfaulted):
    assert unfaulted["homology-functoriality"].failures == 0
    rule = planted(Hypergraph._by_degree.func, "m.bit_count() - 1", "m.bit_length() - 1")
    rule.__set_name__(Hypergraph, "_by_degree")
    monkeypatch.setattr(Hypergraph, "_by_degree", rule)
    with pytest.raises(AssertionError):
        test_fast_paths.test_edges_are_bucketed_by_degree()
    result = selftest.run_suite("homology-functoriality")
    assert result.failures > 0 and result.detail == (
        "OperatorLeavesCarrier: image word (1,) of basis element (0, 1) is outside the carrier")


@pytest.mark.parametrize("func, old, new", [
    # the exact clear without u^-1: (w / g) times the pivot row
    ("_clear_column", " * pow(v // g, -1, d // g)", ""),
    # the pivot row zeroed whether or not g divides it
    ("_factors_mod", "if all(v % g == 0 for v in a[t][t + 1:]):", "if True:"),
], ids=["inverse-dropped", "row-zeroed-unchecked"])
def test_exact_modulo_steps_faults_are_caught(monkeypatch, unfaulted, func, old, new):
    assert unfaulted["linalg-properties"].failures == 0
    monkeypatch.setattr(linalg, func, planted(getattr(linalg, func), old, new))
    with pytest.raises(AssertionError):
        test_snf_modulo.test_factors_mod_matches_euclidean_oracle_and_sympy()
    assert selftest.run_suite("linalg-properties").failures > 0
