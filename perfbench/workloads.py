"""Seeded inputs and case lists for the benchmark workloads.

A workload is a function ``(rng) -> Round``. One call builds one round:
the input documents (JSON-able dicts, written to files by the runner)
and the fixed case list that reads them. Every round draws fresh
documents from its own generator, so a run never sends the same input
document twice, while the size class of every case stays fixed.

Vertex labels are drawn afresh for every round. They change the
documents but not the computation, because the vertex order is the
list order. Other seeded variation (point noise, random tiny complexes)
is used only where it keeps the cost of a case steady; see README.md for
the measurements that ruled out seeded weight permutations on the
integer route.

File arguments are written ``@name`` and resolved by the runner.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import string
from dataclasses import dataclass, field

import checks


@dataclass
class Case:
    name: str
    argv: list | None = None
    # Library-only features: (function of the engine package and the
    # files, [@files]) returning one JSON object.
    call: tuple | None = None
    expect_exit: int = 0
    checks: list = field(default_factory=list)


@dataclass
class Round:
    docs: dict
    cases: list
    # Checks across cases: (case the failure counts against, callable
    # taking the round's outputs by case name and returning errors).
    cross_checks: list = field(default_factory=list)


def labels(rng: random.Random, n: int) -> list:
    stem = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    return [f"{stem}{i}" for i in range(n)]


def skeleton_edges(n: int, k: int) -> list:
    """Index edges of the augmented k-skeleton of the (n-1)-simplex."""
    return [c for r in range(k + 2) for c in itertools.combinations(range(n), r)]


def cofaces_edges(n: int, k: int) -> list:
    """Power set of n vertices minus its k-skeleton: an independence family."""
    return [c for r in range(k + 2, n + 1) for c in itertools.combinations(range(n), r)]


def hypergraph(vs: list, edges) -> dict:
    return {"vertices": vs, "edges": [[vs[v] for v in e] for e in edges]}


def operator(kind: str, vs: list, arity: int, coeff) -> dict:
    """All strictly increasing generator tuples of one arity; the i-th
    in lexicographic order gets coefficient coeff(i)."""
    gens = itertools.combinations(range(len(vs)), arity)
    return {"kind": kind,
            "terms": [{"coeff": coeff(i), "vertices": [vs[v] for v in g]}
                      for i, g in enumerate(gens)]}


def weighted(kind: str, vs: list, coeffs) -> dict:
    return operator(kind, vs, 1, list(coeffs).__getitem__)


def degree_dims(edges) -> dict:
    dims = {}
    for e in edges:
        dims[len(e) - 1] = dims.get(len(e) - 1, 0) + 1
    return dims


def down_closure(faces) -> set:
    out = {()}
    for f in faces:
        for r in range(1, len(f) + 1):
            out.update(itertools.combinations(f, r))
    return out


def filtration(vs: list, cls: str, births: dict) -> dict:
    rows = sorted(births.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))
    return {"vertices": vs, "class": cls,
            "edges": [{"edge": [vs[v] for v in e], "birth": b} for e, b in rows]}


def rips_births(rng: random.Random, n: int, reach: int, levels: int) -> dict:
    """Clique 2-skeleton of n noisy circle points, each joined to the
    `reach` neighbours on either side in circle order. Births rank the
    edge lengths into `levels` equal-count levels; vertices and the empty
    edge are born at 0, triangles with their last edge. The final complex
    is the same for every seed; the noise changes only the birth order."""
    pts = []
    for i in range(n):
        t = 2 * math.pi * i / n
        pts.append((math.cos(t) + rng.gauss(0, 0.04), math.sin(t) + rng.gauss(0, 0.04)))
    pairs = [(i, (i + s) % n) for i in range(n) for s in range(1, reach + 1)]
    pairs = sorted(tuple(sorted(p)) for p in pairs)
    pairs.sort(key=lambda e: math.dist(pts[e[0]], pts[e[1]]))
    births = {(): 0}
    births.update({(i,): 0 for i in range(n)})
    for r, e in enumerate(pairs):
        births[e] = 1 + (r * levels) // len(pairs)
    for t in itertools.combinations(range(n), 3):
        sides = list(itertools.combinations(t, 2))
        if all(s in births for s in sides):
            births[t] = max(births[s] for s in sides)
    return births


def restrict(births: dict, keep) -> dict:
    keep = set(keep)
    return {e: b for e, b in births.items() if set(e) <= keep}


# --- z-homology --------------------------------------------------------------

def z_homology(rng: random.Random) -> Round:
    """Integer route: lattice solve and Smith normal form dominate."""
    docs, cases, cross = {}, [], []

    vs = labels(rng, 8)
    edges = skeleton_edges(8, 3)
    docs["skel"] = hypergraph(vs, edges)
    docs["skel_op"] = weighted("partial", vs, range(1, 9))
    for ring in ("Z", "Q"):
        cases.append(Case(f"skel8-3-{ring}",
                          ["homology", "--operator", "@skel_op", "--ring", ring, "@skel"],
                          checks=[checks.euler(degree_dims(edges), 1, 0)]))
    cross.append(checks.free_ranks_agree("skel8-3-Z", "skel8-3-Q"))

    # Arity 3 with all 56 generator triples of 8 vertices, at q=1. The cost
    # of the Smith normal form of this relation matrix is chaotic in the
    # coefficients (see README.md). With the first pattern the SNF grows
    # its coefficients and takes about 75% of the case; the second has
    # torsion [3, 3, 3, 3].
    edges = skeleton_edges(8, 4)
    for tag, coeff in (("snf", lambda i: ((3 * i + 3) % 5) + 1),
                       ("torsion", lambda i: ((i + 3) % 5) + 1)):
        vs = labels(rng, 8)
        docs[tag] = hypergraph(vs, edges)
        docs[tag + "_op"] = operator("partial", vs, 3, coeff)
        cases.append(Case(f"arity3-{tag}-q1-Z",
                          ["homology", "--operator", f"@{tag}_op", "--ring", "Z",
                           "--q", "1", f"@{tag}"],
                          checks=[checks.euler(degree_dims(edges), 3, 1)]))

    vs = labels(rng, 8)
    edges = cofaces_edges(8, 2)
    docs["up"] = hypergraph(vs, edges)
    docs["up_op"] = weighted("d", vs, range(1, 9))
    cases.append(Case("cofaces8-2-Z",
                      ["cohomology", "--operator", "@up_op", "--ring", "Z", "@up"],
                      checks=[checks.euler(degree_dims(edges), 1, 0)]))
    return Round(docs, cases, cross)


# --- field-homology ----------------------------------------------------------

def field_homology(rng: random.Random) -> Round:
    """Field route: word-calculus assembly, field rank and classify."""
    docs, cases = {}, []
    for tag, n, k in (("skel9-3", 9, 3), ("skel8-4", 8, 4)):
        vs = labels(rng, n)
        edges = skeleton_edges(n, k)
        docs[tag] = hypergraph(vs, edges)
        docs[tag + "_op"] = weighted("partial", vs, range(1, n + 1))
        for ring in (["--ring", "Q"], ["--ring", "Fp", "--p", "5"]):
            cases.append(Case(f"{tag}-{ring[1]}",
                              ["homology", "--operator", f"@{tag}_op", *ring, f"@{tag}"],
                              checks=[checks.euler(degree_dims(edges), 1, 0)]))

    vs = labels(rng, 8)
    edges = cofaces_edges(8, 2)
    docs["up"] = hypergraph(vs, edges)
    docs["up_op"] = weighted("d", vs, range(1, 9))
    for ring in (["--ring", "Q"], ["--ring", "Fp", "--p", "5"]):
        cases.append(Case(f"cofaces8-2-{ring[1]}",
                          ["cohomology", "--operator", "@up_op", *ring, "@up"],
                          checks=[checks.euler(degree_dims(edges), 1, 0)]))

    for n, top in ((4, 3), (3, 4)):
        cases.append(Case(f"duality-{n}-{top}",
                          ["duality", "--vertices", ",".join(labels(rng, n)),
                           "--q", "0", "--max-degree", str(top)],
                          checks=[checks.flag("all_equal")]))

    vs = labels(rng, 12)
    docs["pow"] = hypergraph(vs, skeleton_edges(12, 11))
    cases.append(Case("classify-pow12", ["classify", "@pow"],
                      checks=[checks.equals("class", "both")]))
    return Round(docs, cases)


# --- induced-maps ------------------------------------------------------------

def induced_maps(rng: random.Random) -> Round:
    """Every consumer of the field solver: barcodes, persistence, MV,
    inclusions and even operator actions."""
    docs, cases, cross = {}, [], []

    n = 10
    vs = labels(rng, n)
    births = rips_births(rng, n, 3, 4)
    docs["rips"] = filtration(vs, "simplicial", births)
    docs["rips_op"] = weighted("partial", vs, [1] * n)
    for ring in (["--ring", "Q"], ["--ring", "Fp", "--p", "5"]):
        cases.append(Case(f"rips10-barcode-{ring[1]}",
                          ["barcode", "--filtration", "@rips", "--operator", "@rips_op",
                           *ring, "--n", "1"]))
    cases.append(Case("rips10-persist-Fp",
                      ["persist", "--filtration", "@rips", "--operator", "@rips_op",
                       "--ring", "Fp", "--p", "5", "--n", "1"]))
    # These complexes have no torsion, so Q and F_5 ranks agree.
    cross.append(checks.barcode_matches_grid("rips10-barcode-Q", "rips10-persist-Fp"))
    cross.append(checks.barcode_matches_grid("rips10-barcode-Fp", "rips10-persist-Fp"))

    # Edgewise complement of a Rips filtration: an independence filtration
    # whose first member is the full vertex set.
    m = 9
    vs = labels(rng, m)
    small = rips_births(rng, m, 2, 4)
    full = tuple(range(m))
    comp = {tuple(v for v in full if v not in e): b for e, b in small.items()}
    docs["indep"] = filtration(vs, "independence", comp)
    docs["indep_op"] = weighted("d", vs, [1] * m)
    cases.append(Case("indep9-barcode-Fp",
                      ["barcode", "--filtration", "@indep", "--operator", "@indep_op",
                       "--ring", "Fp", "--p", "5", "--n", str(m - 3)]))

    # Two overlapping arcs of one 9-point Rips complex.
    k = 9
    vs = labels(rng, k)
    whole = rips_births(rng, k, 2, 1)
    docs["left"] = hypergraph(vs, sorted(restrict(whole, range(0, 6))))
    docs["right"] = hypergraph(vs, sorted(restrict(whole, [*range(4, 9), 0])))
    docs["whole"] = hypergraph(vs, sorted(whole))
    docs["arc_op"] = weighted("partial", vs, [1] * k)
    cases.append(Case("arcs9-mv-Q",
                      ["mv", "--left", "@left", "--right", "@right",
                       "--operator", "@arc_op", "--ring", "Q"],
                      checks=[checks.flag("exact")]))
    for ring in (["--ring", "Q"], ["--ring", "Fp", "--p", "5"]):
        cases.append(Case(f"arcs9-include-{ring[1]}",
                          ["include", "--left", "@left", "--right", "@whole",
                           "--operator", "@arc_op", *ring],
                          checks=[checks.map_shapes()]))

    vs = labels(rng, 6)
    docs["act"] = hypergraph(vs, skeleton_edges(6, 3))
    docs["act_odd"] = weighted("partial", vs, [1] * 6)
    docs["act_even"] = operator("partial", vs, 2, lambda i: (i % 3) + 1)
    cases.append(Case("skel6-3-act-Q",
                      ["act", "--operator", "@act_odd", "--even", "@act_even",
                       "--ring", "Q", "@act"],
                      checks=[checks.map_shapes()]))

    n = 9
    vs = labels(rng, n)
    births = rips_births(rng, n, 2, 3)
    docs["pa"] = filtration(vs, "simplicial", restrict(births, range(0, 6)))
    docs["pb"] = filtration(vs, "simplicial", restrict(births, [*range(4, 9), 0]))
    docs["p_op"] = weighted("partial", vs, [1] * n)
    cases.append(Case("rips9-persistent-mv-Q",
                      call=(persistent_mv_doc, ["@pa", "@pb", "@p_op"]),
                      checks=[checks.flag("squares_commute"), checks.flag("all_exact")]))
    return Round(docs, cases, cross)


def persistent_mv_doc(engine, fa_path: str, fb_path: str, op_path: str) -> dict:
    """Persistent Mayer-Vietoris has no CLI command: parse the documents as
    the CLI would and summarise the result as one JSON document."""
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    fa = engine.jsonio.filtration_from_json(load(fa_path))
    fb = engine.jsonio.filtration_from_json(load(fb_path))
    op = engine.jsonio.operator_from_json(load(op_path), fa.vertices)
    pmv = engine.persistent_mv(fa, fb, op, 0, engine.QQ)
    return {
        "grid": [str(x) for x in pmv.grid],
        "ranks": [[[n.label, n.degree, n.free_rank] for n in seq.nodes]
                  for seq in pmv.sequences],
        "all_exact": all(seq.all_exact for seq in pmv.sequences),
        "squares_commute": pmv.squares_commute,
    }


# --- small-mixed -------------------------------------------------------------

def _tiny_complex(rng: random.Random, n: int) -> set:
    faces = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
             for _ in range(rng.randint(2, 4))]
    return down_closure(faces) | {(i,) for i in range(n)}


def _tiny_filtration(rng: random.Random, vs: list) -> dict:
    n = len(vs)
    value = [rng.randint(0, 3) for _ in range(n)]
    edges = _tiny_complex(rng, n)
    births = {e: (max(value[v] for v in e) if e else min(value)) for e in edges}
    return filtration(vs, "simplicial", births)


def small_mixed(rng: random.Random) -> Round:
    """Tiny documents across every CLI command except selftest, plus
    malformed documents the CLI already rejects (exit 2)."""
    docs, cases = {}, []

    def add(name, argv, expect_exit=0, check=()):
        cases.append(Case(name, argv, expect_exit=expect_exit, checks=list(check)))

    for i in range(6):
        n = rng.randint(3, 6)
        vs = labels(rng, n)
        cx = _tiny_complex(rng, n)
        other = _tiny_complex(rng, n)
        up = {tuple(v for v in range(n) if v not in e) for e in cx}
        w = [rng.randint(1, 4) for _ in range(n)]
        a = f"cx{i}"
        docs[a] = hypergraph(vs, sorted(cx))
        docs[a + "u"] = hypergraph(vs, sorted(up))
        docs[a + "b"] = hypergraph(vs, sorted(other))
        docs[a + "s"] = hypergraph(vs, sorted(cx & other))
        docs[a + "p"] = weighted("partial", vs, w)
        docs[a + "d"] = weighted("d", vs, w)
        docs[a + "e"] = operator("partial", vs, 2, lambda j: (j % 3) + 1)
        docs[a + "f"] = _tiny_filtration(rng, vs)
        docs[a + "x"] = hypergraph([vs[0] + "x", vs[0] + "y"], [[], [0], [1], [0, 1]])
        dims = degree_dims(cx)
        for op in ("Delta", "delta", "barDelta", "bardelta", "gamma", "Gamma"):
            add(f"{a}-closure-{op}", ["closure", "--op", op, f"@{a}"])
        add(f"{a}-combine", ["combine", "--op", rng.choice(["union", "intersect"]),
                             "--left", f"@{a}", "--right", f"@{a}b"])
        add(f"{a}-join", ["join", "--left", f"@{a}", "--right", f"@{a}x"])
        add(f"{a}-trace", ["trace", "--vertices", ",".join(vs[: n - 1]), f"@{a}"])
        add(f"{a}-classify", ["classify", f"@{a}"])
        mode = rng.choice(["partial", "d"])
        add(f"{a}-invariant-vertices", ["invariant-vertices", "--mode", mode, f"@{a}u"])
        add(f"{a}-invariant-trace", ["invariant-trace", "--mode", "partial", f"@{a}"])
        for ring in (["Z"], ["Q"], ["Fp", "--p", "3"]):
            add(f"{a}-homology-{ring[0]}",
                ["homology", "--operator", f"@{a}p", "--ring", *ring, f"@{a}"],
                check=[checks.euler(dims, 1, 0)])
        add(f"{a}-cohomology-Z", ["cohomology", "--operator", f"@{a}d", "--ring", "Z", f"@{a}u"],
            check=[checks.euler(degree_dims(up), 1, 0)])
        add(f"{a}-act", ["act", "--operator", f"@{a}p", "--even", f"@{a}e", "--ring", "Q",
                         f"@{a}"], check=[checks.map_shapes()])
        add(f"{a}-include", ["include", "--left", f"@{a}s", "--right", f"@{a}", "--operator",
                             f"@{a}p", "--ring", "Fp", "--p", "5"], check=[checks.map_shapes()])
        add(f"{a}-mv", ["mv", "--left", f"@{a}", "--right", f"@{a}b", "--operator", f"@{a}p",
                        "--ring", "Q"], check=[checks.flag("exact")])
        add(f"{a}-persist", ["persist", "--filtration", f"@{a}f", "--operator", f"@{a}p",
                             "--ring", "Q", "--n", "0"])
        add(f"{a}-barcode", ["barcode", "--filtration", f"@{a}f", "--operator", f"@{a}p",
                             "--ring", "Fp", "--p", "7", "--n", "0"])
        add(f"{a}-duality", ["duality", "--vertices", ",".join(vs[:2]), "--coeffs",
                             ",".join(str(c) for c in w[:2]), "--q", "0", "--max-degree", "2"],
            check=[checks.flag("all_equal")])

        # Malformed documents the CLI already rejects with exit 2.
        bad = f"bad{i}"
        docs[bad + "rep"] = {"vertices": vs, "edges": [[vs[0], vs[0]]]}
        docs[bad + "lab"] = {"vertices": vs, "edges": [[vs[0] + "?"]]}
        docs[bad + "key"] = {"vertices": vs}
        docs[bad + "ord"] = {"kind": "partial",
                             "terms": [{"coeff": 1, "vertices": [vs[1], vs[0]]}]}
        docs[bad + "mono"] = {"vertices": vs, "class": "simplicial",
                              "edges": [{"edge": [vs[0], vs[1]], "birth": 0}]}
        rejected = [
            ["classify", f"@{bad}rep"],
            ["classify", f"@{bad}lab"],
            ["closure", "--op", "Delta", f"@{bad}key"],
            ["homology", "--operator", f"@{bad}ord", "--ring", "Q", f"@{a}"],
            ["homology", "--operator", f"@{a}d", "--ring", "Q", f"@{a}"],
            ["homology", "--operator", f"@{a}p", "--ring", "Fp", "--p", "2", f"@{a}"],
            ["persist", "--filtration", f"@{bad}mono", "--operator", f"@{a}p",
             "--ring", "Q", "--n", "0"],
            ["closure", "--op", "Nabla", f"@{a}"],
        ]
        pick = rng.sample(rejected, 4)
        for j, argv in enumerate(pick):
            add(f"{bad}-{j}", argv, expect_exit=2, check=[checks.error_document()])
    return Round(docs, cases)


def known_defects(rng: random.Random) -> Round:
    """Contract breaks reported for the CLI: each should exit 2 with one
    error document. They are probed once per small-mixed run, outside the
    timed cases, and reported on their own line until they are fixed."""
    vs = labels(rng, 2)
    docs = {
        "op": weighted("partial", vs, [1, 1]),
        "birth_text": filtration(vs, "simplicial", {(): 0, (0,): 0, (1,): 0}),
        "birth_zero_div": filtration(vs, "simplicial", {(): 0, (0,): 0, (1,): 0}),
        "null_vertex": {"vertices": vs, "class": "simplicial",
                        "edges": [{"edge": [], "birth": 0}, {"edge": [None], "birth": 0}]},
        "index_range": {"vertices": vs, "class": "simplicial",
                        "edges": [{"edge": [], "birth": 0}, {"edge": [7], "birth": 0}]},
        "float_vertex": {"vertices": vs, "edges": [[], [1.5]]},
    }
    docs["birth_text"]["edges"][1]["birth"] = "abc"
    docs["birth_zero_div"]["edges"][1]["birth"] = "1/0"
    persist = ["persist", "--operator", "@op", "--ring", "Q", "--n", "0", "--filtration"]
    cases = [
        Case("birth-abc", persist + ["@birth_text"], expect_exit=2),
        Case("birth-1/0", persist + ["@birth_zero_div"], expect_exit=2),
        Case("null-in-edge", persist + ["@null_vertex"], expect_exit=2),
        Case("vertex-index-7", persist + ["@index_range"], expect_exit=2),
        Case("float-vertex", ["classify", "@float_vertex"], expect_exit=2),
    ]
    for c in cases:
        c.checks.append(checks.error_document())
    return Round(docs, cases)


WORKLOADS = {
    "z-homology": z_homology,
    "field-homology": field_homology,
    "induced-maps": induced_maps,
    "small-mixed": small_mixed,
}

# The workload's dominant layers: the traced run fails when the first of
# them records no calls, and reports the share of wall time they take.
DOMINANT = {
    "z-homology": ["linalg.homology_presentation", "linalg.smith_normal_form",
                   "linalg.kernel_basis"],
    "field-homology": ["words.wedge_apply", "linalg.rank", "hypergraphs.classify"],
    "induced-maps": ["homology.solver", "linalg.kernel_basis"],
    "small-mixed": ["cli.main", "jsonio.parse", "jsonio.emit"],
}
