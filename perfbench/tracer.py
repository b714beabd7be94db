"""Layer tracing from outside the engine.

Each layer boundary is a public function or method of one hyperhom
module. The tracer wraps it and replaces every binding of the original
object in the hyperhom modules, so callers that imported the name (for
example ``homology.rank`` or ``cli.build_complex``) reach the wrapper
too. A name the engine no longer has is reported as absent, with zero
counts, so the traced run keeps working across refactors.

Spans are kept in memory as ``[layer, start, end, parent, nested]`` and
folded into per-layer counts and times when the run ends. A layer's
self time is its span's duration minus the time its direct child spans
cover; its total time counts only spans with no enclosing span of the
same layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# layer -> boundaries as (module, attribute path)
LAYERS = {
    "cli.main": [("cli", "main")],
    "jsonio.parse": [("jsonio", "hypergraph_from_json"), ("jsonio", "operator_from_json"),
                     ("jsonio", "filtration_from_json")],
    "jsonio.emit": [("jsonio", "hypergraph_to_json"), ("jsonio", "operator_to_json"),
                    ("jsonio", "filtration_to_json"), ("jsonio", "group_to_json"),
                    ("jsonio", "matrix_to_json"), ("jsonio", "coefficient_to_json")],
    "invariance": [("invariance", "invariant_vertices"), ("invariance", "invariant_trace"),
                   ("invariance", "is_invariant")],
    "hypergraphs.classify": [("hypergraphs", "Hypergraph.classify")],
    "hypergraphs.closure": [("hypergraphs", "closure")],
    "hypergraphs.combine": [("hypergraphs", "combine")],
    "words.wedge_apply": [("words", "wedge_apply")],
    "homology.build_complex": [("homology", "build_complex")],
    "homology.solver": [("homology", "DegreeSolver.__init__")],
    "homology.inclusion_induced": [("homology", "inclusion_induced")],
    "homology.mayer_vietoris": [("homology", "mayer_vietoris")],
    "homology.operator_action": [("homology", "operator_action")],
    "homology.duality_check": [("homology", "duality_check")],
    "linalg.homology_presentation": [("linalg", "homology_presentation")],
    "linalg.smith_normal_form": [("linalg", "smith_normal_form")],
    "linalg.kernel_basis": [("linalg", "kernel_basis")],
    "linalg.rank": [("linalg", "rank")],
    "linalg.mul": [("linalg", "SparseMatrix.mul")],
    "persistence.persistent_ranks": [("persistence", "persistent_ranks")],
    "persistence.barcode": [("persistence", "barcode")],
    "persistence.persistent_mv": [("persistence", "persistent_mv")],
    "persistence.validate": [("persistence", "Filtration.validate")],
}

MODULES = ["cli", "jsonio", "invariance", "hypergraphs", "words", "homology", "linalg",
           "persistence"]


def _first_arg_key(args):
    return hash(args[0])


def _solver_key(args):
    # DegreeSolver.__init__(self, ring, dim, out_mat, in_mat)
    return hash(tuple(args[1:5]))


def _matrix_cells(args):
    m = args[0]
    return m.rows * m.cols


def _max_bits(args):
    return max((abs(v).bit_length() for _, v in args[0].entries), default=0)


# Calls ÷ distinct argument keys: repeated work on identical inputs.
REPEAT_KEYS = {
    "hypergraphs.classify": _first_arg_key,
    "homology.build_complex": _first_arg_key,
    "homology.solver": _solver_key,
}
CELLS = {"linalg.smith_normal_form": _matrix_cells, "linalg.rank": _matrix_cells}
MAX_BITS = {"linalg.smith_normal_form": _max_bits}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.total_s"] = "s"
    for layer in CELLS:
        units[f"{layer}.cells"] = "count"
    for layer in MAX_BITS:
        units[f"{layer}.max_bits"] = "bits"
    for layer in REPEAT_KEYS:
        units[f"{layer}.repeat_ratio"] = "ratio"
    for module in MODULES:
        units[f"{module}.errors"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.dominant_share"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self.open_layers = Counter()
        self.errors = Counter()
        self.keys = {layer: set() for layer in REPEAT_KEYS}
        self.cells = Counter()
        self.max_bits = Counter()
        self.absent = []

    def install(self) -> None:
        """Wrap every boundary that exists; record the missing ones."""
        package = [m for name, m in sys.modules.items()
                   if name == "hyperhom" or name.startswith("hyperhom.")]
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner, attr, original = self._resolve(module, path)
                if original is None:
                    self.absent.append(f"{module}.{path}")
                    continue
                wrapped = self._wrap(layer, module, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    continue
                for mod in package:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)

    @staticmethod
    def _resolve(module, path):
        try:
            owner = importlib.import_module(f"hyperhom.{module}")
        except ImportError:
            return None, None, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        return owner, attr, getattr(owner, attr, None)

    def _wrap(self, layer, module, fn):
        key_of = REPEAT_KEYS.get(layer)
        cells_of = CELLS.get(layer)
        bits_of = MAX_BITS.get(layer)
        spans, stack, open_layers = self.spans, self.stack, self.open_layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key_of is not None:
                self.keys[layer].add(key_of(args))
            if cells_of is not None:
                self.cells[layer] += cells_of(args)
            if bits_of is not None:
                self.max_bits[layer] = max(self.max_bits[layer], bits_of(args))
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, open_layers[layer] > 0]
            stack.append(len(spans))
            spans.append(span)
            open_layers[layer] += 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                span[2] = perf_counter()
                open_layers[layer] -= 1
                stack.pop()

        return traced

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, as means per traced round where they add up."""
        calls, self_s, total_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (layer, start, end, _, nested) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
            if not nested:
                total_s[layer] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / rounds
            out[f"{layer}.self_s"] = self_s[layer] / rounds
            out[f"{layer}.total_s"] = total_s[layer] / rounds
        for layer in CELLS:
            out[f"{layer}.cells"] = self.cells[layer] / rounds
        for layer in MAX_BITS:
            out[f"{layer}.max_bits"] = self.max_bits[layer]
        for layer, keys in self.keys.items():
            out[f"{layer}.repeat_ratio"] = calls[layer] / len(keys) if keys else 0.0
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module] / rounds
        return out

    def write_spans(self, path) -> None:
        base = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, _ in self.spans:
                fh.write(json.dumps([layer, round(start - base, 7),
                                     round(end - start, 7), parent]) + "\n")
