"""Exact constrained (co)homology of simplicial complexes and independence
hypergraphs, hypergraph closure algebra, invariant traces, and persistence."""

from .hypergraphs import (
    ClosureOp,
    CombineOp,
    Hypergraph,
    HypergraphClass,
    closure,
    combine,
    join_hg,
    morphism_image,
    power_set,
    trace,
)
from .homology import (
    ComplexSpec,
    HomologyGroup,
    InducedMap,
    LongExactSequence,
    build_complex,
    duality_check,
    edge_carrier,
    homology_table,
    inclusion_induced,
    mayer_vietoris,
    operator_action,
    word_carrier,
)
from .invariance import InvariantReport, invariant_trace, invariant_vertices, is_invariant
from .linalg import (
    SparseMatrix,
    SubquotientPresentation,
    homology_presentation,
    kernel_basis,
    rank,
    smith_normal_form,
)
from .persistence import Barcode, Filtration, barcode, persistent_mv, persistent_ranks
from .rings import GF, QQ, ZZ, Ring
from .words import (
    FreeChain,
    VertexMap,
    VertexSet,
    WedgeOperator,
    WordClass,
    classify_word,
    wedge_apply,
    wedge_chain,
)

__version__ = "0.1.0"
