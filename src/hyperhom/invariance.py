"""Derivation-invariant vertex sets of a hypergraph and their traces.

A vertex s is deletion-invariant when removing s from any edge containing
it lands back in the family (the single-vertex edge {s} is exempt, its
face is the empty edge). It is insertion-invariant when adding s to any
nonempty edge missing it lands back in the family. Restricting a
hypergraph onto its deletion-invariant vertices always yields an
augmented simplicial complex; restricting onto the insertion-invariant
vertices of a family without the empty edge yields an independence
hypergraph. Vertices touching no edge are vacuously invariant in both
modes.
"""

from __future__ import annotations

from .errors import EmptyEdgePresent, SchemaViolation, TraceNotClassified
from .hypergraphs import Hypergraph, trace
from .records import record

PARTIAL = "partial"
DIFFERENTIAL = "d"


def is_invariant(h: Hypergraph, s: int, mode: str) -> bool:
    """Read on the one-vertex flips that `Hypergraph._closed` reads: no
    face missing below an edge holding s (PARTIAL, where {s} needs no empty
    face), or no coface missing above an edge without it (DIFFERENTIAL,
    where the empty edge needs no {s} above it)."""
    if not 0 <= s < len(h.vertices):
        raise SchemaViolation(f"vertex index {s} out of range")
    b = 1 << s
    if mode == PARTIAL:
        return all(m & b for m in h.missing_flips(s))
    if mode == DIFFERENTIAL:
        return not any(m & b for m in h.missing_flips(s) if m != b)
    raise SchemaViolation(f"unknown invariance mode {mode!r}")


def invariant_vertices(h: Hypergraph, mode: str) -> tuple:
    return tuple(s for s in range(len(h.vertices)) if is_invariant(h, s, mode))


@record
class InvariantReport:
    mode: str
    invariant_vertices: tuple  # sorted vertex indices of h
    trace: Hypergraph


def invariant_trace(h: Hypergraph, mode: str) -> InvariantReport:
    if mode == DIFFERENTIAL and h.has_empty_edge:
        raise EmptyEdgePresent(
            "insertion-invariant traces are defined for families without the empty edge"
        )
    verts = invariant_vertices(h, mode)
    restricted = trace(h, verts)
    if not (restricted.is_simplicial_complex if mode == PARTIAL
            else restricted.is_independence_hypergraph):
        raise TraceNotClassified(f"invariant trace failed to classify for mode {mode}")
    return InvariantReport(mode, verts, restricted)
