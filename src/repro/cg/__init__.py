"""MetaCG substrate: whole-program call graphs for CaPI.

Two-step construction exactly as in the MetaCG workflow (paper Fig. 2):
per-TU local graphs (:mod:`local`), then a whole-program merge
(:mod:`merge`) that over-approximates virtual calls (:mod:`virtual`),
statically resolves function pointers (:mod:`fpointers`) and can be
patched up from a measurement profile (:mod:`validation`).
"""

from repro.cg.csr import CsrSnapshot
from repro.cg.graph import CallGraph, CGNode, Edge, EdgeReason, NodeMeta
from repro.cg.local import LocalCallGraph, build_local_cg
from repro.cg.merge import build_whole_program_cg, merge_local_graphs
from repro.cg.validation import ValidationReport, validate_with_profile

__all__ = [
    "CGNode",
    "CallGraph",
    "CsrSnapshot",
    "Edge",
    "EdgeReason",
    "LocalCallGraph",
    "NodeMeta",
    "ValidationReport",
    "build_local_cg",
    "build_whole_program_cg",
    "merge_local_graphs",
    "validate_with_profile",
]
