"""Odd clique minors in graph products: certified lower-bound
constructions, a certificate verifier, and an exact exhaustive-search
oracle for small instances.

The names below are loaded from their modules on first use, so that
importing one module, such as `oddminors.oracle`, does not load the others.
"""

import importlib

_HOMES = {
    "graphs": ("Graph", "complete", "cycle", "flatten", "graph_from_edges", "hamming",
               "is_bipartite", "make_named_graph", "path", "product", "read_graph_text",
               "spanning_tree", "star", "write_graph_text"),
    "expansion": ("BranchTree", "OddExpansionModel", "Verdict", "branch_tree",
                  "odd_cycle_model", "parse_model", "serialize_model",
                  "verify_odd_expansion"),
    "constructions": ("BaseModel", "GridForest", "best_lower_bound",
                      "cartesian_complete_model", "cartesian_lift", "direct_general_model",
                      "direct_k3_model", "direct_k3_upper_bound", "hamming_model",
                      "identity_model", "product_grid_forest", "star_model",
                      "strong_model", "witness_product_coloring"),
    "oracle": ("ExactResult", "SearchBudget", "has_odd_clique_minor", "odd_hadwiger"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
