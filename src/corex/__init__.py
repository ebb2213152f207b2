"""corex: informative-core extraction for networks with uninformative
peripheries.

The library identifies the subnetwork whose connection pattern carries
structure, treating nodes that connect at a constant rate (ER-type) or in
proportion to their degrees (configuration-type) as periphery.  Scores
come from centered rows of a truncated eigendecomposition of the
adjacency matrix; selection rules, synthetic benchmark generators,
baselines, and an ROC harness round out the toolkit.

Public names are imported from their modules on first access (PEP 562),
so `import corex` loads only what the caller uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "baselines": "coreness_scores degree_scores eigenvector_scores local_cc_scores "
                 "pagerank_scores",
    "coreid": "CorePartition RankSelection identify_top_k kmeans_split select_rank_ecv "
              "threshold",
    "errors": "ConvergenceError CorexError DegenerateError DomainError InfeasibleError "
              "ParseError RangeError ValidationError",
    "evaluate": "RocCurve kcore_points operating_point roc run_experiment",
    "graph": "SparseGraph average_density degrees load_edge_list "
             "sample_adjacency write_edge_list write_truth_labels",
    "spectral": "CoreScores SpectralDecomposition config_scores diagnostics eigengap_profile "
                "er_scores scores_from_truth truncated_eigs",
    "synth": "GeneratedInstance SynthConfig generate_instance graphon_by_number graphon_core "
             "graphon_matrix graphon_value sample_latents sample_periphery_theta",
}
# public name -> its module; a module's own name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)
