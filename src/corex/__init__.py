"""corex: informative-core extraction for networks with uninformative
peripheries.

The library identifies the subnetwork whose connection pattern carries
structure, treating nodes that connect at a constant rate (ER-type) or in
proportion to their degrees (configuration-type) as periphery.  Scores
come from centered rows of a truncated eigendecomposition of the
adjacency matrix; selection rules, synthetic benchmark generators,
baselines, and an ROC harness round out the toolkit.
"""

__version__ = "0.1.0"

from .baselines import (BaselineScores, coreness_scores, degree_scores,
                        eigenvector_scores, local_cc_scores, pagerank_scores)
from .coreid import (CorePartition, RankSelection, identify_top_k, kmeans_split,
                     select_rank_ecv, threshold_config, threshold_er)
from .errors import (ConvergenceError, CorexError, DegenerateError, DomainError,
                     InfeasibleError, ParseError, RangeError, ValidationError)
from .evaluate import (RocCurve, eigengap_profile, kcore_points, operating_point,
                       roc, run_experiment)
from .graph import (ProbabilityMatrix, SparseGraph, average_density, degrees,
                    load_edge_list, read_truth_labels, sample_adjacency,
                    write_edge_list, write_truth_labels)
from .spectral import (CoreScores, SpectralDecomposition, config_scores,
                       diagnostics, er_scores, scores_from_truth, truncated_eigs)
from .synth import (GeneratedInstance, GraphonSpec, SynthConfig, assemble_er,
                    generate_instance, graphon_by_number, graphon_core, graphon_matrix,
                    graphon_value, sample_latents, sample_periphery_theta)

__all__ = [name for name in dir() if not name.startswith("_")]
