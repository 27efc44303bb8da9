"""Summarize ensembles of network partitions by representative modes."""

from .partitions import (Partition, PartitionSet, ContingencyTable, canonicalize,
                         entropy, contingency_table, conditional_entropy,
                         modified_conditional_entropy)
from .tables import count_tables_exact, count_tables_gaussian, log2_omega
from .cache import PairCache
from .objective import (Clustering, ObjectiveBreakdown, cluster_label_entropy,
                        description_length, full_description_length)
from .engine import (EngineParams, ClusteringResult, find_mode_exact,
                     find_mode_sampled, run)
from .graphs import (Graph, planted_partition, sbm, ring_of_cliques,
                     read_edge_list, write_edge_list)
from .sampler import (PerturbationSpec, load_partitions, write_partitions,
                      perturb_ensemble, mcmc_sample)

__all__ = [
    "Partition", "PartitionSet", "ContingencyTable", "canonicalize", "entropy",
    "contingency_table", "conditional_entropy", "modified_conditional_entropy",
    "count_tables_exact", "count_tables_gaussian", "log2_omega", "PairCache",
    "Clustering", "ObjectiveBreakdown", "cluster_label_entropy",
    "description_length", "full_description_length", "EngineParams",
    "ClusteringResult", "find_mode_exact", "find_mode_sampled", "run",
    "Graph", "planted_partition", "sbm", "ring_of_cliques", "read_edge_list",
    "write_edge_list", "PerturbationSpec", "load_partitions", "write_partitions",
    "perturb_ensemble", "mcmc_sample",
]
