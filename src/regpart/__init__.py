"""Balanced regular partitions of finite graphs, with exact certificates.

The library refines a partition of a graph's vertices until every class pair
is regular (uniform-looking at scale epsilon) or the remaining irregularity
has small total mass, alternating balancing splits with witness-driven
refinement. All arithmetic is exact, every verdict carries a certificate,
and a slow oracle re-derives the fast path's answers independently.
"""

from .driver import (
    CoreBoundResult,
    RunTrace,
    TowerBound,
    TraceStep,
    balanced_irregularity_bound,
    regularize,
    tower_bound,
    verify_trace,
)
from .errors import (
    BadEpsilonError,
    BadParamsError,
    EmptySetError,
    FormatError,
    InvalidPartitionError,
    InvalidWitnessError,
    NotSubsetError,
    RegPartError,
    TooLargeError,
    UnequalSizesError,
)
from .generate import gnp, planted
from .graph import (
    Graph,
    Partition,
    VertexSet,
    adjacent_pair_count,
    as_fraction,
    density,
    energy,
    require_epsilon,
)
from .refine import (
    BalanceCertificate,
    atom_partition,
    balance_refine,
    irregularity_refine,
    is_balanced,
    witness_increment,
)
from .regularity import (
    EXHAUSTIVE_CUTOFF,
    PairClassification,
    PairWitness,
    RegularityReport,
    check_pair_exhaustive,
    check_partition,
    classify_pair,
    find_witness_heuristic,
    validate_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BadEpsilonError",
    "BadParamsError",
    "BalanceCertificate",
    "CoreBoundResult",
    "EXHAUSTIVE_CUTOFF",
    "EmptySetError",
    "FormatError",
    "Graph",
    "InvalidPartitionError",
    "InvalidWitnessError",
    "NotSubsetError",
    "PairClassification",
    "PairWitness",
    "Partition",
    "RegPartError",
    "RegularityReport",
    "RunTrace",
    "TooLargeError",
    "TowerBound",
    "TraceStep",
    "UnequalSizesError",
    "VertexSet",
    "adjacent_pair_count",
    "as_fraction",
    "atom_partition",
    "balance_refine",
    "balanced_irregularity_bound",
    "check_pair_exhaustive",
    "check_partition",
    "classify_pair",
    "density",
    "energy",
    "find_witness_heuristic",
    "gnp",
    "irregularity_refine",
    "is_balanced",
    "planted",
    "regularize",
    "require_epsilon",
    "tower_bound",
    "validate_witness",
    "verify_trace",
    "witness_increment",
]
