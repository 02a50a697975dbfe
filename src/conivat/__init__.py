"""Constraint-driven visual cluster-tendency assessment and SL clustering."""

from .clustering import Partition, ccl, cut_mst, hac, ssl, suggest_k
from .constraints import (
    ConstraintSet,
    generate_from_labels,
    read_constraints,
    sanitize,
    write_constraints,
)
from .data import (
    FeatureMatrix,
    gen_banana,
    gen_gaussian_mixture,
    load_csv,
    load_iris,
    normalize_minmax,
    synth1,
    synth2,
)
from .evaluation import (
    BenchmarkReport,
    BenchmarkRow,
    partition_accuracy,
    run_ablation,
    run_benchmark,
    run_constraint_sweep,
)
from .metric import (
    LearnConfig,
    LearnReport,
    dissimilarity_under_metric,
    euclidean_dissimilarity,
    learn_metric,
)
from .rdi import RdiImage, render, write_pgm
from .vat import VatResult, conivat_pipeline, impose_similar, minimax_transform, validate_dissimilarity, vat_reorder

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "BenchmarkRow",
    "ConstraintSet",
    "FeatureMatrix",
    "LearnConfig",
    "LearnReport",
    "Partition",
    "RdiImage",
    "VatResult",
    "ccl",
    "conivat_pipeline",
    "cut_mst",
    "dissimilarity_under_metric",
    "euclidean_dissimilarity",
    "gen_banana",
    "gen_gaussian_mixture",
    "generate_from_labels",
    "hac",
    "impose_similar",
    "learn_metric",
    "load_csv",
    "load_iris",
    "minimax_transform",
    "normalize_minmax",
    "partition_accuracy",
    "read_constraints",
    "render",
    "run_ablation",
    "run_benchmark",
    "run_constraint_sweep",
    "sanitize",
    "ssl",
    "suggest_k",
    "synth1",
    "synth2",
    "validate_dissimilarity",
    "vat_reorder",
    "write_constraints",
    "write_pgm",
]
