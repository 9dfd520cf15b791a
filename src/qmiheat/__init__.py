"""Training and inference toolkit for lightweight binary-detection CNNs
regularized by a pairwise-information term on their embeddings.

The package covers the full loop: synthetic dataset generation, SGD
training with the regularizer attached to the penultimate convolution,
full-frame heatmap inference validated against a sliding-window oracle,
and rank-based comparison of method accuracies across datasets.

Everything runs on numpy alone; the convolutions are float32 BLAS matrix
products.
"""

from .data import (
    PackedDataset,
    SynthSpec,
    generate_synthetic,
    generate_synthetic_split,
    load_packed,
    write_packed,
)
from .errors import DataFormatError, TrainingDivergedError
from .heatmap import (
    BenchReport,
    Heatmap,
    benchmark_fps,
    fully_conv_inference,
    load_heatmap,
    render_heatmap,
    sliding_window_oracle,
    write_heatmap,
)
from .losses import DEFAULT_ETA, cross_entropy_loss, hinge_loss
from .models import (
    NetworkSpec,
    OutputGeometry,
    build_model,
    load_model,
    output_geometry,
    save_model,
)
from .qmi import (
    EmbeddingBatch,
    InformationPotentials,
    batch_potentials,
    quadratic_mutual_information,
    regularizer_gradient,
    regularizer_loss,
)
from .ranking import (
    RankingResult,
    ScoreTable,
    average_ranks,
    critical_difference,
    rank_methods,
    significance,
)
from .training import (
    ExperimentSummary,
    RunHistory,
    TrainConfig,
    evaluate,
    repeated_experiment,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "DataFormatError",
    "DEFAULT_ETA",
    "EmbeddingBatch",
    "ExperimentSummary",
    "Heatmap",
    "InformationPotentials",
    "NetworkSpec",
    "OutputGeometry",
    "PackedDataset",
    "RankingResult",
    "RunHistory",
    "ScoreTable",
    "SynthSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "average_ranks",
    "batch_potentials",
    "benchmark_fps",
    "build_model",
    "critical_difference",
    "cross_entropy_loss",
    "evaluate",
    "fully_conv_inference",
    "generate_synthetic",
    "generate_synthetic_split",
    "hinge_loss",
    "load_heatmap",
    "load_model",
    "load_packed",
    "output_geometry",
    "quadratic_mutual_information",
    "rank_methods",
    "regularizer_gradient",
    "regularizer_loss",
    "render_heatmap",
    "repeated_experiment",
    "save_model",
    "significance",
    "sliding_window_oracle",
    "train",
    "write_heatmap",
    "write_packed",
]
