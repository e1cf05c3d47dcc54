"""Visual place recognition toolkit with reference-set finetuning."""

# Set before the submodule imports: manifest reads it while they load.
__version__ = "0.1.0"

from .augmentation import AugmentationOp, AugmentationSpec, apply, sample_op
from .dataset import (
    Dataset,
    ImageRecord,
    Pose,
    load_dataset,
    save_dataset,
    split_validation,
)
from .embedding import (
    EmbeddingModel,
    ParamGradients,
    backward,
    extract_raw,
    forward,
    forward_batch,
    init_model,
    load_model,
    save_model,
)
from .evaluation import (
    GroundTruth,
    RecallReport,
    evaluate_model,
    generalization_matrix,
    ground_truth,
    project_2d,
    recall_at_n,
)
from .retrieval import (
    DescriptorMap,
    RetrievalResult,
    build_map,
    knn,
    load_map,
    retrieve_all,
    save_map,
)
from .rsf import (
    FinetuneDataset,
    TrainConfig,
    TrainLog,
    mine_triplets,
    rsf_finetune,
    train,
    triplet_loss,
)
from .synth import StyleParams, SynthWorldSpec, generate_synthetic

__all__ = [
    "AugmentationOp",
    "AugmentationSpec",
    "Dataset",
    "DescriptorMap",
    "EmbeddingModel",
    "FinetuneDataset",
    "GroundTruth",
    "ImageRecord",
    "ParamGradients",
    "Pose",
    "RecallReport",
    "RetrievalResult",
    "StyleParams",
    "SynthWorldSpec",
    "TrainConfig",
    "TrainLog",
    "apply",
    "backward",
    "build_map",
    "evaluate_model",
    "extract_raw",
    "forward",
    "forward_batch",
    "generalization_matrix",
    "generate_synthetic",
    "ground_truth",
    "init_model",
    "knn",
    "load_dataset",
    "load_map",
    "load_model",
    "mine_triplets",
    "project_2d",
    "recall_at_n",
    "retrieve_all",
    "rsf_finetune",
    "sample_op",
    "save_dataset",
    "save_map",
    "save_model",
    "split_validation",
    "train",
    "triplet_loss",
]
