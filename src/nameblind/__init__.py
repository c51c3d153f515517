"""Bias-constrained classifier training using word embeddings of names.

Trains a single-layer softmax classifier while penalizing correlation
between the predicted probability of each record's true label and a word
embedding of the record's name (cluster-based or covariance-based
penalty), and measures the effect through per-class true-positive-rate
gaps between groups.
"""

__version__ = "0.1.0"

from .clustering import ClusterModel, kmeans
from .data import Dataset, NameDemographics, TabularSchema
from .embeddings import EmbeddingTable, load_embeddings
from .losses import PenaltyInputs, clucl_penalty, cocl_penalty
from .metrics import BiasReport, GroupAttribute, GroupLabels, bias_report
from .model import ModelParams
from .training import GridResult, TrainConfig, TrainResult, train

__all__ = [
    "__version__",
    "ClusterModel",
    "kmeans",
    "Dataset",
    "NameDemographics",
    "TabularSchema",
    "EmbeddingTable",
    "load_embeddings",
    "PenaltyInputs",
    "clucl_penalty",
    "cocl_penalty",
    "BiasReport",
    "GroupAttribute",
    "GroupLabels",
    "bias_report",
    "ModelParams",
    "GridResult",
    "TrainConfig",
    "TrainResult",
    "train",
]
