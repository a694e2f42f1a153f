"""Streaming spectral binary coding with baselines and a retrieval benchmark.

ssbc.encoder codes points through a Frequent Directions sketch
(ssbc.sketch) of Gaussian affinity vectors (ssbc.affinity).
ssbc.baselines holds random-hyperplane LSH and exact eigendecomposition
codes, and ssbc.evaluation scores codes and checks the sketch's spectral
guarantees.
"""

from .affinity import (TrainSet, affinity_matrix, affinity_vector,
                       estimate_sigma_all, estimate_sigma_nn)
from .baselines import (ExactCodes, LshModel, exact_codes, haar_rotation,
                        lsh_encode_batch, lsh_train)
from .data import Dataset, SplitSpec, load_csv, save_csv, split, synth_uniform, zscore
from .encoder import (SsbcModel, SsbcParams, sign_project, signs,
                      ssbc_encode_batch, ssbc_process_online, ssbc_train)
from .errors import (DataError, GuardError, NumericalError, ParameterError,
                     SsbcError)
from .evaluation import (EvalReport, GroundTruth, column_norm_diagnostic,
                         evaluate_retrieval, ground_truth, hamming_matrix,
                         mean_average_precision, pr_curve, precision_recall,
                         rank_by_hamming, retrieve_hamming, spectral_norm,
                         theory_spectral_check)
from .sketch import FdSketch

__version__ = "0.1.0"

__all__ = [
    "TrainSet", "affinity_matrix", "affinity_vector", "estimate_sigma_all",
    "estimate_sigma_nn",
    "ExactCodes", "LshModel", "exact_codes", "haar_rotation", "lsh_encode_batch",
    "lsh_train",
    "Dataset", "SplitSpec", "load_csv", "save_csv", "split", "synth_uniform",
    "zscore",
    "SsbcModel", "SsbcParams", "sign_project", "signs", "ssbc_encode_batch",
    "ssbc_process_online", "ssbc_train",
    "DataError", "GuardError", "NumericalError", "ParameterError", "SsbcError",
    "EvalReport", "GroundTruth", "column_norm_diagnostic", "evaluate_retrieval",
    "ground_truth", "hamming_matrix", "mean_average_precision", "pr_curve",
    "precision_recall", "rank_by_hamming", "retrieve_hamming", "spectral_norm",
    "theory_spectral_check",
    "FdSketch",
    "__version__",
]
