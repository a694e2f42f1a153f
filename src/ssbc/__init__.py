"""Streaming spectral binary coding with baselines and a retrieval benchmark.

Core pipeline: Gaussian affinity vectors of a point stream are fed through
a Frequent Directions sketch; a point's binary codeword is the sign of its
affinity vector projected onto the sketch's top-k right singular vectors.
Baselines (random-hyperplane LSH and exact eigendecomposition codes), a
precision/recall/MAP harness, and an empirical checker for the sketch's
spectral guarantees round out the package. Codewords are int8 arrays with
entries in {-1, +1}; all randomness comes from seeded numpy default_rng
(PCG64) generators.
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
