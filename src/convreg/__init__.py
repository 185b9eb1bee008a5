"""Frobenius-norm regularization of convolution kernels.

A "same" convolution with unit stride and zero padding is a linear map:
vec(K * X) = M vec(X) for a structured matrix M determined by the
kernel.  This package builds M sparsely, evaluates the penalty
||M^T M - alpha I||_F^2 and its kernel gradient in closed form, and
runs gradient descent that drives every singular value of M toward 1
while preserving the convolution structure exactly.
"""

from .cli import read_trajectory_csv, write_trajectory_csv
from .optimizer import (DescentResult, DivergenceError, IterationRecord,
                        RunConfig, StepSchedule, descend)
from .penalty import (PenaltyGradient, RegularizerConfig, frob_sq_grad,
                      gradient_direct, gradient_fast, gradient_fd,
                      gram_entry_derivative, penalty)
from .rng import SeededGaussian, splitmix64
from .spectrum import SpectralEstimate, objective_gap, singular_extrema
from .tensors import (ConfigurationError, FeatureMap, Kernel, conv_multi,
                      conv_single, delta_kernel, random_kernel, tensor_from_json,
                      tensor_to_json, unvec, vec)
from .transform import (TransformMatrix, build_transform, omega_cardinality,
                        write_coordinate_file)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DescentResult", "DivergenceError", "FeatureMap",
    "IterationRecord", "Kernel", "PenaltyGradient", "RegularizerConfig",
    "RunConfig", "SeededGaussian", "SpectralEstimate", "StepSchedule",
    "TransformMatrix", "build_transform", "conv_multi", "conv_single",
    "delta_kernel", "descend", "frob_sq_grad", "gradient_direct",
    "gradient_fast", "gradient_fd", "gram_entry_derivative", "objective_gap",
    "omega_cardinality", "penalty", "random_kernel",
    "read_trajectory_csv", "singular_extrema", "splitmix64",
    "tensor_from_json", "tensor_to_json", "unvec", "vec",
    "write_coordinate_file", "write_trajectory_csv",
]
