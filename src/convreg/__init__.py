"""Frobenius-norm regularization of convolution kernels.

A "same" convolution with unit stride and zero padding is a linear map:
vec(K * X) = M vec(X) for a structured matrix M determined by the
kernel.  This package builds M sparsely, evaluates the penalty
||M^T M - alpha I||_F^2 and its kernel gradient in closed form, and
runs gradient descent that drives every singular value of M toward 1
while preserving the convolution structure exactly.
"""

from .optimizer import (DescentResult, DivergenceError, IterationRecord,
                        RunConfig, StepSchedule, descend, read_trajectory_csv,
                        write_trajectory_csv)
from .penalty import (PenaltyGradient, gradient_direct, gradient_fast,
                      gradient_fd, penalty)
from .rng import SeededGaussian, splitmix64
from .spectrum import SpectralEstimate, objective_gap, singular_extrema
from .tensors import (ConfigurationError, FeatureMap, Kernel, conv_multi,
                      conv_single, delta_kernel, random_kernel, tensor_from_json,
                      tensor_to_json, unvec, vec)
from .transform import (TransformMatrix, build_transform, omega_cardinality,
                        write_coordinate_file)

__version__ = "0.1.0"


def __getattr__(name):
    # ``convreg.cli`` resolves on first use: importing the library leaves
    # the command line unimported, so ``python -m convreg.cli`` runs it
    # as a fresh ``__main__``
    if name == "cli":
        import importlib
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConfigurationError", "DescentResult", "DivergenceError", "FeatureMap",
    "IterationRecord", "Kernel", "PenaltyGradient", "RunConfig",
    "SeededGaussian", "SpectralEstimate", "StepSchedule", "TransformMatrix",
    "build_transform", "conv_multi", "conv_single", "delta_kernel", "descend",
    "gradient_direct", "gradient_fast", "gradient_fd", "objective_gap",
    "omega_cardinality", "penalty", "random_kernel",
    "read_trajectory_csv", "singular_extrema", "splitmix64",
    "tensor_from_json", "tensor_to_json", "unvec", "vec",
    "write_coordinate_file", "write_trajectory_csv",
]
