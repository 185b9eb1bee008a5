"""Extreme singular values of the transformation matrix.

Both extremes come from one dense symmetric eigendecomposition of the
Gram matrix on M's smaller side (``transform.gram_of``; for a
``TransformMatrix`` its cached ``gram()``), exact at desk scale.  A
pure dense-SVD path over the materialized matrix serves as the oracle.
sigma_min is the smallest of the min(rows, cols) singular values, zeros
included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .tensors import ConfigurationError
from .transform import TransformMatrix, gram_of


@dataclass(frozen=True)
class SpectralEstimate:
    sigma_max: float
    sigma_min: float

    def __post_init__(self):
        if not (self.sigma_max >= self.sigma_min >= 0.0):
            raise ConfigurationError(
                f"invalid spectral estimate ({self.sigma_max}, {self.sigma_min})")


def objective_gap(est: SpectralEstimate) -> float:
    """max(|sigma_max - 1|, |sigma_min - 1|), the stopping metric."""
    return max(abs(est.sigma_max - 1.0), abs(est.sigma_min - 1.0))


def _as_matrix(m) -> sp.csr_array | np.ndarray:
    if isinstance(m, TransformMatrix):
        return m.csr
    if sp.issparse(m):
        return m.tocsr()
    return np.asarray(m, dtype=np.float64)


def singular_extrema(m, method: str = "gram") -> SpectralEstimate:
    """sigma_max and sigma_min of a transformation matrix.

    ``method="gram"`` is the production path described in the module
    docstring; ``method="dense"`` computes the full dense SVD of the
    materialized matrix and is the oracle.
    """
    if method == "dense":
        a = _as_matrix(m)
        sv = sla.svdvals(a.toarray() if sp.issparse(a) else a)
        return SpectralEstimate(sigma_max=float(sv[0]), sigma_min=float(sv[-1]))
    if method != "gram":
        raise ConfigurationError(f"unknown spectral method {method!r}")

    # a TransformMatrix hands over the Gram the penalty already formed
    gram = m.gram() if isinstance(m, TransformMatrix) else gram_of(_as_matrix(m))
    eigs = sla.eigvalsh(gram.toarray() if sp.issparse(gram) else gram)
    # rounding can push an eigenvalue of a singular Gram a hair below 0
    return SpectralEstimate(sigma_max=float(np.sqrt(max(eigs[-1], 0.0))),
                            sigma_min=float(np.sqrt(max(eigs[0], 0.0))))
