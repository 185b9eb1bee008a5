"""Frobenius penalty ||M^T M - alpha I||_F^2 and its kernel gradient.

``penalty`` and ``gradient_fast`` work on the Gram matrix S of the
smaller side of M (``transform.gram_of``): S = M^T M when M is tall or square, else
M M^T.  The two Grams share their nonzero eigenvalues, and M^T M of a
wide M has cols - rows extra zero eigenvalues, so

    ||M^T M - alpha I||_F^2 = ||S - alpha I||_F^2
                              + alpha^2 * max(cols - rows, 0).

Every entry point takes the prepared matrix ``tm`` (from
``build_transform`` or ``tm.refresh``) and alpha, and reads the kernel
shape from ``tm.geometry``.  Three gradient routes with one contract:

* ``gradient_fast`` -- the derivative of the penalty in a single matrix
  slot (i, j) is 4*(M E)[i, j] with E = M^T M - alpha I, and
  M E = M (S - alpha I) for tall M, (S - alpha I) M for wide M.  The
  kernel gradient is 4 times the per-coordinate sums of that sparse
  product, sampled at M's slots, over the omega sets.  This is the
  production route.
* ``gradient_direct`` -- literal per-slot summation: for every omega
  position (i, j) of a kernel coordinate, accumulate
  sum_t E[j,t]*M[i,t] + sum_s E[s,j]*M[i,s] with the dense
  E = M^T M - alpha I, then double (the returned tensor is the full
  derivative).  Dense and slow; exists for verification.
* ``gradient_fd`` -- central finite differences of the penalty; the
  test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .tensors import ConfigurationError, Kernel
from .transform import TransformMatrix


@dataclass(frozen=True)
class PenaltyGradient:
    """Full derivative of the penalty with respect to the kernel."""

    values: np.ndarray  # shape (k, k, g, h)
    penalty: float

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.values))


def _residual(tm: TransformMatrix, alpha: float) -> tuple[sp.csr_array, float]:
    """S - alpha I for the Gram S of ``tm``, and the penalty value."""
    if alpha < 0:
        raise ConfigurationError(f"alpha must be nonnegative, got {alpha}")
    gram = tm.gram()
    dim = gram.shape[0]
    resid = (gram - alpha * sp.eye_array(dim, format="csr")).tocsr()
    # a wide M's Gram M^T M has cols - dim more zero eigenvalues than S
    return resid, float(np.dot(resid.data, resid.data)) + alpha ** 2 * (tm.cols - dim)


def _kernel_shape(tm: TransformMatrix) -> tuple[int, int, int, int]:
    geo = tm.geometry
    return geo.k, geo.k, geo.g, geo.h


def penalty(tm: TransformMatrix, alpha: float) -> float:
    """Penalty value, the sum of squares of M^T M - alpha I."""
    return _residual(tm, alpha)[1]


def gradient_fast(tm: TransformMatrix, alpha: float) -> PenaltyGradient:
    """Full penalty gradient via per-coordinate sums of 4 * (M E)."""
    resid, pen = _residual(tm, alpha)
    # M E, read below only at M's slots
    prod = tm.csr @ resid if resid.shape[0] == tm.cols else resid @ tm.csr
    slot_rows, slot_cols = tm.slot_positions()
    shape = _kernel_shape(tm)
    sums = np.bincount(tm.gather_coords(),
                       weights=prod[slot_rows, slot_cols],
                       minlength=int(np.prod(shape)))
    return PenaltyGradient(values=4.0 * sums.reshape(shape), penalty=pen)


def gradient_direct(tm: TransformMatrix, alpha: float) -> PenaltyGradient:
    """Full penalty gradient by literal summation over the omega sets.

    Materializes M and E = M^T M - alpha I densely; intended for small
    geometries only.  The carried penalty value is ``penalty``'s.
    """
    pen = penalty(tm, alpha)
    m_dense = tm.to_dense()
    e = m_dense.T @ m_dense - alpha * np.eye(tm.cols)
    k, _, g, h = _kernel_shape(tm)
    grad = np.zeros((k, k, g, h))
    for p in range(k):
        for q in range(k):
            for z in range(g):
                for y in range(h):
                    total = 0.0
                    for i, j in tm.omega(p, q, z, y):
                        total += float(np.dot(e[j, :], m_dense[i, :]))
                        total += float(np.dot(e[:, j], m_dense[i, :]))
                    grad[p, q, z, y] = 2.0 * total
    return PenaltyGradient(values=grad, penalty=pen)


def gradient_fd(tm: TransformMatrix, alpha: float,
                step: float = 1e-6) -> PenaltyGradient:
    """Central finite differences of the penalty per kernel entry.

    Refreshes ``tm`` with each shifted kernel and restores its values
    before returning.
    """
    if step <= 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {step}")
    pen = penalty(tm, alpha)
    # the kernel behind M's values; an entry no slot carries stays 0,
    # which changes neither M nor the penalty
    base = np.zeros(_kernel_shape(tm))
    base.reshape(-1)[tm.gather_coords()] = tm.csr.data
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for idx in range(base.size):
        shift = np.zeros(base.size)
        shift[idx] = step
        tm.refresh(Kernel(base + shift.reshape(base.shape)))
        plus = penalty(tm, alpha)
        tm.refresh(Kernel(base - shift.reshape(base.shape)))
        flat[idx] = (plus - penalty(tm, alpha)) / (2 * step)
    tm.refresh(Kernel(base))
    return PenaltyGradient(values=grad, penalty=pen)
