"""Frobenius penalty ||M^T M - alpha I||_F^2 and its kernel gradient.

``penalty`` and ``gradient_fast`` work on the Gram matrix S of the
smaller side of M in stencil storage (``TransformMatrix.gram``, see
``transform.StencilGram``): S = F^T F with F = M when M is tall or
square and F = M^T, itself a "same" convolution, when M is wide.  The
two Grams share their nonzero eigenvalues, and M^T M of a wide M has
cols - rows extra zero eigenvalues, so with R = S - alpha I

    ||M^T M - alpha I||_F^2 = ||R||_F^2 + alpha^2 * max(cols - rows, 0),

and ||R||_F^2 is the sum of squares of R's stencil coefficients.

Every entry point takes the prepared matrix ``tm`` (from
``build_transform`` or ``tm.refresh``) and alpha, and reads the kernel
shape from ``tm.geometry``.  Three gradient routes with one contract:

* ``gradient_fast`` -- the derivative of the penalty in F's slot (i, j)
  is 4 (F R)[i, j], and F's slots carrying kernel entry (u, z, y) are
  those of its input positions a whose tap u is inside the grid.  Per
  spatial axis, with taps[u, a] from ``StencilGram``,

      grad[u, z, y] = 4 sum_{D, z2} K[u + D, z2, y]
                        sum_a R[(z, a), (z2, a + D)] taps[u, a],

  read straight off the stencil coefficients; for wide M the gradient
  of F's kernel is flipped and channel-swapped back onto K.  This is
  the production route.
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


def _residual(tm: TransformMatrix, alpha: float) -> tuple[np.ndarray, float]:
    """Stencil coefficients of S - alpha I for the Gram S of ``tm``, and
    the penalty value."""
    if alpha < 0:
        raise ConfigurationError(f"alpha must be nonnegative, got {alpha}")
    coeffs = tm.gram().coeffs
    width, _, channels = coeffs.shape[:3]
    resid = coeffs.copy()
    diag = np.arange(channels)
    resid[width // 2, width // 2, diag, diag] -= alpha   # D = 0, z1 = z2
    flat = resid.reshape(-1)
    with np.errstate(over="ignore"):
        sum_sq = float(np.dot(flat, flat))
    # a wide M's Gram M^T M has cols - rows more zero eigenvalues than S
    return resid, sum_sq + alpha ** 2 * max(tm.cols - tm.rows, 0)


def _kernel_shape(tm: TransformMatrix) -> tuple[int, int, int, int]:
    geo = tm.geometry
    return geo.k, geo.k, geo.g, geo.h


def penalty(tm: TransformMatrix, alpha: float) -> float:
    """Penalty value, the sum of squares of M^T M - alpha I."""
    return _residual(tm, alpha)[1]


def gradient_fast(tm: TransformMatrix, alpha: float) -> PenaltyGradient:
    """Full penalty gradient read off the stencil Gram (module docstring)."""
    resid, pen = _residual(tm, alpha)
    gram = tm.gram()
    with np.errstate(over="ignore", invalid="ignore"):
        # inner[u1, u2, d1, d2, z, z2] = sum_a R[D, z, z2, a] taps[u, a]
        inner = np.einsum("dezwab,pa,qb->pqdezw", resid, gram.taps, gram.taps,
                          optimize=True)
        grad = 4.0 * np.einsum("pqwyde,pqdezw->pqzy", gram.shifted, inner,
                               optimize=True)
    if gram.transposed:
        grad = np.ascontiguousarray(grad[::-1, ::-1].swapaxes(2, 3))
    return PenaltyGradient(values=grad, penalty=pen)


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
    kernel = tm.kernel
    base = kernel.values
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for idx in range(base.size):
        shift = np.zeros(base.size)
        shift[idx] = step
        tm.refresh(Kernel(base + shift.reshape(base.shape)))
        plus = penalty(tm, alpha)
        tm.refresh(Kernel(base - shift.reshape(base.shape)))
        flat[idx] = (plus - penalty(tm, alpha)) / (2 * step)
    tm.refresh(kernel)
    return PenaltyGradient(values=grad, penalty=pen)
