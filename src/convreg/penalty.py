"""Frobenius penalty ||M^T M - alpha I||_F^2 and its kernel gradient.

``penalty`` and ``gradient_fast`` work on the Gram matrix S of the
smaller side of M (``transform.gram_of``): S = M^T M when M is tall or square, else
M M^T.  The two Grams share their nonzero eigenvalues, and M^T M of a
wide M has cols - rows extra zero eigenvalues, so

    ||M^T M - alpha I||_F^2 = ||S - alpha I||_F^2
                              + alpha^2 * max(cols - rows, 0).

Three gradient routes with one contract:

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
from .transform import TransformMatrix, build_transform


@dataclass(frozen=True)
class RegularizerConfig:
    """Penalty parameters: target Gram scale alpha and input size N."""

    alpha: float = 1.0
    n: int = 20

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be nonnegative, got {self.alpha}")
        if self.n < 1:
            raise ConfigurationError(f"input size must be positive, got {self.n}")


@dataclass(frozen=True)
class PenaltyGradient:
    """Full derivative of the penalty with respect to the kernel."""

    values: np.ndarray  # shape (k, k, g, h)
    alpha: float
    penalty: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)) or not np.isfinite(self.penalty):
            raise ConfigurationError("non-finite gradient or penalty value")

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.values))


def _prepared(kernel: Kernel, cfg: RegularizerConfig,
              tm: TransformMatrix | None) -> TransformMatrix:
    if tm is None:
        return build_transform(kernel, cfg.n)
    geo = tm.geometry
    if (kernel.k, kernel.g, kernel.h, cfg.n) != (geo.k, geo.g, geo.h, geo.n):
        raise ConfigurationError("prepared matrix does not match kernel/config geometry")
    tm.refresh(kernel)
    return tm


def _residual(tm: TransformMatrix, alpha: float) -> tuple[sp.csr_array, float]:
    """S - alpha I for the Gram S of ``tm``, and the penalty value."""
    gram = tm.gram()
    dim = gram.shape[0]
    resid = (gram - alpha * sp.eye_array(dim, format="csr")).tocsr()
    # a wide M's Gram M^T M has cols - dim more zero eigenvalues than S
    return resid, float(np.dot(resid.data, resid.data)) + alpha ** 2 * (tm.cols - dim)


def penalty(kernel: Kernel, cfg: RegularizerConfig,
            tm: TransformMatrix | None = None) -> float:
    """Penalty value, the sum of squares of M^T M - alpha I."""
    return _residual(_prepared(kernel, cfg, tm), cfg.alpha)[1]


def gradient_fast(kernel: Kernel, cfg: RegularizerConfig,
                  tm: TransformMatrix | None = None) -> PenaltyGradient:
    """Full penalty gradient via per-coordinate sums of 4 * (M E)."""
    tm = _prepared(kernel, cfg, tm)
    resid, pen = _residual(tm, cfg.alpha)
    # M E, read below only at M's slots
    prod = tm.csr @ resid if resid.shape[0] == tm.cols else resid @ tm.csr
    slot_rows, slot_cols = tm.slot_positions()
    sums = np.bincount(tm.gather_coords(),
                       weights=prod[slot_rows, slot_cols],
                       minlength=kernel.values.size)
    grad = 4.0 * sums.reshape(kernel.values.shape)
    return PenaltyGradient(values=grad, alpha=cfg.alpha, penalty=pen)


def gradient_direct(kernel: Kernel, cfg: RegularizerConfig,
                    tm: TransformMatrix | None = None) -> PenaltyGradient:
    """Full penalty gradient by literal summation over the omega sets.

    Materializes M and E = M^T M - alpha I densely; intended for small
    geometries only.  The carried penalty value is ``penalty``'s.
    """
    tm = _prepared(kernel, cfg, tm)
    m_dense = tm.to_dense()
    e = m_dense.T @ m_dense - cfg.alpha * np.eye(tm.cols)
    k, g, h = kernel.k, kernel.g, kernel.h
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
    return PenaltyGradient(values=grad, alpha=cfg.alpha,
                           penalty=penalty(kernel, cfg, tm))


def gradient_fd(kernel: Kernel, cfg: RegularizerConfig,
                step: float = 1e-6) -> PenaltyGradient:
    """Central finite differences of the penalty per kernel entry."""
    if step <= 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {step}")
    base = kernel.values
    tm = build_transform(kernel, cfg.n)
    pen = penalty(kernel, cfg, tm)
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for idx in range(base.size):
        shift = np.zeros(base.size)
        shift[idx] = step
        plus = Kernel(base + shift.reshape(base.shape))
        minus = Kernel(base - shift.reshape(base.shape))
        flat[idx] = (penalty(plus, cfg, tm) - penalty(minus, cfg, tm)) / (2 * step)
    tm.refresh(kernel)
    return PenaltyGradient(values=grad, alpha=cfg.alpha, penalty=pen)


def frob_sq_grad(a: np.ndarray) -> np.ndarray:
    """Entrywise derivative of ||A||_F^2, which is 2A."""
    return 2.0 * np.asarray(a, dtype=np.float64)


def gram_entry_derivative(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """Derivative of A^T A with respect to entry (i, j).

    Returns A^T e_i e_j^T + e_j e_i^T A: row i of A spread along row and
    column j, with 2*a[i,j] at the (j, j) crossing.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[1]
    d = np.zeros((n, n))
    d[j, :] += a[i, :]
    d[:, j] += a[i, :]
    return d
