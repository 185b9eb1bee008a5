"""Structured transformation matrix realized by a convolution kernel.

For a kernel of shape (k, k, g, h) and an N x N x g input, the matrix M
of shape (h*N^2, g*N^2) satisfies vec(K * X) = M @ vec(X).  Within the
channel block (y, z) the matrix is doubly block banded Toeplitz: the
entry at spatial positions (r, s) -> (r', s') holds the kernel value at
spatial offset (r' - r, s' - s) relative to the center, whenever that
offset lands inside the filter.

Every structural slot is stored explicitly, including value-zero ones,
so the sparsity pattern depends only on the geometry (k, g, h, N) and
survives arbitrary kernel updates.  Each stored slot records the flat
kernel coordinate (p, q, z, y) whose value it carries; in-place value
refresh and the omega sets (all matrix positions of one coordinate) run
through that map.

The Gram S on M's smaller side (``TransformMatrix.gram``) is not formed
from the sparse matrix.  S is itself a (2k-1) x (2k-1) stencil whose
coefficients are the kernel's autocorrelation, cut off near the image
border (Sedghi, Gupta & Long, *The Singular Values of Convolutional
Layers*, ICLR 2019), so ``stencil_gram`` computes it straight from the
kernel into a (2k-1, 2k-1, c, c, N, N) array; ``StencilGram.to_dense``
scatters it into the dense c*N^2 x c*N^2 matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .tensors import ConfigurationError, Kernel


@dataclass(frozen=True)
class Geometry:
    k: int
    g: int
    h: int
    n: int
    m: int  # 1-based spatial center index, ceil(k/2)

    @property
    def rows(self) -> int:
        return self.h * self.n * self.n

    @property
    def cols(self) -> int:
        return self.g * self.n * self.n


@dataclass(frozen=True)
class StencilGram:
    """Gram S = F^T F of a "same" convolution F, in stencil storage.

    F is M when M is tall or square and M^T when it is wide, so S is the
    Gram on M's smaller side.  M^T is itself a "same" convolution: its
    kernel is K[::-1, ::-1] with the channel axes swapped, centered at
    k - 1 - c instead of c = ceil(k/2) - 1.  With D = (d1, d2) - (k - 1)
    and a = (a1, a2) a spatial position of F's input,

        coeffs[d1, d2, z1, z2, a1, a2] = S[(z1, a), (z2, a + D)],

    0 where a + D leaves the N x N grid.  Every entry of S within the
    band appears once; S is 0 outside it.  Treat the arrays as read-only.
    """

    coeffs: np.ndarray   # (2k-1, 2k-1, c, c, N, N)
    shifted: np.ndarray  # shifted[u1, u2, z, y, d1, d2] = F's kernel at u + D, else 0
    taps: np.ndarray     # taps[u, a] = 1 when F's kernel row u reads input row a
    transposed: bool     # F = M^T

    def to_dense(self) -> np.ndarray:
        """S as a fresh dense C-ordered array."""
        width, _, channels, _, n, _ = self.coeffs.shape
        dim = channels * n * n
        # the extra last slot takes the coefficients whose a + D leaves
        # the grid, which are all 0
        flat = np.zeros(dim * dim + 1)
        flat[_scatter_index(width, channels, n)] = self.coeffs.reshape(-1)
        return flat[:-1].reshape(dim, dim)


def stencil_gram(kernel: Kernel, n: int) -> StencilGram:
    """The Gram on the smaller side of ``kernel``'s M for N x N inputs.

    With F's kernel K and taps[u, a] = [0 <= a - u + c < N] per axis,
    S[(z1, a), (z2, a + D)] sums K[u, z1, y] K[u + D, z2, y] over y and
    over the taps u with taps[u, a] = 1.  Overflow propagates as inf or
    nan without a warning; the caller checks finiteness.
    """
    values, center = kernel.values, kernel.m - 1
    transposed = kernel.g > kernel.h
    if transposed:
        values, center = values[::-1, ::-1].swapaxes(2, 3), kernel.k - 1 - center
    k = kernel.k
    width = 2 * k - 1
    padded = np.pad(values, ((k - 1, k - 1), (k - 1, k - 1), (0, 0), (0, 0)))
    shifted = sliding_window_view(padded, (width, width), axis=(0, 1))
    rows = np.arange(n) - np.arange(k)[:, None] + center
    taps = ((rows >= 0) & (rows < n)).astype(np.float64)
    inside = _shift_inside(k, n).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        auto = np.einsum("pqzy,pqwyde->pqdezw", values, shifted, optimize=True)
        coeffs = np.einsum("pqdezw,pa,qb->dezwab", auto, taps, taps, optimize=True)
        coeffs *= inside[:, None, None, None, :, None]
        coeffs *= inside[None, :, None, None, None, :]
    return StencilGram(coeffs=coeffs, shifted=shifted, taps=taps,
                       transposed=transposed)


def _shift_inside(k: int, n: int) -> np.ndarray:
    """inside[d, a] = [0 <= a + d - (k - 1) < N], per spatial axis."""
    ends = np.arange(n) + np.arange(2 * k - 1)[:, None] - (k - 1)
    return (ends >= 0) & (ends < n)


@functools.lru_cache(maxsize=8)
def _scatter_index(width: int, channels: int, n: int) -> np.ndarray:
    """Flat position in the dense Gram of every stencil coefficient.

    Aligned with ``StencilGram.coeffs.reshape(-1)``; a coefficient whose
    a + D leaves the grid maps to the extra slot dim * dim.  Built once
    per geometry.
    """
    k = (width + 1) // 2
    nn = n * n
    dim = channels * nn
    a = np.arange(n)
    ends = a + np.arange(width)[:, None] - (k - 1)     # a + D, (width, n)
    inside = _shift_inside(k, n)
    chan = np.arange(channels)
    # row (z1, a1, a2), column (z2, a1 + D1, a2 + D2), flat row * dim + column
    flat = (chan[:, None] * (nn * dim) + chan * nn).reshape(1, 1, channels, channels, 1, 1) \
        + (a * (n * dim) + ends * n).reshape(width, 1, 1, 1, n, 1) \
        + (a * dim + ends).reshape(1, width, 1, 1, 1, n)
    keep = inside.reshape(width, 1, 1, 1, n, 1) & inside.reshape(1, width, 1, 1, 1, n)
    flat = np.where(keep, flat, dim * dim).reshape(-1)
    index = flat.astype(np.int32 if dim * dim < 2 ** 31 else np.int64)
    index.setflags(write=False)
    return index


class TransformMatrix:
    """Sparse structured matrix plus its kernel-coordinate index maps.

    Construction derives the structure once; ``refresh`` rewrites the
    stored values from a new kernel of the same geometry without
    touching the pattern.  Do not refresh concurrently with reads.
    """

    def __init__(self, kernel: Kernel, n: int):
        if n < 1:
            raise ConfigurationError(f"input size must be positive, got {n}")
        self.geometry = Geometry(k=kernel.k, g=kernel.g, h=kernel.h, n=n, m=kernel.m)

        rows, cols, coords = self._structure(self.geometry)
        # Canonical CSR layout under our own control: sort by (row, col)
        # so the COO->CSR permutation is fixed and refresh can scatter
        # kernel values straight into the CSR data array.
        order = np.lexsort((cols, rows))
        rows, cols, coords = rows[order], cols[order], coords[order]
        counts = np.bincount(rows, minlength=self.geometry.rows)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        self._gather = coords
        self._csr = sp.csr_array(
            (kernel.values.reshape(-1)[coords], cols, indptr),
            shape=(self.geometry.rows, self.geometry.cols))
        self._kernel = kernel
        self._gram: StencilGram | None = None

    @staticmethod
    def _structure(geo: Geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All structural slots as (row, col, kernel-coordinate) arrays.

        Kernel coordinate (p, q, z, y), 0-based, occupies positions
            row = y*N^2 + r*N + s,  col = z*N^2 + r'*N + s'
        with r' = r + (p - (m-1)), s' = s + (q - (m-1)), both in range.
        """
        k, g, h, n, m = geo.k, geo.g, geo.h, geo.n, geo.m
        nn = n * n
        rows_parts, cols_parts, coord_parts = [], [], []
        for p in range(k):
            dr = p - (m - 1)
            r = np.arange(max(0, -dr), min(n, n - dr))
            for q in range(k):
                dq = q - (m - 1)
                s = np.arange(max(0, -dq), min(n, n - dq))
                if r.size == 0 or s.size == 0:
                    continue
                out_pos = (r[:, None] * n + s[None, :]).reshape(-1)
                in_pos = ((r[:, None] + dr) * n + (s[None, :] + dq)).reshape(-1)
                for z in range(g):
                    for y in range(h):
                        rows_parts.append(y * nn + out_pos)
                        cols_parts.append(z * nn + in_pos)
                        coord = ((p * k + q) * g + z) * h + y
                        coord_parts.append(np.full(out_pos.size, coord))
        if not rows_parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        return (np.concatenate(rows_parts),
                np.concatenate(cols_parts),
                np.concatenate(coord_parts))

    @property
    def rows(self) -> int:
        return self.geometry.rows

    @property
    def cols(self) -> int:
        return self.geometry.cols

    @property
    def nnz(self) -> int:
        return self._csr.data.size

    @property
    def csr(self) -> sp.csr_array:
        """The underlying CSR storage (treat as read-only)."""
        return self._csr

    @property
    def kernel(self) -> Kernel:
        """The kernel the matrix was built or last refreshed with."""
        return self._kernel

    def refresh(self, kernel: Kernel) -> None:
        """Rewrite stored values from ``kernel``; structure is untouched."""
        geo = self.geometry
        if (kernel.k, kernel.g, kernel.h) != (geo.k, geo.g, geo.h):
            raise ConfigurationError(
                f"kernel {kernel.values.shape} does not match geometry "
                f"({geo.k}, {geo.k}, {geo.g}, {geo.h})")
        self._csr.data[:] = kernel.values.reshape(-1)[self._gather]
        self._kernel = kernel
        self._gram = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ConfigurationError(
                f"expected a vector of length {self.cols}, got shape {x.shape}")
        return self._csr @ x

    def gram(self) -> StencilGram:
        """Gram on M's smaller side in stencil storage (``stencil_gram``).

        Formed from the kernel once per set of values and kept until the
        next ``refresh``.
        """
        if self._gram is None:
            self._gram = stencil_gram(self._kernel, self.geometry.n)
        return self._gram

    def omega(self, p: int, q: int, z: int, y: int) -> list[tuple[int, int]]:
        """All (i, j) positions of M carrying kernel entry (p, q, z, y).

        Coordinates are 0-based; the list has (N-|p-m+1|)*(N-|q-m+1|)
        entries (possibly none when the filter overhangs the input).
        """
        geo = self.geometry
        if not (0 <= p < geo.k and 0 <= q < geo.k and 0 <= z < geo.g and 0 <= y < geo.h):
            raise ConfigurationError(
                f"kernel coordinate ({p}, {q}, {z}, {y}) out of range for "
                f"({geo.k}, {geo.k}, {geo.g}, {geo.h})")
        coord = ((p * geo.k + q) * geo.g + z) * geo.h + y
        hits = np.flatnonzero(self._gather == coord)
        rows, cols = self.slot_positions()
        return list(zip(rows[hits].tolist(), cols[hits].tolist()))

    def gather_coords(self) -> np.ndarray:
        """Flat kernel-coordinate id of every stored slot, CSR data order.

        Ids are C-order indices into the (k, k, g, h) kernel tensor; the
        array is aligned slot-for-slot with ``slot_positions`` and the
        CSR data array.
        """
        return self._gather

    def slot_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) of every stored slot, CSR data order."""
        n_rows = self.rows
        rows = np.repeat(np.arange(n_rows), np.diff(self._csr.indptr))
        return rows, self._csr.indices

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()


def build_transform(kernel: Kernel, n: int) -> TransformMatrix:
    """Build the transformation matrix for ``kernel`` acting on N x N inputs."""
    return TransformMatrix(kernel, n)


def omega_cardinality(k: int, m: int, n: int, p: int, q: int) -> int:
    """Closed-form slot count for spatial coordinate (p, q), 0-based."""
    dr = abs(p - (m - 1))
    dq = abs(q - (m - 1))
    return max(0, n - dr) * max(0, n - dq)


def write_coordinate_file(tm: TransformMatrix, path) -> None:
    """Dump the matrix in coordinate text form.

    Header line "rows cols nnz", then one line per stored entry
    "i j value" with 1-based indices and 17 significant digits.
    """
    rows, cols = tm.slot_positions()
    data = tm.csr.data
    with open(path, "w") as fh:
        fh.write(f"{tm.rows} {tm.cols} {tm.nnz}\n")
        for i, j, v in zip(rows, cols, data):
            fh.write(f"{i + 1} {j + 1} {format(v, '.17g')}\n")
