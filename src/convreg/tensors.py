"""Kernel and feature-map tensors plus the convolution arithmetic itself.

Conventions used throughout the package:

* a kernel is a real 4-D tensor of shape (k, k, g, h): spatial row,
  spatial column, input channel, output channel;
* a feature map is a real 3-D tensor of shape (N, N, c): row, column,
  channel;
* convolution is "same" convolution with unit stride, zero padding and
  no kernel flip -- a sliding multiply-accumulate;
* the spatial center offset is m = ceil(k/2) in 1-based terms, so the
  output entry at (r, s) reads input rows r-m+1 .. r-m+k;
* ``vec`` flattens a feature map channel-outermost, then row, then
  column, so channel d occupies one contiguous block of N^2 entries.

All indices in this Python API are 0-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Geometry or channel-count mismatch between operands."""


def _frozen_array(values, shape_hint: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{shape_hint} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Kernel:
    """Convolution kernel of shape (k, k, g, h); immutable."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, "kernel")
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1]:
            raise ConfigurationError(
                f"kernel must have shape (k, k, g, h), got {arr.shape}")
        if min(arr.shape) < 1:
            raise ConfigurationError("kernel dimensions must be positive")
        object.__setattr__(self, "values", arr)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def g(self) -> int:
        return self.values.shape[2]

    @property
    def h(self) -> int:
        return self.values.shape[3]

    @property
    def m(self) -> int:
        """1-based center index, ceil(k/2)."""
        return math.ceil(self.k / 2)

    def to_json(self) -> str:
        return tensor_to_json(self.values)

    @classmethod
    def from_json(cls, text: str) -> "Kernel":
        return cls(tensor_from_json(text))


@dataclass(frozen=True)
class FeatureMap:
    """Square feature map of shape (N, N, c); immutable.

    Reads outside the spatial range are defined to be zero; the
    convolution routines implement that via explicit zero padding.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, "feature map")
        if arr.ndim == 2:
            arr = _frozen_array(arr[:, :, None], "feature map")
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
            raise ConfigurationError(
                f"feature map must have shape (N, N, c), got {arr.shape}")
        if min(arr.shape) < 1:
            raise ConfigurationError("feature map dimensions must be positive")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[2]


def delta_kernel(k: int, g: int = 1, h: int = 1) -> Kernel:
    """Kernel with a 1 at the spatial center of each (z, z) channel pair.

    For g = h the realized transformation matrix is the identity.
    """
    values = np.zeros((k, k, g, h))
    center = math.ceil(k / 2) - 1
    for z in range(min(g, h)):
        values[center, center, z, z] = 1.0
    return Kernel(values)


def random_kernel(k: int, g: int, h: int, seed: int) -> Kernel:
    """Standard-normal kernel drawn from the pinned deterministic stream.

    Entries fill the (k, k, g, h) tensor in C order: output channel
    fastest, then input channel, then spatial column, then spatial row.
    """
    from .rng import SeededGaussian

    stream = SeededGaussian(seed)
    flat = np.array(stream.normals(k * k * g * h))
    return Kernel(flat.reshape(k, k, g, h))


def conv_multi(kernel: Kernel, x: FeatureMap) -> FeatureMap:
    """Multi-channel same convolution: Y[r,s,c] = sum over d,p,q of
    X[r-m+1+p, s-m+1+q, d] * K[p,q,d,c] (0-based p,q; zero padding).
    """
    if x.c != kernel.g:
        raise ConfigurationError(
            f"input has {x.c} channels but kernel expects {kernel.g}")
    k, n = kernel.k, x.n
    lo = kernel.m - 1          # padding before: m - 1
    hi = k - kernel.m          # padding after: k - m (asymmetric for even k)
    padded = np.pad(x.values, ((lo, hi), (lo, hi), (0, 0)))
    out = np.zeros((n, n, kernel.h))
    for p in range(k):
        for q in range(k):
            window = padded[p:p + n, q:q + n, :]
            out += np.einsum("ijd,dc->ijc", window, kernel.values[p, q])
    return FeatureMap(out)


def conv_single(kernel: Kernel, x: FeatureMap) -> FeatureMap:
    """Single-channel same convolution (g = h = 1)."""
    if kernel.g != 1 or kernel.h != 1:
        raise ConfigurationError(
            f"conv_single needs a single-channel kernel, got g={kernel.g}, h={kernel.h}")
    if x.c != 1:
        raise ConfigurationError(f"conv_single needs a 1-channel input, got c={x.c}")
    return conv_multi(kernel, x)


def vec(x: FeatureMap) -> np.ndarray:
    """Flatten a feature map to a vector of length N^2 * c.

    Position (r, s, d) maps to linear index d*N^2 + r*N + s, so channels
    are outermost blocks and rows are scanned before columns.
    """
    return np.transpose(x.values, (2, 0, 1)).reshape(-1).copy()


def unvec(v: np.ndarray, n: int, c: int) -> FeatureMap:
    """Inverse of :func:`vec` for a vector of length N^2 * c."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (n * n * c,):
        raise ConfigurationError(
            f"expected a vector of length {n * n * c}, got shape {arr.shape}")
    return FeatureMap(np.transpose(arr.reshape(c, n, n), (1, 2, 0)))


def tensor_to_json(values: np.ndarray) -> str:
    """Serialize a (k, k, g, h) tensor to the repo-wide kernel JSON format.

    ``data`` lists entries in C order over (p, q, z, y) -- output channel
    fastest -- with 17 significant digits, which round-trips float64.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[0] != arr.shape[1]:
        raise ConfigurationError(f"expected a (k, k, g, h) tensor, got {arr.shape}")
    k, _, g, h = arr.shape
    data = ",".join(format(v, ".17g") for v in arr.reshape(-1))
    return f'{{"k":{k},"g":{g},"h":{h},"data":[{data}]}}'


def tensor_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
        k, g, h = int(doc["k"]), int(doc["g"]), int(doc["h"])
        data = np.array(doc["data"], dtype=np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        # bad syntax, a non-object document, a missing field, non-numbers
        raise ConfigurationError(
            f"malformed kernel JSON ({type(exc).__name__}: {exc})") from exc
    if data.size != k * k * g * h:
        raise ConfigurationError(
            f"kernel JSON claims {k}x{k}x{g}x{h} but carries {data.size} numbers")
    return data.reshape(k, k, g, h)
