"""Property tests of the penalty and its gradient over random geometries.

The geometries cover tall (h > g), wide (g > h) and square matrices;
the penalty is checked against the literal dense sum of squares of
M^T M - alpha I, whatever side of M the production path takes its Gram
on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from convreg import (build_transform, gradient_direct, gradient_fast, penalty,
                     random_kernel, singular_extrema)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)

geometries = st.tuples(
    st.sampled_from((1, 3, 5)),                # k
    st.integers(min_value=1, max_value=3),     # g
    st.integers(min_value=1, max_value=3),     # h
    st.integers(min_value=1, max_value=5),     # n
    st.integers(min_value=0, max_value=2**32), # kernel seed
)
alphas = st.floats(min_value=0.0, max_value=2.0)


def rel_gap(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


@PROPERTY_SETTINGS
@given(geometries, alphas)
def test_penalty_equals_literal_dense_sum(geo, alpha):
    k, g, h, n, seed = geo
    kernel = random_kernel(k, g, h, seed)
    want = oracles.dense_penalty(kernel, n, alpha)
    got = penalty(build_transform(kernel, n), alpha)
    assert abs(got - want) <= 1e-12 * abs(want)


@PROPERTY_SETTINGS
@given(geometries, alphas)
def test_penalty_floor_of_wide_matrices(geo, alpha):
    # M^T M of a wide M has at least cols - rows zero eigenvalues.
    k, g, h, n, seed = geo
    got = penalty(build_transform(random_kernel(k, g, h, seed), n), alpha)
    assert got >= alpha ** 2 * max(g - h, 0) * n * n


@PROPERTY_SETTINGS
@given(geometries, alphas)
def test_gradient_routes_agree(geo, alpha):
    k, g, h, n, seed = geo
    tm = build_transform(random_kernel(k, g, h, seed), n)
    fast = gradient_fast(tm, alpha)
    direct = gradient_direct(tm, alpha)
    assert rel_gap(fast.values, direct.values) <= 1e-10


@PROPERTY_SETTINGS
@given(geometries)
def test_sigma_max_within_the_symbol_bound(geo):
    # Sedghi, Gupta & Long (ICLR 2019): the zero-padded M is a compression
    # of the circulant convolution on an L x L torus, L = N + k - 1, whose
    # singular values are those of the symbol K_hat(w) on the L x L DFT grid.
    k, g, h, n, seed = geo
    kernel = random_kernel(k, g, h, seed)
    size = n + k - 1
    symbol = np.fft.fft2(kernel.values, s=(size, size), axes=(0, 1))
    bound = float(np.max(np.linalg.norm(symbol, ord=2, axis=(2, 3))))
    assert singular_extrema(build_transform(kernel, n)).sigma_max <= (1 + 1e-12) * bound
