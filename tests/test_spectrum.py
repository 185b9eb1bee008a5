"""Tests for the singular-value estimators."""

import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from convreg import (
    ConfigurationError,
    Kernel,
    SpectralEstimate,
    build_transform,
    delta_kernel,
    objective_gap,
    random_kernel,
    singular_extrema,
)


def test_identity_matrix():
    for method in ("gram", "dense"):
        est = singular_extrema(np.eye(6), method=method)
        assert est.sigma_max == pytest.approx(1.0, abs=1e-12)
        assert est.sigma_min == pytest.approx(1.0, abs=1e-12)


def test_scaled_identity_from_kernel():
    tm = build_transform(Kernel(np.full((1, 1, 1, 1), -2.0)), 3)
    est = singular_extrema(tm)
    assert est.sigma_max == pytest.approx(2.0, abs=1e-10)
    assert est.sigma_min == pytest.approx(2.0, abs=1e-10)


def test_delta_kernel_spectrum_is_flat():
    est = singular_extrema(build_transform(delta_kernel(3, g=2, h=2), 4))
    assert est.sigma_max == pytest.approx(1.0, abs=1e-10)
    assert est.sigma_min == pytest.approx(1.0, abs=1e-10)


# Regression cases: the all-ones vector is orthogonal to the top singular
# vector of these kernels' matrices, so an estimator started from it can
# settle on a lower singular value and report it as sigma_max.
SIGN_SYMMETRIC = {
    "laplacian": [[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]],
    "second-difference": [[1.0, -2.0, 1.0], [-2.0, 4.0, -2.0], [1.0, -2.0, 1.0]],
}


@pytest.mark.parametrize("k,g,h,n,named", [
    (3, 1, 1, 4, None),
    (3, 2, 1, 4, None),    # wide: more inputs than outputs
    (3, 1, 2, 4, None),    # tall: more outputs than inputs
    (1, 2, 2, 3, None),
    (5, 1, 1, 5, None),
    (3, 2, 3, 4, None),
    (3, 1, 1, 4, "laplacian"),
    (3, 1, 1, 20, "laplacian"),
    (3, 1, 1, 4, "second-difference"),
    (3, 1, 1, 20, "second-difference"),
])
def test_gram_matches_dense(k, g, h, n, named):
    if named is None:
        kernel = random_kernel(k, g, h, seed=50 + k + g + h + n)
    else:
        kernel = Kernel(np.array(SIGN_SYMMETRIC[named]).reshape(k, k, g, h))
    tm = build_transform(kernel, n)
    got = singular_extrema(tm)
    want = singular_extrema(tm, method="dense")
    assert got.sigma_max == pytest.approx(want.sigma_max, rel=1e-8, abs=1e-8)
    assert got.sigma_min == pytest.approx(want.sigma_min, rel=1e-8, abs=1e-8)


def test_sigma_min_counts_min_dimension_values_only():
    # Wide matrix: sigma_min is the smallest of min(rows, cols) singular
    # values, not a rank-deficiency zero of the larger Gram.
    tm = build_transform(random_kernel(3, 3, 1, seed=60), 3)
    assert tm.cols > tm.rows
    sv = sla.svdvals(tm.to_dense())
    assert sv.size == tm.rows
    est = singular_extrema(tm)
    assert est.sigma_min == pytest.approx(float(sv[-1]), rel=1e-8, abs=1e-8)


def test_accepts_sparse_and_dense_inputs():
    tm = build_transform(random_kernel(3, 1, 1, seed=61), 4)
    from_tm = singular_extrema(tm)
    from_sparse = singular_extrema(tm.csr)
    from_dense = singular_extrema(tm.to_dense())
    for other in (from_sparse, from_dense):
        assert other.sigma_max == pytest.approx(from_tm.sigma_max, rel=1e-10)
        assert other.sigma_min == pytest.approx(from_tm.sigma_min, rel=1e-10)


def test_flattening_convention_does_not_change_spectrum():
    kernel = random_kernel(3, 2, 2, seed=62)
    tm = build_transform(kernel, 4)
    alt = oracles.column_major_transform(kernel, 4)
    sv_row = sla.svdvals(tm.to_dense())
    sv_col = sla.svdvals(alt)
    assert np.max(np.abs(sv_row - sv_col)) <= 1e-10

    a = singular_extrema(tm)
    b = singular_extrema(alt)
    assert a.sigma_max == pytest.approx(b.sigma_max, rel=1e-8)
    assert a.sigma_min == pytest.approx(b.sigma_min, rel=1e-8, abs=1e-8)


def test_sigma_max_bounded_by_frobenius_norm():
    for seed in range(5):
        tm = build_transform(random_kernel(3, 2, 1, seed=seed), 4)
        est = singular_extrema(tm)
        fro = float(np.linalg.norm(tm.to_dense()))
        assert est.sigma_max <= fro + 1e-9


def test_zero_matrix():
    for method in ("gram", "dense"):
        est = singular_extrema(np.zeros((4, 6)), method=method)
        assert est.sigma_max == 0.0
        assert est.sigma_min == 0.0


def test_objective_gap_values():
    assert objective_gap(SpectralEstimate(1.0, 1.0)) == 0.0
    assert objective_gap(SpectralEstimate(1.2, 0.7)) == pytest.approx(0.3)
    assert objective_gap(SpectralEstimate(2.0, 1.0)) == 1.0


def test_estimate_ordering_validated():
    with pytest.raises(ConfigurationError):
        SpectralEstimate(sigma_max=0.5, sigma_min=1.0)
    with pytest.raises(ConfigurationError):
        SpectralEstimate(sigma_max=1.0, sigma_min=-0.1)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        singular_extrema(np.eye(3), method="magic")
