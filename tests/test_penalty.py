"""Tests for the Gram penalty and its three gradient routes."""

import numpy as np
import pytest

import oracles
from convreg import (
    ConfigurationError,
    DivergenceError,
    Kernel,
    RunConfig,
    StepSchedule,
    build_transform,
    delta_kernel,
    descend,
    gradient_direct,
    gradient_fast,
    gradient_fd,
    penalty,
    random_kernel,
)


def rel_gap(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def test_delta_kernel_is_a_global_minimum():
    tm = build_transform(delta_kernel(3, g=2, h=2), 4)
    assert penalty(tm, 1.0) == 0.0
    for grad in (gradient_fast(tm, 1.0), gradient_direct(tm, 1.0)):
        assert np.array_equal(grad.values, np.zeros((3, 3, 2, 2)))
        assert grad.penalty == 0.0


def test_scalar_kernel_penalty_and_gradient_by_hand():
    # M = 2 I4, E = 3 I4: penalty 4 * 9 = 36, d/dc of 4(c^2-1)^2 at 2 is 96.
    tm = build_transform(Kernel(np.full((1, 1, 1, 1), 2.0)), 2)
    assert penalty(tm, 1.0) == 36.0
    assert gradient_fast(tm, 1.0).values[0, 0, 0, 0] == pytest.approx(96.0, rel=1e-13)
    assert gradient_direct(tm, 1.0).values[0, 0, 0, 0] == pytest.approx(96.0, rel=1e-13)
    assert gradient_fd(tm, 1.0).values[0, 0, 0, 0] == pytest.approx(96.0, rel=1e-7)


def test_penalty_matches_dense_materialization():
    kernel = random_kernel(3, 2, 1, seed=21)
    want = oracles.dense_penalty(kernel, 4, 1.0)
    assert penalty(build_transform(kernel, 4), 1.0) == pytest.approx(want, rel=1e-12)


def test_penalty_nonnegative_and_zero_only_at_isometry():
    assert penalty(build_transform(random_kernel(3, 1, 1, seed=22), 3), 1.0) > 0.0
    assert penalty(build_transform(delta_kernel(3), 3), 1.0) == 0.0


@pytest.mark.parametrize("k,g,h,n,alpha", [
    (3, 1, 1, 4, 1.0),
    (3, 2, 1, 3, 1.0),
    (1, 2, 2, 3, 0.5),
    (5, 1, 1, 4, 1.0),
    (2, 1, 2, 3, 2.0),
    (3, 1, 2, 4, 0.0),
])
def test_gradient_routes_agree(k, g, h, n, alpha):
    tm = build_transform(random_kernel(k, g, h, seed=1000 + 100 * k + 10 * g + h), n)
    fast = gradient_fast(tm, alpha)
    direct = gradient_direct(tm, alpha)
    fd = gradient_fd(tm, alpha)
    assert rel_gap(fast.values, direct.values) <= 1e-10
    assert rel_gap(fast.values, fd.values) <= 1e-6
    assert rel_gap(direct.values, fd.values) <= 1e-6


def test_gradient_matches_dense_oracle_finite_differences():
    kernel = random_kernel(3, 2, 1, seed=23)
    want = oracles.fd_dense_penalty_grad(kernel, 3, 1.0)
    assert rel_gap(gradient_fast(build_transform(kernel, 3), 1.0).values, want) <= 1e-6


def test_directional_derivative_matches_gradient():
    kernel = random_kernel(3, 2, 2, seed=24)
    direction = random_kernel(3, 2, 2, seed=25)
    grad = gradient_fast(build_transform(kernel, 4), 1.0)
    want = float(np.sum(grad.values * direction.values))

    t = 1e-6
    plus = penalty(build_transform(Kernel(kernel.values + t * direction.values), 4), 1.0)
    minus = penalty(build_transform(Kernel(kernel.values - t * direction.values), 4), 1.0)
    got = (plus - minus) / (2 * t)
    assert got == pytest.approx(want, rel=1e-5)


def test_gradient_carries_matching_penalty_value():
    tm = build_transform(random_kernel(3, 1, 2, seed=26), 4)
    assert gradient_fast(tm, 1.0).penalty == penalty(tm, 1.0)
    assert gradient_direct(tm, 1.0).penalty == penalty(tm, 1.0)


def test_gradient_frobenius_property():
    grad = gradient_fast(build_transform(random_kernel(3, 1, 1, seed=27), 3), 1.0)
    assert grad.frobenius == float(np.linalg.norm(grad.values))


def test_more_inputs_than_outputs_floor():
    # With g > h the Gram has at least (g-h)*N^2 zero eigenvalues, each
    # contributing alpha^2 to the penalty.
    tm = build_transform(random_kernel(3, 3, 1, seed=28), 4)
    for alpha in (1.0, 1.5):
        floor = 2 * 16 * alpha ** 2
        assert penalty(tm, alpha) >= floor - 1e-9


def test_zero_kernel_with_zero_alpha_is_stationary():
    tm = build_transform(Kernel(np.zeros((3, 3, 1, 1))), 3)
    assert penalty(tm, 0.0) == 0.0
    assert np.array_equal(gradient_fast(tm, 0.0).values, np.zeros((3, 3, 1, 1)))
    assert np.array_equal(gradient_fd(tm, 0.0).values, np.zeros((3, 3, 1, 1)))


def test_prepared_matrix_reuse_matches_fresh_build():
    second = random_kernel(3, 2, 1, seed=30)
    tm = build_transform(random_kernel(3, 2, 1, seed=29), 4)
    gradient_fast(tm, 1.0)  # caches the first kernel's Gram
    tm.refresh(second)
    got = gradient_fast(tm, 1.0)
    fresh = gradient_fast(build_transform(second, 4), 1.0)
    assert np.array_equal(got.values, fresh.values)
    assert got.penalty == fresh.penalty


def test_finite_difference_route_restores_the_matrix():
    kernel = random_kernel(3, 2, 1, seed=33)
    tm = build_transform(kernel, 3)
    before = tm.csr.data.copy()
    pen = penalty(tm, 1.0)
    gradient_fd(tm, 1.0)
    assert np.array_equal(tm.csr.data, before)
    assert penalty(tm, 1.0) == pen


def test_finite_difference_step_validation():
    with pytest.raises(ConfigurationError):
        gradient_fd(build_transform(delta_kernel(3), 3), 1.0, step=0.0)


def test_non_finite_gradient_payload_rejected():
    # M = 1e200 I overflows its Gram: the descent reports divergence
    # before it records or takes a step.
    cfg = RunConfig(alpha=1.0, n=2, max_iter=3, stop_tol=0.0)
    with pytest.raises(DivergenceError, match="non-finite") as info:
        descend(Kernel(np.full((1, 1, 1, 1), 1e200)), cfg, StepSchedule.constant(1e-3))
    assert info.value.records == []


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(alpha=-0.5)
    with pytest.raises(ConfigurationError):
        RunConfig(n=0)
    tm = build_transform(delta_kernel(3), 3)
    for route in (penalty, gradient_fast, gradient_direct, gradient_fd):
        with pytest.raises(ConfigurationError):
            route(tm, -0.5)
