"""Tests for the descent loop and its step schedule."""

import warnings

import numpy as np
import pytest

import convreg.transform
from convreg import (
    ConfigurationError,
    DivergenceError,
    Kernel,
    RunConfig,
    StepSchedule,
    build_transform,
    delta_kernel,
    descend,
    penalty,
    random_kernel,
)


def test_schedule_stage_semantics():
    # "rate applies while iteration < threshold", with the default beyond.
    schedule = StepSchedule(stages=((10, 1e-5), (20, 1e-4)), default=1e-3)
    assert schedule.rate(0) == 1e-5
    assert schedule.rate(9) == 1e-5
    assert schedule.rate(10) == 1e-4
    assert schedule.rate(19) == 1e-4
    assert schedule.rate(20) == 1e-3
    assert schedule.rate(500) == 1e-3


def test_schedule_constructors():
    ramp = StepSchedule.ramp()
    assert ramp.rate(0) == 5e-6
    assert ramp.rate(10) == 5e-5
    assert ramp.rate(20) == 5e-4
    const = StepSchedule.constant(2e-3)
    assert const.rate(0) == const.rate(1000) == 2e-3


def test_schedule_parse():
    schedule = StepSchedule.parse("10:1e-5,20:1e-4,default:1e-3")
    assert schedule.stages == ((10, 1e-5), (20, 1e-4))
    assert schedule.default == 1e-3
    assert StepSchedule.parse("default:0.5").stages == ()


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        StepSchedule(stages=((10, 1e-5), (10, 1e-4)), default=1e-3)
    with pytest.raises(ConfigurationError):
        StepSchedule(stages=((10, -1e-5),), default=1e-3)
    with pytest.raises(ConfigurationError):
        StepSchedule.constant(0.0)
    with pytest.raises(ConfigurationError):
        StepSchedule.parse("10:1e-5")          # no default rate
    with pytest.raises(ConfigurationError):
        StepSchedule.parse("garbage")
    with pytest.raises(ConfigurationError):
        StepSchedule.ramp().rate(-1)


def test_run_config_spectrum_cadence_defaults():
    assert RunConfig(n=12).spectrum_every == 1
    assert RunConfig(n=20).spectrum_every == 5
    assert RunConfig(n=20, spectrum_every=7).spectrum_every == 7
    with pytest.raises(ConfigurationError):
        RunConfig(max_iter=0)
    with pytest.raises(ConfigurationError):
        RunConfig(stop_tol=-0.1)
    with pytest.raises(ConfigurationError):
        RunConfig(spectrum_every=0)
    with pytest.raises(ConfigurationError):
        RunConfig(n=0)
    with pytest.raises(ConfigurationError):
        RunConfig(alpha=-1.0)


def test_single_step_by_hand():
    # Scalar kernel c = 2, N = 2, alpha = 1: gradient 16c(c^2-1) = 96,
    # so one step at rate 1e-3 lands on 2 - 0.096.
    cfg = RunConfig(alpha=1.0, n=2, max_iter=1, stop_tol=0.0)
    res = descend(Kernel(np.full((1, 1, 1, 1), 2.0)), cfg, StepSchedule.constant(1e-3))
    assert res.kernel.values[0, 0, 0, 0] == 2.0 - 1e-3 * 96.0
    assert len(res.records) == 2
    assert res.records[0].penalty == 36.0
    assert not res.converged


def test_final_record_describes_returned_kernel():
    cfg = RunConfig(alpha=1.0, n=3, max_iter=4, stop_tol=0.0)
    res = descend(random_kernel(3, 1, 1, seed=40), cfg, StepSchedule.constant(1e-4))
    last = res.records[-1]
    assert last.iteration == 4
    assert last.penalty == penalty(build_transform(res.kernel, cfg.n), cfg.alpha)
    assert last.sigma_max is not None and last.sigma_min is not None


def test_delta_start_is_stationary():
    cfg = RunConfig(alpha=1.0, n=4, max_iter=5, stop_tol=0.0)
    res = descend(delta_kernel(3, g=2, h=2), cfg, StepSchedule.constant(1e-3))
    assert len(res.records) == 6
    for r in res.records:
        assert r.penalty == 0.0
        assert r.grad_fro == 0.0
        assert r.sigma_max == pytest.approx(1.0, abs=1e-9)
        assert r.sigma_min == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(res.kernel.values, delta_kernel(3, g=2, h=2).values)


def test_descent_is_deterministic():
    cfg = RunConfig(alpha=1.0, n=4, max_iter=10, stop_tol=0.0)
    schedule = StepSchedule.ramp()
    k0 = random_kernel(3, 2, 1, seed=41)
    a = descend(k0, cfg, schedule)
    b = descend(k0, cfg, schedule)
    assert a.records == b.records
    assert np.array_equal(a.kernel.values, b.kernel.values)


def test_small_steps_decrease_the_penalty():
    cfg = RunConfig(alpha=1.0, n=5, max_iter=30, stop_tol=0.0, spectrum_every=1000)
    res = descend(random_kernel(3, 2, 1, seed=2), cfg, StepSchedule.constant(1e-6))
    pens = [r.penalty for r in res.records]
    assert len(pens) == 31
    for a, b in zip(pens, pens[1:]):
        assert b < a


def test_scalar_kernel_run_converges():
    cfg = RunConfig(alpha=1.0, n=5, max_iter=200, stop_tol=0.05)
    res = descend(random_kernel(1, 1, 1, seed=1), cfg, StepSchedule.constant(1e-3))
    assert res.converged
    last = res.records[-1]
    assert last.iteration < 200
    assert abs(last.sigma_max - 1.0) <= 0.05
    assert abs(last.sigma_min - 1.0) <= 0.05
    # rows stop at the convergence iteration
    assert len(res.records) == last.iteration + 1


def test_spectrum_cadence_in_records():
    cfg = RunConfig(alpha=1.0, n=3, max_iter=7, stop_tol=0.0, spectrum_every=3)
    res = descend(random_kernel(3, 1, 1, seed=42), cfg, StepSchedule.constant(1e-5))
    with_sigma = [r.iteration for r in res.records if r.sigma_max is not None]
    assert with_sigma == [0, 3, 6, 7]   # cadence hits plus the final row
    for r in res.records:
        assert (r.sigma_max is None) == (r.sigma_min is None)


def test_recorded_rates_follow_the_schedule():
    schedule = StepSchedule(stages=((2, 1e-6), (4, 1e-5)), default=1e-4)
    cfg = RunConfig(alpha=1.0, n=3, max_iter=6, stop_tol=0.0)
    res = descend(random_kernel(3, 1, 1, seed=43), cfg, schedule)
    assert [r.lam for r in res.records] == [1e-6, 1e-6, 1e-5, 1e-5, 1e-4, 1e-4, 1e-4]
    assert [r.iteration for r in res.records] == list(range(7))


def test_oversized_step_raises_divergence_error():
    cfg = RunConfig(alpha=1.0, n=4, max_iter=50, stop_tol=0.0)
    with pytest.raises(DivergenceError) as info:
        descend(random_kernel(3, 1, 1, seed=1), cfg, StepSchedule.constant(10.0))
    assert len(info.value.records) >= 1
    assert info.value.records[0].iteration == 0


def test_overflowing_step_raises_divergence_error():
    # lam * G overflows: reported as divergence, with no numpy warning
    cfg = RunConfig(alpha=1.0, n=4, max_iter=3, stop_tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="non-finite update") as info:
            descend(random_kernel(3, 1, 1, seed=1), cfg, StepSchedule.constant(1e307))
    assert [r.iteration for r in info.value.records] == [0]


def test_input_smaller_than_filter_warns():
    cfg = RunConfig(alpha=1.0, n=3, max_iter=1, stop_tol=0.0)
    with pytest.warns(UserWarning):
        res = descend(delta_kernel(5), cfg, StepSchedule.constant(1e-3))
    assert res.records[0].penalty == 0.0


def test_one_gram_per_recorded_iteration(monkeypatch):
    # penalty, gradient and spectrum of an iteration share one stencil Gram
    calls = []
    real = convreg.transform.stencil_gram

    def counting(kernel, n):
        calls.append(kernel.values.shape)
        return real(kernel, n)

    monkeypatch.setattr(convreg.transform, "stencil_gram", counting)
    cfg = RunConfig(alpha=1.0, n=4, max_iter=5, stop_tol=0.0, spectrum_every=1)
    res = descend(random_kernel(3, 2, 1, seed=44), cfg, StepSchedule.constant(1e-4))
    assert all(r.sigma_max is not None for r in res.records)
    assert len(calls) == cfg.max_iter + 1
