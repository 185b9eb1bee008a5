"""Acceptance suite: nine go/no-go checks for the whole package.

Each test prints one ``ACCEPTANCE-<n> <name>: PASS/FAIL`` line.  The
print happens with pytest's capture suspended so the verdicts reach the
real stdout even on passing tests (fd-level capture swallows writes to
``sys.__stdout__`` too).  The four standard convergence runs (3x3
filters, channel pairs 3/1, 1/3, 3/6, 6/3 at N = 20) take several
minutes combined and are shared between the criteria that need them via
a session-scoped fixture.
"""

import itertools
import random
import sys
import time

import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from convreg import (
    FeatureMap,
    Kernel,
    RunConfig,
    SeededGaussian,
    StepSchedule,
    build_transform,
    conv_multi,
    delta_kernel,
    descend,
    gradient_direct,
    gradient_fast,
    gradient_fd,
    penalty,
    random_kernel,
    singular_extrema,
    vec,
)
from convreg.cli import main as cli_main

SUITE_SHAPES = ((3, 1), (1, 3), (3, 6), (6, 3))

_capture_manager = None


@pytest.fixture(scope="session", autouse=True)
def _grab_capture_manager(pytestconfig):
    global _capture_manager
    _capture_manager = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield
    _capture_manager = None


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE-{num} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    if _capture_manager is not None:
        with _capture_manager.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def rel_gap(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def gaussian_grid(n, c, seed):
    return np.array(SeededGaussian(seed).normals(n * n * c)).reshape(n, n, c)


@pytest.fixture(scope="session")
def suite_runs():
    """The four standard convergence runs, spectra on every iteration."""
    runs = {}
    for g, h in SUITE_SHAPES:
        cfg = RunConfig(alpha=1.0, n=20, max_iter=500, stop_tol=0.05,
                        spectrum_every=1)
        t0 = time.perf_counter()
        result = descend(random_kernel(3, g, h, seed=1), cfg, StepSchedule.ramp())
        runs[(g, h)] = (result, time.perf_counter() - t0)
    return runs


def test_criterion_1_convolution_matches_matrix_action():
    pool = [(k, g, h, n)
            for k in (1, 2, 3, 4, 5)
            for g in (1, 2, 3)
            for h in (1, 2, 3)
            for n in (3, 5, 8)]
    random.Random(7).shuffle(pool)
    cases = pool[:50]

    t0 = time.perf_counter()
    worst = 0.0
    for idx, (k, g, h, n) in enumerate(cases):
        kernel = random_kernel(k, g, h, seed=idx + 1)
        x = FeatureMap(gaussian_grid(n, g, seed=1000 + idx))
        direct = vec(conv_multi(kernel, x))
        through_matrix = build_transform(kernel, n).matvec(vec(x))
        worst = max(worst, float(np.max(np.abs(direct - through_matrix))))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, "convolution-matrix-equivalence", ok,
           f"50 instances, max abs gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_structure_matches_basis_oracle():
    pool = [(k, g, h, n)
            for k in (1, 2, 3, 4, 5)
            for g in (1, 2, 3)
            for h in (1, 2, 3)
            for n in (3, 4, 6, 8)]
    random.Random(11).shuffle(pool)
    geometries = pool[:20]

    exact = True
    for idx, (k, g, h, n) in enumerate(geometries):
        kernel = random_kernel(k, g, h, seed=200 + idx)
        built = build_transform(kernel, n).to_dense()
        exact = exact and np.array_equal(built, oracles.basis_transform(kernel, n))

    counts_ok = True
    for k, n in itertools.product((1, 3, 5), (4, 7, 10)):
        tm = build_transform(random_kernel(k, 1, 1, seed=k + n), n)
        m = tm.geometry.m
        for p in range(k):
            for q in range(k):
                want = (n - abs(p - (m - 1))) * (n - abs(q - (m - 1)))
                counts_ok = counts_ok and len(tm.omega(p, q, 0, 0)) == max(0, want)

    ok = exact and counts_ok
    report(2, "structure-oracle", ok,
           "20 geometries exact, slot counts match closed form")
    assert exact
    assert counts_ok


def test_criterion_3_gradient_routes_agree():
    pool = [(k, g, h, n)
            for k in (1, 2, 3, 5)
            for g in (1, 2, 3)
            for h in (1, 2, 3)
            for n in (3, 4, 6, 8)
            if g * n * n <= 400]
    random.Random(13).shuffle(pool)
    cases = pool[:22]

    t0 = time.perf_counter()
    worst_direct = 0.0
    worst_fd = 0.0
    for idx, (k, g, h, n) in enumerate(cases):
        kernel = random_kernel(k, g, h, seed=300 + idx)
        tm = build_transform(kernel, n)
        fast = gradient_fast(tm, 1.0).values
        direct = gradient_direct(tm, 1.0).values
        fd = gradient_fd(tm, 1.0, step=1e-6).values
        worst_direct = max(worst_direct, rel_gap(fast, direct))
        worst_fd = max(worst_fd, rel_gap(fast, fd), rel_gap(direct, fd))
    elapsed = time.perf_counter() - t0

    ok = worst_direct <= 1e-10 and worst_fd <= 1e-6 and elapsed < 60.0
    report(3, "gradient-correctness", ok,
           f"{len(cases)} instances, fast-direct {worst_direct:.2e}, "
           f"vs-fd {worst_fd:.2e}, {elapsed:.1f}s")
    assert worst_direct <= 1e-10
    assert worst_fd <= 1e-6
    assert elapsed < 60.0


def test_criterion_4_standard_runs_converge(suite_runs):
    details = []
    ok = True
    for (g, h), (result, elapsed) in suite_runs.items():
        last = result.records[-1]
        head = [r.sigma_max for r in result.records[:20]]
        decreasing = all(b < a for a, b in zip(head, head[1:]))
        shape_ok = (result.converged
                    and last.iteration <= 500
                    and abs(last.sigma_max - 1.0) <= 0.05
                    and abs(last.sigma_min - 1.0) <= 0.05
                    and decreasing)
        ok = ok and shape_ok
        details.append(f"3x3x{g}x{h} iter={last.iteration} "
                       f"smax={last.sigma_max:.4f} smin={last.sigma_min:.4f} "
                       f"{elapsed:.0f}s")
    report(4, "standard-convergence", ok, "; ".join(details))
    for (g, h), (result, _) in suite_runs.items():
        last = result.records[-1]
        assert result.converged, f"3x3x{g}x{h} did not converge"
        assert abs(last.sigma_max - 1.0) <= 0.05
        assert abs(last.sigma_min - 1.0) <= 0.05
        head = [r.sigma_max for r in result.records[:20]]
        assert all(b < a for a, b in zip(head, head[1:])), \
            f"3x3x{g}x{h} sigma_max not decreasing over first 20 steps"


def test_criterion_5_small_steps_descend():
    ok = True
    details = []
    for g, h in SUITE_SHAPES:
        cfg = RunConfig(alpha=1.0, n=20, max_iter=50, stop_tol=0.0,
                        spectrum_every=1000)
        result = descend(random_kernel(3, g, h, seed=1), cfg,
                         StepSchedule.constant(1e-6))
        pens = [r.penalty for r in result.records]
        monotone = all(b < a * (1.0 + 1e-12) for a, b in zip(pens, pens[1:]))
        ok = ok and monotone and len(pens) == 51
        details.append(f"3x3x{g}x{h} {pens[0]:.0f}->{pens[-1]:.0f}")
    report(5, "descent-property", ok, "; ".join(details))
    assert ok


def test_criterion_6_wide_kernel_penalty_floor(suite_runs):
    result, _ = suite_runs[(3, 1)]
    floor = (3 - 1) * 400 * 1.0 ** 2
    worst = min(r.penalty for r in result.records)
    ok = worst >= floor - 1e-6
    report(6, "penalty-floor", ok,
           f"min penalty {worst:.2f} vs floor {floor:.0f}")
    assert ok


def test_criterion_7_spectrum_matches_dense_oracle():
    pool = [(k, g, h, n)
            for k in (1, 3, 5)
            for g in (1, 2, 3)
            for h in (1, 2, 3)
            for n in (4, 6, 8, 11)
            if g * n * n <= 400]
    random.Random(17).shuffle(pool)
    cases = pool[:15]

    worst = 0.0
    for idx, (k, g, h, n) in enumerate(cases):
        tm = build_transform(random_kernel(k, g, h, seed=400 + idx), n)
        est = singular_extrema(tm)
        sv = sla.svdvals(tm.to_dense())
        worst = max(worst,
                    abs(est.sigma_max - float(sv[0])),
                    abs(est.sigma_min - float(sv[-1])))

    flat_worst = 0.0
    for idx, (k, g, h, n) in enumerate(cases[:3]):
        kernel = random_kernel(k, g, h, seed=500 + idx)
        sv_row = sla.svdvals(build_transform(kernel, n).to_dense())
        sv_col = sla.svdvals(oracles.column_major_transform(kernel, n))
        flat_worst = max(flat_worst, float(np.max(np.abs(sv_row - sv_col))))

    ok = worst <= 1e-8 and flat_worst <= 1e-10
    report(7, "spectrum-oracle", ok,
           f"{len(cases)} instances, max gap {worst:.2e}, "
           f"flattening gap {flat_worst:.2e}")
    assert worst <= 1e-8
    assert flat_worst <= 1e-10


def test_criterion_8_identity_start_is_stationary():
    ok = True
    for g, h, n in ((1, 1, 8), (3, 3, 5)):
        kernel = delta_kernel(3, g=g, h=h)
        cfg = RunConfig(alpha=1.0, n=n, max_iter=10, stop_tol=0.0)
        tm = build_transform(kernel, n)
        pen = penalty(tm, cfg.alpha)
        grad = gradient_fast(tm, cfg.alpha).values
        result = descend(kernel, cfg, StepSchedule.ramp())
        ok = (ok and pen == 0.0
              and np.array_equal(grad, np.zeros_like(grad))
              and all(r.penalty == 0.0 and r.grad_fro == 0.0
                      for r in result.records)
              and np.array_equal(result.kernel.values, kernel.values))
    report(8, "stationary-point", ok, "penalty and gradient exactly zero")
    assert ok


def test_criterion_9_trajectories_are_reproducible(tmp_path):
    args = ["optimize", "--k", "3", "--g", "2", "--h", "2", "--n", "6",
            "--seed", "5", "--max-iter", "15", "--stop-tol", "0"]
    cli_main(args + ["--out", str(tmp_path / "a.csv")])
    cli_main(args + ["--out", str(tmp_path / "b.csv")])
    csv_same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    kernel_same = (tmp_path / "a.kernel.json").read_bytes() == \
        (tmp_path / "b.kernel.json").read_bytes()
    ok = csv_same and kernel_same
    report(9, "determinism", ok, "same seed, byte-identical outputs")
    assert csv_same
    assert kernel_same
