"""Gradient descent on the kernel penalty with a piecewise step schedule.

Each pass evaluates the penalty and its gradient at the current kernel,
records telemetry, then takes the step K <- K - lambda * G.  A row of
telemetry always describes the kernel *before* that pass's update, and
the final row always describes the returned kernel (no trailing
un-recorded update).  The telemetry rows round-trip through the
trajectory CSV (``write_trajectory_csv`` / ``read_trajectory_csv``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .penalty import gradient_fast
from .spectrum import objective_gap, singular_extrema
from .tensors import ConfigurationError, Kernel
from .transform import build_transform


@dataclass(frozen=True)
class StepSchedule:
    """Piecewise-constant learning rate: ``stages`` is an ordered list of
    (threshold, rate) pairs meaning "use this rate while iteration <
    threshold"; ``default`` applies beyond the last threshold.
    """

    stages: tuple[tuple[int, float], ...]
    default: float

    def __post_init__(self):
        thresholds = [t for t, _ in self.stages]
        if any(t2 <= t1 for t1, t2 in zip(thresholds, thresholds[1:])):
            raise ConfigurationError(f"thresholds must strictly increase: {thresholds}")
        if any(lam <= 0 for _, lam in self.stages) or self.default <= 0:
            raise ConfigurationError("all learning rates must be positive")

    def rate(self, iteration: int) -> float:
        """Learning rate for the given iteration index."""
        if iteration < 0:
            raise ConfigurationError(f"iteration must be nonnegative, got {iteration}")
        for threshold, lam in self.stages:
            if iteration < threshold:
                return lam
        return self.default

    @classmethod
    def ramp(cls) -> "StepSchedule":
        """The standard warmup ramp: 5e-6 below 10, 5e-5 below 20, then 5e-4.

        Early gradients of a random kernel are huge; the rate grows as
        the gradient norm falls.  The terminal rate is calibrated for
        the full-derivative gradient at the standard experiment scale
        (3x3 filters, N=20): doubling it lands on the stability edge of
        the quartic landscape and the iterate oscillates instead of
        settling.
        """
        return cls(stages=((10, 5e-6), (20, 5e-5)), default=5e-4)

    @classmethod
    def constant(cls, lam: float) -> "StepSchedule":
        return cls(stages=(), default=lam)

    @classmethod
    def parse(cls, text: str) -> "StepSchedule":
        """Parse "t1:l1,t2:l2,default:l3" into a schedule."""
        stages: list[tuple[int, float]] = []
        default = None
        for part in text.split(","):
            key, _, value = part.partition(":")
            if not value:
                raise ConfigurationError(f"bad schedule element {part!r}")
            if key.strip() == "default":
                default = float(value)
            else:
                stages.append((int(key), float(value)))
        if default is None:
            raise ConfigurationError(f"schedule {text!r} is missing a default rate")
        return cls(stages=tuple(stages), default=default)


@dataclass(frozen=True)
class RunConfig:
    """Descent run parameters.

    ``stop_tol`` bounds the objective gap max(|sigma_max - 1|,
    |sigma_min - 1|); a value of 0 disables the spectral stop and the
    run goes the full ``max_iter``.  Spectra are evaluated every
    ``spectrum_every`` iterations (None picks 1 for N <= 12, else 5)
    and always on the final row.
    """

    alpha: float = 1.0
    n: int = 20
    max_iter: int = 500
    stop_tol: float = 0.05
    spectrum_every: int | None = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be nonnegative, got {self.alpha}")
        if self.n < 1:
            raise ConfigurationError(f"input size must be positive, got {self.n}")
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.stop_tol < 0:
            raise ConfigurationError(f"stop_tol must be nonnegative, got {self.stop_tol}")
        if self.spectrum_every is None:
            object.__setattr__(self, "spectrum_every", 1 if self.n <= 12 else 5)
        if self.spectrum_every < 1:
            raise ConfigurationError(
                f"spectrum_every must be >= 1, got {self.spectrum_every}")


@dataclass(frozen=True)
class IterationRecord:
    """One telemetry row; sigma fields are None on skipped iterations."""

    iteration: int
    lam: float
    penalty: float
    grad_fro: float
    sigma_max: float | None = None
    sigma_min: float | None = None


_CSV_HEADER = "iter,lambda,penalty,grad_fro,sigma_max,sigma_min"


def _fmt(value: float) -> str:
    return format(value, ".17g")


def write_trajectory_csv(records: list[IterationRecord], path) -> None:
    """Write telemetry rows; numbers carry 17 significant digits and
    sigma fields are empty on iterations where spectra were skipped.
    """
    lines = [_CSV_HEADER]
    for r in records:
        smax = "" if r.sigma_max is None else _fmt(r.sigma_max)
        smin = "" if r.sigma_min is None else _fmt(r.sigma_min)
        lines.append(f"{r.iteration},{_fmt(r.lam)},{_fmt(r.penalty)},"
                     f"{_fmt(r.grad_fro)},{smax},{smin}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> list[IterationRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise ConfigurationError(f"{path}: the header is not {_CSV_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 6:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        it, lam, pen, gf, smax, smin = fields
        records.append(IterationRecord(
            iteration=int(it), lam=float(lam), penalty=float(pen),
            grad_fro=float(gf),
            sigma_max=float(smax) if smax else None,
            sigma_min=float(smin) if smin else None))
    return records


class DivergenceError(RuntimeError):
    """Raised when the penalty blows up; carries the trajectory so far."""

    def __init__(self, message: str, records: list[IterationRecord]):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class DescentResult:
    kernel: Kernel
    records: list[IterationRecord] = field(repr=False)
    converged: bool


def descend(k0: Kernel, cfg: RunConfig, schedule: StepSchedule) -> DescentResult:
    """Run gradient descent from ``k0``; deterministic for fixed inputs.

    Stops when the objective gap drops to ``stop_tol`` (if positive) or
    after ``max_iter`` updates.  A penalty that goes non-finite or grows
    more than tenfold in one step raises :class:`DivergenceError`.
    """
    if cfg.n < k0.k:
        warnings.warn(
            f"input size {cfg.n} is smaller than the filter size {k0.k}; "
            "the construction is valid but boundary slots dominate",
            stacklevel=2)
    tm = build_transform(k0, cfg.n)
    kernel = k0
    records: list[IterationRecord] = []
    prev_penalty = None
    converged = False
    for iteration in range(cfg.max_iter + 1):
        lam = schedule.rate(iteration)
        pg = gradient_fast(tm, cfg.alpha)
        if not (np.isfinite(pg.penalty) and np.all(np.isfinite(pg.values))):
            raise DivergenceError(f"diverged at iteration {iteration}: non-finite "
                                  "gradient or penalty value", records)
        final = iteration == cfg.max_iter
        estimate = None
        if final or iteration % cfg.spectrum_every == 0:
            estimate = singular_extrema(tm)
        records.append(IterationRecord(
            iteration=iteration, lam=lam, penalty=pg.penalty,
            grad_fro=pg.frobenius,
            sigma_max=None if estimate is None else estimate.sigma_max,
            sigma_min=None if estimate is None else estimate.sigma_min))
        if prev_penalty is not None and pg.penalty > 10.0 * prev_penalty:
            raise DivergenceError(
                f"penalty grew {pg.penalty / prev_penalty:.2f}x at iteration "
                f"{iteration}", records)
        prev_penalty = pg.penalty
        if (estimate is not None and cfg.stop_tol > 0
                and objective_gap(estimate) <= cfg.stop_tol):
            converged = True
            break
        if final:
            break
        step = kernel.values - lam * pg.values
        if not np.all(np.isfinite(step)):
            raise DivergenceError(f"non-finite update at iteration {iteration}",
                                  records)
        kernel = Kernel(step)
        tm.refresh(kernel)
    return DescentResult(kernel=kernel, records=records, converged=converged)
