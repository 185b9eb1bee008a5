"""Command-line front end.

Subcommands:

* ``optimize``    -- descend on one kernel, write trajectory CSV + final
                     kernel JSON
* ``check-grad``  -- cross-check the three gradient routes on a random
                     kernel
* ``dump-matrix`` -- write the structured matrix in coordinate text form
* ``suite``       -- run the four standard convergence experiments
                     (3x3 filters, channel pairs 3/1, 1/3, 3/6, 6/3)

Exit codes: 0 success / converged, 2 usage error, 3 iteration budget
exhausted before the stop tolerance, 4 divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .optimizer import (DescentResult, DivergenceError, RunConfig,
                        StepSchedule, descend, write_trajectory_csv)
from .penalty import gradient_direct, gradient_fast, gradient_fd
from .tensors import ConfigurationError, Kernel, delta_kernel, random_kernel
from .transform import build_transform, write_coordinate_file

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MAX_ITER = 3
EXIT_DIVERGED = 4

SUITE_SHAPES = ((3, 1), (1, 3), (3, 6), (6, 3))


def _initial_kernel(args) -> Kernel:
    if getattr(args, "init_delta", False):
        return delta_kernel(args.k, args.g, args.h)
    return random_kernel(args.k, args.g, args.h, args.seed)


def _geometry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=3, help="filter size (k x k)")
    parser.add_argument("--g", type=int, default=1, help="input channels")
    parser.add_argument("--h", type=int, default=1, help="output channels")
    parser.add_argument("--n", type=int, default=20, help="input spatial size (N x N)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for the deterministic normal kernel init")


def _run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="target Gram scale in ||M^T M - alpha I||_F^2")
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--stop-tol", type=float, default=0.05,
                        help="stop when max(|sigma_max-1|, |sigma_min-1|) falls "
                             "to this value; 0 disables the spectral stop")
    parser.add_argument("--schedule", type=StepSchedule.parse,
                        default=StepSchedule.ramp(),
                        metavar="t1:l1,t2:l2,default:l3",
                        help="piecewise learning-rate schedule "
                             "(default 10:5e-6,20:5e-5,default:5e-4)")
    parser.add_argument("--spectrum-every", type=int, default=None,
                        help="evaluate sigma extremes every j-th iteration "
                             "(default: 1 for N<=12, else 5)")


def _run_one(k0: Kernel, cfg: RunConfig, schedule: StepSchedule,
             csv_path: Path) -> tuple[int, DescentResult | None]:
    try:
        result = descend(k0, cfg, schedule)
    except DivergenceError as exc:
        write_trajectory_csv(exc.records, csv_path)
        print(f"diverged: {exc} (partial trajectory in {csv_path})", file=sys.stderr)
        return EXIT_DIVERGED, None
    write_trajectory_csv(result.records, csv_path)
    return (EXIT_OK if result.converged else EXIT_MAX_ITER), result


def cmd_optimize(args) -> int:
    cfg = RunConfig(alpha=args.alpha, n=args.n, max_iter=args.max_iter,
                    stop_tol=args.stop_tol, spectrum_every=args.spectrum_every)
    csv_path = Path(args.out)
    code, result = _run_one(_initial_kernel(args), cfg, args.schedule, csv_path)
    if result is None:
        return code
    kernel_path = csv_path.with_suffix(".kernel.json")
    kernel_path.write_text(result.kernel.to_json() + "\n")
    last = result.records[-1]
    print(f"{'converged' if result.converged else 'iteration budget exhausted'} "
          f"after {last.iteration} iterations: penalty={last.penalty:.6g} "
          f"sigma_max={last.sigma_max:.6g} sigma_min={last.sigma_min:.6g}")
    print(f"trajectory: {csv_path}")
    print(f"final kernel: {kernel_path}")
    return code


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - b))) / scale


def cmd_check_grad(args) -> int:
    tm = build_transform(_initial_kernel(args), args.n)
    fast = gradient_fast(tm, args.alpha).values
    direct = gradient_direct(tm, args.alpha).values
    fd = gradient_fd(tm, args.alpha, step=args.fd_step).values
    errs = {
        "fast_vs_direct": _max_rel_err(fast, direct),
        "fast_vs_fd": _max_rel_err(fast, fd),
        "direct_vs_fd": _max_rel_err(direct, fd),
    }
    for name, err in errs.items():
        print(f"{name}: {err:.3e}")
    worst = max(errs.values())
    print(f"max relative error: {worst:.3e}")
    return EXIT_OK if worst <= 1e-5 else 1


def cmd_dump_matrix(args) -> int:
    tm = build_transform(_initial_kernel(args), args.n)
    write_coordinate_file(tm, args.out)
    print(f"{tm.rows} x {tm.cols} matrix, {tm.nnz} entries -> {args.out}")
    return EXIT_OK


def cmd_suite(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for g, h in SUITE_SHAPES:
        cfg = RunConfig(alpha=args.alpha, n=args.n, max_iter=args.max_iter,
                        stop_tol=args.stop_tol, spectrum_every=args.spectrum_every)
        k0 = random_kernel(3, g, h, args.seed)
        csv_path = out_dir / f"traj_3x3x{g}x{h}.csv"
        code, result = _run_one(k0, cfg, args.schedule, csv_path)
        if result is not None:
            last = result.records[-1]
            print(f"3x3x{g}x{h}: {'converged' if result.converged else 'not converged'} "
                  f"at iter {last.iteration}, sigma_max={last.sigma_max:.4f}, "
                  f"sigma_min={last.sigma_min:.4f} -> {csv_path}")
        worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convreg",
        description="Regularize convolution kernels by driving the singular "
                    "values of their structured transformation matrices to 1.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="gradient descent on one kernel")
    _geometry_flags(p)
    _run_flags(p)
    p.add_argument("--init-delta", action="store_true",
                   help="start from the center-delta kernel instead of random")
    p.add_argument("--out", required=True, help="trajectory CSV path; the final "
                   "kernel JSON lands beside it with suffix .kernel.json")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("check-grad", help="cross-check the gradient routes")
    _geometry_flags(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--fd-step", type=float, default=1e-6)
    p.add_argument("--init-delta", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_check_grad)

    p = sub.add_parser("dump-matrix", help="write M in coordinate text form")
    _geometry_flags(p)
    p.add_argument("--init-delta", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_matrix)

    p = sub.add_parser("suite", help="run the four standard experiments")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    _run_flags(p)
    p.set_defaults(spectrum_every=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # Bad parameter values are usage errors, same as bad flags.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
