"""convreg benchmark: wall time to a regularized kernel, per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-tall --seed 1 --seconds 30 --trace 0

One invocation is one fresh process running one workload.  It imports
convreg from ``src/`` of the checkout (and refuses any other copy),
drives it from outside as a user would -- ``convreg.cli.main(["optimize",
...])``, which runs ``descend`` and writes the trajectory CSV and kernel
JSON -- repeats such solves for ``--seconds`` seconds, checks every
solve's output (see ``checks.py``) and prints, as the last line of
stdout, one JSON object: ``correct``, ``attempted`` and ``failed``
solves, and ``metrics``.  The line before it records the environment,
the workload's parameters and the samples behind each median.

``--trace 0`` reports the end-to-end metrics:

* ``solve_s``     median wall time of one solve, descent start to both
                  files on disk;
* ``iters_per_s`` median of descent iterations evaluated / solve time;
* ``setup_s``     median over fresh interpreters of the time to import
                  convreg, draw the kernel and build its transform once;
* ``peak_rss_mb`` ``ru_maxrss`` of this process after the solves and
                  before the checks.

Every solve descends from its own kernel, drawn from a seed derived from
``--seed``: how long the spectral layer's power iteration runs depends on
the kernel, so a run averages over several.  ``--trace 1`` solves each
kernel untraced and then traced, reports the per-layer metrics from the
traced solves (see ``spans.py``) and the tracing overhead as the median
traced-minus-untraced time; the spans go to ``.perfbench_work/`` in the
checkout.

Before timing, one tiny solve starts OpenBLAS's thread pool, whose first
multithreaded call costs close to a second once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import ReferenceStore, set_problems
from spans import Tracer, descendants, self_times
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
WARMUP = Workload("warmup", g=1, h=1, n=20, schedule="default:1e-6", max_iter=1,
                  stop_tol=0.0, spectrum_every=1, expected_exit=3)

END_TO_END = {"solve_s": "s", "iters_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "spectrum.extrema_s": "s", "spectrum.power_s": "s",
    "spectrum.power_iters": "count", "spectrum.power_converged_ratio": "ratio",
    "spectrum.extrema_calls": "count", "spectrum.gram_dim": "count",
    "penalty.gradient_s": "s", "penalty.gradient_calls": "count",
    "penalty.dense_bytes_per_call": "computed_bytes",
    "transform.gram_s": "s", "transform.refresh_s": "s", "transform.build_s": "s",
    "transform.gram_calls": "count", "transform.refresh_calls": "count",
    "transform.build_calls": "count", "transform.nnz": "count",
    "rng.random_kernel_s": "s",
    "optimizer.self_s": "s", "optimizer.descend_s": "s",
    "optimizer.iterations": "count",
    "cli.write_csv_s": "s", "cli.csv_bytes": "bytes",
    "cli.kernel_json_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Runs in a fresh interpreter per sample: argv is src dir, k, g, h, n, seed.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import convreg
k, g, h, n, seed = map(int, sys.argv[2:])
convreg.transform.build_transform(convreg.tensors.random_kernel(k, g, h, seed), n)
print(time.perf_counter() - t0)
"""


def load_program(src: Path):
    """Import convreg from ``src``; exit without a result if it is not there."""
    sys.path.insert(0, str(src))
    try:
        import convreg
    except ImportError as exc:
        raise SystemExit(f"cannot import convreg from {src}: {exc}")
    found = Path(convreg.__file__).resolve().parent
    if found != (src / "convreg").resolve():
        raise SystemExit(f"imported convreg from {found}, not from {src}")
    return convreg


def program_digest(src: Path) -> str:
    """Digest of the sources under test, the numeric libraries and the BLAS
    thread counts, which change the rounding of the outputs."""
    import numpy
    import scipy
    h = hashlib.sha256(json.dumps([numpy.__version__, scipy.__version__,
                                   blas_info()], sort_keys=True).encode())
    for path in sorted((src / "convreg").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS library name, version and, per loaded OpenBLAS, its threads."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": {}}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for fn in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    info["threads"][path.name] = getattr(lib, fn)()
                    break
    return info


def context(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas": blas_info(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(), "seed": seed, "seconds": seconds,
        "trace": int(trace), "workload": wl.params(),
        "computed": {"penalty.dense_bytes_per_call":
                     "rows * cols * 8, the size of the dense M E the gradient "
                     "forms; computed from the geometry, not measured"},
    }


def measure_setup(wl: Workload, seed: int) -> float:
    """Seconds to import convreg, draw the kernel and build M, in a new process."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(wl.k), str(wl.g),
         str(wl.h), str(wl.n), str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def kernel_seed(seed: int, j: int) -> int:
    """Kernel seed of a run's j-th solve: each solve descends from its own kernel."""
    return seed * 1000 + j


@dataclass
class Solve:
    seed: int
    code: int
    seconds: float
    iterations: int
    csv_bytes: bytes
    json_bytes: bytes


def solve(convreg, wl: Workload, seed: int, csv_path: Path) -> Solve:
    """One ``convreg optimize`` run, timed from the call to both files on disk."""
    json_path = csv_path.with_suffix(".kernel.json")
    for path in (csv_path, json_path):
        path.unlink(missing_ok=True)
    argv = wl.optimize_argv(seed, csv_path)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = convreg.cli.main(argv)
        seconds = time.perf_counter() - t0
    csv_bytes, json_bytes = (p.read_bytes() if p.exists() else b""
                             for p in (csv_path, json_path))
    return Solve(seed=seed, code=code, seconds=seconds,
                 iterations=max(csv_bytes.count(b"\n") - 1, 0),
                 csv_bytes=csv_bytes, json_bytes=json_bytes)


def count_failures(convreg, wl: Workload, solves: list[Solve],
                   store: ReferenceStore) -> int:
    """Solves whose exit code or output fails the checks in ``checks.py``."""
    failed = 0
    for s in solves:
        problems = set_problems(convreg, wl, s.seed, store, s.csv_bytes, s.json_bytes)
        if s.code != wl.expected_exit:
            problems.append(f"exit code {s.code}, expected {wl.expected_exit}")
        for p in problems:
            print(f"{wl.name} kernel seed {s.seed}: {p}", file=sys.stderr)
        failed += bool(problems)
    return failed


def layer_metrics(spans, root, wl: Workload, s: Solve) -> dict[str, float]:
    """Per-layer self times and counts for the traced solve under ``root``."""
    own = self_times(spans)
    inside = descendants(spans, root)

    def named(name):
        return [x for x in inside if x.name == name]

    def self_s(name):
        return sum(own[x.id] for x in named(name))

    power, builds, descents = (named("spectrum.power"), named("transform.build"),
                               named("optimizer.descend"))
    grad_calls = len(named("penalty.gradient"))
    return {
        "spectrum.extrema_s": self_s("spectrum.extrema"),
        "spectrum.power_s": self_s("spectrum.power"),
        "spectrum.power_iters": sum(x.attrs["iters"] for x in power),
        "spectrum.power_converged_ratio": (
            sum(x.attrs["converged"] for x in power) / len(power) if power else 0.0),
        "spectrum.extrema_calls": len(named("spectrum.extrema")),
        "spectrum.gram_dim": min(wl.rows, wl.cols),
        "penalty.gradient_s": self_s("penalty.gradient"),
        "penalty.gradient_calls": grad_calls,
        "penalty.dense_bytes_per_call": wl.rows * wl.cols * 8 if grad_calls else 0,
        "transform.gram_s": self_s("transform.gram"),
        "transform.refresh_s": self_s("transform.refresh"),
        "transform.build_s": self_s("transform.build"),
        "transform.gram_calls": len(named("transform.gram")),
        "transform.refresh_calls": len(named("transform.refresh")),
        "transform.build_calls": len(builds),
        "transform.nnz": builds[0].attrs["nnz"] if builds else 0,
        "rng.random_kernel_s": self_s("rng.random_kernel"),
        "optimizer.self_s": self_s("optimizer.descend"),
        "optimizer.descend_s": sum(x.duration for x in descents),
        "optimizer.iterations": s.iterations,
        "cli.write_csv_s": self_s("cli.write_csv"),
        "cli.csv_bytes": len(s.csv_bytes),
        "cli.kernel_json_bytes": len(s.json_bytes),
    }


def run(convreg, wl: Workload, seed: int, seconds: float, trace: bool,
        workdir: Path) -> tuple[dict, dict]:
    """Measure one workload.

    Returns the result object the benchmark prints last and the samples
    its medians were taken over.
    """
    store = ReferenceStore(workdir / "reference", program_digest(SRC))
    outdir = workdir / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        solve(convreg, WARMUP, 1, outdir / "warmup.csv")
        setup = [] if trace else [measure_setup(wl, kernel_seed(seed, 0))
                                  for _ in range(SETUP_SAMPLES)]
        csv_path = outdir / "trajectory.csv"
        tracer = Tracer()
        plain, traced, roots, rounds = [], [], [], []
        start = time.perf_counter()
        # Each round solves a new kernel, untraced and then, in trace mode,
        # traced; stop before a round that could overrun the run time.
        while not rounds or time.perf_counter() - start + max(rounds) <= seconds:
            t0 = time.perf_counter()
            ks = kernel_seed(seed, len(rounds))
            plain.append(solve(convreg, wl, ks, csv_path))
            if trace:
                with tracer.installed(convreg), tracer.span("solve") as root:
                    traced.append(solve(convreg, wl, ks, csv_path))
                roots.append(root)
            rounds.append(time.perf_counter() - t0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    solves = plain + traced
    failed = count_failures(convreg, wl, solves, store)
    if trace:
        per_solve = [layer_metrics(tracer.spans, r, wl, s)
                     for r, s in zip(roots, traced)]
        values = {name: statistics.median(m[name] for m in per_solve)
                  for name in per_solve[0]}
        values["trace.overhead_s"] = statistics.median(
            t.seconds - p.seconds for p, t in zip(plain, traced))
        tracer.write_jsonl(workdir / f"spans-{wl.name}-seed{seed}.jsonl")
        units = PER_LAYER
    else:
        values = {
            "solve_s": statistics.median(s.seconds for s in plain),
            "iters_per_s": statistics.median(s.iterations / s.seconds for s in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    samples = {"kernel_seeds": [s.seed for s in plain],
               "solve_s": [s.seconds for s in plain],
               "traced_solve_s": [s.seconds for s in traced], "setup_s": setup}
    result = {"correct": failed == 0, "attempted": len(solves), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # BLAS may use every CPU this process can run on, and no more.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    convreg = load_program(SRC)
    wl = WORKLOADS[args.workload]
    result, samples = run(convreg, wl, args.seed, args.seconds, bool(args.trace),
                          WORKDIR)
    print(json.dumps({"context": context(wl, args.seed, args.seconds,
                                         bool(args.trace)),
                      "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
