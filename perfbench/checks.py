"""Correctness checks on the files one solve wrote.

A solve fails when any of these holds:

* its exit code is not the one the workload expects (divergence, 4,
  always fails);
* the trajectory CSV is malformed, has the wrong number of rows, or its
  final row lacks the sigma fields;
* the final row's sigma_max or sigma_min disagrees with the dense SVD of
  the written kernel's matrix by more than 1e-9 * sigma_max^2 on the
  squared scale (squared because rank-deficient matrices have a true
  sigma_min near 1e-18 that the production path reports as 0.0);
* its CSV or kernel JSON bytes differ from the first solve of the same
  program, workload and kernel seed.

The dense SVD of the largest workload costs seconds, so the digests of
outputs that passed it are recorded; a later solve of the same program,
workload and kernel seed whose bytes match is not checked again.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import EXIT_BUDGET, Workload

CSV_HEADER = "iter,lambda,penalty,grad_fro,sigma_max,sigma_min"
REL_TOL_SQ = 1e-9


def dense_problems(convreg, wl: Workload, csv_bytes: bytes,
                   json_bytes: bytes) -> list[str]:
    """Check a trajectory and its final kernel against the dense SVD."""
    try:
        lines = csv_bytes.decode("ascii").splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return ["CSV header is missing or wrong"]
        rows = [line.split(",") for line in lines[1:]]
        if any(len(r) != 6 for r in rows):
            return ["CSV row without six fields"]
        if wl.expected_exit == EXIT_BUDGET and len(rows) != wl.max_iter + 1:
            return [f"CSV has {len(rows)} rows, expected {wl.max_iter + 1}"]
        last = rows[-1]
        if not last[4] or not last[5]:
            return ["final CSV row has no sigma fields"]
        smax, smin = float(last[4]), float(last[5])
        kernel = convreg.tensors.Kernel.from_json(json_bytes.decode("ascii"))
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if kernel.values.shape != (wl.k, wl.k, wl.g, wl.h):
        return [f"kernel JSON has shape {kernel.values.shape}"]
    tm = convreg.transform.build_transform(kernel, wl.n)
    dense = convreg.spectrum.singular_extrema(tm, method="dense")
    tol = REL_TOL_SQ * dense.sigma_max ** 2
    problems = []
    for label, got, want in (("sigma_max", smax, dense.sigma_max),
                             ("sigma_min", smin, dense.sigma_min)):
        if abs(got * got - want * want) > tol:
            problems.append(f"{label} {got!r} disagrees with dense SVD {want!r}")
    return problems


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ReferenceStore:
    """Digests of verified outputs, one file per (program, workload, seed).

    ``program`` is a digest of the sources under test, the library
    versions and the BLAS threads, so outputs of a different program or
    set-up never meet this one's.
    """

    def __init__(self, directory: Path, program: str):
        self.directory = directory
        self.program = program

    def _path(self, wl: Workload, seed: int) -> Path:
        key = json.dumps([self.program, wl.params(), seed], sort_keys=True)
        return self.directory / f"{wl.name}-{digest(key.encode())[:24]}.json"

    def load(self, wl: Workload, seed: int) -> dict | None:
        path = self._path(wl, seed)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def save(self, wl: Workload, seed: int, csv_bytes: bytes,
             json_bytes: bytes) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._path(wl, seed).write_text(json.dumps(
            {"csv_sha256": digest(csv_bytes), "json_sha256": digest(json_bytes)}))


def set_problems(convreg, wl: Workload, seed: int, store: ReferenceStore,
                 csv_bytes: bytes, json_bytes: bytes) -> list[str]:
    """Check one solve's outputs against the reference for its kernel seed.

    Outputs that match a stored reference were verified by the solve that
    stored it; otherwise they are checked against the dense SVD and, if
    they pass, become the reference.
    """
    ref = store.load(wl, seed)
    if ref is not None:
        if (ref["csv_sha256"], ref["json_sha256"]) != (digest(csv_bytes),
                                                       digest(json_bytes)):
            return ["output bytes differ from the first solve of this kernel seed"]
        return []
    problems = dense_problems(convreg, wl, csv_bytes, json_bytes)
    if not problems:
        store.save(wl, seed, csv_bytes, json_bytes)
    return problems
