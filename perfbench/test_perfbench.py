"""Self-tests of the benchmark on a tiny geometry (3x3x1x1, N=6).

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from checks import ReferenceStore, dense_problems, set_problems
from run import (END_TO_END, PER_LAYER, ROOT, SRC, Solve, count_failures,
                 layer_metrics, load_program, run, solve)
from spans import Tracer
from workloads import Workload

TINY = Workload("tiny", g=1, h=1, n=6, schedule="default:1e-5", max_iter=5,
                stop_tol=0.0, spectrum_every=5, expected_exit=3)


@pytest.fixture(scope="module")
def convreg():
    return load_program(SRC)


@pytest.fixture
def good(convreg, tmp_path) -> Solve:
    return solve(convreg, TINY, 7, tmp_path / "t.csv")


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace, section, units", [
    (False, "end_to_end", END_TO_END), (True, "per_layer", PER_LAYER)])
def test_every_declared_metric_is_reported_with_its_unit(convreg, tmp_path, trace,
                                                         section, units):
    assert units == _declared(section)
    result, _ = run(convreg, TINY, 3, 1, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_self_times_add_up_to_the_traced_descent(convreg, tmp_path):
    tracer = Tracer()
    with tracer.installed(convreg), tracer.span("solve") as root:
        s = solve(convreg, TINY, 5, tmp_path / "t.csv")
    m = layer_metrics(tracer.spans, root, TINY, s)
    inside = sum(m[name] for name in (
        "spectrum.extrema_s", "spectrum.power_s", "penalty.gradient_s",
        "transform.gram_s", "transform.refresh_s", "transform.build_s",
        "optimizer.self_s"))
    assert m["optimizer.descend_s"] > 0
    assert inside == pytest.approx(m["optimizer.descend_s"], rel=1e-9)
    assert m["optimizer.iterations"] == TINY.max_iter + 1
    assert m["penalty.gradient_calls"] == TINY.max_iter + 1
    assert m["spectrum.extrema_calls"] == 2
    assert m["transform.build_calls"] == 1
    # the wrappers are gone once the block ends
    assert convreg.optimizer.gradient_fast is convreg.gradient_fast


def test_correct_output_passes_the_dense_check(convreg, good):
    assert good.code == TINY.expected_exit
    assert dense_problems(convreg, TINY, good.csv_bytes, good.json_bytes) == []


def _corrupt_json(json_bytes: bytes) -> bytes:
    doc = json.loads(json_bytes)
    doc["data"][0] += 0.5
    return json.dumps(doc).encode()


def _corrupt_csv(csv_bytes: bytes) -> bytes:
    lines = csv_bytes.decode().splitlines()
    fields = lines[-1].split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-6))
    return ("\n".join(lines[:-1] + [",".join(fields)]) + "\n").encode()


@pytest.mark.parametrize("corrupt", [
    lambda s: replace(s, json_bytes=_corrupt_json(s.json_bytes)),
    lambda s: replace(s, json_bytes=b'{"k": 3'),
    lambda s: replace(s, csv_bytes=_corrupt_csv(s.csv_bytes)),
    lambda s: replace(s, csv_bytes=s.csv_bytes.rsplit(b"\n", 2)[0] + b"\n"),
    lambda s: replace(s, code=4),
], ids=["kernel-json-value", "kernel-json-truncated", "csv-sigma",
        "csv-missing-row", "diverged"])
def test_corrupted_output_counts_as_a_failed_run(convreg, good, tmp_path, corrupt):
    store = ReferenceStore(tmp_path / "ref", "program")
    bad = corrupt(good)
    assert count_failures(convreg, TINY, [bad], store) == 1
    # with the good output on record, the corrupted one fails the byte check
    assert count_failures(convreg, TINY, [good, bad], store) == 1


def test_bytes_differing_from_the_set_reference_fail(convreg, good, tmp_path):
    store = ReferenceStore(tmp_path / "ref", "program")
    assert set_problems(convreg, TINY, 7, store, good.csv_bytes, good.json_bytes) == []
    bad_csv = _corrupt_csv(good.csv_bytes)
    assert set_problems(convreg, TINY, 7, store, bad_csv, good.json_bytes)
    # another program's reference is not this one's
    other = ReferenceStore(tmp_path / "ref", "other program")
    assert other.load(TINY, 7) is None


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-tall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
