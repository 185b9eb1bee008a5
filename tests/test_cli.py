"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convreg.cli
from convreg import (
    ConfigurationError,
    IterationRecord,
    Kernel,
    PenaltyGradient,
    build_transform,
    delta_kernel,
    random_kernel,
    read_trajectory_csv,
    write_trajectory_csv,
)
from convreg.cli import (
    EXIT_DIVERGED,
    EXIT_MAX_ITER,
    EXIT_OK,
    build_parser,
    main,
)


def test_trajectory_csv_round_trip(tmp_path):
    records = [
        IterationRecord(iteration=0, lam=1e-5, penalty=123.456, grad_fro=7.89,
                        sigma_max=2.5, sigma_min=0.125),
        IterationRecord(iteration=1, lam=1e-4, penalty=1.0 / 3.0, grad_fro=0.1,
                        sigma_max=None, sigma_min=None),
    ]
    path = tmp_path / "t.csv"
    write_trajectory_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,lambda,penalty,grad_fro,sigma_max,sigma_min"
    assert lines[2].endswith(",,")     # skipped spectra leave empty fields
    assert read_trajectory_csv(path) == records


@pytest.mark.parametrize("text", [
    "",
    "iter,lambda,penalty\n0,1e-05,1,2,,\n",
    "iter;lambda;penalty;grad_fro;sigma_max;sigma_min\n",
])
def test_trajectory_csv_with_a_wrong_header_rejected(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError):
        read_trajectory_csv(path)


@pytest.mark.parametrize("row", ["0,1e-05,1,2,3", "0,1e-05,1,2,3,4,5"])
def test_trajectory_csv_row_without_six_fields_rejected(tmp_path, row):
    path = tmp_path / "t.csv"
    path.write_text("iter,lambda,penalty,grad_fro,sigma_max,sigma_min\n" + row + "\n")
    with pytest.raises(ConfigurationError):
        read_trajectory_csv(path)


def _run_python(*args):
    src = str(Path(convreg.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_module_entry_point_runs_without_import_warnings():
    # the package must not import its own CLI, or `python -m convreg.cli`
    # warns that the module was already in sys.modules
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "convreg.cli", "--help")
    assert proc.returncode == 0, proc.stderr


def test_library_import_leaves_the_cli_unimported():
    proc = _run_python("-c", "import sys, convreg; "
                       "assert 'convreg.cli' not in sys.modules; "
                       "assert convreg.cli.main is sys.modules['convreg.cli'].main")
    assert proc.returncode == 0, proc.stderr


def test_optimize_writes_trajectory_and_kernel(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["optimize", "--k", "1", "--n", "5", "--seed", "1",
                 "--max-iter", "200", "--schedule", "default:1e-3",
                 "--out", str(out)])
    assert code == EXIT_OK

    records = read_trajectory_csv(out)
    assert records[0].iteration == 0
    last = records[-1]
    assert abs(last.sigma_max - 1.0) <= 0.05
    assert abs(last.sigma_min - 1.0) <= 0.05

    doc = json.loads((tmp_path / "run.kernel.json").read_text())
    assert (doc["k"], doc["g"], doc["h"]) == (1, 1, 1)
    final = Kernel.from_json(json.dumps(doc))
    assert np.all(np.isfinite(final.values))


def test_optimize_runs_are_byte_identical(tmp_path):
    args = ["optimize", "--k", "3", "--n", "4", "--seed", "7", "--max-iter", "10",
            "--stop-tol", "0", "--schedule", "default:1e-4"]
    main(args + ["--out", str(tmp_path / "a.csv")])
    main(args + ["--out", str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.kernel.json").read_bytes() == \
        (tmp_path / "b.kernel.json").read_bytes()


def test_optimize_budget_exhaustion_exit_code(tmp_path):
    code = main(["optimize", "--k", "3", "--n", "4", "--max-iter", "3",
                 "--stop-tol", "1e-9", "--out", str(tmp_path / "t.csv")])
    assert code == EXIT_MAX_ITER
    assert len(read_trajectory_csv(tmp_path / "t.csv")) == 4


def test_optimize_divergence_exit_code(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(["optimize", "--k", "3", "--n", "4", "--max-iter", "50",
                 "--schedule", "default:10.0", "--out", str(out)])
    assert code == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err
    # partial trajectory still lands on disk; no kernel JSON is written
    assert out.exists()
    assert not (tmp_path / "d.kernel.json").exists()


def test_optimize_delta_start_stays_put(tmp_path):
    out = tmp_path / "delta.csv"
    code = main(["optimize", "--k", "3", "--n", "4", "--init-delta",
                 "--max-iter", "2", "--stop-tol", "0", "--out", str(out)])
    assert code == EXIT_MAX_ITER      # stop disabled, budget runs out
    for r in read_trajectory_csv(out):
        assert r.penalty == 0.0
        assert r.grad_fro == 0.0


def test_check_grad_passes_on_clean_gradients(capsys):
    assert main(["check-grad", "--k", "3", "--g", "2", "--n", "4",
                 "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fast_vs_direct" in out
    assert "max relative error" in out


def test_check_grad_detects_a_corrupted_gradient(monkeypatch):
    real = convreg.cli.gradient_fast

    def off_by_one_percent(tm, alpha):
        grad = real(tm, alpha)
        shift = 0.01 * max(float(np.max(np.abs(grad.values))), 1.0)
        return PenaltyGradient(values=grad.values + shift, penalty=grad.penalty)

    monkeypatch.setattr(convreg.cli, "gradient_fast", off_by_one_percent)
    assert main(["check-grad", "--k", "3", "--n", "4"]) == 1


def test_dump_matrix_identity(tmp_path):
    out = tmp_path / "m.txt"
    assert main(["dump-matrix", "--k", "1", "--n", "2", "--init-delta",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines() == [
        "4 4 4", "1 1 1", "2 2 1", "3 3 1", "4 4 1"]


def test_dump_matrix_matches_library_build(tmp_path):
    out = tmp_path / "m.txt"
    assert main(["dump-matrix", "--k", "3", "--n", "3", "--g", "2",
                 "--seed", "5", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    tm = build_transform(random_kernel(3, 2, 1, seed=5), 3)
    rows, cols, nnz = (int(t) for t in lines[0].split())
    assert (rows, cols, nnz) == (tm.rows, tm.cols, tm.nnz)
    rebuilt = np.zeros((rows, cols))
    for line in lines[1:]:
        i, j, v = line.split()
        rebuilt[int(i) - 1, int(j) - 1] = float(v)
    assert np.array_equal(rebuilt, tm.to_dense())


def test_suite_writes_all_four_trajectories(tmp_path):
    out_dir = tmp_path / "suite"
    code = main(["suite", "--n", "4", "--max-iter", "3", "--stop-tol", "0",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_MAX_ITER      # tiny budget, stop disabled
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["traj_3x3x1x3.csv", "traj_3x3x3x1.csv",
                     "traj_3x3x3x6.csv", "traj_3x3x6x3.csv"]
    for name in names:
        records = read_trajectory_csv(out_dir / name)
        assert len(records) == 4
        # suite records spectra on every iteration by default
        assert all(r.sigma_max is not None for r in records)


def test_usage_errors_exit_with_code_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["optimize"])            # --out is required
    assert info.value.code == 2


def test_invalid_parameter_values_exit_with_code_two(tmp_path, capsys):
    # Values that pass argparse but fail validation are still usage
    # errors: clean message on stderr, no traceback.
    out = str(tmp_path / "run.csv")
    assert main(["optimize", "--k", "3", "--n", "0", "--out", out]) == 2
    assert main(["optimize", "--k", "0", "--out", out]) == 2
    assert main(["optimize", "--k", "3", "--n", "4", "--alpha", "-1",
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_parser_help_smoke():
    parser = build_parser()
    assert parser.prog == "convreg"
    for command in ("optimize", "check-grad", "dump-matrix", "suite"):
        assert command in parser.format_help()
