"""Fast self-test of the benchmark (tiny grids).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def _smoke(workload, trace, *extra):
    return _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke", *extra)


def _summary(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    summary = _summary(proc)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float))
               for v in summary["metrics"].values())
    if trace:
        # the hand-count self-check ran and agreed with the spans
        assert summary["metrics"]["selfcheck.wzw_density_mismatches"][
            "value"] == 0
        assert summary["metrics"]["bloch.wzw_density.calls"]["value"] > 0


def test_one_command_runs_every_workload():
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0.5",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    records, summaries = lines[0::2], lines[1::2]
    assert [r["workload"] for r in records] == list(workloads.WORKLOADS)
    assert all(s["correct"] for s in summaries)


def test_wrong_reference_fails_the_run():
    proc = _smoke("routes16", 0, "--inject-wrong-reference")
    assert proc.returncode == 1
    summary = _summary(proc)
    assert summary["correct"] is False


def test_wrong_sweep_reference_fails_the_run():
    proc = _smoke("gauge", 0, "--inject-wrong-reference")
    assert proc.returncode == 1
    assert _summary(proc)["correct"] is False


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(workload, smoke):
    # in fresh processes, so that nothing process-wide (hash seeds, global
    # random state) can leak into the requests
    code = ("import json, sys, workloads; print(json.dumps("
            f"workloads.generate({workload!r}, 7, {smoke})))")
    a, b = (subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, cwd=HERE, timeout=60)
            for _ in range(2))
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    assert json.loads(a.stdout) == workloads.generate(workload, 7, smoke)


def test_seed_changes_the_requests():
    for workload in workloads.WORKLOADS:
        drawn = {json.dumps(workloads.generate(workload, seed))
                 for seed in range(10)}
        assert len(drawn) > 1, workload


def _acceptance_points():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "POINTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("POINTS table not found")


def test_references_agree_with_acceptance_points():
    points = _acceptance_points()
    assert {name for name, _, _ in points} >= {"trivial", "fkm3d",
                                                "layered3d"}
    # includes fkm3d points with lam != 0.25: lam does not enter d_0
    for name, params, expected in points:
        assert workloads.reference_parity(name, params) == expected, \
            (name, params)


def test_dirac_reference_flips_once_across_criterion_8_masses():
    masses = (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5)
    parities = [workloads.dirac_s3_parity(m) for m in masses]
    assert parities == [-1, -1, -1, 1, 1, 1]


def test_references_at_gap_closings_refuse():
    for dt in (-4.0, -2.0, 0.0, 2.0):
        with pytest.raises(workloads.NoReference):
            workloads.fkm3d_parity(dt)


def test_no_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "routes16", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
