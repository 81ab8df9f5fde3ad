"""The benchmark's workloads name CLI routes and read phase-diagram columns
by position; check both against the CLI, so that dropping or moving a route
the benchmark requests fails here rather than in a benchmark run."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from tki import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_tki_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def test_requested_routes_are_cli_methods(workloads):
    for route in workloads.ALL_TORUS_ROUTES + workloads.SWEEP_ROUTES:
        assert route in cli._ROUTES, route


def test_default_routes_match_the_cli(workloads):
    doc = json.loads(_stdout("invariant", "--model", "trivial", "--dim", "3",
                             "--m", "2", "--grid", "8", "--stable-output"))
    assert sorted(doc["methods"]) == sorted(workloads.DEFAULT_TORUS_ROUTES)


def test_sweep_columns_where_the_benchmark_reads_them(workloads):
    # perfbench/run.py::_check_sweep reads row[0] as the swept value, one
    # parity per SWEEP_ROUTES entry from row[2] on, and row[6] as gapless
    header, row = _stdout("phase-diagram", "--model", "trivial", "--dim",
                          "3", "--m", "2", "--sweep", "m:2:2:1", "--grid",
                          "8").splitlines()
    names, cells = header.split(","), row.split(",")
    n = len(workloads.SWEEP_ROUTES)
    assert names[0] == "param" and names[6] == "gapless"
    assert names[2:2 + n] == [f"parity_{r}" for r in workloads.SWEEP_ROUTES]
    assert cells[2:2 + n] == ["1"] * n and cells[6] == "false"
