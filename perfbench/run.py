"""Benchmark for tki: closed-loop CLI workloads with independent parity checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload gauge --seed 1 --seconds 57 --trace 0

`--workload all` runs gauge and routes16 in turn, each as its own
run with its own two output lines, and exits 1 if any of them is wrong.

Each run generates the workload's requests from the seed, times set-up
(`import tki.cli` plus `make_model` for every model of the workload) in
several fresh processes and reports the median, then sends the requests in
order, one closed-loop client, through ``tki.cli.main(argv)`` in one fresh
worker process whose BLAS/OpenMP thread variables are fixed at one thread
before numpy loads.  The worker repeats the request list in passes until
--seconds is spent, and times a fixed reference kernel between requests; the
timings are medians per request over the passes of the request's time
rescaled by the reference kernel's (see REFERENCE_S).
Every returned parity is checked against a closed-form reference (see
workloads.py); a wrong parity fails the run (exit 1).

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and one
traced pass and reports per-layer metrics from spans around the public
functions of models, bloch, invariants, eqforms, sphere, linalg and cli,
checks the span wrapping against hand counts, and reports the tracing
overhead.  The traced pass runs first on odd seeds, so that the warm-up costs
of a fresh process do not always fall on the untraced side of the overhead.

The last line of stdout is the result object; the line before it records the
environment and the generated requests.

--smoke swaps in tiny grids and times set-up once, and
--inject-wrong-reference flips the reference of every request (of the first
point of a sweep), and the run must then fail;
perfbench/test_smoke.py uses both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# set to one thread: the pipeline's batched kernels work on 2-8 band
# matrices, which BLAS does not split across threads (user+sys CPU equals wall
# time with two), so a second thread only adds scheduler noise on a small
# shared host
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170
# The worker times a fixed numpy kernel (worker._reference) before and after
# every request; its typical wall and CPU time on a 2-core 2.1 GHz Xeon is
# REFERENCE_S.  The request and CPU timings are rescaled by REFERENCE_S over
# the mean of the two kernel timings around the request, so that they read
# as seconds on that host at that speed: a shared host's speed drifts by up
# to 30% over minutes, which spread the raw medians of ten runs by an IQR of
# 13-23% of their median, and the rescaled ones by 3-9%.
REFERENCE_S = 0.08
# fresh-process set-up timings per run; the median is reported
SETUP_SAMPLES = 5
# a run with no WZW integral reports the largest possible distance to an
# integer rather than a missing value
NO_INTEGRAL_RESIDUAL = 0.5


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TKI_THREADS", None)
    # the same import cost on every run, and nothing written to the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(spec: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _near_integer(x: float) -> float:
    return abs(x - round(x))


def _check_invariant(req, res, tally):
    """Route evaluations, parities and WZW residuals of one invariant run."""
    try:
        doc = json.loads(res["stdout"]) if res["rc"] in (0, 2, 3) else None
    except json.JSONDecodeError:
        doc = None
    methods = (doc or {}).get("methods", {})
    ok = 0
    wzw_calls = 0
    for route in req["routes"]:
        out = methods.get(route, {})
        if "parity" in out:
            ok += 1
            if out["parity"] != req["reference"]:
                tally["wrong"].append(
                    f"{' '.join(req['argv'])}: {route} parity {out['parity']}"
                    f" != reference {req['reference']}")
            if route in ("wzw", "s3"):
                tally["residuals"].append(_near_integer(out["raw"]))
        if route in workloads.WZW_ROUTES and (
                "parity" in out
                or out.get("error", "").startswith("NonConvergent")):
            wzw_calls += 1
    tally["evals"] += len(req["routes"])
    tally["ok"] += ok
    tally["failed_requests"] += ok == 0
    return wzw_calls


def _check_sweep(req, res, tally):
    rows = []
    if res["rc"] == 0:
        lines = res["stdout"].strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
    n_routes = len(req["routes"])
    tally["evals"] += n_routes * len(req["values"])
    if len(rows) != len(req["values"]):
        tally["failed_requests"] += 1
        if rows:
            tally["wrong"].append(f"{' '.join(req['argv'])}: {len(rows)} "
                                  f"rows for {len(req['values'])} points")
        return 0
    ok_total = wzw_calls = 0
    for row, value, ref in zip(rows, req["values"], req["references"]):
        if abs(float(row[0]) - value) > 1e-5:
            tally["wrong"].append(f"sweep row {row[0]} != point {value}")
            continue
        if row[6] == "true":          # gapless: no route ran
            continue
        # never trust the consensus column: check each parity cell
        for route, cell in zip(req["routes"], row[2:2 + n_routes]):
            if cell == "nan":
                continue
            ok_total += 1
            if int(cell) != ref:
                tally["wrong"].append(
                    f"sweep {req['param']}={value}: {route} parity {cell} "
                    f"!= reference {ref}")
        # the density runs once the gauge is built, and a parity from either
        # gauge route shows that it was (a wzw nan beside a pfaffian parity
        # is a rounding failure after the density); both nan is read as a
        # gauge failure
        wzw_calls += any(row[2 + req["routes"].index(r)] != "nan"
                         for r in ("pfaffian", "wzw"))
    tally["ok"] += ok_total
    tally["failed_requests"] += ok_total == 0
    return wzw_calls


def check_pass(requests, results, tally) -> list:
    """Check one pass; returns the expected bloch.wzw_density calls per
    request (hand count: one per WZW-based route that got its density, one
    per sweep point whose gauge was built)."""
    expected = []
    for req, res in zip(requests, results):
        tally["attempted"] += 1
        if req["kind"] == "invariant":
            expected.append(_check_invariant(req, res, tally))
        else:
            expected.append(_check_sweep(req, res, tally))
    return expected


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def _median(values):
    return float(statistics.median(values))


def _per_request_medians(passes, time_of):
    """Median of `time_of(result)` for each request over the passes."""
    return [_median([time_of(p[i]) for p in passes])
            for i in range(len(passes[0]))]


def _rescaled_wall(res):
    return res["wall_s"] * REFERENCE_S / res["ref_wall_s"]


def _rescaled_cpu(res):
    return res["cpu_s"] * REFERENCE_S / res["ref_cpu_s"]


def run(args, workload: str) -> tuple[dict, dict]:
    requests = workloads.generate(workload, args.seed, smoke=args.smoke)
    if args.inject_wrong_reference:
        for req in requests:
            if req["kind"] == "invariant":
                req["reference"] = -req["reference"]
            else:
                req["references"][0] = -req["references"][0]
    env = worker_env()
    base = {"src": str(ROOT / "src"),
            "models": workloads.models_of(requests)}
    samples = 1 if args.smoke else SETUP_SAMPLES
    setup = [_worker(dict(base, mode="setup"), env)["setup_s"]
             for _ in range(samples - 1)]
    mode = "trace" if args.trace else "run"
    traced_first = bool(args.trace) and args.seed % 2 == 1
    result = _worker(dict(base, mode=mode, seconds=args.seconds,
                          traced_first=traced_first,
                          requests=[r["argv"] for r in requests]), env)
    setup.append(result["setup_s"])

    tally = {"attempted": 0, "evals": 0, "ok": 0, "failed_requests": 0,
             "wrong": [], "residuals": []}
    expected_wzw = [check_pass(requests, results, tally)
                    for results in result["passes"]]
    walls = [sum(r["wall_s"] for r in p) for p in result["passes"]]
    # the timings as measured, before rescaling, for the record
    measured = {
        "request_wall_s": _per_request_medians(result["passes"],
                                               lambda r: r["wall_s"]),
        "request_cpu_s": _per_request_medians(result["passes"],
                                              lambda r: r["cpu_s"]),
        "reference_wall_s": _median([r["ref_wall_s"]
                                     for p in result["passes"] for r in p]),
    }

    if args.trace:
        counted = {int(k): v for k, v in result["wzw_density_calls"].items()}
        mismatches = [
            f"request {i}: bloch.wzw_density.calls {counted.get(i, 0)} "
            f"!= hand count {want}"
            for i, want in enumerate(expected_wzw[1])
            if counted.get(i, 0) != want]
        tally["wrong"].extend(mismatches)
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        metrics["selfcheck.wzw_density_mismatches"] = (len(mismatches),
                                                       "count")
        metrics["trace.untraced_wall_s"] = (walls[0], "s")
        metrics["trace.traced_wall_s"] = (walls[1], "s")
        metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
    else:
        request_wall = _per_request_medians(result["passes"], _rescaled_wall)
        request_cpu = _per_request_medians(result["passes"], _rescaled_cpu)
        metrics = {
            "setup_s": (_median(setup), "s"),
            "wall_s": (sum(request_wall), "s"),
            "request_max_s": (max(request_wall), "s"),
            "cpu_s": (sum(request_cpu), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "route_ok_share": (tally["ok"] / tally["evals"], "ratio"),
            "wzw_resid_max": (max(tally["residuals"],
                                  default=NO_INTEGRAL_RESIDUAL),
                              "dimensionless"),
        }

    record = {
        "workload": workload, "seed": args.seed, "smoke": args.smoke,
        "passes": len(result["passes"]), "pass_wall_s": walls,
        "measured": measured,
        "traced_first": traced_first,
        "setup_samples_s": setup,
        "requests": requests,
        "wrong": tally["wrong"],
        "route_evaluations": {"attempted": tally["evals"],
                              "with_parity": tally["ok"]},
        "environment": dict(
            result["environment"], nproc=_nproc(), cpu=_cpu_model(),
            python=platform.python_version(),
            threads={var: env[var] for var in THREAD_VARS}),
        "exit_codes": [[r["rc"] for r in p] for p in result["passes"]],
        "crashes": [r["crash"] for p in result["passes"] for r in p
                    if r["crash"]],
    }
    summary = {
        "correct": not tally["wrong"],
        "attempted": tally["attempted"],
        "failed": tally["failed_requests"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return record, summary


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=57.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids, for the benchmark's own test")
    p.add_argument("--inject-wrong-reference", action="store_true",
                   help="flip every reference parity; the run must fail")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if not (ROOT / "src" / "tki" / "cli.py").is_file():
        print(f"error: no tki sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        try:
            record, summary = run(args, name)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(record))
        print(json.dumps(summary))
        status = max(status, 0 if summary["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
