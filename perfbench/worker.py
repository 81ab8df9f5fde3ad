"""One benchmark process: import tki, build the models, run the requests.

Started by ``run.py`` with the BLAS/OpenMP thread variables already in its
environment, so they are in place before numpy loads.  Reads a JSON spec on
stdin and writes one JSON document on stdout:

    mode "setup"  time `import tki.cli` plus `make_model` for every model
    mode "run"    the same set-up, then the requests in order through
                  ``tki.cli.main(argv)``, one closed-loop client, in passes
                  until the time budget is spent (at least one pass), with
                  a reference kernel timed between requests
    mode "trace"  set-up, one untraced pass and one pass with spans
                  recorded around the public functions of every layer, the
                  traced one first when the spec asks for it
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import resource
import sys
import time
import traceback


def _setup(spec):
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import tki.cli  # noqa: F401  (the import is part of set-up)
    from tki import models
    for name, params, check in spec["models"]:
        models.make_model(name, params, check=check)
    return time.perf_counter() - t0


def _reference_input():
    import numpy as np
    rng = np.random.default_rng(0)
    return (rng.standard_normal((2048, 4, 4))
            + 1j * rng.standard_normal((2048, 4, 4)))


def _reference(a):
    """Wall and CPU seconds of a fixed numpy workload of the kind the
    pipeline runs: batched SVDs and products of 4x4 complex matrices, and a
    Python loop of small array operations.  Timed around every request, it
    follows the speed of a shared host, which drifts by up to 30% over
    minutes."""
    import numpy as np
    c0, w0 = time.process_time(), time.perf_counter()
    for _ in range(3):
        np.linalg.svd(a)
        np.matmul(a, a)
    x = a[:8]
    for _ in range(1500):
        x = np.matmul(x, a[:8]) / np.abs(x).max()
    return time.perf_counter() - w0, time.process_time() - c0


def _run_pass(requests, ref_input, tracer=None):
    from tki import cli
    results = []
    ref_before = _reference(ref_input)
    for i, argv in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out = io.StringIO()
        crash = None
        c0, w0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(argv))
            except Exception:  # a crash is a failed request, not a stop
                rc, crash = None, traceback.format_exc(limit=4)[-2000:]
        w1, c1 = time.perf_counter(), time.process_time()
        ref_after = _reference(ref_input)
        results.append({"rc": rc, "stdout": out.getvalue(), "crash": crash,
                        "wall_s": w1 - w0, "cpu_s": c1 - c0,
                        "ref_wall_s": (ref_before[0] + ref_after[0]) / 2,
                        "ref_cpu_s": (ref_before[1] + ref_after[1]) / 2})
        ref_before = ref_after
    return results


def _environment():
    import numpy
    info = {"numpy": numpy.__version__,
            "threadpoolctl": importlib.util.find_spec("threadpoolctl")
            is not None}
    try:
        import scipy
        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = {k: blas.get(k) for k in ("name", "version",
                                                 "openblas configuration")
                        if k in blas}
    except (TypeError, AttributeError):   # numpy < 1.26 has no dict mode
        info["blas"] = None
    return info


def main() -> int:
    spec = json.load(sys.stdin)
    setup_s = _setup(spec)
    doc = {"setup_s": setup_s}
    if spec["mode"] != "setup":
        requests = spec["requests"]
        ref_input = _reference_input()
        if spec["mode"] == "run":
            passes, t0 = [], time.perf_counter()
            while True:
                passes.append(_run_pass(requests, ref_input))
                elapsed = time.perf_counter() - t0
                last = sum(r["wall_s"] for r in passes[-1])
                if elapsed + last > spec["seconds"]:
                    break
            doc["passes"] = passes
        else:
            import tki.sphere  # noqa: F401  (imported lazily by km_s3)
            from tracer import Tracer, layer_metrics, calls_per_request
            tracer = Tracer()

            def traced_pass():
                tracer.install()
                try:
                    return _run_pass(requests, ref_input, tracer)
                finally:
                    tracer.uninstall()

            if spec["traced_first"]:
                traced = traced_pass()
                untraced = _run_pass(requests, ref_input)
            else:
                untraced = _run_pass(requests, ref_input)
                traced = traced_pass()
            doc["passes"] = [untraced, traced]
            doc["layers"] = {k: list(v) for k, v in
                             layer_metrics(tracer.spans).items()}
            doc["wzw_density_calls"] = calls_per_request(
                tracer.spans, "bloch.wzw_density")
        doc["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        doc["environment"] = _environment()
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
