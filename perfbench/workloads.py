"""Workload generation and reference parities for the tki benchmark.

Everything here is pure standard library: the reference parities come from
closed-form rules, never from the package under test, and the requests are
plain ``tki`` command lines derived from the workload seed.

Reference rules
---------------
fkm3d      Fu-Kane inversion-eigenvalue product (PRB 76, 045302 (2007)).
           Gamma_1 = 1 (x) sigma_x is an inversion symmetry of the model and
           only d_0 = (t + dt) + t * sum_i cos k_i survives at the eight
           TRIMs, so the occupied Kramers pair there has inversion eigenvalue
           -sign(d_0).  The product over the eight TRIMs is the strong index.
layered3d  bhz2d layers with mass m + tz cos k_z: the strong index is the
           product of the 2D invariants of the k_z = 0 and k_z = pi planes,
           nu(m + tz) * nu(m - tz), with nu(M) = -1 for M in (0,4) u (4,8)
           (a = b = 1).
dirac_s3   -1 iff the mass lies in (-2, 0).
trivial    +1.
"""

from __future__ import annotations

import math
import random
from itertools import product

# route names the CLI runs when --methods is not given, by model kind
DEFAULT_TORUS_ROUTES = ("pfaffian", "planes", "wzw", "winding")
ALL_TORUS_ROUTES = ("pfaffian", "planes", "wzw", "winding", "cs", "localise")
SWEEP_ROUTES = ("pfaffian", "planes", "wzw")
# routes that evaluate bloch.wzw_density once each, once the gauge is built
WZW_ROUTES = ("wzw", "winding", "cs", "localise")


class NoReference(ValueError):
    """The closed-form rule has no answer at this point (gap closes)."""


def fkm3d_parity(dt: float, t: float = 1.0) -> int:
    sign = 1
    for n in product((0, 1), repeat=3):
        d0 = (t + dt) + t * sum(math.cos(math.pi * ni) for ni in n)
        if abs(d0) < 1e-9:
            raise NoReference(f"fkm3d is gapless at dt={dt}")
        sign *= 1 if d0 > 0 else -1
    return sign


def _bhz_nu(mass: float) -> int:
    if min(abs(mass), abs(mass - 4.0), abs(mass - 8.0)) < 1e-9:
        raise NoReference(f"bhz2d is gapless at m={mass}")
    return -1 if 0.0 < mass < 8.0 else 1


def layered3d_parity(m: float, tz: float) -> int:
    return _bhz_nu(m + tz) * _bhz_nu(m - tz)


def dirac_s3_parity(mass: float) -> int:
    if min(abs(mass), abs(mass + 2.0)) < 1e-9:
        raise NoReference(f"dirac_s3 is gapless at mass={mass}")
    return -1 if -2.0 < mass < 0.0 else 1


def reference_parity(model: str, params: dict) -> int:
    """Strong Z2 index of a registry model from its closed-form rule."""
    if model == "trivial":
        return 1
    if model == "fkm3d":
        return fkm3d_parity(params.get("dt", 1.0), params.get("t", 1.0))
    if model == "layered3d":
        if params.get("a", 1.0) != 1.0 or params.get("b", 1.0) != 1.0:
            raise NoReference("layered3d rule assumes a = b = 1")
        return layered3d_parity(params.get("m", 2.0), params.get("tz", 0.0))
    if model == "dirac_s3":
        return dirac_s3_parity(params.get("mass", 1.0))
    raise NoReference(f"no reference rule for {model!r}")


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return repr(round(x, 6)) if isinstance(x, float) else str(x)


def invariant(model: str, params: dict, grid: int, routes=None,
              extra=()) -> dict:
    """One `tki invariant` request and what the benchmark expects of it."""
    argv = ["invariant", "--model", model, "--grid", str(grid)]
    if params:
        argv += ["--params",
                 ",".join(f"{k}={_fmt(v)}" for k, v in params.items())]
    if routes is not None:
        argv += ["--methods", ",".join(routes)]
    argv += list(extra)
    if model == "dirac_s3":
        expected_routes = ["s3"]
    else:
        expected_routes = list(routes or DEFAULT_TORUS_ROUTES)
    return {"kind": "invariant", "argv": argv, "model": model,
            "params": dict(params), "routes": expected_routes,
            "reference": reference_parity(model, params)}


def phase_diagram(model: str, pname: str, start: float, step: float,
                  steps: int, grid: int) -> dict:
    """One `tki phase-diagram` request; references are per sweep point."""
    values = [round(start + i * step, 6) for i in range(steps)]
    argv = ["phase-diagram", "--model", model, "--grid", str(grid),
            "--sweep", f"{pname}:{_fmt(values[0])}:{_fmt(values[-1])}:{steps}"]
    return {"kind": "phase-diagram", "argv": argv, "model": model,
            "param": pname, "values": values, "routes": list(SWEEP_ROUTES),
            "references": [reference_parity(model, {pname: v})
                           for v in values]}


# The gauge smoother's cost jumps under parameter changes of 1%: fkm3d at
# 24^3 took 33.9 / 32.2 / 27.9 / 19.8 / 33.7 s at dt = 0.98 / 0.99 / 1.00 /
# 1.01 / 1.02 on a 2-core Xeon, and layered3d at tz = 0.35 +- 0.01 took 7 to
# 23 s, sometimes with all routes answering and sometimes with one.  A seeded
# draw of those parameters makes the spread between seeds larger than any
# change worth detecting, so every model parameter is fixed and the seed only
# orders each workload's requests.  A seeded S^3 mass or WZW probe point would
# also move wzw_resid_max with the seed rather than with the code.
#
# Every request is also kept short (2 to 5 s on that host), so that a run
# repeats each one several times and reports per-request medians: on a shared
# 2-core host the speed of one identical 0.2 s kernel drifts by +-15% over
# seconds and by up to 30% over minutes, and a run that times each request
# once measures that drift rather than the code.

def _shuffled(rng: random.Random, requests: list) -> list:
    rng.shuffle(requests)
    return requests


def _gauge(rng: random.Random) -> list:
    return _shuffled(rng, [
        # 24^3 is the smallest grid that takes the multiscale seed: a 12^3
        # level seeded by transport, prolonged and relaxed at 24^3; every
        # route answers
        invariant("fkm3d", {"dt": 0.5}, 24),
        # a sweep below the multiscale size: transport seeds and every
        # anneal trial; at dt = 1.5 the gauge stays rough and the pfaffian
        # and wzw cells are nan even under the sweep's relaxed 0.75 gate, at
        # dt = 3.5 all three routes answer
        phase_diagram("fkm3d", "dt", 1.5, 2.0, 2, 8),
    ])


def _routes16(rng: random.Random, grid: int = 16, s3_mesh: int = 32) -> list:
    return _shuffled(rng, [
        invariant("trivial", {"d": 3, "m": 2}, grid, ALL_TORUS_ROUTES),
        invariant("trivial", {"d": 3, "m": 4}, grid, ALL_TORUS_ROUTES),
        # the middle of the topological interval (-2, 0), away from both
        # gap closings; for mass > 0 the S^3 integral is exactly 0
        invariant("dirac_s3", {"mass": -1.0}, s3_mesh),
    ])


WORKLOADS = {
    "gauge": _gauge,
    "routes16": _routes16,
}

# tiny versions of each workload for the benchmark's own smoke test; they
# keep every layer the full workload reaches
SMOKE = {
    "gauge": lambda rng: [
        invariant("trivial", {"d": 3, "m": 2}, 12),
        phase_diagram("fkm3d", "dt", 2.5 + rng.uniform(-0.05, 0.05), 1.0,
                      2, 8)],
    "routes16": lambda rng: [
        invariant("trivial", {"d": 3, "m": 2}, 12, ALL_TORUS_ROUTES),
        invariant("dirac_s3", {"mass": rng.uniform(-1.1, -0.9)}, 24)],
}


def generate(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's requests, as a function of the seed alone."""
    table = SMOKE if smoke else WORKLOADS
    if workload not in table:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choices: {sorted(table)}")
    rng = random.Random(f"{workload}:{seed}")
    return table[workload](rng)


def models_of(requests: list) -> list:
    """(name, params, check) of every model the requests build, as the CLI
    builds them, for set-up timing."""
    out = []
    for req in requests:
        if req["kind"] == "invariant":
            out.append((req["model"], dict(req["params"]), True))
        else:
            out.extend((req["model"], {req["param"]: v}, False)
                       for v in req["values"])
    return out
