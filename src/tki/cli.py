"""Command line front end.

Subcommands
-----------
invariant      compute the Z2 invariant of a model by one or more methods
phase-diagram  sweep one model parameter and tabulate parities (CSV)
localise       dump a localisation descent trace (uniform or sampled density)
validate       run the structural property suite over registry models
ingest         validate a sampled-Hamiltonian JSON file and cache it

Exit codes: 0 success, 1 usage or I/O error, 2 method disagreement,
3 non-convergent method, 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import models, bloch, eqforms, invariants, sphere
from .grids import BZGrid, GridError


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

_METHODS = ("pfaffian", "planes", "wzw", "winding", "cs", "s3", "localise")

# documented tolerance defaults; every entry has a --tol-<name> override
_TOL_DEFAULTS = {
    # gauge smoothness gate for sewing matrices and Berry connections
    "smoothness": 0.5,
    # sewing-field link gate for the sampled degree density.  The library
    # default is 0.3; the command line raises it because the gate measures
    # the intrinsic link scale of the gauge (~ a constant / N), which
    # exceeds 0.3 on every practical grid for band-inverted models.
    "sample-smoothness": 1.0,
    # maximum distance from the nearest admissible lattice point when
    # rounding a raw value to a parity
    "round": 0.25,
    # spectral gap below which a point is declared gapless
    "gap": 1e-8,
}


def _parse_params(parts):
    out = {}
    for part in parts:
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad parameter assignment {part!r}")
        k, v = part.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError as exc:
            raise UsageError(f"parameter {k!r} has non-numeric value {v!r}") \
                from exc
    return out


def _parse_extra_params(extra):
    """Accept bare `--name value` pairs as model parameters."""
    out = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--") or i + 1 >= len(extra):
            raise UsageError(f"unrecognized argument {tok!r}")
        try:
            out[tok[2:]] = float(extra[i + 1])
        except ValueError as exc:
            raise UsageError(f"unrecognized argument {tok!r}") from exc
        i += 2
    return out


def _grid_sizes(text):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--grid needs integer sizes, got {text!r}") \
            from exc


def _sphere_mesh(text, default):
    """S^3 mesh size: the first --grid size, or `default` without --grid."""
    return _grid_sizes(text)[0] if text else default


def _parse_grid(text, dim):
    parts = _grid_sizes(text)
    if len(parts) == 1:
        parts = parts * dim
    if len(parts) != dim:
        raise UsageError(f"--grid needs 1 or {dim} sizes")
    for n in parts:
        if n < 8 or n % 2:
            raise UsageError("grid sizes must be even and >= 8")
    return BZGrid(dim, tuple(parts))


def _build_model(args, extra):
    params = _parse_params((args.params or "").split(","))
    params.update(_parse_extra_params(extra))
    name = args.model
    if name is None:
        raise UsageError("--model is required")
    if name.endswith(".json") or os.path.sep in name:
        if params:
            raise UsageError("ingested models take no --params")
        return models.ingest_sampled(name)
    if name == "trivial" and "dim" in params:
        params["d"] = params.pop("dim")
    intlike = {"d", "m"} if name == "trivial" else set()
    for k in intlike & set(params):
        params[k] = int(params[k])
    return models.make_model(name, params)


def _set_threads(args):
    n = args.threads or os.environ.get("TKI_THREADS")
    if not n:
        return
    try:
        from threadpoolctl import threadpool_limits
        threadpool_limits(limits=int(n))
    except ImportError:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(int(n))


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tols(args):
    t = dict(_TOL_DEFAULTS)
    for key in t:
        v = getattr(args, "tol_" + key.replace("-", "_"), None)
        if v is not None:
            t[key] = v
    return t


# ---------------------------------------------------------------------------
# shared computation pipeline
# ---------------------------------------------------------------------------

def _compute_methods(model, grid, methods, tol, stable=False, raw=None):
    """Run the requested methods; returns (outputs dict, statuses set).

    `raw` may carry frames already diagonalized on `grid`.  The torus
    stages run only for torus routes; the s3 route takes its mesh size from
    the first grid size.
    """
    outputs = {}
    statuses = set()
    if raw is None and set(methods) - {"s3"}:
        raw = bloch.diagonalize_grid(model, grid, gap=tol["gap"])

    needs_gauge = {"pfaffian", "wzw", "winding", "cs", "localise"} \
        & set(methods)
    frames = wred = wfield = None
    gauge_error = None
    if needs_gauge:
        try:
            frames, wfield, wred = bloch.gauge_pipeline(
                raw, model.theta, smoothness_limit=tol["smoothness"])
        except bloch.BlochError as exc:
            gauge_error = f"{type(exc).__name__}: {exc}"

    for name in methods:
        if gauge_error is not None and name in needs_gauge:
            outputs[name] = {"error": gauge_error}
            statuses.add("nonconvergent")
            continue
        t0 = time.perf_counter()
        try:
            if name == "pfaffian":
                if grid.dim == 2:
                    parity, _ = invariants.km_plane_pfaffian(wred)
                    out = {"parity": parity, "raw": float(parity),
                           "residual": 0.0}
                else:
                    parity, pfs = invariants.km_trim_pfaffian(wred)
                    raw_val = float(np.prod([p.real for p in pfs]))
                    out = {"parity": parity, "raw": raw_val,
                           "residual": abs(abs(raw_val) - 1.0),
                           "pfaffians": pfs}
            elif name == "planes":
                if grid.dim == 2:
                    parity, raw_val = invariants.km_plane_invariant(
                        raw, model.theta)
                    out = {"parity": parity, "raw": raw_val,
                           "residual": abs(raw_val - round(raw_val))}
                else:
                    strong, weak, nu = invariants.km_weak_strong(
                        raw, model.theta)
                    out = {"parity": strong, "raw": float(strong),
                           "residual": 0.0, "weak": list(weak)}
            elif name == "wzw":
                integral, parity = invariants.km_wzw(wred)
                out = {"parity": parity, "raw": integral,
                       "residual": abs(integral - round(integral))}
            elif name == "winding":
                index, parity, _ = invariants.km_winding(wred)
                out = {"parity": parity, "raw": float(index),
                       "residual": 0.0}
            elif name == "cs":
                conn = bloch.quaternionic_average(
                    bloch.berry_connection(
                        frames, smoothness_limit=tol["smoothness"]),
                    wfield)
                cs, parity, rel = invariants.km_chern_simons(conn, wred)
                out = {"parity": parity, "raw": cs, "residual": rel}
            elif name == "localise":
                coch, discarded = eqforms.sample_wzw(
                    wred, smoothness_limit=tol["sample-smoothness"])
                trace = eqforms.localise(coch)
                total = sum(trace.fixed_values.values())
                parity, resid = invariants._round_parity(
                    total, slack=tol["round"])
                out = {"parity": parity, "raw": float(total),
                       "residual": resid, "discarded": discarded}
            elif name == "s3":
                out = invariants.km_s3(model, grid.sizes[0])
                out = {"parity": out["parity"], "raw": out["upsilon"],
                       "residual": out["residual"],
                       "rho0_N": out["rho0_N"], "rho0_S": out["rho0_S"]}
            else:
                raise UsageError(f"unknown method {name!r}")
        except bloch.GaplessAt:
            raise  # an input error, not a failed route
        except (invariants.InvariantError, bloch.BlochError,
                eqforms.EqformsError) as exc:
            outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}
            statuses.add("nonconvergent"
                         if isinstance(exc, invariants.NonConvergent)
                         else "failed")
            continue
        out["runtime_ms"] = 0.0 if stable \
            else (time.perf_counter() - t0) * 1e3
        outputs[name] = out
    return outputs, statuses


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_invariant(args, extra) -> int:
    model = _build_model(args, extra)
    tol = _tols(args)
    if model.domain == "sphere3":
        # the s3 route's angular mesh size, taken from --grid
        grid = BZGrid.cubic(3, _sphere_mesh(args.grid, 48))
        default = "s3"
    else:
        if args.grid is None:
            raise UsageError("--grid is required for torus models")
        grid = _parse_grid(args.grid, model.dim)
        default = "pfaffian,planes,wzw,winding" if model.dim == 3 \
            else "pfaffian,planes"
    methods = [m for m in (args.methods or default).split(",") if m]
    for m in methods:
        if m not in _METHODS:
            raise UsageError(f"unknown method {m!r}")
        if (m == "s3") != (model.domain == "sphere3"):
            raise UsageError(
                f"method {m!r} does not apply to a {model.domain} model")
    outputs, statuses = _compute_methods(model, grid, methods, tol,
                                         stable=args.stable_output)

    report = invariants.assemble_report(
        {"name": model.name, "params": dict(model.params)}, grid, outputs)
    _emit(report.as_dict(), args.out)
    if "nonconvergent" in statuses:
        return 3
    if not report.consensus:
        return 2
    return 0


def cmd_phase_diagram(args, extra) -> int:
    if not args.sweep:
        raise UsageError("--sweep name:start:stop:steps is required")
    try:
        pname, start, stop, steps = args.sweep.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise UsageError("--sweep must be name:start:stop:steps") from exc
    base = _parse_params((args.params or "").split(","))
    base.update(_parse_extra_params(extra))
    tol = _tols(args)
    if args.tol_smoothness is None:
        # coarse sweeps prioritise coverage; the plane method is
        # gauge-independent and cross-checks the relaxed gate
        tol["smoothness"] = 0.75
    rows = []
    for value in np.linspace(start, stop, steps):
        params = dict(base)
        params[pname] = float(value)
        try:
            model = models.make_model(args.model, params, check=False)
        except models.ModelError as exc:
            raise UsageError(str(exc)) from exc
        if model.domain == "sphere3":
            try:
                s3 = invariants.km_s3(model, _sphere_mesh(args.grid, 24))
                rows.append((value, 1.0, "nan", "nan",
                             str(s3["parity"]), "true", "false"))
            except (bloch.GaplessAt, invariants.NonConvergent):
                rows.append((value, 0.0, "nan", "nan", "nan",
                             "false", "true"))
            continue
        grid = _parse_grid(args.grid or "16", model.dim)
        try:
            raw = bloch.diagonalize_grid(model, grid, gap=tol["gap"])
        except bloch.GaplessAt:
            rows.append((value, 0.0, "nan", "nan", "nan", "false", "true"))
            continue
        gap = float(np.abs(raw.energies).min())
        outputs, _ = _compute_methods(model, grid,
                                      ["pfaffian", "planes", "wzw"], tol,
                                      stable=True, raw=raw)
        cells = []
        parities = []
        for mname in ("pfaffian", "planes", "wzw"):
            o = outputs.get(mname, {})
            if "parity" in o:
                cells.append(str(o["parity"]))
                parities.append(o["parity"])
            else:
                cells.append("nan")
        consensus = "true" if parities and len(set(parities)) == 1 else "false"
        rows.append((value, gap, cells[0], cells[1], cells[2],
                     consensus, "false"))
    lines = ["param,gap,parity_pfaffian,parity_planes,parity_wzw,"
             "consensus,gapless"]
    for r in rows:
        lines.append(f"{r[0]:.10g},{r[1]:.10g},{r[2]},{r[3]},{r[4]},"
                     f"{r[5]},{r[6]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_localise(args, extra) -> int:
    tol = _tols(args)
    form = args.form or "wzw"
    if form.startswith("uniform:"):
        try:
            upsilon = float(form.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError("--form uniform:<number>") from exc
        grid = _parse_grid(args.grid or "32", 3)
        dens = np.full(grid.sizes, upsilon / np.prod(grid.sizes))
        coch = eqforms.Cochain.from_density(grid, dens)
        discarded = 0.0
    elif form == "wzw":
        model = _build_model(args, extra)
        if model.domain != "torus" or model.dim != 3:
            raise UsageError("--form wzw needs a 3-d torus model")
        grid = _parse_grid(args.grid or "32", 3)
        raw = bloch.diagonalize_grid(model, grid, gap=tol["gap"])
        _, _, wred = bloch.gauge_pipeline(
            raw, model.theta, smoothness_limit=tol["smoothness"])
        coch, discarded = eqforms.sample_wzw(
            wred, smoothness_limit=tol["sample-smoothness"])
    else:
        raise UsageError("--form must be uniform:<v> or wzw")
    trace = eqforms.localise(coch)
    total = sum(trace.fixed_values.values())
    doc = trace.as_dict()
    doc["discarded_symmetric_part"] = discarded
    try:
        parity, resid = invariants._round_parity(total, slack=tol["round"])
        doc["parity"] = parity
        doc["parity_residual"] = resid
    except invariants.NonConvergent as exc:
        doc["parity"] = None
        doc["notes"] = [str(exc)]
        _emit(doc, args.out)
        return 3
    _emit(doc, args.out)
    return 0


def _validate_suite(args):
    """Structural property checks on registry models at small grids."""
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    noise = getattr(args, "theta_noise", 0.0) or 0.0
    checks = []

    def record(name, residual, tolr):
        checks.append({"property": name, "residual": float(residual),
                       "tolerance": tolr, "ok": bool(residual <= tolr)})

    cases = [("trivial", {"d": 3, "m": 2}, 3),
             ("bhz2d", {}, 2),
             ("fkm3d", {"dt": 1.0}, 3)]
    for name, params, dim in cases:
        model = models.make_model(name, params, check=False)
        if noise:
            base = model
            pert = noise * rng.standard_normal(
                (base.n_bands, base.n_bands))
            pert = pert + pert.T  # Hermitian, generically breaks TR
            orig_batch = base._batch
            model = models.BlochModel(
                base.name, base.domain, base.dim, base.n_bands, base.n_occ,
                base.theta, base.params,
                lambda K, p=pert, f=orig_batch: f(K) + p)
        grid = BZGrid.cubic(dim, 16)
        rep = models.validate_model(model, grid)
        record(f"{name}: time-reversal relation", rep["tr_residual"], 1e-8)
        record(f"{name}: spectral gap open", 1e-8 if rep["min_gap"] > 1e-8
               else 1.0, 1e-8)
        record(f"{name}: Kramers pairing", 0.0 if rep["kramers_ok"] else 1.0,
               1e-9)
        raw = bloch.diagonalize_grid(model, grid)
        worst_c = max(abs(c) + r for c, r
                      in bloch.plane_chern_numbers(raw).values())
        record(f"{name}: invariant-plane Chern numbers vanish", worst_c, 1e-6)
        try:
            frames = bloch.smooth_gauge(raw)
            w = bloch.sewing_field(frames, model.theta, smoothness_limit=1.0)
            res = w.residuals()
            record(f"{name}: sewing unitarity", res["unitarity"], 1e-8)
            record(f"{name}: sewing involution relation",
                   res["involution"], 1e-8)
            record(f"{name}: fixed-node skewness", res["trim_skew"], 1e-8)
        except bloch.BlochError as exc:
            checks.append({"property": f"{name}: sewing construction",
                           "residual": float("inf"), "tolerance": 0.0,
                           "ok": False, "error": str(exc)})

    # cochain calculus properties on a random seed-determined field
    g3 = BZGrid.cubic(3, 16)
    c0 = eqforms.Cochain(g3, 0, rng.standard_normal((1,) + g3.sizes))
    record("cochain: d(d(f)) = 0",
           np.abs(eqforms.d(eqforms.d(c0)).values).max(), 1e-12)
    ct = eqforms.Cochain.from_density(g3, rng.standard_normal(g3.sizes))
    pb2 = eqforms.involution_pullback(eqforms.involution_pullback(ct))
    record("cochain: pullback is involutive",
           np.abs(pb2.values - ct.values).max(), 0.0)
    record("cochain: top integral is inversion-odd",
           abs(eqforms.integrate(eqforms.involution_pullback(ct))
               + eqforms.integrate(ct)), 1e-9)
    _, minus = eqforms.project_pm(ct)
    tr = eqforms.localise(minus)
    record("descent: fixed values sum to the integral",
           abs(sum(tr.fixed_values.values()) - tr.total)
           / max(minus.norm1(), 1.0), 1e-9)
    return checks


def cmd_validate(args, extra) -> int:
    if extra:
        raise UsageError(f"unrecognized arguments {extra}")
    checks = _validate_suite(args)
    ok = all(c["ok"] for c in checks)
    doc = {"ok": ok, "seed": args.seed if args.seed is not None else 0,
           "checks": checks}
    _emit(doc, args.out)
    return 0 if ok else 4


def cmd_ingest(args, extra) -> int:
    if extra:
        raise UsageError(f"unrecognized arguments {extra}")
    path = args.path
    model = models.ingest_sampled(path)
    cache = models.export_sampled(model, model.params["sizes"])
    out = os.path.splitext(path)[0] + ".normalized.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(cache, fh, sort_keys=True)
        fh.write("\n")
    _emit({"ok": True, "n_bands": model.n_bands, "n_occ": model.n_occ,
           "dim": model.dim, "cache": out}, args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="tki", allow_abbrev=False,
        description="Z2 invariants of time-reversal symmetric band models")
    sub = p.add_subparsers(dest="command")

    def common(sp, model=True):
        if model:
            sp.add_argument("--model")
            sp.add_argument("--params", default="")
        sp.add_argument("--grid")
        sp.add_argument("--out")
        sp.add_argument("--threads", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--stable-output", action="store_true",
                        help="zero out timing fields for byte-stable output")
        for key, default in _TOL_DEFAULTS.items():
            sp.add_argument(f"--tol-{key}", type=float, default=None,
                            help=f"override tolerance (default {default})")

    sp = sub.add_parser("invariant", allow_abbrev=False, help="compute the invariant")
    common(sp)
    sp.add_argument("--methods")
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("phase-diagram", allow_abbrev=False, help="sweep a parameter")
    common(sp)
    sp.add_argument("--sweep", help="name:start:stop:steps")
    sp.set_defaults(func=cmd_phase_diagram)

    sp = sub.add_parser("localise", allow_abbrev=False, help="dump a localisation trace")
    common(sp)
    sp.add_argument("--form", help="uniform:<v> or wzw")
    sp.set_defaults(func=cmd_localise)

    sp = sub.add_parser("validate", allow_abbrev=False, help="run the property suite")
    common(sp, model=False)
    sp.add_argument("--theta-noise", type=float, default=0.0,
                    help="inject a time-reversal-breaking perturbation "
                         "(negative testing)")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("ingest", allow_abbrev=False, help="validate a sampled-Hamiltonian file")
    sp.add_argument("path")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_ingest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 1
    if not hasattr(args, "stable_output"):
        args.stable_output = False
    try:
        _set_threads(args) if hasattr(args, "threads") else None
        return args.func(args, extra)
    except (UsageError, models.ModelError, sphere.SphereError, GridError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except bloch.GaplessAt as exc:
        print(f"error: model is gapless on this grid: {exc}", file=sys.stderr)
        return 1
    except bloch.BlochError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
