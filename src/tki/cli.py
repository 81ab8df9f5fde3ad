"""Command line front end.

Subcommands
-----------
invariant      compute the Z2 invariant of a model by the routes of `_ROUTES`;
               --stable-output zeroes the report's runtime_ms fields
phase-diagram  sweep one model parameter and tabulate parities (CSV)
localise       dump a localisation descent trace (uniform or sampled density)
validate       run the structural property suite over registry models;
               --seed draws only the --theta-noise perturbation
ingest         validate a sampled-Hamiltonian JSON file and cache it

Exit codes: 0 success, 1 usage or I/O error, 2 two methods answered with
different parities, 3 a non-convergent method or no method answering,
4 validation failure.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
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

# documented tolerance defaults; every entry has a --tol-<name> override
# on the commands that build a model
_TOL_DEFAULTS = {
    # gauge smoothness gate for sewing matrices and Berry connections
    "smoothness": bloch.SMOOTHNESS_LIMIT,
    # spectral gap below which a point is declared gapless
    "gap": bloch.GAP,
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


def _parse_extra_params(extra, names):
    """Accept bare `--name value` pairs as model parameters; the name must
    be in `names`."""
    out = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--") or tok[2:] not in names \
                or i + 1 >= len(extra):
            raise UsageError(f"unrecognized argument {tok!r}")
        try:
            out[tok[2:]] = float(extra[i + 1])
        except ValueError as exc:
            raise UsageError(f"unrecognized argument {tok!r}") from exc
        i += 2
    return out


def _finite(text, what):
    """float(text), refused unless it is a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise UsageError(f"{what} needs a finite number, got {text!r}")
    return value


def _grid_sizes(text):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--grid needs integer sizes, got {text!r}") \
            from exc


def _sphere_grid(text, default):
    """The S^3 mesh of one --grid size, `default` without --grid, as a grid
    of the mesh's shape (`sphere.SphereMesh.cubic`); the s3 route reads
    its first size."""
    sizes = _grid_sizes(text) if text else [default]
    if len(sizes) != 1:
        raise UsageError("--grid takes one size on an S^3 model")
    return BZGrid(3, sphere.SphereMesh.cubic(sizes[0]).shape)


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


def _model_params(args, extra):
    """Model parameters from --params and bare `--name value` pairs; a bare
    option must name a parameter the model declares."""
    params = _parse_params((args.params or "").split(","))
    names = models.parameter_names(args.model)
    if args.model == "trivial":
        names += ("dim",)  # `_build_model` reads it as d
    params.update(_parse_extra_params(extra, names))
    return params


def _build_model(name, params):
    """A registry or ingested model; each command decides the gap on its
    own grid (`bloch.diagonalize_grid`, or `sphere.dirac_frames` on S^3)."""
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
        if not float(params[k]).is_integer():
            raise UsageError(f"trivial parameter {k!r} must be an integer, "
                             f"got {params[k]!r}")
        params[k] = int(params[k])
    return models.make_model(name, params, check=False)


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, out_path):
    # strict JSON: a non-finite value is a bug, not a report
    _write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
           out_path)


def _tols(args):
    t = dict(_TOL_DEFAULTS)
    for key in t:
        text = getattr(args, "tol_" + key)
        if text is not None:
            v = _finite(text, f"--tol-{key}")  # nan would switch the gate off
            if v < 0:
                raise UsageError(f"--tol-{key} needs a number >= 0, "
                                 f"got {text!r}")
            t[key] = v
    return t


# ---------------------------------------------------------------------------
# routes and the shared computation pipeline
# ---------------------------------------------------------------------------

# Route kernels: each takes the pipeline's products by keyword, uses what it
# needs and returns the route's out dict.  They call the library through its
# modules, so a tracer that rebinds module attributes sees every call.

def _pfaffian(wfield, **_):
    parity, pfs = invariants.km_trim_pfaffian(wfield)
    raw_val = float(np.prod([p.real for p in pfs]))
    return {"parity": parity, "raw": raw_val,
            "residual": abs(abs(raw_val) - 1.0), "pfaffians": pfs}


def _planes(model, grid, raw, **_):
    margin = invariants.plane_flux_margin(raw)
    try:
        if grid.dim == 2:
            parity, raw_val = invariants.km_plane_invariant(raw, model.theta)
            return {"parity": parity, "raw": raw_val, "residual": margin}
        strong, weak, _ = invariants.km_weak_strong(raw, model.theta)
    except invariants.InvariantError as exc:
        exc.residual = margin  # a refusal keeps the margin that explains it
        raise
    return {"parity": strong, "raw": float(strong), "residual": margin,
            "weak": list(weak)}


def _wzw(wfield, **_):
    integral, parity = invariants.km_wzw(wfield)
    return {"parity": parity, "raw": integral,
            "residual": abs(integral - round(integral))}


def _winding(wfield, **_):
    index, parity, _ = invariants.km_winding(wfield)
    return {"parity": parity, "raw": float(index), "residual": 0.0}


def _cs(frames, wfield, tol, **_):
    conn = bloch.quaternionic_average(
        bloch.berry_connection(frames, smoothness_limit=tol["smoothness"]),
        wfield)
    cs, parity, rel = invariants.km_chern_simons(conn, wfield)
    return {"parity": parity, "raw": cs, "residual": rel}


def _localise(wfield, **_):
    # the sampled degree density, localised onto the inversion-fixed nodes
    trace = eqforms.localise(eqforms.sample_wzw(wfield)[0])
    total = sum(trace.fixed_values.values())
    parity, resid = invariants._round_parity(total)
    return {"parity": parity, "raw": float(total), "residual": resid}


def _s3(model, grid, **_):
    out = invariants.km_s3(model, grid.sizes[0])  # mesh: first grid size
    return {"parity": out["parity"], "raw": out["upsilon"],
            "residual": out["residual"]}


# a route's kernel; whether it reads the gauge (the smooth frames and the
# sewing field); whether it runs when --methods is not given; the (domain,
# dim) model kinds it takes
_Route = collections.namedtuple("_Route", "kernel gauge default kinds")
_T2, _T3, _S3 = ("torus", 2), ("torus", 3), ("sphere3", 3)
# every route, in the order --methods defaults list them
_ROUTES = {
    "pfaffian": _Route(_pfaffian, True, True, (_T2, _T3)),
    "planes": _Route(_planes, False, True, (_T2, _T3)),
    "wzw": _Route(_wzw, True, True, (_T3,)),
    "winding": _Route(_winding, True, True, (_T3,)),
    "cs": _Route(_cs, True, False, (_T3,)),
    "localise": _Route(_localise, True, False, (_T3,)),
    "s3": _Route(_s3, False, True, (_S3,)),
}


def _compute_methods(model, grid, methods, tol, stable=False, raw=None):
    """Run the requested methods; returns (outputs dict, statuses set).

    `methods` holds names from `_ROUTES`.  `raw` may carry frames already
    diagonalized on `grid`; a torus model is diagonalized otherwise.  The
    gauge stages run only when a requested route reads them; a failed
    stage refuses every route that reads the gauge.
    """
    outputs = {}
    statuses = set()
    if raw is None and model.domain == "torus":
        raw = bloch.diagonalize_grid(model, grid, gap=tol["gap"])

    frames = wfield = gauge_error = None
    if any(_ROUTES[name].gauge for name in methods):
        try:
            frames, wfield = bloch.gauge_pipeline(
                raw, model.theta, smoothness_limit=tol["smoothness"])
        except bloch.BlochError as exc:
            gauge_error = f"{type(exc).__name__}: {exc}"

    for name in methods:
        route = _ROUTES[name]
        if gauge_error is not None and route.gauge:
            outputs[name] = {"error": gauge_error}
            statuses.add("nonconvergent")
            continue
        t0 = time.perf_counter()
        try:
            out = route.kernel(model=model, grid=grid, tol=tol, raw=raw,
                               frames=frames, wfield=wfield)
        except bloch.GaplessAt:
            raise  # an input error, not a failed route
        except (invariants.InvariantError, bloch.BlochError,
                eqforms.EqformsError) as exc:
            outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}
            if hasattr(exc, "residual"):
                outputs[name]["residual"] = exc.residual
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
    model = _build_model(args.model, _model_params(args, extra))
    tol = _tols(args)
    kind = (model.domain, model.dim)
    if model.domain == "sphere3":
        grid = _sphere_grid(args.grid, invariants.S3_MESH)
    else:
        if args.grid is None:
            raise UsageError("--grid is required for torus models")
        grid = _parse_grid(args.grid, model.dim)
    methods = [m for m in args.methods.split(",") if m] if args.methods \
        else [n for n, r in _ROUTES.items() if r.default and kind in r.kinds]
    if not methods:
        raise UsageError("--methods names no method")
    for m in methods:
        if m not in _ROUTES:
            raise UsageError(f"unknown method {m!r}")
        if kind not in _ROUTES[m].kinds:
            raise UsageError(f"method {m!r} does not apply to a "
                             f"{model.dim}-d {model.domain} model")
    outputs, statuses = _compute_methods(model, grid, methods, tol,
                                         stable=args.stable_output)

    report = invariants.assemble_report(
        {"name": model.name, "params": dict(model.params)}, grid, outputs)
    _emit(report, args.out)
    # a route did not converge, or no route answered (one note per error)
    if "nonconvergent" in statuses or len(report["notes"]) == len(outputs):
        return 3
    if not report["consensus"]:
        return 2
    return 0


def cmd_phase_diagram(args, extra) -> int:
    if not args.sweep:
        raise UsageError("--sweep name:start:stop:steps is required")
    try:
        pname, start, stop, steps = args.sweep.split(":")
        steps = int(steps)
    except ValueError as exc:
        raise UsageError("--sweep must be name:start:stop:steps") from exc
    start, stop = _finite(start, "--sweep start"), _finite(stop, "--sweep stop")
    if steps < 1:
        raise UsageError(f"--sweep needs at least one step, got {steps}")
    base = _model_params(args, extra)
    tol = _tols(args)
    if args.tol_smoothness is None:
        # coarse sweeps prioritise coverage; the plane method is
        # gauge-independent and cross-checks the relaxed gate
        tol["smoothness"] = 0.75
    rows = []
    for value in np.linspace(start, stop, steps):
        model = _build_model(args.model, {**base, pname: float(value)})
        try:
            if model.domain == "sphere3":
                # the s3 parity fills the parity_wzw column
                grid = _sphere_grid(args.grid, invariants.S3_SWEEP_MESH)
                raw, gap, columns = None, 1.0, (None, None, "s3")
            else:
                grid = _parse_grid(args.grid or "16", model.dim)
                raw = bloch.diagonalize_grid(model, grid, gap=tol["gap"])
                gap = float(np.abs(raw.energies).min())
                # a column whose route does not take the model stays nan
                columns = tuple(
                    c if (model.domain, model.dim) in _ROUTES[c].kinds
                    else None for c in ("pfaffian", "planes", "wzw"))
            outputs, _ = _compute_methods(
                model, grid, [c for c in columns if c], tol, stable=True,
                raw=raw)
        except bloch.GaplessAt:
            rows.append((value, 0.0, "nan", "nan", "nan", "false", "true"))
            continue
        parities = [outputs.get(c, {}).get("parity") for c in columns]
        answered = {p for p in parities if p is not None}
        rows.append((value, gap,
                     *("nan" if p is None else str(p) for p in parities),
                     "true" if len(answered) == 1 else "false", "false"))
    lines = ["param,gap,parity_pfaffian,parity_planes,parity_wzw,"
             "consensus,gapless"]
    for r in rows:
        lines.append(f"{r[0]:.10g},{r[1]:.10g},{r[2]},{r[3]},{r[4]},"
                     f"{r[5]},{r[6]}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_localise(args, extra) -> int:
    form = args.form or "wzw"
    if form.startswith("uniform:"):
        if args.model or args.params or extra:
            raise UsageError("--form uniform:<v> takes no model or model "
                             "parameters")
        upsilon = _finite(form.split(":", 1)[1], "--form uniform:<v>")
        grid = _parse_grid(args.grid or "32", 3)
        dens = np.full(grid.sizes, upsilon / np.prod(grid.sizes))
        coch, discarded = eqforms.Cochain.from_density(grid, dens), 0.0
    elif form == "wzw":
        tol = _tols(args)
        model = _build_model(args.model, _model_params(args, extra))
        if model.domain != "torus" or model.dim != 3:
            raise UsageError("--form wzw needs a 3-d torus model")
        grid = _parse_grid(args.grid or "32", 3)
        raw = bloch.diagonalize_grid(model, grid, gap=tol["gap"])
        _, wfield = bloch.gauge_pipeline(
            raw, model.theta, smoothness_limit=tol["smoothness"])
        coch, discarded = eqforms.sample_wzw(wfield)
    else:
        raise UsageError("--form must be uniform:<v> or wzw")
    trace = eqforms.localise(coch)
    doc = trace.as_dict()
    doc["discarded_symmetric_part"] = discarded
    code = 0
    try:
        doc["parity"], doc["parity_residual"] = invariants._round_parity(
            sum(trace.fixed_values.values()))
    except invariants.NonConvergent as exc:
        doc["parity"] = None
        doc["notes"] = [str(exc)]
        code = 3
    _emit(doc, args.out)
    return code


def _validate_suite(seed, noise):
    """Structural property checks on registry models at small grids."""
    rng = np.random.default_rng(seed)
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
            pert = noise * rng.standard_normal(
                (model.n_bands, model.n_bands))
            pert = pert + pert.T  # Hermitian, generically breaks TR
            model = dataclasses.replace(
                model, _batch=lambda K, p=pert, f=model._batch: f(K) + p)
        grid = BZGrid.cubic(dim, 16)
        rep = models.validate_model(model, grid)
        record(f"{name}: time-reversal relation", rep["tr_residual"], 1e-8)
        record(f"{name}: Kramers pairing", 0.0 if rep["kramers_ok"] else 1.0,
               1e-9)
        try:  # a perturbation that closes the gap fails a check here
            raw = bloch.diagonalize_grid(model, grid)
            worst_c = max(abs(c) + r for c, r
                          in bloch.plane_chern_numbers(raw).values())
            record(f"{name}: invariant-plane Chern numbers vanish", worst_c,
                   1e-6)
            _, w = bloch.gauge_pipeline(raw, model.theta,
                                        smoothness_limit=1.0)
            record(f"{name}: sewing construction",
                   max(w.residuals().values()), 1e-8)
        except bloch.BlochError as exc:  # no residual: null, not Infinity
            checks.append({"property": f"{name}: sewing construction",
                           "residual": None, "tolerance": 1e-8, "ok": False,
                           "error": f"{type(exc).__name__}: {exc}"})
    return checks


def cmd_validate(args, extra) -> int:
    if extra:
        raise UsageError(f"unrecognized arguments {extra}")
    noise = _finite(args.theta_noise, "--theta-noise")
    try:
        seed = int(args.seed)
    except ValueError:
        seed = -1
    if seed < 0:
        raise UsageError(f"--seed needs an integer >= 0, got {args.seed!r}")
    checks = _validate_suite(seed, noise)
    ok = all(c["ok"] for c in checks)
    doc = {"ok": ok, "seed": seed, "checks": checks}
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

@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was."""
    p = argparse.ArgumentParser(
        prog="tki", allow_abbrev=False,
        description="Z2 invariants of time-reversal symmetric band models")
    sub = p.add_subparsers(dest="command")

    def model_command(name, func, help):
        """A subcommand that builds a model, with the options it reads."""
        sp = sub.add_parser(name, allow_abbrev=False, help=help)
        sp.add_argument("--model")
        sp.add_argument("--params", default="")
        sp.add_argument("--grid")
        sp.add_argument("--out")
        for key, default in _TOL_DEFAULTS.items():
            sp.add_argument(f"--tol-{key}", default=None,
                            help=f"override tolerance (default {default})")
        sp.set_defaults(func=func)
        return sp

    sp = model_command("invariant", cmd_invariant, "compute the invariant")
    sp.add_argument("--methods")
    sp.add_argument("--stable-output", action="store_true",
                    help="zero the runtime_ms fields of the report")
    sp = model_command("phase-diagram", cmd_phase_diagram, "sweep a parameter")
    sp.add_argument("--sweep", help="name:start:stop:steps")
    sp = model_command("localise", cmd_localise, "dump a localisation trace")
    sp.add_argument("--form", help="uniform:<v> or wzw")

    sp = sub.add_parser("validate", allow_abbrev=False, help="run the property suite")
    sp.add_argument("--out")
    sp.add_argument("--seed", default=0)
    sp.add_argument("--theta-noise", default=0.0,
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
    try:
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
