"""Span recording around the public functions of tki's layers.

The tracer replaces each target function by a wrapper that records one span
per call: name, request, self time (the span's time minus the time of its
child spans), whether it raised, and a work count taken from the argument
shapes.  Spans are kept in memory.

``tki`` modules import several of these functions by name (``invariants``,
``eqforms`` and ``sphere`` bind ``wzw_density``, the linalg kernels and
``_polar`` into their own namespaces), so a wrapper installed only on the
defining module would miss those calls.  ``install`` therefore replaces the
function in every loaded ``tki`` module whose namespace holds it.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    request: int
    self_s: float
    error: bool
    nodes: int


def _grid_nodes(grid) -> int:
    n = 1
    for size in grid.sizes:
        n *= int(size)
    return n


def _nodes_of(pos: int, name: str, grid_attr: bool):
    """Work count: grid nodes of the argument at `pos` (or keyword `name`),
    taken from its `.grid` when `grid_attr`."""
    def count(args, kwargs):
        arg = args[pos] if len(args) > pos else kwargs[name]
        return _grid_nodes(arg.grid if grid_attr else arg)
    return count


# work counts from argument shapes
NODE_COUNTS = {
    "bloch.diagonalize_grid": _nodes_of(1, "grid", False),
    "bloch.smooth_gauge": _nodes_of(0, "raw", True),
    "bloch.wzw_density": _nodes_of(0, "wfield", True),
}

# traced functions, by layer; "Class.attr" names a property
TARGETS = {
    "models": ("make_model",),
    "bloch": ("diagonalize_grid", "plane_chern_numbers", "smooth_gauge",
              "FrameField.smoothness", "sewing_field", "su_reduce",
              "berry_connection", "quaternionic_average",
              "maurer_cartan_links", "wzw_density"),
    "invariants": ("km_trim_pfaffian", "km_weak_strong", "km_plane_invariant",
                   "km_wzw", "km_winding", "km_chern_simons", "km_s3",
                   "assemble_report"),
    "eqforms": ("sample_wzw", "localise"),
    "sphere": ("sphere_frames", "sphere_sewing", "sphere_wzw_density",
               "hemisphere_descent"),
    "linalg": ("pfaffian", "polar_unitary", "batched_polar_unitary",
               "kramers_canonical", "phase_continue"),
    "cli": ("main",),
}

# targets whose contract is to raise typed errors; they report `.errors`
RAISING = {
    "models.make_model", "bloch.diagonalize_grid", "bloch.smooth_gauge",
    "bloch.sewing_field", "bloch.su_reduce", "bloch.berry_connection",
    "bloch.quaternionic_average", "bloch.wzw_density",
    "invariants.km_trim_pfaffian", "invariants.km_weak_strong",
    "invariants.km_plane_invariant", "invariants.km_wzw",
    "invariants.km_winding", "invariants.km_chern_simons", "invariants.km_s3",
    "eqforms.sample_wzw", "eqforms.localise", "sphere.sphere_frames",
    "linalg.pfaffian", "linalg.polar_unitary",
}


def target_names() -> list:
    return [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]


class Tracer:
    """In-memory span recorder.  Single-threaded: spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[float] = []   # child time of each open span
        self._restore: list = []

    def wrap(self, name: str, fn):
        nodes_of = NODE_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nodes = nodes_of(args, kwargs) if nodes_of else 0
            self._stack.append(0.0)
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                child_s = self._stack.pop()
                if self._stack:
                    self._stack[-1] += end - start
                self.spans.append(Span(name, self.request,
                                       end - start - child_s, error, nodes))

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded module of the tki package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "tki"
                                         or key.startswith("tki."))]
        for layer, fns in TARGETS.items():
            home = sys.modules[f"tki.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(home, cls_name)
                    prop = cls.__dict__[attr]
                    setattr(cls, attr, property(self.wrap(name, prop.fget)))
                    self._restore.append((cls, attr, prop))
                    continue
                orig = getattr(home, fn)
                wrapper = self.wrap(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from spans: calls, self time, errors, work counts."""
    out = {}
    for name in target_names():
        mine = [s for s in spans if s.name == name]
        out[f"{name}.calls"] = (len(mine), "count")
        out[f"{name}.self_s"] = (sum(s.self_s for s in mine), "s")
        if name in RAISING:
            out[f"{name}.errors"] = (sum(s.error for s in mine), "count")
        if name in NODE_COUNTS:
            out[f"{name}.nodes"] = (sum(s.nodes for s in mine), "count")
    gauges = out["bloch.smooth_gauge.calls"][0]
    sewn = sum(1 for s in spans if s.name == "bloch.sewing_field"
               and not s.error)
    out["bloch.gauge_useful_ratio"] = (sewn / gauges if gauges else 0.0,
                                       "ratio")
    return out


def calls_per_request(spans: list, name: str) -> dict:
    counts: dict = {}
    for s in spans:
        if s.name == name:
            counts[s.request] = counts.get(s.request, 0) + 1
    return counts
