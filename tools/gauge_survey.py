"""Survey the gauge smoother on a fixed list of gauges, one line each: the
gauge's name, its grid, the end deficiency (the largest link deficiency
||u(k)+ u(k + e_a) - 1|| of the smoothed frames), the number of hot links
(deficiency above 0.7) and the seconds the smoother took.

Each gauge is a registry model, or a direct sum of two, diagonalised on a
cubic grid; `tki.bloch._smooth_frames` then runs on the raw frames, as
`smooth_gauge` runs it, but without its Chern check and its gates, so a
gauge that a request would refuse still prints its end state.  The list
holds hard gauges of the smoother (near gap closings, vortex lines, tied
coarse seeds) and a four-band sum, which takes the m > 2 kernels.

Usage: PYTHONPATH=src python3 tools/gauge_survey.py [name ...]
       (default: every gauge in SURVEY; a name selects the gauges whose
       name it equals)
"""

from __future__ import annotations

import sys
import time

import numpy as np

from tki import bloch, models
from tki.grids import BZGrid

# name, summands (registry family, parameters), grid size per axis
SURVEY = [
    ("fkm3d dt=-0.1", [("fkm3d", {"dt": -0.1})], 24),
    ("fkm3d dt=-0.3", [("fkm3d", {"dt": -0.3})], 24),
    ("fkm3d dt=1.75", [("fkm3d", {"dt": 1.75})], 24),
    ("fkm3d dt=1.5", [("fkm3d", {"dt": 1.5})], 8),
    ("layered3d m=1 tz=0.25", [("layered3d", {"m": 1.0, "tz": 0.25})], 24),
    ("bhz2d m=0.3", [("bhz2d", {"m": 0.3})], 24),
    ("fkm3d dt=1.0", [("fkm3d", {"dt": 1.0})], 32),
    ("fkm3d dt=0.5 + fkm3d dt=3.0",
     [("fkm3d", {"dt": 0.5}), ("fkm3d", {"dt": 3.0})], 16),
    ("fkm3d dt=0.5 + fkm3d dt=3.0",
     [("fkm3d", {"dt": 0.5}), ("fkm3d", {"dt": 3.0})], 24),
]

HOT = 0.7


def build(summands) -> models.BlochModel:
    """The registry model, or the direct sum of the summands in order."""
    parts = [models.make_model(family, params, check=False)
             for family, params in summands]
    model = parts[0]
    for part in parts[1:]:
        model = models.direct_sum(model, part)
    return model


def survey_line(name: str, summands, n: int) -> str:
    """Smooth one gauge and describe its end state in one line."""
    model = build(summands)
    raw = bloch.diagonalize_grid(model, BZGrid.cubic(model.dim, n))
    start = time.perf_counter()
    field = bloch._smooth_frames(raw)
    seconds = time.perf_counter() - start
    hot = int(np.count_nonzero(field.deficiency > HOT))
    grid = f"{n}^{model.dim}"
    return (f"{name:<28} {grid:<5} deficiency {field.smoothness:.4f}"
            f"  hot {hot:>3}  {seconds:7.2f} s")


def main(argv: list) -> int:
    known = {name for name, _, _ in SURVEY}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown gauge(s) {unknown}; choices: {sorted(known)}",
              file=sys.stderr)
        return 1
    for name, summands, n in SURVEY:
        if not argv or name in argv:
            print(survey_line(name, summands, n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
