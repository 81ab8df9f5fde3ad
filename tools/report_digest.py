"""Print a digest of CLI reports, one line per request: the exit code, the
md5 of stdout and the md5 of stderr, then the request's argv.

Every request runs in-process through `tki.cli.main`.  Run the script once
with each checkout's `src` on the path and diff the two outputs to see
which reports a change moved:

    PYTHONPATH=src python3 tools/report_digest.py              # default list
    PYTHONPATH=src python3 tools/report_digest.py invariant --model bhz2d \
        --m -1 --grid 12 --stable-output                       # one request

The default list is the benchmark's requests
(`perfbench.workloads.generate(name, 0)` for every workload), every argv in
`tests/golden/reports.json`, two dispersive torus requests with every
route, three single-route requests, three gapless requests, two
requests that show the time-reversal fill of `bloch.diagonalize_grid`,
two 2-d `trivial` requests whose frames do not depend on k and `validate`
on its defaults.  An
`invariant` request without `--stable-output` gets it, so its report holds
no timings.  Uses the standard library and `tki` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

ROUTES = "pfaffian,planes,wzw,winding,cs,localise"
DISPERSIVE = [
    ["invariant", "--model", "fkm3d", "--dt", "1.0", "--grid", "16",
     "--methods", ROUTES],
    ["invariant", "--model", "layered3d", "--m", "2", "--tz", "0.5",
     "--grid", "16", "--methods", ROUTES],
]
# the S^3 mesh of a --grid that is no multiple of 4, the planes route
# alone on a 2-d model, and an S^3 sweep on its default mesh
SINGLE_ROUTE = [
    ["invariant", "--model", "dirac_s3", "--mass", "-1", "--grid", "10"],
    ["invariant", "--model", "bhz2d", "--m", "1", "--grid", "16",
     "--methods", "planes"],
    ["phase-diagram", "--model", "dirac_s3", "--sweep", "mass:-1:1:2"],
]
GAPLESS = [
    ["invariant", "--model", "bhz2d", "--m", "0", "--grid", "16"],
    ["invariant", "--model", "dirac_s3", "--mass", "-2", "--grid", "16"],
    ["localise", "--model", "fkm3d", "--dt", "0", "--form", "wzw",
     "--grid", "16"],
]

# the frames off the diagonalised slab are time-reversal images: a gauge
# whose 0.5 gate is decided by which tied coarse seed wins, and a model
# whose time reversal is broken on purpose
TR_FILL = [
    ["invariant", "--model", "bhz2d", "--m", "0.3", "--grid", "24"],
    ["validate", "--seed", "3", "--theta-noise", "0.05"],
]

# k-independent frames on a 2-d grid: the one-node eigensolve, plane flux
# and ring gauge of the planes route, and the one-node sewing residuals
TRIVIAL_2D = [
    ["invariant", "--model", "trivial", "--dim", "2", "--m", str(m),
     "--grid", "12", "--methods", "pfaffian,planes", "--stable-output"]
    for m in (2, 4)]

# the structural suite on its defaults (seed 0, no noise): three gauges
# whose sewing check reads the sewing residuals alone
VALIDATE = [["validate"]]


def default_requests() -> list:
    """The benchmark's requests, the golden argvs, `DISPERSIVE`,
    `SINGLE_ROUTE`, `GAPLESS`, `TR_FILL`, `TRIVIAL_2D` and `VALIDATE`, each
    once, in that order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    argvs = [req["argv"] for name in sorted(workloads.WORKLOADS)
             for req in workloads.generate(name, 0)]
    golden = json.loads((ROOT / "tests" / "golden" / "reports.json")
                        .read_text(encoding="utf-8"))
    argvs += ([entry["argv"] for entry in golden.values()] + DISPERSIVE
              + SINGLE_ROUTE + GAPLESS + TR_FILL + TRIVIAL_2D + VALIDATE)
    out = []
    for argv in argvs:
        if argv not in out:
            out.append(list(argv))
    return out


def digest(argv) -> str:
    """`<exit> <stdout md5> <stderr md5> <argv>` of one request."""
    from tki import cli
    argv = list(argv)
    if argv[0] == "invariant" and "--stable-output" not in argv:
        argv.append("--stable-output")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return " ".join([str(code)]
                    + [hashlib.md5(s.getvalue().encode()).hexdigest()
                       for s in (out, err)] + argv)


def main(args) -> int:
    for argv in [args] if args else default_requests():
        print(digest(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
