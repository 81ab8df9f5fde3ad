"""Golden-report guard: fixed CLI requests must keep their reports.

`golden/reports.json` maps a request name to its argv, exit code and report:
parsed JSON, or the CSV text of a phase diagram.  Exit codes, keys, strings
(CSV text among them) and integers (parities among them) must match exactly,
floats within 1e-12.  After a change that alters a report on
purpose, rewrite the entries it moved with

    PYTHONPATH=src python3 tests/test_reports.py --write NAME [NAME ...]

which re-runs only the named requests and keeps every other entry byte for
byte; `--write` alone rewrites the whole file.  Say in CHANGES.md which
fields moved and why.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

from tki import cli

GOLDEN = pathlib.Path(__file__).with_name("golden") / "reports.json"
ROUTES = "pfaffian,planes,wzw,winding,cs,localise"
REQUESTS = {
    "trivial_m2_12": ["invariant", "--model", "trivial", "--dim", "3",
                      "--m", "2", "--grid", "12", "--methods", ROUTES,
                      "--stable-output"],
    "trivial_m4_12": ["invariant", "--model", "trivial", "--dim", "3",
                      "--m", "4", "--grid", "12", "--methods", ROUTES,
                      "--stable-output"],
    "bhz2d_m-1_12": ["invariant", "--model", "bhz2d", "--m", "-1",
                     "--grid", "12", "--stable-output"],
    "dirac_s3_mass-1_16": ["invariant", "--model", "dirac_s3", "--mass", "-1",
                           "--grid", "16", "--stable-output"],
    "localise_uniform3": ["localise", "--form", "uniform:3"],
    "localise_fkm3d_dt0.5_24": ["localise", "--model", "fkm3d", "--dt", "0.5",
                                "--form", "wzw", "--grid", "24"],
    "phase_bhz2d_m_12": ["phase-diagram", "--model", "bhz2d",
                         "--sweep", "m:-1:1:3", "--grid", "12"],
    "phase_dirac_s3_mass_16": ["phase-diagram", "--model", "dirac_s3",
                               "--sweep", "mass:-3:1:5", "--grid", "16"],
    "validate_seed3": ["validate", "--seed", "3"],
    "gauge_fkm3d_dt0.5_24": ["invariant", "--model", "fkm3d", "--dt", "0.5",
                             "--grid", "24", "--stable-output"],
    "phase_fkm3d_dt_8": ["phase-diagram", "--model", "fkm3d",
                         "--sweep", "dt:1.5:3.5:2", "--grid", "8"],
}


def run_request(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    text = buf.getvalue()
    # a phase diagram is CSV, every other command prints JSON
    return code, text if argv[0] == "phase-diagram" else json.loads(text)


def assert_matches(got, want, path="report"):
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), \
            f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), \
            f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_report_unchanged(golden, name):
    entry = golden[name]
    assert entry["argv"] == REQUESTS[name]
    code, report = run_request(entry["argv"])
    assert code == entry["exit"]
    assert_matches(report, entry["report"])


def write_golden(names=(), path=GOLDEN):
    """Re-run the named requests, every request when none is named, and
    write their entries to the golden file at `path`; the other entries are
    read back and written as they were."""
    doc = json.loads(path.read_text(encoding="utf-8")) if names else {}
    for name in names or REQUESTS:
        code, report = run_request(REQUESTS[name])
        doc[name] = {"argv": REQUESTS[name], "exit": code, "report": report}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def test_write_rewrites_only_the_named_entries(tmp_path):
    # a copy with two stale entries: the named one is rewritten to what the
    # request reports, the other keeps its stale value, and every other
    # entry keeps its bytes
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    copy = tmp_path / "reports.json"
    for name in ("localise_uniform3", "validate_seed3"):
        doc[name]["exit"] = 99
    copy.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    write_golden(["localise_uniform3"], copy)
    doc["localise_uniform3"]["exit"] = 0
    assert copy.read_text(encoding="utf-8") == json.dumps(
        doc, indent=1, sort_keys=True) + "\n"
    # a golden file read back and written unchanged keeps its bytes
    text = GOLDEN.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n" \
        == text


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] != ["--write"] or not set(args[1:]) <= set(REQUESTS):
        sys.exit("usage: test_reports.py --write [NAME ...]; names: "
                 + ", ".join(sorted(REQUESTS)))
    write_golden(args[1:])
