import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

from tki import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "report_digest", ROOT / "tools" / "report_digest.py")
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


def _md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def test_digest_of_two_cheap_requests():
    # one report and one input error: exit code, stdout and stderr digests
    # as the CLI prints them, then the argv; the same on a second run
    for argv, stable in (
            (["localise", "--form", "uniform:3"], []),
            (["invariant", "--model", "bhz2d", "--m", "0", "--grid", "8"],
             ["--stable-output"])):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + stable)
        want = " ".join([str(code), _md5(out.getvalue()), _md5(err.getvalue())]
                        + argv + stable)
        assert report_digest.digest(argv) == want
        assert report_digest.digest(argv) == want
    assert code == 1 and err.getvalue().startswith("error: ")


def test_default_list_holds_the_golden_and_gapless_requests():
    requests = report_digest.default_requests()
    golden = json.loads((ROOT / "tests" / "golden" / "reports.json")
                        .read_text(encoding="utf-8"))
    for argv in ([e["argv"] for e in golden.values()]
                 + report_digest.GAPLESS + report_digest.DISPERSIVE
                 + report_digest.SINGLE_ROUTE):
        assert argv in requests
    # an S^3 --grid that is no multiple of 4, 2-d planes alone, and an S^3
    # sweep on its default mesh
    assert ["invariant", "--model", "dirac_s3", "--mass", "-1", "--grid",
            "10"] in requests
    assert ["phase-diagram", "--model", "dirac_s3", "--sweep",
            "mass:-1:1:2"] in requests
    assert any(a[:3] == ["invariant", "--model", "bhz2d"]
               and a[-2:] == ["--methods", "planes"] for a in requests)
    # the seed tie of bhz2d m = 0.3 at 24^2 and a model that breaks time
    # reversal, both moved by the fill off the diagonalised slab
    assert ["invariant", "--model", "bhz2d", "--m", "0.3", "--grid",
            "24"] in requests
    assert ["validate", "--seed", "3", "--theta-noise", "0.05"] in requests
    # the 2-d planes route on k-independent frames, m = 2 and 4
    for m in ("2", "4"):
        assert ["invariant", "--model", "trivial", "--dim", "2", "--m", m,
                "--grid", "12", "--methods", "pfaffian,planes",
                "--stable-output"] in requests
    # validate on its defaults, whose sewing checks reduce nothing
    assert ["validate"] in requests
    assert len(requests) == len({tuple(a) for a in requests})
    import workloads  # perfbench's, on the path once the list is built
    bench = [req["argv"] for name in sorted(workloads.WORKLOADS)
             for req in workloads.generate(name, 0)]
    assert requests[:len(bench)] == bench
