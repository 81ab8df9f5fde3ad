import json

import numpy as np
import pytest

from tki import bloch, cli, eqforms, invariants, models
from tki.grids import BZGrid


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariantCommand:
    def test_trivial_consensus(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "invariant", "--model", "trivial",
                         "--dim", "3", "--m", "2", "--grid", "16",
                         "--methods", "pfaffian,wzw", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["consensus"] is True
        assert doc["methods"]["pfaffian"]["parity"] == 1
        assert doc["methods"]["wzw"]["parity"] == 1
        assert len(doc["trim_pfaffians"]) == 8

    def test_report_schema(self, capsys):
        code, out, _ = run(capsys, "invariant", "--model", "trivial",
                           "--dim", "2", "--m", "2", "--grid", "12",
                           "--methods", "pfaffian,planes")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"model", "grid", "methods", "trim_pfaffians",
                            "weak", "strong", "consensus", "notes"}
        for m in doc["methods"].values():
            assert set(m) == {"parity", "raw", "residual", "runtime_ms"}

    def test_params_flag_equivalent_to_direct_flags(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        common = ["invariant", "--model", "trivial", "--grid", "12",
                  "--methods", "pfaffian", "--stable-output"]
        assert run(capsys, *common, "--params", "d=3,m=2",
                   "--out", str(a))[0] == 0
        assert run(capsys, *common, "--dim", "3", "--m", "2",
                   "--out", str(b))[0] == 0
        assert a.read_text() == b.read_text()

    def test_usage_errors(self, capsys):
        assert run(capsys, "invariant", "--grid", "16")[0] == 1
        assert run(capsys, "invariant", "--model", "nope",
                   "--grid", "16")[0] == 1
        assert run(capsys, "invariant", "--model", "trivial",
                   "--grid", "17")[0] == 1
        assert run(capsys, "invariant", "--model", "trivial",
                   "--methods", "bogus", "--grid", "16")[0] == 1
        # a non-numeric grid, on a torus and on a sphere model
        for model in ("trivial", "dirac_s3"):
            code, out, err = run(capsys, "invariant", "--model", model,
                                 "--grid", "abc")
            assert code == 1 and out == "" and err.startswith("error:")
        # the s3 route and the torus routes each need their own domain
        assert run(capsys, "invariant", "--model", "trivial", "--dim", "3",
                   "--m", "2", "--grid", "8", "--methods", "s3")[0] == 1
        assert run(capsys, "invariant", "--model", "dirac_s3", "--mass",
                   "-1", "--grid", "16", "--methods", "wzw")[0] == 1
        # an S^3 mesh the sphere chart cannot take
        code, out, err = run(capsys, "invariant", "--model", "dirac_s3",
                             "--mass", "-1", "--grid", "7")
        assert code == 1 and out == "" and err.startswith("error:")
        # gapless on the sphere: mass -2 closes the gap at the south pole
        code, _, err = run(capsys, "invariant", "--model", "dirac_s3",
                           "--mass", "-2", "--grid", "16")
        assert code == 1
        assert err == ("error: model is gapless on this grid: sphere Dirac "
                       "model is critical at mass -2.0\n")
        # options a command does not read are refused, not ignored
        trivial = ["--model", "trivial", "--dim", "3", "--m", "2",
                   "--grid", "8", "--methods", "pfaffian"]
        bhz = ["--model", "bhz2d", "--sweep", "m:1:1:1", "--grid", "8"]
        for argv in (["invariant", *trivial, "--seed", "1"],
                     ["invariant", *trivial, "--tol-round", "0.3"],
                     ["invariant", *trivial, "--tol-sample-smoothness", "2"],
                     ["phase-diagram", *bhz, "--seed", "1"],
                     # --stable-output zeroes the timings only invariant
                     # reports carry
                     ["phase-diagram", *bhz, "--stable-output"],
                     ["localise", "--form", "uniform:3", "--stable-output"],
                     ["validate", "--grid", "16"],
                     ["validate", "--tol-gap", "10"],
                     ["validate", "--stable-output"],
                     ["invariant", *trivial, "--threads", "1"],
                     ["validate", "--threads", "1"],
                     ["validate", "--theta-noise", "nan"],
                     ["validate", "--theta-noise", "inf"],
                     # typed option values argparse used to refuse with
                     # its usage block and exit 2, the disagreement code
                     ["invariant", "--model", "trivial", "--grid", "8",
                      "--tol-gap", "abc"],
                     ["invariant", *trivial, "--tol-smoothness", "x"],
                     ["phase-diagram", *bhz, "--tol-smoothness", "x"],
                     ["localise", "--form", "wzw", "--model", "fkm3d",
                      "--grid", "8", "--tol-gap", "abc"],
                     ["validate", "--seed", "x"],
                     ["validate", "--seed", "1.5"],
                     ["validate", "--seed", "-1"],
                     ["validate", "--theta-noise", "abc"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith("error:"), argv
        # a bare option is named as an option, a --params entry as a
        # parameter
        code, _, err = run(capsys, "invariant", *trivial, "--seed", "1")
        assert code == 1 and "unrecognized argument '--seed'" in err
        code, _, err = run(capsys, "invariant", *trivial, "--params", "seed=1")
        assert code == 1 and "has no parameter 'seed'" in err
        # inputs no route can take: an error line, not a traceback, a route
        # error or a silently changed value
        bhz8 = ["invariant", "--model", "bhz2d", "--grid", "8"]
        for argv in ([*bhz8, "--methods", "cs"],
                     [*bhz8, "--methods", "wzw"],
                     [*bhz8, "--methods", "winding"],
                     [*bhz8, "--methods", "localise"],
                     ["invariant", "--model", "fkm3d", "--grid", "8",
                      "--params", "dt=nan"],
                     ["invariant", "--model", "fkm3d", "--grid", "8",
                      "--dt", "inf"],
                     ["phase-diagram", "--model", "bhz2d", "--grid", "8",
                      "--sweep", "m:0:1:-1"],
                     ["phase-diagram", "--model", "bhz2d", "--grid", "8",
                      "--sweep", "m:0:1:0"],
                     ["phase-diagram", "--model", "bhz2d", "--grid", "8",
                      "--sweep", "m:nan:1:2"],
                     ["localise", "--form", "uniform:nan"],
                     ["localise", "--form", "uniform:inf"],
                     ["invariant", "--model", "trivial", "--grid", "8",
                      "--params", "d=2.5"],
                     ["invariant", "--model", "trivial", "--grid", "8",
                      "--params", "m=2.7"],
                     ["invariant", "--model", "trivial", "--grid", "8",
                      "--m", "inf"],
                     ["invariant", "--model", "trivial", "--grid", "8",
                      "--methods", ",,"],
                     [*bhz8, "--tol-smoothness", "nan"],
                     [*bhz8, "--tol-gap", "-1"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith("error:"), argv

    def test_gapless_model_is_an_input_error(self, capsys):
        # the request's own grid decides the gap, for invariant and localise
        code, _, err = run(capsys, "invariant", "--model", "bhz2d",
                           "--m", "0", "--grid", "16")
        assert code == 1
        assert err == ("error: model is gapless on this grid: gap closes "
                       "near node (8, 8)\n")
        code, _, err = run(capsys, "localise", "--model", "fkm3d", "--dt", "0",
                           "--form", "wzw", "--grid", "16")
        assert code == 1
        assert err == ("error: model is gapless on this grid: gap closes "
                       "near node (0, 0, 8)\n")
        # a gap tolerance above every level closes the gap at the first node
        code, _, err = run(capsys, "invariant", "--model", "trivial",
                           "--grid", "8", "--tol-gap", "10")
        assert code == 1
        assert err == ("error: model is gapless on this grid: gap closes "
                       "near node (0, 0, 0)\n")

    def test_registry_gap_probe_is_not_run(self, capsys, monkeypatch):
        def probe(model):
            raise AssertionError("the CLI ran the registry gap probe")
        monkeypatch.setattr(models, "_sanity_check", probe)
        for argv in (["invariant", "--model", "bhz2d", "--m", "-1",
                      "--grid", "8"],
                     ["invariant", "--model", "dirac_s3", "--mass", "-1",
                      "--grid", "16"],
                     ["localise", "--model", "trivial", "--grid", "8"],
                     ["phase-diagram", "--model", "bhz2d",
                      "--sweep", "m:-1:1:2", "--grid", "8"]):
            assert run(capsys, *argv)[0] == 0, argv

    def test_gap_closing_off_the_request_grid_is_answered(self, capsys):
        # the gap closes at k_z = 3 pi / 8, a node of the 16^3 probe grid
        # but not of 12^3: the request runs, and every route refuses the
        # near-gapless gauge or count
        tz = repr(float(-1 / np.cos(3 * np.pi / 8)))
        code, out, err = run(capsys, "invariant", "--model", "layered3d",
                             "--m", "1", "--tz", tz, "--grid", "12")
        assert code == 3 and err == ""
        errors = [m["error"] for m in json.loads(out)["methods"].values()]
        assert len(errors) == 4
        assert all(e.startswith(("RoughGauge: ", "NonConvergent: "))
                   for e in errors)

    def test_gap_tolerance_is_applied(self, capsys):
        # every level of the trivial model sits at |E| = 1
        argv = ["invariant", "--model", "trivial", "--dim", "3", "--m", "2",
                "--grid", "8", "--methods", "pfaffian"]
        assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, *argv, "--tol-gap", "10")
        assert code == 1 and "gapless" in err

    def test_sphere_model(self, capsys):
        code, out, _ = run(capsys, "invariant", "--model", "dirac_s3",
                           "--mass", "-1", "--grid", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["methods"]["s3"]["parity"] == -1

    def test_coarse_sphere_mesh_rejected(self, capsys):
        # meshes 6 and 8 round the degree integral to the wrong parity +1;
        # 10 is the smallest mesh that resolves it
        for n in ("6", "8"):
            code, out, err = run(capsys, "invariant", "--model", "dirac_s3",
                                 "--mass", "-1", "--grid", n)
            assert code == 1 and out == "" and "too coarse" in err
        code, out, _ = run(capsys, "invariant", "--model", "dirac_s3",
                           "--mass", "-1", "--grid", "10")
        assert code == 0
        assert json.loads(out)["methods"]["s3"]["parity"] == -1

    def test_sphere_report_names_the_mesh_it_ran(self, capsys):
        # --grid 10 runs SphereMesh.cubic(10), 10 x 10 x 12; the S^3 mesh
        # takes one size
        code, out, _ = run(capsys, "invariant", "--model", "dirac_s3",
                           "--mass", "-1", "--grid", "10")
        assert code == 0 and json.loads(out)["grid"] == [10, 10, 12]
        for command in (["invariant", "--mass", "-1"],
                        ["phase-diagram", "--sweep", "mass:-1:-1:1"]):
            code, out, err = run(capsys, *command, "--model", "dirac_s3",
                                 "--grid", "12,64,64")
            assert code == 1 and out == ""
            assert err == "error: --grid takes one size on an S^3 model\n"

    def test_disagreeing_routes_exit_2(self, capsys, monkeypatch):
        # a wzw kernel that answers -1 against the Pfaffian's +1
        monkeypatch.setattr(invariants, "km_wzw", lambda wfield: (1.0, -1))
        code, out, err = run(capsys, "invariant", "--model", "trivial",
                             "--dim", "3", "--m", "2", "--grid", "8",
                             "--methods", "pfaffian,wzw")
        assert code == 2 and err == ""
        doc = json.loads(out)
        assert doc["consensus"] is False and doc["notes"] == []
        assert [doc["methods"][r]["parity"] for r in ("pfaffian", "wzw")] \
            == [1, -1]

    def test_nonconvergent_exit(self, capsys):
        # an absurdly tight smoothness gate forces the gauge to fail
        code, out, _ = run(capsys, "invariant", "--model", "fkm3d",
                           "--dt", "1.0", "--grid", "16",
                           "--methods", "wzw",
                           "--tol-smoothness", "1e-9")
        assert code == 3
        doc = json.loads(out)
        assert "error" in doc["methods"]["wzw"]

    @pytest.mark.parametrize("m, d, n", [
        (2, 3, 12), (4, 3, 12), (2, 3, 16), (4, 3, 16), (2, 2, 12),
        (4, 2, 12), (2, 2, 16), (4, 2, 16)],
        ids=["2", "4", "2-d3-16", "4-d3-16", "2-d2-12", "4-d2-12", "2-d2-16",
             "4-d2-16"])
    def test_one_node_links_change_no_byte(self, capsys, monkeypatch, m, d,
                                           n):
        # every one-node stage of trivial frames (eigensolve, plane fluxes,
        # ring gauges, links, sewing residuals, density, cs kernels); the
        # report is byte for byte the one with every stage on the full stack
        routes = "pfaffian,planes" + (",wzw,winding,cs,localise" * (d == 3))
        argv = ["invariant", "--model", "trivial", "--params", f"d={d},m={m}",
                "--grid", str(n), "--methods", routes, "--stable-output"]
        one_node = run(capsys, *argv)
        monkeypatch.setattr(bloch, "_k_independent", lambda x: False)
        assert run(capsys, *argv) == one_node
        assert one_node[0] == 0

    def test_constant_hamiltonian_takes_one_eigh_node(self, capsys,
                                                      monkeypatch):
        # a trivial m = 4 request: the slab's eigensolve, and the m > 2 link
        # logs' eigh, each get one node
        nodes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda H: nodes.append(
            H[..., 0, 0].size) or eigh(H))
        code, _, _ = run(capsys, "invariant", "--model", "trivial",
                         "--params", "d=3,m=4", "--grid", "16", "--methods",
                         "pfaffian,planes,wzw,winding,cs,localise")
        assert code == 0
        assert nodes and set(nodes) == {1}

    @pytest.mark.parametrize("argv, reductions", [
        (["invariant", "--methods", "pfaffian"], 1),
        (["invariant"], 1),
        (["invariant", "--methods", "wzw,winding,cs,localise"], 0),
        (["invariant", "--methods", "planes"], 0),
        (["localise", "--form", "wzw"], 0)],
        ids=["pfaffian", "default", "density-routes", "planes",
             "localise"])
    def test_su_reduce_runs_when_a_route_reads_it(self, capsys, monkeypatch,
                                                   argv, reductions):
        # only the Pfaffian route reduces the sewing field, at its fixed
        # nodes
        calls, su_reduce = [], bloch.su_reduce
        monkeypatch.setattr(bloch, "su_reduce", lambda w: calls.append(w)
                            or su_reduce(w))
        code, _, _ = run(capsys, *argv, "--model", "trivial", "--grid", "8")
        assert code == 0
        assert len(calls) == reductions

    def test_validate_does_not_reduce(self, capsys, monkeypatch):
        # the sewing-construction check of each of validate's three models
        # reads the sewing residuals alone
        calls, su_reduce = [], bloch.su_reduce
        monkeypatch.setattr(bloch, "su_reduce", lambda w: calls.append(w)
                            or su_reduce(w))
        code, _, _ = run(capsys, "validate")
        assert code == 0 and len(calls) == 0

    @pytest.mark.parametrize("node, step", [
        ((1, 0, 0), 0.6 * np.pi), ((4, 4, 1), 0.5 * np.pi),
        ((4, 4, 1), None)], ids=["cycle", "staircase", "zero-det"])
    def test_det_jump_is_a_pfaffian_error(self, capsys, monkeypatch, node,
                                          step):
        # a constant Kramers field with one det step of 0.6 pi on the axis
        # 0 cycle, of pi/2 on an axis 2 line of the staircase, or a zero
        # det there: a route error, not a traceback
        grid = BZGrid.cubic(3, 8)
        w = np.broadcast_to(np.array([[0, 1], [-1, 0]], dtype=complex),
                            grid.sizes + (2, 2)).copy()
        w[node] = 0.0 if step is None else \
            np.array([[0, np.exp(1j * step)], [-1, 0]])

        def pipeline(raw, theta, **kwargs):
            return raw, bloch.SewingField(grid, w)
        monkeypatch.setattr(bloch, "gauge_pipeline", pipeline)
        code, out, err = run(capsys, "invariant", "--model", "trivial",
                             "--dim", "3", "--m", "2", "--grid", "8",
                             "--methods", "pfaffian")
        assert code == 3 and err == ""
        doc = json.loads(out)
        assert doc["methods"]["pfaffian"]["error"].startswith("DetJump: ")


# the route table's facts, written out: the kinds each route answers on
# (trivial d = 2, trivial d = 3, dirac_s3) and each kind's default routes
KINDS = {"torus2": ["--model", "trivial", "--dim", "2", "--m", "2",
                    "--grid", "8"],
         "torus3": ["--model", "trivial", "--dim", "3", "--m", "2",
                    "--grid", "8"],
         "sphere3": ["--model", "dirac_s3", "--mass", "-1", "--grid", "10"]}
PARITY = {"torus2": 1, "torus3": 1, "sphere3": -1}
ANSWERS_ON = {"pfaffian": {"torus2", "torus3"},
              "planes": {"torus2", "torus3"},
              "wzw": {"torus3"}, "winding": {"torus3"}, "cs": {"torus3"},
              "localise": {"torus3"}, "s3": {"sphere3"}}
DEFAULT_ROUTES = {"torus2": {"pfaffian", "planes"},
                  "torus3": {"pfaffian", "planes", "wzw", "winding"},
                  "sphere3": {"s3"}}


class TestRouteApplicability:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("route", sorted(ANSWERS_ON))
    def test_route_answers_or_is_refused(self, capsys, route, kind):
        code, out, err = run(capsys, "invariant", *KINDS[kind],
                             "--methods", route)
        if kind in ANSWERS_ON[route]:
            assert code == 0
            assert json.loads(out)["methods"][route]["parity"] == PARITY[kind]
        else:
            assert code == 1 and out == "" and err.startswith("error:")
            assert "does not apply" in err

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_default_routes(self, capsys, kind):
        code, out, _ = run(capsys, "invariant", *KINDS[kind])
        assert code == 0
        assert set(json.loads(out)["methods"]) == DEFAULT_ROUTES[kind]


class TestLocaliseCommand:
    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "localise", "--form", "uniform:3",
                           "--grid", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["parity"] == -1
        assert doc["fixed_values"]["0,0,0"] == pytest.approx(3.0)
        assert doc["total"] == pytest.approx(3.0)

    def test_wzw_form_without_a_parity_exits_3(self, capsys, monkeypatch):
        # a sampled density whose total, 0.5, rounds to no integer
        def half(wfield):
            sizes = wfield.grid.sizes
            return eqforms.Cochain.from_density(
                wfield.grid, np.full(sizes, 0.5 / np.prod(sizes))), 0.0
        monkeypatch.setattr(eqforms, "sample_wzw", half)
        code, out, err = run(capsys, "localise", "--model", "trivial",
                             "--params", "d=3,m=2", "--form", "wzw",
                             "--grid", "8")
        assert code == 3 and err == ""
        doc = json.loads(out)
        assert doc["parity"] is None and "parity_residual" not in doc
        assert doc["total"] == pytest.approx(0.5)
        assert len(doc["notes"]) == 1 and "0.500" in doc["notes"][0]

    def test_bloch_error_outside_a_route_exits_3(self, capsys, monkeypatch):
        # the gauge of `localise --form wzw` is no route: its error ends
        # the command
        def winding(*args, **kwargs):
            raise bloch.DetWinding(0, 1)
        monkeypatch.setattr(bloch, "gauge_pipeline", winding)
        code, out, err = run(capsys, "localise", "--model", "trivial",
                             "--params", "d=3,m=2", "--form", "wzw",
                             "--grid", "8")
        assert (code, out) == (3, "")
        assert err == "error: det(w) winds by 1 around cycle 0\n"

    def test_bad_form(self, capsys):
        assert run(capsys, "localise", "--form", "banana")[0] == 1

    def test_uniform_refuses_model_input(self, capsys):
        uniform = ["localise", "--form", "uniform:3", "--grid", "8"]
        for stray in (["--model", "fkm3d", "--dt", "1"], ["--dt", "1"],
                      ["--params", "dt=1"], ["leftover"]):
            code, out, err = run(capsys, *uniform, *stray)
            assert code == 1 and out == "" and err.startswith("error:"), \
                stray


class TestPhaseDiagramCommand:
    def test_sweep_marks_gapless(self, capsys, tmp_path):
        out = tmp_path / "pd.csv"
        code, _, _ = run(capsys, "phase-diagram", "--model", "bhz2d",
                         "--sweep", "m:-1:1:3", "--grid", "12",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("param,gap,parity_pfaffian,parity_planes")
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3
        # m = 0 closes the gap; the endpoints are gapped with opposite phase
        assert rows[1][-1] == "true"
        assert rows[0][-1] == "false" and rows[2][-1] == "false"

    def test_sphere_sweep_uses_grid(self, capsys):
        code, out, _ = run(capsys, "invariant", "--model", "dirac_s3",
                           "--mass", "-1", "--grid", "16")
        assert code == 0
        s3 = json.loads(out)["methods"]["s3"]["parity"]
        code, out, _ = run(capsys, "phase-diagram", "--model", "dirac_s3",
                           "--sweep", "mass:-1:-1:1", "--grid", "16")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == str(s3) == "-1"
        # the mesh comes from --grid: a mesh too coarse for S^3 is refused
        code, _, err = run(capsys, "phase-diagram", "--model", "dirac_s3",
                           "--sweep", "mass:-1:-1:1", "--grid", "6")
        assert code == 1 and "too coarse" in err

    def test_default_sphere_mesh_is_the_named_one(self, capsys,
                                                   monkeypatch):
        # without --grid each S^3 point runs invariants.S3_SWEEP_MESH,
        # read at the call (patched to a small mesh here)
        sizes, km_s3 = [], invariants.km_s3
        monkeypatch.setattr(invariants, "S3_SWEEP_MESH", 12)
        monkeypatch.setattr(invariants, "km_s3",
                            lambda model, n: sizes.append(n)
                            or km_s3(model, n))
        code, _, _ = run(capsys, "phase-diagram", "--model", "dirac_s3",
                         "--sweep", "mass:-1:1:2")
        assert code == 0 and sizes == [12, 12]

    def test_requires_sweep(self, capsys):
        assert run(capsys, "phase-diagram", "--model", "bhz2d")[0] == 1

    def test_trivial_dim_flag(self, capsys):
        # parameters go through the same model builder as `invariant`
        code, out, _ = run(capsys, "phase-diagram", "--model", "trivial",
                           "--dim", "3", "--m", "2", "--sweep", "m:2:2:1",
                           "--grid", "8")
        assert code == 0
        assert out.splitlines()[1] == "2,1,1,1,1,true,false"


class TestParser:
    def test_cached_parser_prints_what_fresh_parsers_print(self, capsys):
        # one parser per process: a report, a validation, usage errors from
        # the parser and from a command, and the bare usage, in a row
        argvs = [["invariant", "--model", "trivial", "--dim", "2", "--m",
                  "2", "--grid", "8", "--stable-output"],
                 ["validate", "--seed", "2"],
                 ["invariant", "--model", "trivial", "--grid", "7"],
                 ["invariant", "--model", "trivial", "--grid", "8",
                  "--seed", "1"],
                 ["validate", "--seed", "-1"],
                 [],
                 ["invariant", "--model", "trivial", "--dim", "3", "--m",
                  "2", "--grid", "8", "--methods", "pfaffian,wzw",
                  "--stable-output"]]
        cached = [run(capsys, *argv) for argv in argvs]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 0, 1, 1, 1, 1, 0]


class TestValidateCommand:
    def test_passes_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "validate", "--seed", "3")
        code2, out2, _ = run(capsys, "validate", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])

    def test_seed_draws_only_the_noise(self, capsys):
        # without --theta-noise no check reads a random number
        docs = [json.loads(run(capsys, "validate", "--seed", seed)[1])
                for seed in ("3", "5")]
        assert docs[0].pop("seed") == 3 and docs[1].pop("seed") == 5
        assert docs[0] == docs[1]

    def test_theta_noise_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "3",
                           "--theta-noise", "0.05")
        assert code == 4
        doc = json.loads(out)
        assert doc["ok"] is False
        assert any(not c["ok"] for c in doc["checks"])

    def test_gap_closed_by_noise_is_a_failed_check(self, capsys):
        code, out, err = run(capsys, "validate", "--seed", "3",
                             "--theta-noise", "0.5")
        assert code == 4 and err == ""

        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")
        doc = json.loads(out, parse_constant=refuse)  # strict JSON
        assert doc["ok"] is False
        failed = [c.get("error", "") for c in doc["checks"] if not c["ok"]]
        assert any(e.startswith("GaplessAt: ") for e in failed)
        # a construction that failed has no residual
        assert all(c["residual"] is None and c["ok"] is False
                   for c in doc["checks"] if "error" in c)


class TestIngestCommand:
    def test_writes_normalized_cache(self, capsys, tmp_path):
        model = models.make_model("trivial", {"d": 2, "m": 2})
        doc = models.export_sampled(model, (8, 8))
        src = tmp_path / "h.json"
        src.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "ingest", str(src))
        assert code == 0
        info = json.loads(out)
        assert info["ok"] is True
        cache = tmp_path / "h.normalized.json"
        assert cache.exists()
        again = models.ingest_sampled(str(cache))
        assert again.n_bands == model.n_bands

    def test_bad_document(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{}")
        assert run(capsys, "ingest", str(src))[0] == 1

    def test_near_skew_theta_is_projected(self, capsys, tmp_path):
        # a Theta off by 1e-10 (within the 1e-8 ingest tolerance, above the
        # operator's 1e-12) is replaced by the nearest skew unitary and keeps
        # the parity; one off by 1e-7 is still refused
        model = models.make_model("fkm3d", {"dt": 0.5})
        argv = ["--grid", "8", "--methods", "pfaffian,planes",
                "--tol-smoothness", "1.0"]
        parities = []
        for eps in (0.0, 1e-10, 1e-7):
            doc = models.export_sampled(model, (8, 8, 8))
            doc["theta_real"][1] += eps  # U[0, 1]
            src = tmp_path / f"fk8_{eps}.json"
            src.write_text(json.dumps(doc))
            if eps == 1e-7:
                code, _, err = run(capsys, "ingest", str(src))
                assert code == 1 and "not unitary" in err
                continue
            assert run(capsys, "ingest", str(src))[0] == 0
            code, out, _ = run(capsys, "invariant", "--model", str(src),
                               *argv)
            assert code == 0
            parities.append({name: route["parity"] for name, route
                             in json.loads(out)["methods"].items()})
        assert parities[0] == parities[1] == {"pfaffian": -1, "planes": -1}

    @pytest.mark.parametrize("key", ["h_real", "theta_real"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entries_are_refused(self, capsys, tmp_path, key,
                                            value):
        # every contract check compares a max residual with a tolerance,
        # which NaN passes; the entries themselves must be refused
        doc = models.export_sampled(models.make_model("fkm3d", {"dt": 0.5}),
                                    (8, 8, 8))
        doc[key][1] = value
        src = tmp_path / "fk8.json"
        src.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ingest", str(src))
        assert code == 1 and out == "" and err.startswith("error:")
        assert "non-finite" in err
        assert not (tmp_path / "fk8.normalized.json").exists()

    def test_singular_ring_link_is_a_route_error(self, capsys, tmp_path):
        # the occupied and empty pairs of a trivial sample swap at the
        # mirror nodes (1, 0) and (7, 0): still gapped and time-reversal
        # symmetric, but the boundary ring n_1 = 0 has zero links there
        doc = models.export_sampled(
            models.make_model("trivial", {"d": 2, "m": 2}), (8, 8))
        H = np.reshape(doc["h_real"], (8, 8, 4, 4))
        for node in ((1, 0), (7, 0)):
            H[node] = np.diag([1.0, 1.0, -1.0, -1.0])
        doc["h_real"] = H.ravel().tolist()
        src = tmp_path / "swapped.json"
        src.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "invariant", "--model", str(src),
                           "--grid", "8", "--methods", "planes")
        assert code == 3  # no route answered
        error = json.loads(out)["methods"]["planes"]["error"]
        assert error.startswith("BoundaryGaugeFailure")

    def test_sample_answers_only_on_its_grid(self, capsys, tmp_path):
        # a 16^3 grid would alias onto the 8^3 sample's nearest nodes
        model = models.make_model("fkm3d", {"dt": 3.0})
        src = tmp_path / "fk8.json"
        src.write_text(json.dumps(models.export_sampled(model, (8, 8, 8))))
        argv = ["invariant", "--model", str(src), "--methods",
                "pfaffian,planes"]
        code, out, _ = run(capsys, *argv, "--grid", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["methods"]["pfaffian"]["parity"] == 1
        assert doc["methods"]["planes"]["parity"] == 1
        code, out, err = run(capsys, *argv, "--grid", "16")
        assert code == 1 and out == "" and "sampled 8x8x8 grid" in err


class TestGeneralMKernels:
    """m = 4 route inputs whose links are not identities, and where the
    m > 2 path takes LAPACK's SVD and eig."""

    # recorded on the gauge of the Fourier-accelerated steps with the
    # Cayley step, the SVD polar factor and the one-eigh log, from raw
    # frames diagonalised on the slab k_last in [0, pi] and filled by time
    # reversal
    DIRECT_SUM_12 = {"pfaffian": -0.9999999999999951, "planes": -1.0,
                     "wzw": -0.7987389016993147, "winding": -1.0,
                     "cs": 0.37607597599940706}

    def test_direct_sum_routes(self):
        model = models.direct_sum(models.make_model("fkm3d", {"dt": 0.5}),
                                  models.make_model("fkm3d", {"dt": 3.0}))
        tol = {**cli._TOL_DEFAULTS, "smoothness": 0.75}  # the sweep's gate
        outputs, statuses = cli._compute_methods(
            model, BZGrid.cubic(3, 12), list(self.DIRECT_SUM_12), tol)
        assert not statuses
        for name, raw in self.DIRECT_SUM_12.items():
            assert outputs[name]["parity"] == -1
            assert abs(outputs[name]["raw"] - raw) <= 1e-12

    def test_no_svd_in_the_relax_and_no_eig_outside_the_seed(self,
                                                            monkeypatch):
        # the m > 2 polar factors (frame link logs, multiscale seeds) are
        # SVDs; the relax step takes neither an SVD nor an eig, and no eig
        # runs outside the transport seed
        calls = {(name, where): 0 for name in ("svd", "eig")
                 for where in ("transport", "relax", "elsewhere")}
        where = []

        def inside(label, kernel):
            def call(*args, **kwargs):
                where.append(label)
                try:
                    return kernel(*args, **kwargs)
                finally:
                    where.pop()
            return call
        monkeypatch.setattr(bloch, "_transport_last_axis",
                            inside("transport", bloch._transport_last_axis))
        monkeypatch.setattr(bloch, "_relax", inside("relax", bloch._relax))
        for name in ("svd", "eig"):
            def counted(*args, _f=getattr(np.linalg, name), _name=name,
                        **kwargs):
                calls[_name, where[-1] if where else "elsewhere"] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        # an m = 4 input whose frames depend on k, so the seed runs (the
        # k-independent frames of trivial m = 4 skip the smoother); at 12^3
        # the sampling gate of `localise` refuses it after its link norms,
        # as it refuses fkm3d alone (test_invariants)
        model = models.direct_sum(models.make_model("fkm3d", {"dt": 0.5}),
                                  models.make_model("fkm3d", {"dt": 3.0}))
        tol = {**cli._TOL_DEFAULTS, "smoothness": 0.75}  # the sweep's gate
        outputs, _ = cli._compute_methods(
            model, BZGrid.cubic(3, 12), ["wzw", "cs", "localise"], tol)
        assert outputs["wzw"]["parity"] == outputs["cs"]["parity"] == -1
        assert outputs["localise"]["error"].startswith("RoughGauge")
        assert calls["svd", "transport"] > 0 and calls["eig", "transport"] > 0
        assert calls["svd", "elsewhere"] > 0  # the Berry connection's links
        assert calls["svd", "relax"] == calls["eig", "relax"] == 0
        assert calls["eig", "elsewhere"] == 0

    def test_link_logs_taken_once_per_field_and_axis(self, capsys,
                                                     monkeypatch):
        # one m = 4 run, with every route and with cs alone: the Berry
        # connection's links of the frames (through the polar factor) and
        # the sewing field's Maurer-Cartan links (without it), which the
        # sigma map and the density share, one call over all three axes
        # each and nothing twice; the Pfaffian reduces the fixed nodes
        # alone and logs no link.  The fields are k-independent, so each
        # kernel gets a one-node view of its field
        fields, calls = {}, []
        pipeline = bloch.gauge_pipeline

        def kept(*args, **kwargs):
            out = pipeline(*args, **kwargs)
            fields.clear()
            fields.update(frames=out[0].frames, wfield=out[1].w)
            return out

        def counted(name, kernel):
            def call(u, *const):
                calls.append((name, next(k for k, v in fields.items()
                                         if np.shares_memory(v, u))))
                return kernel(u, *const)
            return call
        monkeypatch.setattr(bloch, "gauge_pipeline", kept)
        for name in ("link_log", "unitary_link_log"):
            monkeypatch.setattr(bloch, name,
                                counted(name, getattr(bloch, name)))
        for methods in ("pfaffian,planes,wzw,winding,cs,localise", "cs"):
            calls.clear()
            code, _, _ = run(capsys, "invariant", "--model", "trivial",
                             "--params", "d=3,m=4", "--grid", "12",
                             "--methods", methods)
            assert code == 0
            assert sorted(calls) == [("link_log", "frames"),
                                     ("unitary_link_log", "wfield")]
