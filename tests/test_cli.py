import json

import numpy as np
import pytest

from tki import cli, models


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
        assert code == 1 and err.startswith("error:")

    def test_gapless_model_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "invariant", "--model", "bhz2d",
                           "--m", "0", "--grid", "16")
        assert code == 1

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

    def test_nonconvergent_exit(self, capsys):
        # an absurdly tight smoothness gate forces the gauge to fail
        code, out, _ = run(capsys, "invariant", "--model", "fkm3d",
                           "--dt", "1.0", "--grid", "16",
                           "--methods", "wzw",
                           "--tol-smoothness", "1e-9")
        assert code == 3
        doc = json.loads(out)
        assert "error" in doc["methods"]["wzw"]


class TestLocaliseCommand:
    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "localise", "--form", "uniform:3",
                           "--grid", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["parity"] == -1
        assert doc["fixed_values"]["0,0,0"] == pytest.approx(3.0)
        assert doc["total"] == pytest.approx(3.0)

    def test_bad_form(self, capsys):
        assert run(capsys, "localise", "--form", "banana")[0] == 1


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

    def test_requires_sweep(self, capsys):
        assert run(capsys, "phase-diagram", "--model", "bhz2d")[0] == 1


class TestValidateCommand:
    def test_passes_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "validate", "--seed", "3")
        code2, out2, _ = run(capsys, "validate", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])

    def test_theta_noise_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "3",
                           "--theta-noise", "0.05")
        assert code == 4
        doc = json.loads(out)
        assert doc["ok"] is False
        assert any(not c["ok"] for c in doc["checks"])


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


class TestThreads:
    def test_env_and_flag_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("TKI_THREADS", "1")
        code, _, _ = run(capsys, "invariant", "--model", "trivial",
                         "--dim", "2", "--m", "2", "--grid", "12",
                         "--methods", "pfaffian", "--threads", "1")
        assert code == 0
