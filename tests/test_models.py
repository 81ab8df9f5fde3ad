import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tki import models
from tki.grids import BZGrid
from tki.linalg import _matrix_major
from conftest import in_random_basis, matrix_major


def _h(model, k):
    """The model's Hamiltonian at the one momentum k."""
    return model.hamiltonian_batch(k[None])[0]


class TestRegistry:
    def test_unknown_model(self):
        with pytest.raises(models.UnknownModel):
            models.make_model("nope")

    def test_unknown_parameter(self):
        with pytest.raises(models.BadParams):
            models.make_model("fkm3d", {"zz": 1.0})

    @pytest.mark.parametrize("name,params", [
        ("trivial", {"d": 2, "m": 2}),
        ("trivial", {"d": 3, "m": 4}),
        ("bhz2d", {}),
        ("layered3d", {"tz": 0.5}),
        ("fkm3d", {"dt": 1.0}),
    ])
    def test_torus_models_build_gapped(self, name, params):
        model = models.make_model(name, params)
        grid = BZGrid.cubic(model.dim, 16)
        rep = models.validate_model(model, grid)
        assert rep["tr_residual"] <= 1e-9
        assert rep["min_gap"] > 1e-8
        assert rep["kramers_ok"]

    def test_gapless_point_rejected(self):
        # bhz2d closes its gap when the mass hits the band edge
        with pytest.raises(models.Gapless):
            models.make_model("bhz2d", {"m": 0.0})

    def test_dirac_s3_builds_for_both_mass_signs(self):
        for mass in (1.0, -1.0):
            model = models.make_model("dirac_s3", {"mass": mass})
            assert model.domain == "sphere3"
            H = _h(model, np.array([1.0, 1.0, 1.0]))
            assert np.abs(np.linalg.eigvalsh(H)).min() > 1e-8

    @pytest.mark.parametrize("mass,gapless", [
        (0.0, True), (-2.0, True), (-1.0, False), (1.0, False)])
    def test_dirac_s3_gapless_at_a_pole_refused(self, mass, gapless):
        # mass 0 closes the gap at chi = 0 and mass -2 at chi = pi; the
        # cell-centred check mesh holds neither pole
        if gapless:
            with pytest.raises(models.Gapless):
                models.make_model("dirac_s3", {"mass": mass})
        else:
            assert models.make_model("dirac_s3", {"mass": mass}).n_occ == 2

    def test_dirac_s3_gap_scales_with_mass_at_the_pole(self):
        # the gap closes only at the chi = 0 pole, controlled by the mass
        model = models.make_model("dirac_s3", {"mass": 1e-3})
        H = _h(model, np.array([1e-6, 0.5, 0.5]))
        assert np.abs(np.linalg.eigvalsh(H)).min() == pytest.approx(
            1e-3, rel=1e-3)


class TestThetaOperator:
    def test_squares_to_minus_one(self):
        for name in ("trivial", "bhz2d", "fkm3d"):
            U = models.make_model(name).theta.U
            assert np.abs(U @ U.conj() + np.eye(len(U))).max() <= 1e-12

    def test_apply_is_antiunitary(self):
        model = models.make_model("bhz2d")
        rng = np.random.default_rng(0)
        psi = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        phi = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        lhs = np.vdot(model.theta.apply(psi), model.theta.apply(phi))
        assert lhs == pytest.approx(np.vdot(phi, psi))

    def test_apply_independent_of_layout(self):
        # a matrix-major stack of frames gives bitwise the same result, in
        # its own layout
        theta = models.make_model("fkm3d").theta
        rng = np.random.default_rng(1)
        psi = rng.standard_normal((6, 5, 4, 4, 2)) + 1j * rng.standard_normal(
            (6, 5, 4, 4, 2))
        out = theta.apply(_matrix_major(psi))
        assert np.array_equal(out, theta.apply(psi))
        assert matrix_major(out)

    def test_rejects_non_symplectic(self):
        with pytest.raises(models.SymmetryViolation):
            models.TimeReversalOperator(np.eye(4, dtype=complex))
        # NaN passes every residual-above-tolerance comparison
        U = models.make_model("bhz2d", {}).theta.U.copy()
        U[0, 0] = np.nan
        with pytest.raises(models.SymmetryViolation, match="non-finite"):
            models.TimeReversalOperator(U)


class TestEvaluate:
    def test_hermitian_output(self):
        model = models.make_model("fkm3d")
        H = _h(model, np.array([0.3, -1.2, 0.7]))
        assert np.abs(H - H.conj().T).max() <= 1e-12

    def test_tr_relation_pointwise(self):
        model = models.make_model("layered3d", {"tz": 0.5})
        k = np.array([0.4, -0.9, 1.3])
        U = model.theta.U
        lhs = U @ _h(model, k).conj() @ U.conj().T
        assert np.abs(lhs - _h(model, -k)).max() <= 1e-12


_FINITE = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_ANGLE = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False,
                   allow_infinity=False)


class TestRegistryGuarantee:
    """Every registry family is Hermitian and time-reversal symmetric by its
    formula, for every finite parameter and momentum; the gap probe of
    `make_model` does not re-test either."""

    @pytest.mark.parametrize("name, params", [
        ("trivial", {"d": 2, "m": 2}), ("trivial", {"d": 2, "m": 4}),
        ("trivial", {"d": 3, "m": 2}), ("trivial", {"d": 3, "m": 4}),
        ("bhz2d", None), ("layered3d", None), ("fkm3d", None),
        ("dirac_s3", None)])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hermitian_and_time_reversal_symmetric(self, name, params, data):
        if params is None:
            params = data.draw(st.fixed_dictionaries(
                {key: _FINITE for key in models.parameter_names(name)}))
        model = models.make_model(name, params, check=False)
        K = np.array(data.draw(st.lists(st.tuples(*[_ANGLE] * model.dim),
                                        min_size=1, max_size=6)))
        if model.domain == "torus":
            Km = -K
        else:  # the inversion through the chi-axis, as SphereMesh.involute
            Km = np.stack([K[:, 0], np.pi - K[:, 1], K[:, 2] + np.pi], -1)
        H = model.hamiltonian_batch(K)
        assert np.abs(H - np.swapaxes(H, -1, -2).conj()).max() <= 1e-12
        assert models._tr_residual(model.theta.U, H,
                                   model.hamiltonian_batch(Km)) <= 1e-12

    def test_shared_theta_is_read_only(self):
        # bhz2d and layered3d share one Theta, fkm3d and dirac_s3 another
        thetas = {name: models.make_model(name, check=False).theta
                  for name in ("bhz2d", "layered3d", "fkm3d", "dirac_s3")}
        assert thetas["bhz2d"] is thetas["layered3d"]
        assert thetas["fkm3d"] is thetas["dirac_s3"]
        for theta in thetas.values():
            with pytest.raises(ValueError):
                theta.U[0, 0] = 1.0

    def test_gap_probe_reads_its_own_grid(self):
        # the gap closes at k_z = 3 pi / 8, a node of the 16^3 probe grid;
        # the CLI takes this model on a 12^3 grid (test_cli)
        with pytest.raises(models.Gapless, match="spectrum touches zero"):
            models.make_model("layered3d",
                              {"m": 1.0, "tz": -1 / np.cos(3 * np.pi / 8)})


class TestConstantProducts:
    """The constant matrices applied to stacks by one GEMM give what the
    per-node products gave."""

    @pytest.mark.parametrize("name, params", [
        ("bhz2d", {}), ("layered3d", {"tz": 0.5}), ("fkm3d", {"dt": 0.5}),
        ("dirac_s3", {"mass": -1.0})])
    def test_dvec_to_h_is_the_einsum_bit_for_bit(self, monkeypatch, name,
                                                 params):
        # signs of zeros included: these Hamiltonians feed the eigensolver
        # whose frames seed the gauge
        calls, dvec_to_h = [], models._dvec_to_h

        def kept(d, gammas):
            out = dvec_to_h(d, gammas)
            calls.append((d, gammas, out))
            return out
        monkeypatch.setattr(models, "_dvec_to_h", kept)
        model = models.make_model(name, params, check=False)
        K = BZGrid.cubic(3, 12).node_mesh()
        model.hamiltonian_batch(K[..., :model.dim])
        assert calls
        for d, gammas, out in calls:
            ref = np.einsum("a...,aij->...ij", np.stack(d), np.stack(gammas))
            assert np.array_equal(out, ref)
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(out, part)),
                                      np.signbit(getattr(ref, part)))

    def test_tr_residual_matches_the_per_node_products(self):
        rng = np.random.default_rng(4)
        for name, params in (("fkm3d", {"dt": 0.5}), ("layered3d", {}),
                             ("trivial", {"m": 4})):
            model = in_random_basis(models.make_model(name, params), 3)
            grid = BZGrid.cubic(3, 8)
            H = model.hamiltonian_batch(grid.node_mesh())
            pert = 1e-3 * rng.standard_normal(H.shape[-2:])
            U = model.theta.U
            for Hk in (H, H + pert + pert.T):
                Hm = grid.involute(Hk)
                ref = float(np.abs(U @ Hk.conj() @ U.conj().T - Hm).max())
                assert abs(models._tr_residual(U, Hk, Hm) - ref) <= 1e-15


class TestDirectSum:
    def test_blocks_and_spectrum(self):
        a = models.make_model("trivial", {"d": 3, "m": 2})
        b = models.make_model("fkm3d")
        ab = models.direct_sum(a, b)
        assert ab.n_bands == a.n_bands + b.n_bands
        assert ab.n_occ == a.n_occ + b.n_occ
        k = np.array([0.2, 0.3, -0.4])
        ev = np.linalg.eigvalsh(_h(ab, k))
        sep = np.sort(np.concatenate([np.linalg.eigvalsh(_h(a, k)),
                                      np.linalg.eigvalsh(_h(b, k))]))
        assert np.abs(ev - sep).max() <= 1e-12

    def test_mixed_domains_rejected(self):
        a = models.make_model("bhz2d")
        b = models.make_model("fkm3d")
        with pytest.raises(models.BadParams):
            models.direct_sum(a, b)


class TestSampledInterchange:
    def test_round_trip(self):
        model = models.make_model("bhz2d")
        doc = models.export_sampled(model, (8, 8))
        back = models.ingest_sampled(doc)
        grid = BZGrid(2, (8, 8))
        K = grid.node_mesh()
        assert np.abs(back.hamiltonian_batch(K)
                      - model.hamiltonian_batch(K)).max() <= 1e-12

    def test_accepts_a_path(self, tmp_path):
        # the CLI passes a path; JSON text is not a document
        model = models.make_model("trivial", {"d": 2, "m": 2})
        text = json.dumps(models.export_sampled(model, (8, 8)))
        p = tmp_path / "m.json"
        p.write_text(text)
        assert models.ingest_sampled(str(p)).n_bands == model.n_bands
        with pytest.raises(models.SchemaError):
            models.ingest_sampled(text)

    def test_missing_field(self):
        doc = models.export_sampled(models.make_model("bhz2d"), (8, 8))
        del doc["theta_real"]
        with pytest.raises(models.SchemaError):
            models.ingest_sampled(doc)

    def test_odd_grid(self):
        doc = models.export_sampled(models.make_model("bhz2d"), (8, 8))
        doc["sizes"] = [7, 8]
        with pytest.raises(models.OddGrid):
            models.ingest_sampled(doc)

    def test_broken_symmetry_detected(self):
        doc = models.export_sampled(models.make_model("bhz2d"), (8, 8))
        h = np.asarray(doc["h_real"], dtype=float)
        h.flat[5] += 1e-3
        doc["h_real"] = h.tolist()
        with pytest.raises(models.SymmetryViolation):
            models.ingest_sampled(doc)
