import json

import numpy as np
import pytest

from conftest import in_random_basis, twisted
from tki import bloch, cli, invariants, linalg, models
from tki.grids import BZGrid


# the standard symplectic form, a Kramers sewing matrix with det 1
_S = np.array([[0, 1], [-1, 0]], dtype=complex)


@pytest.fixture(scope="module")
def bhz_cases():
    """2D sewing fields and raw frames for one trivial and one inverted mass."""
    out = {}
    for label, m in [("inverted", 2.0), ("trivial", -1.0)]:
        model = models.make_model("bhz2d", {"m": m})
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(2, 24))
        _, wfield = bloch.gauge_pipeline(raw, model.theta,
                                         smoothness_limit=0.5)
        out[label] = (model, raw, wfield)
    return out


@pytest.fixture(scope="module")
def fkm_gauge(pipeline):
    return pipeline.gauge("fkm3d", {"dt": 1.0}, 16, limit=0.75)


class TestRoundParity:
    def test_even_and_odd(self):
        assert invariants._round_parity(2.04)[0] == 1
        assert invariants._round_parity(-0.96)[0] == -1

    def test_out_of_slack(self):
        with pytest.raises(invariants.NonConvergent):
            invariants._round_parity(0.5)

    def test_half_integer_lattice(self):
        parity, resid = invariants._round_parity(1.52, lattice=0.5)
        assert parity == -1
        assert resid == pytest.approx(0.04, abs=1e-12)


class TestTrimPfaffian:
    def test_2d_phases(self, bhz_cases):
        # the SU reduction continues the determinant branch, so the fixed
        # node Pfaffians of the reduced field are the Fu-Kane signs
        for label, expected in [("inverted", -1), ("trivial", 1)]:
            _, _, wfield = bhz_cases[label]
            parity, pfs = invariants.km_trim_pfaffian(wfield)
            assert parity == expected
            assert len(pfs) == 4
            assert np.abs(np.asarray(pfs) - np.sign(np.real(pfs))).max() \
                <= 1e-6

    def test_3d_unit_modulus(self, fkm_gauge):
        _, wfield = fkm_gauge
        parity, pfs = invariants.km_trim_pfaffian(wfield)
        assert parity == -1
        assert np.abs(np.abs(np.asarray(pfs)) - 1).max() <= 1e-6

    def test_non_skew_rejected(self):
        g = BZGrid.cubic(2, 8)
        w = np.broadcast_to(np.eye(2), g.sizes + (2, 2)).copy()
        with pytest.raises(invariants.NonSkewTrim):
            invariants.km_trim_pfaffian(bloch.SewingField(g, w))

    def test_pfaffian_off_the_circle_rejected(self):
        # unit det on the axis cycles and the staircase up to the last
        # fixed node, where |pf| = 0.5; the same matrix on every node is
        # refused earlier, by the unit-circle gate on the axis cycles
        g = BZGrid.cubic(2, 8)
        w = np.broadcast_to(_S, g.sizes + (2, 2)).copy()
        w[4, 4] = 0.5 * _S
        with pytest.raises(invariants.PfaffianOffCircle,
                           match=r"\|pf\| = 0\.500000"):
            invariants.km_trim_pfaffian(bloch.SewingField(g, w))
        with pytest.raises(bloch.BlochError, match="unit circle"):
            invariants.km_trim_pfaffian(bloch.SewingField(g, 0.5 * w))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_det_winding_around_axis_0_rejected(self, dim):
        # det w = exp(2 pi i n_0 / 8): steps of pi/4, one turn round the
        # axis 0 cycle
        g = BZGrid.cubic(dim, 8)
        n0 = np.arange(8).reshape((8,) + (1,) * (dim - 1))
        w = np.exp(1j * np.pi * n0 / 8)[..., None, None] * _S
        with pytest.raises(bloch.DetWinding,
                           match="winds by 1 around cycle 0"):
            invariants.km_trim_pfaffian(bloch.SewingField(g, w))

    @pytest.mark.parametrize("node, axis", [
        ((4, 1), 1), ((0, 4, 1), 2), ((4, 4, 1), 2)])
    def test_quarter_turn_on_the_staircase_rejected(self, node, axis):
        # det w = i at one node of a staircase line off the axis cycles, 1
        # elsewhere: a step of exactly pi/2, refused as phase_continue
        # refuses it
        g = BZGrid.cubic(len(node), 8)
        w = np.broadcast_to(_S, g.sizes + (2, 2)).copy()
        w[node] = [[0, 1j], [-1, 0]]
        with pytest.raises(bloch.DetJump, match=f"along axis {axis} from"):
            invariants.km_trim_pfaffian(bloch.SewingField(g, w))


class TestPlaneInvariant:
    def test_matches_pfaffian_oracle_2d(self, bhz_cases):
        # the pfaffian route on a 2-d field, against the plane method
        for label in ("inverted", "trivial"):
            model, raw, wfield = bhz_cases[label]
            p_pf, _ = invariants.km_trim_pfaffian(wfield)
            p_pl, D = invariants.km_plane_invariant(raw, model.theta)
            assert p_pl == p_pf
            assert abs(D - round(D)) <= 1e-2

    def test_gauge_shift_invariance(self, bhz_cases):
        # the plane method rebuilds its own boundary gauge, so a random
        # per-node unitary change of the input frames must not matter
        model, raw, _ = bhz_cases["inverted"]
        rng = np.random.default_rng(0)
        phase = np.exp(2j * np.pi * rng.random(raw.grid.sizes))
        scrambled = bloch.FrameField(raw.grid,
                                     raw.frames * phase[..., None, None],
                                     raw.energies)
        p_ref, _ = invariants.km_plane_invariant(raw, model.theta)
        p_scr, _ = invariants.km_plane_invariant(scrambled, model.theta)
        assert p_scr == p_ref


class TestTwistedPlanes:
    """Known answers that break inversion: `conftest.twisted` keeps the
    invariant of its model, and the plane counts are exact integers only
    with the half plane's boundary orientation (`invariants._plane_raw`)."""

    @pytest.mark.parametrize("name, params, dim, t", [
        ("bhz2d", {"m": 1.0}, 2, 1.0), ("fkm3d", {"dt": 0.5}, 3, 0.5)])
    def test_twist_keeps_spectrum_and_time_reversal(self, name, params,
                                                    dim, t):
        model = models.make_model(name, params)
        twin = twisted(model, t)
        K = BZGrid.cubic(dim, 8).node_mesh()
        H = twin.hamiltonian_batch(K)
        assert np.abs(np.linalg.eigvalsh(H) - np.linalg.eigvalsh(
            model.hamiltonian_batch(K))).max() <= 1e-12
        U = model.theta.U
        assert np.abs(U @ H.conj() @ U.conj().T
                      - twin.hamiltonian_batch(-K)).max() <= 1e-12
        # the twist moves the frames: H_t is not H
        assert np.abs(H - model.hamiltonian_batch(K)).max() > 0.1

    def test_twisted_bhz2d(self):
        # the opposite ring orientation counts 0.06 here: parity +1, wrong
        model = twisted(models.make_model("bhz2d", {"m": 1.0}), 1.0)
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(2, 24))
        parity, D = invariants.km_plane_invariant(raw, model.theta)
        assert parity == -1 and abs(D - round(D)) <= 1e-6

    def test_twisted_fkm3d(self):
        # the opposite ring orientation counts 0.96, 0.73, ... and refuses
        model = twisted(models.make_model("fkm3d", {"dt": 0.5}), 0.5)
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 24))
        raws = invariants._plane_raws(raw, model.theta.U)
        assert len(raws) == 6
        assert all(abs(r - round(r)) <= 1e-6 for r in raws)
        strong, _, _ = invariants.km_weak_strong(raw, model.theta)
        assert strong == -1

    def test_flux_margin_rises_as_the_grid_coarsens(self):
        # every plane count is an integer to rounding, even where the axes
        # disagree (8^3); the largest plaquette flux over pi is the margin
        # that sees the coarse grid fail
        model = twisted(models.make_model("fkm3d", {"dt": 0.5}), 2.5)
        margins = []
        for n in (24, 16, 8):
            raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, n))
            assert all(abs(r - round(r)) <= 1e-12
                       for r in invariants._plane_raws(raw, model.theta.U))
            margins.append(invariants.plane_flux_margin(raw))
        assert margins[0] < margins[1] < margins[2] <= 1.0
        assert margins[0] < 0.2 and margins[2] > 0.9
        with pytest.raises(invariants.AxisInconsistency):
            invariants.km_weak_strong(raw, model.theta)

    @pytest.mark.parametrize("name, params, dim, n", [
        ("bhz2d", {"m": 1.0}, 2, 12), ("fkm3d", {"dt": 0.5}, 3, 8)])
    def test_route_reports_the_flux_margin(self, name, params, dim, n):
        # the planes route's residual is the flux margin, in 2-d and 3-d;
        # the registry's inversion-symmetric models keep it at rounding,
        # and their twisted twins do not
        model = models.make_model(name, params)
        grid = BZGrid.cubic(dim, n)
        for t, low, high in ((0.0, 0.0, 2e-16), (1.0, 0.01, 0.5)):
            twin = twisted(model, t) if t else model
            raw = bloch.diagonalize_grid(twin, grid)
            out = cli._planes(model=twin, grid=grid, raw=raw)
            assert out["parity"] == -1
            assert out["residual"] == invariants.plane_flux_margin(raw)
            assert low <= out["residual"] <= high


    def test_refused_route_keeps_its_flux_margin(self):
        # the axes disagree on twisted fkm3d t = 2.5 at 8^3: the report
        # keeps the margin (0.992) beside the refusal that it explains
        model = twisted(models.make_model("fkm3d", {"dt": 0.5}), 2.5)
        grid = BZGrid.cubic(3, 8)
        raw = bloch.diagonalize_grid(model, grid)
        outputs, statuses = cli._compute_methods(
            model, grid, ["planes"], dict(cli._TOL_DEFAULTS), raw=raw)
        assert statuses == {"failed"}
        report = invariants.assemble_report({}, grid, outputs)
        planes = report["methods"]["planes"]
        assert set(planes) == {"error", "residual"}
        assert planes["error"].startswith("AxisInconsistency")
        assert planes["residual"] == invariants.plane_flux_margin(raw)
        assert 0.99 < planes["residual"] < 0.995


class TestRingGauge:
    def test_rings_stacked_or_alone_agree(self, pipeline):
        # the two boundary rings of a plane go through one call; each comes
        # out bitwise as it does alone
        model = models.make_model("fkm3d", {"dt": 1.0})
        u = pipeline.raw("fkm3d", {"dt": 1.0}, 16).restrict_plane(2, 0).frames
        rings = np.stack([u[:, 8], u[:, 0]])
        both = invariants._ring_tr_gauge(rings, model.theta.U)
        for r in range(2):
            alone = invariants._ring_tr_gauge(rings[r:r + 1], model.theta.U)
            assert np.array_equal(both[r], alone[0])

    @pytest.mark.parametrize("parts", [(1.0,), (0.5, 3.0)], ids=["m2", "m4"])
    def test_line_transport_is_the_step_and_ramp_map(self, parts):
        # the half rings go through the seed's line transport; it is the
        # map of a step loop to N/2 whose endpoint mismatch with the
        # canonical frames is spread by the powers j/(N/2)
        model = models.make_model("fkm3d", {"dt": parts[0]})
        for dt in parts[1:]:
            model = models.direct_sum(model,
                                      models.make_model("fkm3d", {"dt": dt}))
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 16))
        plane = raw.restrict_plane(2, 0).frames
        got = invariants._ring_tr_gauge(np.stack([plane[:, 8], plane[:, 0]]),
                                        model.theta.U)
        half = 8
        v = np.stack([plane[:, 8], plane[:, 0]])
        v[:, [0, half]] = got[:, [0, half]]
        for j in range(1, half + 1):
            v[:, j] = v[:, j] @ linalg.batched_polar_unitary(
                linalg._dag(v[:, j]) @ v[:, j - 1])
        ramp = linalg.unitary_ramp(linalg._dag(v[:, half]) @ got[:, half],
                                   np.arange(1, half + 1) / half)
        for j, G in enumerate(ramp, 1):
            v[:, j] = v[:, j] @ G
        assert np.abs(got[:, :half + 1] - v[:, :half + 1]).max() <= 1e-12

    def test_one_polar_call_per_step_for_both_rings(self, pipeline,
                                                    monkeypatch):
        model = models.make_model("fkm3d", {"dt": 1.0})
        plane = pipeline.raw("fkm3d", {"dt": 1.0}, 16).restrict_plane(0, 8)
        stacks = []
        polar = bloch._svd_polar
        monkeypatch.setattr(bloch, "_svd_polar",
                            lambda M: stacks.append(M.shape) or polar(M))
        invariants.km_plane_invariant(plane, model.theta)
        # the line transport of both half rings: seven steps and the
        # holonomy towards the canonical frames at N/2, one polar call each
        assert stacks == [(2, 2, 2)] * 8


def _fixed_points_per_ring(rings, U):
    """The ring fixed points gauged one at a time by kramers_canonical, as
    the loop the stacked pass replaced did."""
    v = rings.copy()
    for r in range(len(v)):
        for t in (0, rings.shape[1] // 2):
            s = v[r, t].conj().T @ U @ v[r, t].conj()
            v[r, t] = v[r, t] @ linalg.kramers_canonical(s)
    return v


class TestRingFixedPoints:
    @pytest.mark.parametrize("parts", [(1.0,), (0.5, 3.0)], ids=["m2", "m4"])
    def test_stacked_pass_matches_the_per_ring_basis(self, parts):
        # every boundary ring of the six planes, m = 2 (fkm3d) and m = 4 (a
        # direct sum of two fkm3d), in a random gauge: the gauged fixed
        # points carry the standard symplectic form and match the per-ring
        # gauge
        model = models.make_model("fkm3d", {"dt": parts[0]})
        for dt in parts[1:]:
            model = models.direct_sum(model,
                                      models.make_model("fkm3d", {"dt": dt}))
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 8))
        U, m = model.theta.U, model.n_occ
        rings = np.stack([raw.restrict_plane(a, i).frames[:, j]
                          for a in range(3) for i in (0, 4) for j in (4, 0)])
        # a random U(m) per node, so that S_10 takes every phase
        rng = np.random.default_rng(4)
        shape = rings.shape[:2] + (m, m)
        q, _ = np.linalg.qr(rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
        rings = rings @ q
        got = invariants._ring_tr_gauge(rings, U)
        want = _fixed_points_per_ring(rings, U)
        standard = np.kron(np.eye(m // 2), [[0, 1], [-1, 0]])
        for t in (0, 4):
            x = got[:, t]
            S = np.swapaxes(x.conj(), -1, -2) @ U @ x.conj()
            assert np.abs(S - standard).max() <= 1e-12
            assert np.abs(x - want[:, t]).max() <= 1e-13

    def test_vanishing_fixed_point_pairing_is_refused(self):
        # frames too short to be orthonormal give a skew sewing matrix with
        # S_10 ~ 1e-8: no basis brings it to the standard form
        model = models.make_model("fkm3d", {"dt": 1.0})
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 8))
        plane = raw.restrict_plane(2, 0).frames
        rings = 1e-4 * np.stack([plane[:, 4], plane[:, 0]])
        with pytest.raises(invariants.BoundaryGaugeFailure,
                           match="not skew unitary"):
            invariants._ring_tr_gauge(rings, model.theta.U)


class TestWeakStrong:
    @pytest.mark.parametrize("sizes, stacks", [
        ((8, 8, 8), [(12, 8)]), ((24, 24, 24), [(12, 24)]),
        ((12, 16, 8), [(8, 12), (4, 16)])])
    def test_one_ring_gauge_per_ring_length(self, sizes, stacks, monkeypatch):
        # the six planes' twelve rings are gauged in one call per ring
        # length (a plane normal to axis 0 has rings of length N_1, the
        # others of length N_0), and every plane's raw count is bitwise the
        # one km_plane_invariant finds on the plane alone
        model = models.make_model("fkm3d", {"dt": 1.0})
        raw = bloch.diagonalize_grid(model, BZGrid(3, sizes))
        alone = [invariants.km_plane_invariant(raw.restrict_plane(a, idx),
                                               model.theta)[1]
                 for a in range(3) for idx in (0, sizes[a] // 2)]
        gauges, raws = [], []
        ring_gauge = invariants._ring_tr_gauge
        plane_raw = invariants._plane_raw
        monkeypatch.setattr(invariants, "_ring_tr_gauge",
                            lambda rings, U: gauges.append(rings.shape[:2])
                            or ring_gauge(rings, U))
        monkeypatch.setattr(invariants, "_plane_raw",
                            lambda *args: raws.append(plane_raw(*args))
                            or raws[-1])
        strong, _, _ = invariants.km_weak_strong(raw, model.theta)
        assert strong == -1
        assert raws == alone
        assert gauges == stacks

    @staticmethod
    def _disagreeing_axes(monkeypatch):
        # raws in `plane_fluxes` key order (axis, index 0 then N/2): the
        # strong index per axis pairing reads +1, -1, +1
        monkeypatch.setattr(invariants, "_plane_raws",
                            lambda field, U: [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

    def test_axis_pairings_that_disagree_are_refused(self, monkeypatch):
        model = models.make_model("trivial", {"d": 3, "m": 2})
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 8))
        self._disagreeing_axes(monkeypatch)
        with pytest.raises(invariants.AxisInconsistency,
                           match=r"\[1, -1, 1\]"):
            invariants.km_weak_strong(raw, model.theta)

    def test_axis_inconsistency_is_a_failed_route(self, monkeypatch, capsys):
        self._disagreeing_axes(monkeypatch)
        code = cli.main(["invariant", "--model", "trivial", "--grid", "8",
                         "--methods", "planes"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["methods"]["planes"]["error"].startswith(
            "AxisInconsistency: ")

    def test_layered_weak_pattern(self, pipeline):
        # decoupled-layer stack of an inverted 2D phase: strong parity even,
        # the stacking-axis planes carry the 2D invariant
        model = models.make_model("layered3d", {"m": 2.0, "tz": 0.25})
        raw = pipeline.raw("layered3d", {"m": 2.0, "tz": 0.25}, 16)
        strong, weak, planes = invariants.km_weak_strong(raw, model.theta)
        assert strong == 1
        assert tuple(weak) == (1, 1, -1)
        # both fixed planes normal to the stacking axis are inverted
        assert planes[(2, 0)] == -1 and planes[(2, 8)] == -1

    def test_fkm_strong(self, pipeline):
        model = models.make_model("fkm3d", {"dt": 1.0})
        raw = pipeline.raw("fkm3d", {"dt": 1.0}, 16)
        strong, weak, _ = invariants.km_weak_strong(raw, model.theta)
        assert strong == -1
        assert tuple(weak) == (-1, -1, -1)


class TestWzwAndWinding:
    def test_trivial_integral_zero(self, pipeline):
        _, wfield = pipeline.gauge("trivial", {"d": 3, "m": 2}, 16)
        integral, parity = invariants.km_wzw(wfield)
        assert abs(integral) <= 1e-10
        assert parity == 1

    def test_fkm_odd(self, fkm_gauge):
        _, wfield = fkm_gauge
        integral, parity = invariants.km_wzw(wfield)
        assert parity == -1
        assert abs(integral - round(integral)) <= 0.25

    def test_winding_sums_slices_of_the_last_axis(self, fkm_gauge):
        _, wfield = fkm_gauge
        index, parity, series = invariants.km_winding(wfield)
        integral, wzw_parity = invariants.km_wzw(wfield)
        assert parity == wzw_parity == -1
        assert index == round(integral)
        assert len(series) == wfield.grid.sizes[2]
        assert np.array_equal(series,
                              bloch.wzw_density(wfield).sum(axis=(0, 1)))


class TestChernSimons:
    def test_relation_to_wzw(self, pipeline):
        frames, wfield = pipeline.gauge("fkm3d", {"dt": 1.0}, 16, limit=0.75)
        model = models.make_model("fkm3d", {"dt": 1.0})
        wfield = bloch.sewing_field(frames, model.theta,
                                    smoothness_limit=0.75)
        conn = bloch.quaternionic_average(
            bloch.berry_connection(frames, smoothness_limit=0.75), wfield)
        cs, parity, rel = invariants.km_chern_simons(conn, wfield)
        assert parity == -1
        assert rel <= 0.1
        assert abs(cs - 0.5 * round(2 * cs)) <= 0.15

    def test_unaveraged_connection_rejected(self, pipeline):
        frames, wfield = pipeline.gauge("fkm3d", {"dt": 1.0}, 16, limit=0.75)
        conn = bloch.berry_connection(frames, smoothness_limit=0.75)
        with pytest.raises(invariants.UnaveragedConnection):
            invariants.km_chern_simons(conn, wfield)


class TestS3:
    def test_two_phases(self):
        out_triv = invariants.km_s3(models.make_model("dirac_s3",
                                                      {"mass": 1.0}), 24)
        out_topo = invariants.km_s3(models.make_model("dirac_s3",
                                                      {"mass": -1.0}), 24)
        assert out_triv["parity"] == 1
        assert abs(out_triv["upsilon"]) <= 0.05
        assert out_topo["parity"] == -1
        assert abs(abs(out_topo["upsilon"]) - 1) <= 0.05

    def test_descent_matches_quadrature(self):
        out = invariants.km_s3(models.make_model("dirac_s3",
                                                 {"mass": -1.0}), 24)
        assert out["rho0_N"] + out["rho0_S"] == pytest.approx(
            out["upsilon"], abs=1e-9)


class TestReport:
    def test_consensus_and_schema(self):
        grid = BZGrid.cubic(3, 16)
        outputs = {
            "pfaffian": {"parity": -1, "raw": -1.0, "residual": 0.0,
                         "runtime_ms": 1.0, "pfaffians": [-1.0 + 0.0j]},
            "wzw": {"parity": -1, "raw": -0.98, "residual": 0.02,
                    "runtime_ms": 2.0},
        }
        rep = invariants.assemble_report({"name": "x", "params": {}},
                                         grid, outputs)
        assert rep["consensus"]
        assert set(rep) == {"model", "grid", "methods", "trim_pfaffians",
                            "weak", "strong", "consensus", "notes"}
        assert rep["trim_pfaffians"] == [[-1.0, 0.0]]

    def test_disagreement_and_errors(self):
        grid = BZGrid.cubic(3, 16)
        outputs = {
            "pfaffian": {"parity": -1, "raw": -1.0, "residual": 0.0},
            "wzw": {"parity": 1, "raw": 0.02, "residual": 0.02},
            "cs": {"error": "NonConvergent: no"},
        }
        rep = invariants.assemble_report({"name": "x", "params": {}},
                                         grid, outputs)
        assert not rep["consensus"]
        assert "error" in rep["methods"]["cs"]
        assert any("cs" in n for n in rep["notes"])


_TORUS_ROUTES = ("pfaffian", "planes", "wzw", "winding", "cs", "localise")


def _route_parities(model, raw, grid):
    outputs, _ = cli._compute_methods(
        model, grid, list(_TORUS_ROUTES), dict(cli._TOL_DEFAULTS),
        stable=True, raw=raw)
    return {name: out.get("parity") for name, out in outputs.items()}


@pytest.fixture(scope="module")
def fkm_reference(pipeline):
    model = models.make_model("fkm3d", {"dt": 0.5})
    raw = pipeline.raw("fkm3d", {"dt": 0.5}, 16)
    parities = _route_parities(model, raw, raw.grid)
    assert parities == dict.fromkeys(_TORUS_ROUTES, -1)
    return model, raw, parities


def _permuted(raw, perm):
    """The frames with their k-axes permuted: a strided view whose node
    axes are not contiguous in memory."""
    perm = tuple(perm)
    return bloch.FrameField(raw.grid,
                            np.transpose(raw.frames, perm + (3, 4)),
                            np.transpose(raw.energies, perm + (3,)))


class TestMetamorphic:
    """Relabelling the input must not move any route's parity."""

    @pytest.mark.parametrize("perm", [(2, 0, 1), (1, 0, 2)])
    def test_axis_permutation_keeps_every_route(self, fkm_reference, perm):
        model, raw, parities = fkm_reference
        moved = _permuted(raw, perm)
        assert not moved.frames.flags.c_contiguous
        assert _route_parities(model, moved, raw.grid) == parities

    @pytest.mark.parametrize("perm", [(2, 0, 1), (0, 2, 1), (2, 1, 0)])
    def test_axis_permutation_moves_the_weak_indices(self, pipeline, perm):
        model = models.make_model("layered3d", {"m": 2.0, "tz": 0.5})
        raw = pipeline.raw("layered3d", {"m": 2.0, "tz": 0.5}, 12)
        strong, weak, _ = invariants.km_weak_strong(raw, model.theta)
        assert (strong, tuple(weak)) == (1, (1, 1, -1))
        strong_p, weak_p, _ = invariants.km_weak_strong(_permuted(raw, perm),
                                                        model.theta)
        assert strong_p == 1
        assert tuple(weak_p) == tuple(weak[a] for a in perm)

    def test_random_gauge_keeps_every_route(self, fkm_reference):
        model, raw, parities = fkm_reference
        rng = np.random.default_rng(11)
        shape = raw.grid.sizes + (2, 2)
        q, r = np.linalg.qr(rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        gauge = q * (d / np.abs(d))[..., None, :]
        scrambled = bloch.FrameField(raw.grid, raw.frames @ gauge,
                                     raw.energies)
        assert _route_parities(model, scrambled, raw.grid) == parities


# each route's parity, or the error that refuses it: at 12^3 the sampling
# gate of `localise` refuses the fkm3d gauge (sewing link deficiency 1.095
# against 1.0), in every basis and beside a trivial summand alike
_BHZ_OUTCOMES = {"pfaffian": -1, "planes": -1}
_FKM_OUTCOMES = {**dict.fromkeys(_TORUS_ROUTES, -1), "localise": "RoughGauge"}


@pytest.mark.parametrize("name, params, dim, n, expected", [
    ("bhz2d", {"m": 1.0}, 2, 16, _BHZ_OUTCOMES),
    ("fkm3d", {"dt": 0.5}, 3, 12, _FKM_OUTCOMES)])
def test_orbital_basis_and_trivial_summand_keep_every_route(
        name, params, dim, n, expected):
    model = models.make_model(name, params)
    trivial = models.make_model("trivial", {"d": dim, "m": 2})
    tol = {**cli._TOL_DEFAULTS, "smoothness": 0.75}  # the sweep's gate
    for variant in (model, in_random_basis(model, 7),
                    models.direct_sum(model, trivial)):
        outputs, _ = cli._compute_methods(
            variant, BZGrid.cubic(dim, n), list(expected), tol)
        assert {k: out.get("parity", out.get("error", "").split(":")[0])
                for k, out in outputs.items()} == expected
