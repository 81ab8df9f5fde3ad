import numpy as np
import pytest

from tki import bloch, models
from tki.grids import BZGrid


@pytest.fixture(scope="module")
def bhz_raw():
    model = models.make_model("bhz2d")
    return model, bloch.diagonalize_grid(model, BZGrid.cubic(2, 24))


@pytest.fixture(scope="module")
def bhz_gauge(bhz_raw):
    model, raw = bhz_raw
    frames = bloch.smooth_gauge(raw)
    wfield = bloch.sewing_field(frames, model.theta)
    return model, frames, wfield


class TestDiagonalize:
    def test_eigenframe_contract(self, bhz_raw):
        model, raw = bhz_raw
        H = model.hamiltonian_batch(raw.grid.node_mesh())
        u, e = raw.frames, raw.energies
        resid = np.einsum("...ab,...bi->...ai", H, u) \
            - e[..., None, :] * u
        assert np.abs(resid).max() <= 1e-10
        assert np.all(e < 0)

    def test_gapless_detection(self):
        model = models.make_model("bhz2d", {"m": 4.0}, check=False)
        with pytest.raises(bloch.GaplessAt):
            bloch.diagonalize_grid(model, BZGrid.cubic(2, 16))


class TestPlaneChern:
    def test_occupied_planes_are_chern_trivial(self, bhz_raw):
        _, raw = bhz_raw
        for (_, _, _, _), (c, r) in bloch.plane_chern_numbers(raw).items():
            assert c == 0
            assert r <= 1e-6

    def test_detects_nonzero_chern(self):
        # a single-band monopole harmonic has Chern number -1
        n = 24
        g = BZGrid.cubic(2, n)
        K = g.node_mesh()
        d = np.stack([np.sin(K[..., 0]), np.sin(K[..., 1]),
                      1.5 - np.cos(K[..., 0]) - np.cos(K[..., 1])], axis=-1)
        H = (d[..., 0, None, None] * np.array([[0, 1], [1, 0]])
             + d[..., 1, None, None] * np.array([[0, -1j], [1j, 0]])
             + d[..., 2, None, None] * np.array([[1, 0], [0, -1]]))
        ev, vec = np.linalg.eigh(H)
        _, chern, resid = bloch.plane_flux_sum(vec[..., :, :1])
        assert abs(chern) == 1
        assert resid <= 1e-6


class TestSmoothGauge:
    def test_spans_the_same_subspace(self, bhz_raw, bhz_gauge):
        _, raw = bhz_raw
        _, frames, _ = bhz_gauge
        overlap = np.einsum("...ai,...aj->...ij", raw.frames.conj(),
                            frames.frames)
        sv = np.linalg.svd(overlap, compute_uv=False)
        assert np.abs(sv - 1).max() <= 1e-9

    def test_smoothness_below_gate(self, bhz_gauge):
        _, frames, _ = bhz_gauge
        assert frames.smoothness <= 0.5

    def test_periodic_wraparound_links_included(self, bhz_gauge):
        # smoothness is a max over links including the wrap-around ones,
        # so a smooth field stays smooth under a cyclic index shift
        _, frames, _ = bhz_gauge
        shifted = bloch.FrameField(
            frames.grid, np.roll(frames.frames, 5, axis=0),
            np.roll(frames.energies, 5, axis=0))
        assert shifted.smoothness == pytest.approx(frames.smoothness)

    def test_relax_deficiency_matches_direct_norms(self, bhz_raw):
        # the sweep's convergence measure keeps the link norms of the
        # frames it started from; a per-node unitary leaves them valid
        _, raw = bhz_raw
        u = raw.frames
        dim = raw.grid.dim
        sq = [(np.abs(np.einsum("...ai,...aj->...ij", u.conj(),
                                np.roll(u, -1, axis=a))) ** 2).sum((-2, -1))
              for a in range(dim)]
        rng = np.random.default_rng(11)
        X = rng.standard_normal(u.shape[:-2] + (2, 2)) \
            + 1j * rng.standard_normal(u.shape[:-2] + (2, 2))
        q, _ = np.linalg.qr(X)
        v = np.einsum("...ai,...ij->...aj", u, q)
        direct = np.mean([np.linalg.norm(
            np.einsum("...ai,...aj->...ij", v.conj(), np.roll(v, -1, axis=a))
            - np.eye(2), axis=(-2, -1)).mean() for a in range(dim)])
        assert bloch._mean_deficiency(v, sq) == pytest.approx(direct,
                                                               rel=1e-12)


class TestSewing:
    def test_contracts(self, bhz_gauge):
        _, _, wfield = bhz_gauge
        res = wfield.residuals()
        assert res["unitarity"] <= 1e-8
        assert res["involution"] <= 1e-8
        assert res["trim_skew"] <= 1e-8

    def test_matches_pointwise_overlap(self, bhz_gauge):
        model, frames, wfield = bhz_gauge
        u = frames.frames
        t = (3, 7)
        tm = tuple((-i) % n for i, n in zip(t, frames.grid.sizes))
        w_ref = u[tm].conj().T @ model.theta.U @ u[t].conj()
        assert np.abs(wfield.w[t] - w_ref).max() <= 1e-12

    def test_rough_gauge_rejected(self, bhz_raw):
        model, raw = bhz_raw
        with pytest.raises(bloch.RoughGauge):
            bloch.sewing_field(raw, model.theta, smoothness_limit=1e-6)


class TestSuReduce:
    def test_unit_determinant(self, bhz_gauge):
        _, _, wfield = bhz_gauge
        wred = bloch.su_reduce(wfield)
        assert np.abs(np.linalg.det(wred.w) - 1).max() <= 1e-9

    def test_det_phase_reconstructs_original(self, bhz_gauge):
        _, _, wfield = bhz_gauge
        wred = bloch.su_reduce(wfield)
        m = wfield.m
        phase = np.exp(2j * np.pi * wred.det_phase)[..., None, None]
        assert np.abs(phase * wred.w - wfield.w).max() <= 1e-9


class TestBerryConnection:
    def test_anti_hermitian(self, bhz_gauge):
        _, frames, _ = bhz_gauge
        A = bloch.berry_connection(frames).A
        assert np.abs(A + np.swapaxes(A, -1, -2).conj()).max() <= 1e-12

    def test_plaquette_trace_matches_link_flux(self, bhz_gauge):
        # tr of the discrete curl of A reproduces the gauge-invariant
        # plaquette flux to second order in the spacing
        _, frames, _ = bhz_gauge
        g = frames.grid
        A = bloch.berry_connection(frames).A
        h = g.spacings[0]
        curl = ((np.roll(A[1], -1, axis=0) - A[1])
                - (np.roll(A[0], -1, axis=1) - A[0])) / h
        tr_curl = np.trace(curl, axis1=-2, axis2=-1).imag * h * h
        flux_field = -np.angle(
            np.linalg.det(bloch._mm(
                bloch._dag(frames.frames),
                np.roll(frames.frames, -1, axis=0)))
            * np.linalg.det(np.roll(bloch._mm(
                bloch._dag(frames.frames),
                np.roll(frames.frames, -1, axis=1)), -1, axis=0))
            * np.linalg.det(bloch._mm(
                bloch._dag(np.roll(frames.frames, -1, axis=1)),
                np.roll(np.roll(frames.frames, -1, axis=1), -1, axis=0)
                )).conj()
            * np.linalg.det(bloch._mm(
                bloch._dag(frames.frames),
                np.roll(frames.frames, -1, axis=1))).conj())
        assert np.abs(np.abs(tr_curl) - np.abs(flux_field)).max() <= 5 * h**2


class TestQuaternionicAverage:
    def test_idempotent_and_sigma_fixed(self, bhz_gauge):
        _, frames, wfield = bhz_gauge
        conn = bloch.berry_connection(frames)
        avg = bloch.quaternionic_average(conn, wfield)
        assert avg.quaternionic_residual <= 1e-10
        twice = bloch.quaternionic_average(avg, wfield)
        assert np.abs(twice.A - avg.A).max() <= 1e-10

    def test_grid_mismatch_rejected(self, bhz_gauge):
        model, frames, wfield = bhz_gauge
        other = bloch.diagonalize_grid(model, BZGrid.cubic(2, 16))
        conn = bloch.berry_connection(bloch.smooth_gauge(other),
                                      smoothness_limit=1.0)
        with pytest.raises(bloch.GaugeMismatch):
            bloch.quaternionic_average(conn, wfield)


class TestWzwDensity:
    def test_vanishes_for_constant_field(self):
        g = BZGrid.cubic(3, 8)
        S = np.kron(np.eye(1), np.array([[0, 1], [-1, 0]]))
        w = np.broadcast_to(S, g.sizes + (2, 2)).copy()
        dens = bloch.wzw_density(bloch.SewingField(g, w))
        assert np.abs(dens).max() <= 1e-14
