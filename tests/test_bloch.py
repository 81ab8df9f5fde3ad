import numpy as np
import pytest

import contextlib
import io
import json

from tki import bloch, cli, invariants, linalg, models, sphere
from tki.grids import BZGrid
from conftest import in_random_basis, matrix_major, twisted


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


def _full_eigh(model, grid):
    """Occupied energies and frames of an `eigh` on every grid node."""
    ev, vec = np.linalg.eigh(model.hamiltonian_batch(grid.node_mesh()))
    return ev[..., :model.n_occ], vec[..., :model.n_occ]


def _projectors(u):
    return u @ np.swapaxes(u, -1, -2).conj()


class TestTimeReversalFill:
    # `diagonalize_grid` diagonalises the slab n_last in [0, N/2] and fills
    # the other nodes by time reversal, u(k) = U conj(u(-k))
    FIELDS = {
        "fkm3d": (lambda: models.make_model("fkm3d", {"dt": 0.5}),
                  (16, 16, 16)),
        "layered3d": (lambda: models.make_model(
            "layered3d", {"m": 2.0, "tz": 0.5}), (16, 16, 16)),
        "bhz2d": (lambda: models.make_model("bhz2d", {"m": 1.0}), (24, 24)),
        "fkm3d-twisted": (lambda: twisted(
            models.make_model("fkm3d", {"dt": 0.5}), 0.5), (12, 12, 12)),
        "fkm3d-8x10x12": (lambda: models.make_model("fkm3d", {"dt": 0.5}),
                          (8, 10, 12)),
    }

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_matches_a_full_eigh(self, name):
        make, sizes = self.FIELDS[name]
        model, grid = make(), BZGrid(len(sizes), sizes)
        raw = bloch.diagonalize_grid(model, grid)
        ev, vec = _full_eigh(model, grid)
        half = sizes[-1] // 2 + 1
        assert np.array_equal(raw.frames[..., :half, :, :],
                              vec[..., :half, :, :])
        assert np.abs(_projectors(raw.frames)
                      - _projectors(vec)).max() <= 1e-12
        assert np.abs(raw.energies - ev).max() <= 1e-12
        assert matrix_major(raw.frames)
        assert not bloch._k_independent(raw.frames)

    @pytest.mark.parametrize("name", ["fkm3d-8x10x12", "bhz2d"])
    def test_filled_nodes_are_theta_images(self, name):
        # the mirror taken by the index map n -> (N - n) mod N, not by the
        # flip and roll of `grid.involute`
        make, sizes = self.FIELDS[name]
        model, grid = make(), BZGrid(len(sizes), sizes)
        raw = bloch.diagonalize_grid(model, grid)
        mirror = grid.involution_indices()
        half = sizes[-1] // 2 + 1
        assert np.array_equal(
            raw.frames[..., half:, :, :],
            model.theta.apply(raw.frames[mirror])[..., half:, :, :])
        assert np.array_equal(raw.energies[..., half:, :],
                              raw.energies[mirror][..., half:, :])

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("basis", [None, 5], ids=["plain", "basis"])
    def test_k_independent_slab_copies_node_0(self, m, basis):
        # Theta's image of a constant frame is another basis of the same
        # space: copying node 0 keeps the field k-independent, bit for bit
        # a full eigh's
        model = models.make_model("trivial", {"d": 3, "m": m})
        if basis is not None:
            model = in_random_basis(model, basis)
        grid = BZGrid.cubic(3, 8)
        raw = bloch.diagonalize_grid(model, grid)
        ev, vec = _full_eigh(model, grid)
        assert np.array_equal(raw.frames, vec)
        assert np.array_equal(raw.energies, ev)
        assert bloch._k_independent(raw.frames)

    def test_one_eigh_on_the_slab(self, monkeypatch):
        calls = []

        def counted(H, *args, _f=np.linalg.eigh, **kwargs):
            calls.append(H.shape)
            return _f(H, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        model = models.make_model("fkm3d", {"dt": 0.5})
        bloch.diagonalize_grid(model, BZGrid(3, (8, 10, 12)))
        assert calls == [(8, 10, 7, 4, 4)]

    def test_sampled_model_within_the_ingest_tolerance(self):
        # a sample whose time reversal holds only to just under the ingest
        # gate: the filled projectors are those of U conj(H(-k)) U+, which
        # differs from H(k) by the residual, so they move by at most about
        # residual / gap
        model = models.make_model("fkm3d", {"dt": 0.5})
        doc = models.export_sampled(model, (8, 8, 8))
        U = model.theta.U
        X = np.arange(16).reshape(4, 4) * (1 + 2j)
        X = X + X.conj().T
        odd = 0.5 * (X - U @ X.conj() @ U.conj().T)  # U odd* U+ = -odd
        grid = BZGrid.cubic(3, 8)
        H = model.hamiltonian_batch(grid.node_mesh())
        H = H + 0.9e-8 / (2 * np.abs(odd).max()) * odd
        doc["h_real"], doc["h_imag"] = (H.real.ravel().tolist(),
                                        H.imag.ravel().tolist())
        sampled = models.ingest_sampled(doc)
        residual = models._tr_residual(U, H, grid.involute(H))
        assert 0.8e-8 < residual <= 1e-8
        raw = bloch.diagonalize_grid(sampled, grid)
        ev, vec = np.linalg.eigh(H)
        gap = float((ev[..., 2] - ev[..., 1]).min())
        err = np.abs(_projectors(raw.frames) - _projectors(vec[..., :2])).max()
        assert 1e-12 < err <= residual / gap
        assert np.abs(raw.energies - ev[..., :2]).max() <= residual


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
        field = bloch.FrameField(g, vec[..., :, :1], ev[..., :1])
        (key, (chern, resid)), = bloch.plane_chern_numbers(field).items()
        assert key == (0, 1, None, None)
        assert abs(chern) == 1
        assert resid <= 1e-6


    @pytest.mark.parametrize("name, n, dim, planes",
                             [("fkm3d", 8, 3, 6), ("bhz2d", 12, 2, 1)])
    def test_planes_traced_once_per_request(self, monkeypatch, name, n,
                                            dim, planes):
        # the Chern check in smooth_gauge and the planes route read one
        # set of plane fluxes
        flux, calls = bloch.plaquette_flux, []
        monkeypatch.setattr(bloch, "plaquette_flux",
                            lambda u: calls.append(u.shape) or flux(u))
        outputs, statuses = cli._compute_methods(
            models.make_model(name), BZGrid.cubic(dim, n),
            ["pfaffian", "planes"], {**cli._TOL_DEFAULTS, "smoothness": 1.2})
        assert not statuses and "parity" in outputs["planes"]
        assert len(calls) == planes


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
        # the step's convergence measure is the mean over every link of
        # ||O - 1||_F, and its alignment target is u+ times the sum of the
        # 2 dim neighbours, on a 2-d grid and on a 3-d grid of unequal sizes
        _, raw = bhz_raw
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((4, 6, 8, 6, 2))
                            + 1j * rng.standard_normal((4, 6, 8, 6, 2)))
        for u in (raw.frames, q):
            dim = u.ndim - 2
            deficiency, M = bloch._link_products(u, dim)
            direct = np.mean([np.linalg.norm(
                np.einsum("...ai,...aj->...ij", u.conj(),
                          np.roll(u, -1, axis=a)) - np.eye(2),
                axis=(-2, -1)).mean() for a in range(dim)])
            assert deficiency == pytest.approx(direct, rel=1e-12)
            near = sum(np.roll(u, s, axis=a) for a in range(dim)
                       for s in (1, -1))
            assert np.abs(M - np.einsum("...ai,...aj->...ij", u.conj(),
                                        near)).max() <= 1e-14
            assert matrix_major(M)

    @staticmethod
    def _per_axis_link_products(u, dim):
        """The link pass as it was before its products were stacked: one
        axis at a time, u+ taken per axis, M added from zero."""
        m = u.shape[-1]
        M = bloch._empty_stack(u.shape[:-2] + (m, m))
        M.fill(0)
        tot = 0.0
        for a in range(dim):
            O = bloch._mm(bloch._dag(u), np.roll(u, -1, axis=a))
            sq = (O.real ** 2 + O.imag ** 2).sum(axis=(-2, -1))
            re_tr = np.trace(O, axis1=-2, axis2=-1).real
            tot += float(np.sqrt(np.maximum(sq - 2 * re_tr + m, 0.0)).mean())
            M += O
            M += bloch._dag(np.roll(O, 1, axis=a))
        return tot / dim, M

    @pytest.mark.parametrize("name, n, dim", [("fkm3d", 8, 3),
                                              ("bhz2d", 12, 2)])
    def test_stacked_link_pass_changes_no_bit(self, name, n, dim):
        raw = bloch.diagonalize_grid(models.make_model(name),
                                     BZGrid.cubic(dim, n))
        for u in (raw.frames, bloch._transport_init(raw)):
            want = self._per_axis_link_products(u, dim)
            got = bloch._link_products(u, dim)
            assert got[0] == want[0]
            assert _same_bits(got[1], want[1]) and matrix_major(got[1])

    @pytest.mark.parametrize("sizes", [(8,), (6, 4), (4, 6, 8)])
    def test_inverse_laplacian_scales_plane_waves(self, sizes):
        # a plane wave e^{ip.k} comes back divided by
        # p^2 = sum_a 4 sin^2(p_a / 2), and the constant mode goes to 0
        rng = np.random.default_rng(6)
        dim = len(sizes)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        idx = np.indices(sizes)
        for j in [(0,) * dim, (1,) * dim, tuple(n // 2 for n in sizes),
                  (1,) + (0,) * (dim - 1), tuple(n - 1 for n in sizes)]:
            p = [2 * np.pi * ji / n for ji, n in zip(j, sizes)]
            wave = np.exp(1j * sum(pa * ia for pa, ia in zip(p, idx)))
            X = bloch._matrix_major(wave[..., None, None] * A)
            out = bloch._inverse_laplacian(X, dim)
            p2 = sum(4 * np.sin(pa / 2) ** 2 for pa in p)
            want = 0 * X if p2 == 0 else X / p2
            assert np.abs(out - want).max() <= 1e-13
            assert matrix_major(out)

    def test_one_step_never_lowers_the_alignment(self, monkeypatch):
        # one Fourier-accelerated step, the exact step of the linearised
        # functional, raises sum Re tr O over the links, from a transport
        # seed, from raw frames or from random frames
        def alignment(u, dim):
            return sum(np.einsum("...ai,...ai->...", u.conj(),
                                 np.roll(u, -1, axis=a)).real.sum()
                       for a in range(dim))
        raw = bloch.diagonalize_grid(models.make_model("fkm3d", {"dt": 0.5}),
                                     BZGrid.cubic(3, 8))
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((4, 6, 8, 4, 2))
                            + 1j * rng.standard_normal((4, 6, 8, 4, 2)))
        monkeypatch.setattr(bloch, "_MAX_STEPS", 1)
        for u in (bloch._transport_init(raw), raw.frames, q):
            dim = u.ndim - 2
            before = alignment(u, dim)
            after = alignment(bloch._relax(u, dim), dim)
            assert after >= before - 1e-12 * abs(before)
            assert after > before

    @pytest.mark.parametrize("nb, m", [(4, 2), (6, 4)])
    def test_constant_frames_come_back_unchanged(self, nb, m):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((nb, m))
                            + 1j * rng.standard_normal((nb, m)))
        u = np.broadcast_to(q, (4, 6, 8, nb, m)).copy()
        assert np.abs(bloch._relax(u, 3) - u).max() <= 1e-15

    @staticmethod
    def _seed_calls(monkeypatch):
        """Names of the seed and relax functions called, in order."""
        calls = []
        for name in ("_transport_init", "_multiscale_init", "_relax"):
            def counted(*args, _f=getattr(bloch, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(bloch, name, counted)
        return calls

    @pytest.mark.parametrize("m, basis", [(2, None), (4, None), (2, 7)],
                             ids=["m2", "m4", "m2-random-basis"])
    def test_k_independent_frames_are_their_own_gauge(self, monkeypatch, m,
                                                      basis):
        # an atomic insulator's frames equal node 0's bit for bit, so
        # every link is u+ u and no seed, relax or anneal runs; every torus
        # route still reads +1, and every link log and link norm of the run
        # is taken on one node
        model = models.make_model("trivial", {"d": 3, "m": m})
        if basis is not None:
            model = in_random_basis(model, basis)
        grid = BZGrid.cubic(3, 16)
        raw = bloch.diagonalize_grid(model, grid)
        calls = self._seed_calls(monkeypatch)
        frames = bloch.smooth_gauge(raw)
        assert calls == []
        assert np.array_equal(frames.frames, raw.frames)
        # the links of a random basis are 1 up to its rounding
        assert frames.smoothness <= (0.0 if basis is None else 1e-15)
        routes = ["pfaffian", "planes", "wzw", "winding", "cs", "localise"]
        nodes = _link_stack_nodes(monkeypatch)
        outputs, statuses = cli._compute_methods(model, grid, routes,
                                                 dict(cli._TOL_DEFAULTS))
        assert not statuses
        assert {name: out["parity"] for name, out in outputs.items()} \
            == dict.fromkeys(routes, 1)
        for seen in nodes.values():
            assert seen and set(seen) == {1}

    def test_k_dependent_frames_run_the_seed(self, monkeypatch):
        model = models.make_model("fkm3d", {"dt": 0.5})
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 8))
        calls = self._seed_calls(monkeypatch)
        frames = bloch.smooth_gauge(raw)
        assert calls[:2] == ["_transport_init", "_relax"]
        assert not np.array_equal(frames.frames, raw.frames)
        # every link log and link norm of a run takes the full stack
        nodes = _link_stack_nodes(monkeypatch)
        cli._compute_methods(model, raw.grid,
                             ["pfaffian", "planes", "wzw", "winding", "cs",
                              "localise"],
                             {**cli._TOL_DEFAULTS, "smoothness": 1.0})
        for seen in nodes.values():
            assert seen and set(seen) == {8 ** 3}

    def test_fourier_step_counts(self, monkeypatch):
        # the steps of the benchmark's gauge requests, per level: fkm3d
        # dt = 0.5 at 24^3 (transport seed on 12^3, multiscale seed on
        # 24^3) and the 8^3 dt = 1.5 phase-diagram point (one transport
        # seed, whose gauge `smooth_gauge` refuses above 1.2).  Recorded:
        # 18, 2 and 13; the red-black over-relaxed sweeps took 39, 5 and 23
        # (the 8^3 point then ran both transport seeds)
        inverse, steps = bloch._inverse_laplacian, {}

        def counted(X, dim):
            steps[X.shape[0]] = steps.get(X.shape[0], 0) + 1
            return inverse(X, dim)
        monkeypatch.setattr(bloch, "_inverse_laplacian", counted)
        for dt, n in ((0.5, 24), (1.5, 8)):
            bloch._smooth_frames(bloch.diagonalize_grid(
                models.make_model("fkm3d", {"dt": dt}), BZGrid.cubic(3, n)))
        assert steps[12] <= 25
        assert steps[24] <= 4
        assert steps[8] <= 18

    def test_relax_independent_of_layout(self, monkeypatch):
        # the steps store frames matrix-major; C-ordered input must give
        # bitwise the same gauge
        model = models.make_model("fkm3d", {"dt": 0.5})
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 8))
        u = np.ascontiguousarray(bloch._transport_init(raw))
        assert u.flags.c_contiguous
        um = bloch._matrix_major(u)
        monkeypatch.setattr(bloch, "_MAX_STEPS", 30)
        a = bloch._relax(u, 3)
        b = bloch._relax(um, 3)
        assert np.array_equal(a, b)
        # the result stays matrix-major
        assert a.strides == b.strides == um.strides
        assert np.array_equal(um, u)
        assert not np.array_equal(a, u)

    def test_deficiency_max_is_the_smoothness(self, bhz_gauge):
        # the cached per-link array reproduces the direct max over links,
        # and a general-m field agrees with LAPACK's spectral norm
        _, frames, _ = bhz_gauge
        u = frames.frames
        direct = max(float(bloch.batched_spectral_norm(
            bloch._mm(bloch._dag(u), np.roll(u, -1, axis=a))
            - np.eye(2)).max()) for a in range(2))
        assert frames.deficiency.shape == (2,) + frames.grid.sizes
        assert frames.smoothness == direct
        assert frames.deficiency is frames.deficiency
        g = BZGrid.cubic(3, 4)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal(g.sizes + (6, 6))
                            + 1j * rng.standard_normal(g.sizes + (6, 6)))
        field = bloch.FrameField(g, q[..., :4], np.zeros(g.sizes + (4,)))
        for a in range(3):
            O = np.einsum("...ai,...aj->...ij", q[..., :4].conj(),
                          np.roll(q[..., :4], -1, axis=a))
            ref = np.linalg.norm(O - np.eye(4), ord=2, axis=(-2, -1))
            assert np.abs(field.deficiency[a] - ref).max() <= 1e-12

    @staticmethod
    def _annealed(monkeypatch):
        """(relaxed seed, annealed gauge) of every seed tried, in order."""
        anneal, seen = bloch._anneal, []

        def seen_anneal(field, *args):
            out = anneal(field, *args)
            seen.append((field, out))
            return out

        monkeypatch.setattr(bloch, "_anneal", seen_anneal)
        return seen

    @pytest.mark.parametrize("dt, n, relaxes", [(1.5, 8, 1), (1.0, 24, 3)])
    def test_anneal_skips_a_lone_hot_node(self, monkeypatch, dt, n, relaxes):
        # near the gap closing at dt = 2 the transport seeds relax to a
        # gauge whose only links above 0.7 are the six of the Gamma node (at
        # 24^3 on the 12^3 level); kicks cannot move that spot, so no trial
        # starts and the relaxed gauge comes back as it is.  On the finest
        # level no further seed is tried: at 8^3 one seed is relaxed, and
        # its gauge stays above the 1.2 bound.  The coarse 12^3 level tries
        # both of its seeds
        raw = bloch.diagonalize_grid(models.make_model("fkm3d", {"dt": dt}),
                                     BZGrid.cubic(3, n))
        relax, sweeps = bloch._relax, []

        def counted_relax(*args):
            sweeps.append(args)
            return relax(*args)

        monkeypatch.setattr(bloch, "_relax", counted_relax)
        seen = self._annealed(monkeypatch)
        if n == 8:
            with pytest.raises(bloch.ConvergenceFailure):
                bloch.smooth_gauge(raw)
        else:
            assert bloch.smooth_gauge(raw).smoothness < 0.7
        assert len(sweeps) == relaxes  # one relax per seed, no trial
        rough = [(f, out) for f, out in seen if f.smoothness >= 0.7]
        assert len(rough) == {8: 1, 24: 2}[n]
        for field, (best, s) in rough:
            assert np.count_nonzero(field.deficiency > 0.7) == 6
            assert best is field and s == field.smoothness

    @pytest.mark.parametrize("m, n, hot", [(0.25, 24, 0), (7.5, 32, 6),
                                           (0.3, 24, 0)],
                             ids=["0.25-24", "7.5-32", "0.3-24"])
    def test_first_seed_smooths_a_former_fallback_level(self, monkeypatch, m,
                                                        n, hot):
        # the finest level relaxes one seed, and no fallback runs.  At m =
        # 7.5 on 32^2 it relaxes to a short defect line, more than 2 dim
        # hot links, which its own anneal trials clear; at 24^2 (m = 0.25
        # and 0.3) it relaxes below 0.7 with no hot link.  Under the
        # red-black sweeps m = 7.5 at 32^2 and m = 0.3 at 24^2 relaxed to 4
        # hot links that only the fallback seed removed, and with frames
        # from a full-grid eigh the 24^2 levels relaxed to 11 and 6
        raw = bloch.diagonalize_grid(models.make_model("bhz2d", {"m": m}),
                                     BZGrid.cubic(2, n))
        seen = self._annealed(monkeypatch)
        assert bloch.smooth_gauge(raw).smoothness < 0.7
        seeds = [f for f, _ in seen if f.grid.sizes == raw.grid.sizes]
        assert len(seeds) == 1
        assert np.count_nonzero(seeds[0].deficiency > 0.7) == hot

    @pytest.mark.parametrize("name, params, n, parity", [
        ("bhz2d", {"m": 2.0}, 24, -1),
        ("layered3d", {"m": 1.0, "tz": 0.25}, 24, 1)],
        ids=["bhz2d", "layered3d"])
    def test_fallback_seed_rescues_a_coarse_level(self, monkeypatch, name,
                                                  params, n, parity):
        # the first transport seed of the coarse level relaxes to a defect
        # line that its kicks leave above 1.2 (bhz2d m = 2: 1.52; layered3d:
        # 1.46, and no number of kicks gets below 1.44); the reversed-order
        # seed smooths the level below 0.7, and the finest gauge passes the
        # CLI's 0.5 gate on every route
        model = models.make_model(name, params)
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(model.dim, n))
        seen = self._annealed(monkeypatch)
        assert bloch.smooth_gauge(raw).smoothness < 0.5
        (first, (first_out, s1)), (_, (_, s2)) = seen[:2]
        assert first.grid.sizes == (n // 2,) * model.dim
        assert s1 > 1.2 and bloch._defect_line(first_out)
        assert s2 < 0.7
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["invariant", "--model", name, "--params",
                             ",".join(f"{k}={v}" for k, v in params.items()),
                             "--grid", str(n), "--stable-output"])
        assert code == 0
        methods = json.loads(out.getvalue())["methods"]
        assert {v["parity"] for v in methods.values()} == {parity}

    def test_anneal_clears_a_vortex_line(self, monkeypatch):
        # layered3d m = 2 relaxes into a vortex line of many hot links,
        # which the kicks dissolve
        raw = bloch.diagonalize_grid(
            models.make_model("layered3d", {"m": 2.0, "tz": 0.5}),
            BZGrid.cubic(3, 16))
        seen = self._annealed(monkeypatch)
        assert bloch.smooth_gauge(raw).smoothness < 0.7
        relaxed = seen[0][0]
        assert relaxed.smoothness > 0.7
        assert np.count_nonzero(relaxed.deficiency > 0.7) > 6


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


def _whole_grid_su_reduce(wfield):
    """The SU reduction on every node, written out here as a reference for
    `su_reduce`'s fixed-node matrices: arg det w swept over the whole grid
    (along axis 0 from the origin, then along axis 1 from every node
    reached, then axis 2), averaged with its inversion image, and gated to
    det = 1 to 1e-9 on every node."""
    grid, w, m = wfield.grid, wfield.w, wfield.m
    d = linalg.batched_det(w)
    if np.abs(np.abs(d) - 1).max() > 1e-6:
        raise bloch.BlochError("det(w) strays from the unit circle")
    for a in range(grid.dim):
        sel = tuple(slice(None) if b == a else 0 for b in range(grid.dim))
        _, wind = linalg.phase_continue(np.append(d[sel], d[sel][0]))
        if wind != 0:
            raise bloch.DetWinding(a, wind)
    phi = np.empty(grid.sizes)
    phi[(0,) * grid.dim] = np.angle(d[(0,) * grid.dim])
    for a in range(grid.dim):
        sel = tuple([slice(None)] * (a + 1) + [0] * (grid.dim - a - 1))
        sub, line = d[sel], phi[sel]
        line[..., 1:] = np.cumsum(np.angle(sub[..., 1:] / sub[..., :-1]),
                                  axis=-1)
        line[..., 1:] += line[..., :1]
    phi = 0.5 * (phi + grid.involute(phi))
    wt = np.exp(-1j * phi / m)[..., None, None] * w
    if np.abs(linalg.batched_det(wt) - 1).max() > 1e-9:
        raise bloch.BlochError("determinant reduction failed to reach SU(m)")
    return bloch.SewingField(grid, wt)


def _reduction_model(name):
    """(model, dim, n) of one of the fields `TestSuReduce` reduces."""
    mk = models.make_model
    if name.startswith("random"):
        _, seed, m = name.split("-")
        return in_random_basis(mk("trivial", {"d": 3, "m": int(m[1:])}),
                               int(seed[1:])), 3, 12
    if name.startswith("trivial"):
        _, d, m = name.split("-")
        d, m = int(d[1:]), int(m[1:])
        return mk("trivial", {"d": d, "m": m}), d, 16 if d == 3 else 12
    fkm, bhz = mk("fkm3d", {"dt": 0.5}), mk("bhz2d", {"m": 1})
    return {"fkm3d-24": (fkm, 3, 24),
            "fkm3d-dt3-16": (mk("fkm3d", {"dt": 3.0}), 3, 16),
            "layered3d": (mk("layered3d", {"m": 2, "tz": 0.5}), 3, 16),
            "bhz2d-m1": (bhz, 2, 24),
            "bhz2d-m-1": (mk("bhz2d", {"m": -1}), 2, 24),
            "twisted-fkm3d-t0.25": (twisted(fkm, 0.25), 3, 16),
            "twisted-fkm3d-t0.5": (twisted(fkm, 0.5), 3, 16),
            "twisted-bhz2d-t1": (twisted(bhz, 1.0), 2, 24),
            "fkm3d-sum": (models.direct_sum(fkm, mk("fkm3d", {"dt": 3.0})),
                          3, 16)}[name]


class TestSuReduce:
    """`su_reduce` continues arg det w along the fixed-node staircase and
    returns the reduced matrices at the fixed nodes alone."""

    def test_unit_determinant(self, bhz_gauge):
        _, _, wfield = bhz_gauge
        wred = bloch.su_reduce(wfield)
        assert wred.shape == (4, 2, 2)
        assert np.abs(np.linalg.det(wred) - 1).max() <= 1e-9

    def test_det_phase_reconstructs_original(self, bhz_gauge):
        # the reduction divides each fixed node by one unit scalar c, an
        # m-th root of det w: w(t) = c w_reduced
        _, _, wfield = bhz_gauge
        m, trims = wfield.m, wfield.grid.trims
        w = np.stack([wfield.w[t] for t in trims])
        ratio = w @ bloch._dag(bloch.su_reduce(wfield))
        c = ratio[..., 0, 0]
        assert np.abs(ratio - c[..., None, None] * np.eye(m)).max() <= 1e-9
        assert np.abs(np.abs(c) - 1).max() <= 1e-9
        assert np.abs(c ** m - np.linalg.det(w)).max() <= 1e-9

    def test_odd_column_winding_off_the_staircase_is_reduced(self):
        # det w winds once along axis 1 on the columns n_0 = 1..3 and back
        # on their mirrors, but not on the axis cycles through the origin
        # nor on the staircase's columns 0 and 4.  The whole-grid sweep
        # reaches k and -k along columns that wind oppositely, so its two
        # branches differ by 2 pi there, and its inversion average leaves
        # det = -1: it refuses the field.  The staircase never visits those
        # columns and reduces every fixed node to the symplectic form
        g = BZGrid.cubic(2, 8)
        theta = np.zeros(g.sizes)
        theta[1:4] = 2 * np.pi * np.arange(8) / 8
        theta[5:] = g.involute(theta)[5:]
        S = np.array([[0, 1], [-1, 0]], dtype=complex)
        wfield = bloch.SewingField(
            g, np.exp(0.5j * theta)[..., None, None] * S)
        assert max(wfield.residuals().values()) <= 1e-12
        with pytest.raises(bloch.BlochError, match="failed to reach SU"):
            _whole_grid_su_reduce(wfield)
        assert np.array_equal(bloch.su_reduce(wfield),
                              np.broadcast_to(S, (4, 2, 2)))
        assert invariants.km_trim_pfaffian(wfield) == (1, [1, 1, 1, 1])

    @pytest.mark.parametrize("name", [
        "fkm3d-24", "fkm3d-dt3-16", "layered3d", "bhz2d-m1", "bhz2d-m-1",
        "trivial-d2-m2", "trivial-d2-m4", "trivial-d3-m2", "trivial-d3-m4",
        "random-s1-m2", "random-s1-m4", "random-s2-m2", "random-s2-m4",
        "random-s3-m2", "random-s3-m4", "twisted-fkm3d-t0.25",
        "twisted-fkm3d-t0.5", "twisted-bhz2d-t1", "fkm3d-sum"])
    def test_fixed_nodes_are_the_whole_grid_reduction(self, name):
        # at a fixed node the inversion average is the identity and the
        # staircase takes the whole-grid sweep's steps, so every bit agrees
        model, dim, n = _reduction_model(name)
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(dim, n))
        _, wfield = bloch.gauge_pipeline(raw, model.theta,
                                         smoothness_limit=1.0)
        ref = _whole_grid_su_reduce(wfield).w
        assert np.array_equal(bloch.su_reduce(wfield),
                              np.stack([ref[t] for t in wfield.grid.trims]))


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


def _link_stack_nodes(monkeypatch):
    """Node counts of the stacks that `unitary_log` and
    `batched_spectral_norm` receive from the link kernels."""
    nodes = {"unitary_log": [], "batched_spectral_norm": []}
    for name, seen in nodes.items():
        def spy(X, _f=getattr(bloch, name), _seen=seen):
            _seen.append(X[..., 0, 0].size)
            return _f(X)
        monkeypatch.setattr(bloch, name, spy)
    return nodes


def _same_bits(a, b):
    """Equal shape, dtype and bytes, so signed zeros count too."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def _link_kernels(x):
    """link_log and link_deficiency of a stack, each over every grid axis."""
    return [bloch.link_log(x), bloch.link_deficiency(x)]


def _full_path_kernels(x):
    """`_link_kernels` with the k-independence test forced false."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bloch, "_k_independent", lambda x: False)
        return _link_kernels(x)


class TestLinkKernels:
    """A k-independent stack takes the link kernels on node 0 alone, and
    its results are bitwise those of the full stack."""

    @staticmethod
    def _trivial_fields(d, m, basis):
        model = models.make_model("trivial", {"d": d, "m": m})
        if basis is not None:
            model = in_random_basis(model, basis)
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(d, 8))
        frames, wfield = bloch.gauge_pipeline(raw, model.theta)
        return {"frames": frames.frames, "w": wfield.w}

    @pytest.mark.parametrize("d, m, basis", [
        (3, 2, None), (3, 4, None), (3, 6, None), (2, 2, None), (3, 2, 7),
        (3, 4, 7), (3, 6, 7)],
        ids=["d3-m2", "d3-m4", "d3-m6", "d2-m2", "d3-m2-random-basis",
             "d3-m4-random-basis", "d3-m6-random-basis"])
    def test_one_node_path_changes_no_bit(self, d, m, basis):
        for name, x in self._trivial_fields(d, m, basis).items():
            assert bloch._k_independent(x), name
            one_node = _link_kernels(x)
            for got, want in zip(one_node, _full_path_kernels(x)):
                assert _same_bits(got, want), name
            L = one_node[0]
            assert L.shape == (d,) + x.shape[:-2] + (x.shape[-1],) * 2
            assert matrix_major(L) and L.flags.writeable

    def test_one_ulp_off_takes_the_full_path(self, monkeypatch):
        x = self._trivial_fields(3, 4, 7)["frames"].copy()
        x[1, 2, 3, 0, 0] = (np.nextafter(x[1, 2, 3, 0, 0].real, np.inf)
                            + 1j * x[1, 2, 3, 0, 0].imag)
        assert not bloch._k_independent(x)
        nodes = _link_stack_nodes(monkeypatch)
        full = _link_kernels(x)
        for seen in nodes.values():
            assert seen == [8 ** 3] * 3
        for got, want in zip(full, _full_path_kernels(x)):
            assert _same_bits(got, want)

    @pytest.mark.parametrize("one_node", [True, False],
                             ids=["one-node", "full-stack"])
    def test_field_tested_once_per_call(self, monkeypatch, one_node):
        # each call covers every axis: one k-independence test, then one
        # kernel call on node 0 or one per axis on the full stack
        x = self._trivial_fields(3, 2, None)["frames"].copy()
        if not one_node:
            x[0, 0, 1] = x[0, 0, 1, ::-1]
        seen, k_independent = [], bloch._k_independent
        monkeypatch.setattr(bloch, "_k_independent",
                            lambda y: seen.append(y) or k_independent(y))
        nodes = _link_stack_nodes(monkeypatch)
        _link_kernels(x)
        assert len(seen) == 2 and all(y is x for y in seen)
        for calls in nodes.values():
            assert calls == ([1] if one_node else [8 ** 3] * 3)


def _sewing_field(name):
    """The sewing matrices of one of the fields `TestSewingLinks` logs."""
    if name == "dirac_s3-32":
        model = models.make_model("dirac_s3", {"mass": -1.0})
        mesh = sphere.SphereMesh.cubic(32)
        return sphere.sphere_sewing(sphere.sphere_frames(model, mesh),
                                    model.theta, mesh)
    model, n = models.make_model("fkm3d", {"dt": 0.5}), 24
    if name == "fkm3d-twisted-24":
        model = twisted(model, 0.5)
    elif name == "fkm3d-sum-16":
        model, n = models.direct_sum(
            model, models.make_model("fkm3d", {"dt": 3.0})), 16
    raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, n))
    return bloch.gauge_pipeline(raw, model.theta)[1].w


def _logged_links(name, w, monkeypatch):
    """The sewing-link logs a request takes: every periodic link on the
    torus (`bloch.unitary_link_log`); on S^3 the three axes' logs of
    `sphere_wzw_density`, whose open chi and theta axes log no wrap-around
    link."""
    if name != "dirac_s3-32":
        return bloch.unitary_link_log(w)
    logs = []

    def kept(O, _f=linalg.unitary_log):
        logs.append(_f(O))
        return logs[-1]
    monkeypatch.setattr(sphere, "unitary_log", kept)
    sphere.sphere_wzw_density(w, sphere.SphereMesh.cubic(32))
    return logs


class TestSewingLinks:
    """The links of a sewing field are unitary to rounding, so their log
    (`bloch.unitary_link_log`, and `sphere_wzw_density` on S^3) skips the
    polar factor that the frames' contractions need, and agrees with the
    polar log to rounding."""

    @pytest.mark.parametrize("name", ["fkm3d-24", "fkm3d-twisted-24",
                                      "fkm3d-sum-16", "dirac_s3-32"])
    def test_links_log_without_a_polar_factor(self, monkeypatch, name):
        w = _sewing_field(name)
        m = w.shape[-1]
        eig_nodes = []

        def counted(W, _f=linalg._eig_log):
            eig_nodes.append(W[..., 0, 0].size)
            return _f(W)
        monkeypatch.setattr(linalg, "_eig_log", counted)
        monkeypatch.setattr(bloch, "batched_polar_unitary", None)
        L = _logged_links(name, w, monkeypatch)  # takes no polar factor
        direct, eig_nodes[:] = list(eig_nodes), []
        for a in range(w.ndim - 2):
            O = linalg._mm(linalg._dag(w), np.roll(w, -1, axis=a))
            if name == "dirac_s3-32" and a < 2:
                # an open axis: its last slice reuses the backward link
                O[(slice(None),) * a + (-1,)] = O[(slice(None),) * a + (-2,)]
            assert np.abs(linalg._mm(linalg._dag(O), O)
                          - np.eye(m)).max() <= 1e-12
            ref = linalg.unitary_log(linalg.batched_polar_unitary(O))
            assert np.abs(L[a] - ref).max() <= 1e-13
            assert np.abs(L[a] + linalg._dag(L[a])).max() <= 1e-13
        # no node leaves `_eigh_log` for `_eig_log`; a 2x2 torus link whose
        # eigenphases straddle the branch cut does so with or without the
        # polar factor, and on S^3 no logged link straddles it
        assert direct == ([] if m > 2 or name == "dirac_s3-32"
                          else eig_nodes)


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

    @staticmethod
    def _two_pass(conn, wfield):
        # sigma over all axes, applied once to A and once to the average
        grid, w = wfield.grid, wfield.w

        def sigma(A):
            out = np.empty_like(A)
            for a, h in enumerate(grid.spacings):
                L = bloch.unitary_link_log(w)[a] / h
                lam = 0.5 * (L + np.roll(L, 1, axis=a))
                out[a] = -bloch._mm(w, bloch._mm(
                    grid.involute(A[a]).conj() + lam, bloch._dag(w)))
            return out
        Ap = 0.5 * (conn.A + sigma(conn.A))
        return Ap, float(np.abs(Ap - sigma(Ap)).max())

    @pytest.mark.parametrize("parts", [(0.5,), (0.5, 3.0)])
    def test_per_axis_pass_equals_two_pass_reference(self, parts):
        model = models.make_model("fkm3d", {"dt": parts[0]})
        for dt in parts[1:]:
            model = models.direct_sum(model,
                                      models.make_model("fkm3d", {"dt": dt}))
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 12))
        frames, wfield = bloch.gauge_pipeline(raw, model.theta,
                                              smoothness_limit=1.0)
        conn = bloch.berry_connection(frames, smoothness_limit=1.0)
        avg = bloch.quaternionic_average(conn, wfield)
        Ap, residual = self._two_pass(conn, wfield)
        assert np.array_equal(avg.A, Ap)
        assert avg.quaternionic_residual == residual

    @pytest.mark.parametrize("parts", [(0.5,), (0.5, 3.0)])
    def test_reduced_field_stands_for_the_unreduced(self, parts):
        # the degree density does not see the divided-out phase, so the
        # unreduced field, which the averaged connection needs, gives the
        # reduced field's density and a Chern-Simons integral at -1/2 of
        # it.  The relaxed gauge keeps det w constant, so a smooth
        # inversion-even U(1) twist of the frames makes the phase move
        # between neighbours
        model = models.make_model("fkm3d", {"dt": parts[0]})
        for dt in parts[1:]:
            model = models.direct_sum(model,
                                      models.make_model("fkm3d", {"dt": dt}))
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 12))
        frames = bloch.smooth_gauge(raw)
        k = frames.grid.node_mesh()
        twist = np.exp(1j * (0.15 * np.cos(k[..., 0])
                             + 0.1 * np.cos(k[..., 1])))
        frames = bloch.FrameField(frames.grid,
                                  frames.frames * twist[..., None, None],
                                  frames.energies)
        wfield = bloch.sewing_field(frames, model.theta, smoothness_limit=1.0)
        wred = _whole_grid_su_reduce(wfield)
        d = np.linalg.det(wfield.w)
        assert max(np.abs(np.angle(np.roll(d, -1, axis=a) / d)).max()
                   for a in range(3)) > 1e-3
        dens = bloch.wzw_density(wfield)
        assert np.abs(dens - bloch.wzw_density(wred)).max() <= 1e-15
        conn = bloch.berry_connection(frames, smoothness_limit=1.0)
        avg = bloch.quaternionic_average(conn, wfield)
        Ap, residual = self._two_pass(conn, wfield)
        assert np.array_equal(avg.A, Ap)
        cs, _, relation = invariants.km_chern_simons(avg, wfield)
        assert relation <= 0.05 and abs(dens.sum() + 2 * cs) <= 0.1


def _full_stack_chern_simons(A, wfield, dA=True):
    """`km_chern_simons`'s (cs, parity, relation residual) as the full stack
    runs it, written out here: the cubic term and, unless dA is False, the
    spectral derivatives are taken on every node."""
    grid = wfield.grid

    def dmu(f, mu):
        n = grid.sizes[mu]
        shape = [1] * f.ndim
        shape[mu] = n
        wave = np.fft.fftfreq(n, d=1.0 / n).reshape(shape)
        return np.fft.ifft(np.fft.fft(f, axis=mu) * (1j * wave), axis=mu)
    total = (2.0 / 3.0) * bloch._antisym_trace3(A).sum()
    for (m0, m1, m2), s in bloch._PERMS3 if dA else []:
        total += s * np.einsum("...ab,...ba->...", A[m0],
                               dmu(A[m2], m1)).sum()
    cs = -float((total * grid.cell_volume()).real) / (8 * np.pi ** 2)
    relation = abs(cs + 0.5 * float(bloch.wzw_density(wfield).sum()))
    parity, _ = invariants._round_parity(cs, lattice=0.5)
    return cs, parity, relation


def _full_stack_cs(frames, wfield):
    """The cs route's three kernels as the full stack runs them, written
    out here: every link, roll, involution and spectral derivative is taken
    on every node.  Returns the Berry connection, the averaged connection,
    its quaternionic residual and `km_chern_simons`'s (cs, parity,
    relation residual)."""
    grid = frames.grid
    A = bloch.link_log(frames.frames, const=False)
    for a, h in enumerate(grid.spacings):
        A[a] = bloch._AH(0.5 * (A[a] + np.roll(A[a], 1, axis=a)) / h)
    w, wd = wfield.w, bloch._dag(wfield.w)
    L = bloch.unitary_link_log(w, const=False)
    Ap, residuals = np.empty_like(A), []
    for a, h in enumerate(grid.spacings):
        La = L[a] / h
        lam = 0.5 * (La + np.roll(La, 1, axis=a))

        def sigma(X):
            return -bloch._mm(w, bloch._mm(grid.involute(X).conj() + lam,
                                           wd))
        Ap[a] = 0.5 * (A[a] + sigma(A[a]))
        residuals.append(np.abs(Ap[a] - sigma(Ap[a])).max())
    return (A, Ap, float(np.max(residuals)),
            _full_stack_chern_simons(Ap, wfield))


class TestOneNodeConnection:
    """k-independent frames and sewing fields run the cs route's kernels
    (Berry connection, quaternionic average, Chern-Simons integral) on node
    0 alone, bitwise the full stack's result; one ulp off, a field takes
    the full stack.  Each field is tested for k-independence once."""

    @staticmethod
    def _fields(m, basis, n):
        model = models.make_model("trivial", {"d": 3, "m": m})
        if basis is not None:
            model = in_random_basis(model, basis)
        raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, n))
        frames, wfield = bloch.gauge_pipeline(raw, model.theta)
        bloch.wzw_density(wfield)  # the density's own stack, built first
        return frames, wfield

    @staticmethod
    def _route(frames, wfield, monkeypatch):
        """The route's kernels in turn, and per kernel the node count of
        every `bloch._mm` product and the number of spectral derivatives
        (`np.fft.fft` calls)."""
        seen = []
        mm, fft = bloch._mm, np.fft.fft
        monkeypatch.setattr(bloch, "_mm", lambda X, Y: seen.append(
            X[..., 0, 0].size) or mm(X, Y))
        monkeypatch.setattr(np.fft, "fft", lambda *args, **kwargs: seen.append(
            "fft") or fft(*args, **kwargs))
        calls = []
        conn = bloch.berry_connection(frames)
        calls.append(seen[:])
        seen.clear()
        avg = bloch.quaternionic_average(conn, wfield)
        calls.append(seen[:])
        seen.clear()
        out = invariants.km_chern_simons(avg, wfield)
        calls.append(seen[:])
        return conn, avg, out, calls

    @staticmethod
    def _assert_full_formula(frames, wfield, conn, avg, out):
        A, Ap, residual, want = _full_stack_cs(frames, wfield)
        assert _same_bits(conn.A, A) and _same_bits(avg.A, Ap)
        assert avg.quaternionic_residual == residual
        assert _same_bits(np.array(out), np.array(want))

    @pytest.mark.parametrize("m, basis, n", [
        (2, None, 16), (4, None, 16), (4, 7, 10), (4, 7, 16)],
        ids=["m2-16", "m4-16", "m4-random-basis-10", "m4-random-basis-16"])
    def test_one_node_path_changes_no_bit(self, monkeypatch, m, basis, n):
        # in the random basis A is not 0 but rounding; at 10^3 the spectral
        # derivative of that constant is not 0 either (1e-15), and the one
        # node skips it
        frames, wfield = self._fields(m, basis, n)
        assert frames.k_independent and wfield.k_independent
        conn, avg, out, calls = self._route(frames, wfield, monkeypatch)
        assert conn.k_independent and avg.k_independent
        assert all(call and set(call) == {1} for call in calls)
        monkeypatch.undo()
        self._assert_full_formula(frames, wfield, conn, avg, out)
        assert out[1] == 1

    @pytest.mark.parametrize("bumped", ["frames", "w"])
    def test_one_ulp_off_takes_the_full_path(self, monkeypatch, bumped):
        # k-independence is exact equality with node 0: one ulp at one node
        # of either field sends sigma and the Chern-Simons integral, and for
        # frames the Berry connection too, onto the full stack
        n = 10
        frames, wfield = self._fields(4, 7, n)
        if bumped == "frames":
            x = frames.frames.copy()
            frames = bloch.FrameField(frames.grid, x, frames.energies)
        else:
            x = wfield.w.copy()
            wfield = bloch.SewingField(wfield.grid, x)
        x[1, 2, 3, 0, 0] = (np.nextafter(x[1, 2, 3, 0, 0].real, np.inf)
                            + 1j * x[1, 2, 3, 0, 0].imag)
        assert not (frames.k_independent if bumped == "frames"
                    else wfield.k_independent)
        conn, avg, out, calls = self._route(frames, wfield, monkeypatch)
        assert conn.k_independent == (bumped == "w")
        assert not avg.k_independent
        berry, sigma, cs = calls
        assert set(berry) == ({1} if bumped == "w" else {n ** 3})
        assert sigma and set(sigma) == {n ** 3}
        assert cs.count("fft") == 6
        monkeypatch.undo()
        self._assert_full_formula(frames, wfield, conn, avg, out)

    def test_constant_connection_sums_node_0_over_the_grid(self):
        # a generic constant A, not a Berry connection, so that the cubic
        # term is not 0: on node 0 and summed over the grid it is bitwise
        # the full stack's, and the derivative terms, which the full stack
        # takes to rounding only, are skipped
        grid = BZGrid.cubic(3, 10)
        X = np.random.default_rng(3).standard_normal((2, 3, 4, 4))
        A = np.broadcast_to(0.05 * bloch._AH(X[0] + 1j * X[1])[:, None,
                                                                None, None],
                            (3,) + grid.sizes + (4, 4)).copy()
        S = np.kron(np.eye(2), np.array([[0, 1], [-1, 0]]))
        wfield = bloch.SewingField(grid, np.broadcast_to(
            S, grid.sizes + (4, 4)).astype(complex))
        one_node = invariants.km_chern_simons(
            bloch.ConnectionField(grid, A, 0.0, k_independent=True), wfield)
        full = invariants.km_chern_simons(
            bloch.ConnectionField(grid, A, 0.0), wfield)
        assert _same_bits(np.array(one_node), np.array(
            _full_stack_chern_simons(A, wfield, dA=False)))
        assert _same_bits(np.array(full), np.array(
            _full_stack_chern_simons(A, wfield)))
        assert 1e-3 < abs(one_node[0]) < 0.1
        assert abs(one_node[0] - full[0]) <= 1e-15

    def test_each_field_tested_once_per_request(self, monkeypatch):
        # an all-routes request on trivial m = 4: the H of
        # `diagonalize_grid`, whose answer the raw frames, the smooth gauge
        # and the connection keep, and the sewing field
        seen, k_independent = [], bloch._k_independent
        monkeypatch.setattr(bloch, "_k_independent",
                            lambda x: seen.append(x) or k_independent(x))
        model = models.make_model("trivial", {"d": 3, "m": 4})
        routes = ["pfaffian", "planes", "wzw", "winding", "cs", "localise"]
        outputs, statuses = cli._compute_methods(
            model, BZGrid.cubic(3, 16), routes, dict(cli._TOL_DEFAULTS))
        assert not statuses
        assert {out["parity"] for out in outputs.values()} == {1}
        assert len(seen) <= 2


def _full_stack_stages(model, grid, wfield):
    """The one-node pipeline's exact stages as the full stack runs them,
    written out here: the slab's `eigh` on every node, each invariant
    plane's plaquette fluxes on every plaquette, every boundary ring
    gauged, and the sewing residuals and degree density of wfield's w on
    every node."""
    dim, m = grid.dim, model.n_occ
    half = grid.sizes[-1] // 2 + 1
    ev, vec = np.linalg.eigh(
        model.hamiltonian_batch(grid.node_mesh()[..., :half, :]))
    frames = np.empty(grid.sizes + (model.n_bands, m), dtype=complex)
    energies = np.empty(grid.sizes + (m,))
    frames[..., :half, :, :] = vec[..., :m]
    frames[..., half:, :, :] = vec[(0,) * dim][..., :m]  # a constant slab
    energies[..., :half, :] = ev[..., :m]
    energies[..., half:, :] = grid.involute(energies)[..., half:, :]
    if dim == 2:
        planes = {(0, 1, None, None): frames}
    else:
        planes = {tuple(b for b in range(3) if b != a) + (a, idx):
                  frames[(slice(None),) * a + (idx,)]
                  for a in range(3) for idx in (0, grid.sizes[a] // 2)}
    fluxes = {k: bloch.plaquette_flux(u) for k, u in planes.items()}
    v = invariants._ring_tr_gauge(np.stack(
        [u[:, j] for u in planes.values() for j in (u.shape[1] // 2, 0)]),
        model.theta.U)
    raws = [invariants._plane_raw(fluxes[k], v[2 * i], v[2 * i + 1])
            for i, k in enumerate(planes)]
    w = wfield.w
    residuals = {
        "unitarity": float(np.abs(bloch._mm(bloch._dag(w), w)
                                  - np.eye(m)).max()),
        "involution": float(np.abs(grid.involute(w)
                                   + np.swapaxes(w, -1, -2)).max()),
        "trim_skew": max(float(np.abs(w[t] + w[t].T).max())
                         for t in grid.trims)}
    out = {"frames": frames, "energies": energies, "fluxes": fluxes,
           "rings": v, "raws": raws, "residuals": residuals}
    if dim == 3:
        L = bloch.unitary_link_log(w, const=False)
        for a, h in enumerate(grid.spacings):
            L[a] /= h
        out["density"] = (bloch._antisym_trace3(L).real * grid.cell_volume()
                          / (24 * np.pi ** 2))
    return out


def _residual_nodes(monkeypatch):
    """Node counts of the `bloch._mm` products; a sewing field's last one
    is its residuals' unitarity product."""
    seen, mm = [], bloch._mm
    monkeypatch.setattr(bloch, "_mm", lambda X, Y: seen.append(
        X[..., 0, 0].size) or mm(X, Y))
    return seen


class TestOneNodePipeline:
    """Frames that do not depend on k take every exact stage on one node:
    the slab's eigensolve, the plane fluxes, the planes route's ring
    gauges, the sewing residuals and the degree density.  Each stage is
    bitwise the full stack's, written out in `_full_stack_stages`."""

    @staticmethod
    def _one_node_stages(model, grid, monkeypatch):
        """The stages as the pipeline runs them, the ring gauges
        `_ring_tr_gauge` returned, and per stage the node or ring counts
        its kernel received."""
        seen = {"eigh": [], "plaquette_flux": [], "_ring_tr_gauge": [],
                "_antisym_trace3": []}
        gauged = []

        def spy(module, name, count, keep=lambda result: None):
            f = getattr(module, name)

            def call(*args):
                seen[name].append(count(args[0]))
                result = f(*args)
                keep(result)
                return result
            monkeypatch.setattr(module, name, call)
        spy(np.linalg, "eigh", lambda H: H[..., 0, 0].size)
        spy(bloch, "plaquette_flux", lambda u: u[..., 0, 0].size)
        spy(invariants, "_ring_tr_gauge", len, gauged.append)
        spy(bloch, "_antisym_trace3", lambda L: L[0][..., 0, 0].size)
        raw = bloch.diagonalize_grid(model, grid)
        out = {"frames": raw.frames, "energies": raw.energies,
               "fluxes": raw.plane_fluxes,
               "raws": invariants._plane_raws(raw, model.theta.U),
               "rings": gauged}
        nodes = _residual_nodes(monkeypatch)
        wfield = bloch.sewing_field(bloch.smooth_gauge(raw), model.theta)
        out["residuals"] = wfield.residuals()
        seen["residuals"] = nodes[-1:]
        if grid.dim == 3:
            out["density"] = bloch.wzw_density(wfield)
        monkeypatch.undo()
        return raw, wfield, out, seen

    @pytest.mark.parametrize("d, n", [(2, 12), (3, 12), (3, 16)],
                             ids=["d2-12", "d3-12", "d3-16"])
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("basis", [None, 1, 2, 3, 4, 5],
                             ids=["registry", "basis1", "basis2", "basis3",
                                  "basis4", "basis5"])
    def test_every_stage_changes_no_bit(self, monkeypatch, basis, m, d, n):
        model = models.make_model("trivial", {"d": d, "m": m})
        if basis is not None:
            model = in_random_basis(model, basis)
        grid = BZGrid.cubic(d, n)
        raw, wfield, got, seen = self._one_node_stages(model, grid,
                                                       monkeypatch)
        assert raw.k_independent
        want = _full_stack_stages(model, grid, wfield)
        for key in ("frames", "energies", "density"):
            if key in want:
                assert _same_bits(got[key], want[key]), key
        assert list(got["fluxes"]) == list(want["fluxes"])
        for k, flux in want["fluxes"].items():
            assert _same_bits(got["fluxes"][k], flux), k
        ring, = got["rings"]
        assert all(_same_bits(ring[0], v) for v in want["rings"])
        assert _same_bits(np.array(got["raws"]), np.array(want["raws"]))
        assert got["residuals"] == want["residuals"]
        # the one-node path ran: one eigh node, one plaquette per plane,
        # one ring per ring length, one residual node (Theta's GEMM over
        # the whole stack leaves w constant here), one triple-trace node
        assert seen["eigh"][0] == 1
        assert seen["plaquette_flux"] == [1] * len(want["fluxes"])
        assert seen["_ring_tr_gauge"] == [1]
        assert seen["_antisym_trace3"] == ([1] if d == 3 else [])
        assert wfield.k_independent and seen["residuals"] == [1]

    @pytest.mark.parametrize("node", [None, (0, 0, 0), (7, 7, 7), (4, 0, 0),
                                      (1, 2, 3)],
                             ids=["constant", "node-0", "last", "middle",
                                  "other"])
    def test_k_independence_is_exact_and_probes_first(self, node):
        # one ulp at any node, the probed last and middle nodes included,
        # makes a stack vary; a probe that differs from node 0 ends the
        # test without comparing more than one node
        sizes = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                sizes.append(max(np.size(x) for x in inputs))
                return getattr(ufunc, method)(
                    *(np.asarray(x) for x in inputs), **kwargs)
        x = np.broadcast_to(np.arange(4.0).reshape(2, 2),
                            (8, 8, 8, 2, 2)).copy()
        if node is not None:
            x[node + (1, 0)] = np.nextafter(x[node + (1, 0)], np.inf)
        assert bloch._k_independent(x.view(Counted)) == (node is None)
        assert max(sizes) == (x.size if node in (None, (1, 2, 3)) else 4)

    @pytest.mark.parametrize("bumped", [False, True],
                             ids=["constant-w", "w-one-ulp-off"])
    def test_residuals_read_w_not_the_frames(self, monkeypatch, bumped):
        # constant frames, and w = u(-k)+ Theta u(k) one ulp off at one
        # node: w varies, so its residuals take the full stack, the frames'
        # answer notwithstanding, and match the full formula bit for bit
        n = 10
        model = in_random_basis(models.make_model(
            "trivial", {"d": 3, "m": 4}), 7)
        grid = BZGrid.cubic(3, n)
        frames = bloch.smooth_gauge(bloch.diagonalize_grid(model, grid))
        assert frames.smoothness < 1e-14  # its one-node links, cached
        nodes, mm = [], bloch._mm

        def spy(X, Y):
            out = mm(X, Y)
            if bumped and not nodes:  # sewing_field's first product is w
                z = out[1, 2, 3, 0, 0]
                out[1, 2, 3, 0, 0] = np.nextafter(z.real, np.inf) + 1j * z.imag
            nodes.append(X[..., 0, 0].size)
            return out
        monkeypatch.setattr(bloch, "_mm", spy)
        wfield = bloch.sewing_field(frames, model.theta)
        monkeypatch.undo()
        assert frames.k_independent
        assert wfield.k_independent != bumped
        assert nodes == [n ** 3, 1 if not bumped else n ** 3]
        want = _full_stack_stages(model, grid, wfield)["residuals"]
        assert wfield.residuals() == want


class TestWzwDensity:
    @pytest.mark.parametrize("one_node", [True, False],
                             ids=["one-node", "full-stack"])
    def test_vanishes_for_constant_field(self, monkeypatch, one_node):
        # the constant field takes the one-node links; forced onto the full
        # stack, the full kernels get the same check
        if not one_node:
            monkeypatch.setattr(bloch, "_k_independent", lambda x: False)
        g = BZGrid.cubic(3, 8)
        S = np.kron(np.eye(1), np.array([[0, 1], [-1, 0]]))
        w = np.broadcast_to(S, g.sizes + (2, 2)).copy()
        assert bloch._k_independent(w) == one_node
        dens = bloch.wzw_density(bloch.SewingField(g, w))
        assert np.abs(dens).max() <= 1e-14

    def test_matrix_major_links_change_no_bit(self, pipeline, monkeypatch):
        # the Maurer-Cartan links are stored matrix-major; the density must
        # be bitwise the one of C-ordered links.  The C-ordered density is
        # built on a fresh field: the shared one may hold its density already
        _, wfield = pipeline.gauge("fkm3d", {"dt": 0.5}, 16)
        L = bloch.maurer_cartan_links(wfield)
        assert min(L.strides[-2:]) > max(L.strides[1:-2])
        dens = bloch.wzw_density(wfield)
        fresh = bloch.SewingField(wfield.grid, wfield.w)
        patched = []
        monkeypatch.setattr(bloch, "maurer_cartan_links",
                            lambda w: patched.append(w)
                            or np.ascontiguousarray(L))
        assert np.array_equal(bloch.wzw_density(fresh), dens)
        assert patched == [fresh]

    def test_density_built_once_per_field(self, pipeline, monkeypatch):
        _, shared = pipeline.gauge("fkm3d", {"dt": 0.5}, 16)
        seen = []
        links = bloch.maurer_cartan_links
        monkeypatch.setattr(bloch, "maurer_cartan_links",
                            lambda w: seen.append(w) or links(w))
        fields = [bloch.SewingField(shared.grid, shared.w) for _ in range(2)]
        for wfield in fields:
            first = bloch.wzw_density(wfield)
            for _ in range(3):
                assert bloch.wzw_density(wfield) is first
        assert seen == fields
        assert np.array_equal(bloch.wzw_density(fields[1]), first)

    @pytest.mark.parametrize("m", [2, 4])
    def test_triple_trace_ignores_a_scalar_on_any_link(self, m):
        # 3 tr(L_0 [L_1, L_2]) loses c_0 tr([L_1, L_2]) = 0 and the
        # commutator drops c_1, c_2: why the degree density needs no SU
        # reduction
        rng = np.random.default_rng(8)
        shape = (3, 6, 5, 4, m, m)
        L = bloch._matrix_major(rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape))
        c = rng.standard_normal(shape[:-2]) + 1j * rng.standard_normal(
            shape[:-2])
        shifted = L + c[..., None, None] * np.eye(m)
        scale = max(np.abs(L).max(), np.abs(c).max()) ** 3
        assert np.abs(bloch._antisym_trace3(shifted)
                      - bloch._antisym_trace3(L)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name, params", [
        ("fkm3d", {"dt": 0.5}), ("layered3d", {"m": 2, "tz": 0.5})])
    def test_reduced_and_unreduced_fields_integrate_alike(self, pipeline,
                                                          name, params):
        _, wfield = pipeline.gauge(name, params, 16)
        wred = _whole_grid_su_reduce(wfield)
        assert abs(float(bloch.wzw_density(wfield).sum())
                   - float(bloch.wzw_density(wred).sum())) <= 1e-12

    @pytest.mark.parametrize("m", [2, 4])
    def test_triple_trace_independent_of_layout(self, m):
        rng = np.random.default_rng(6)
        shape = (3, 6, 5, 4, m, m)
        L = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = bloch._antisym_trace3(L)
        assert np.array_equal(bloch._antisym_trace3(bloch._matrix_major(L)),
                              ref)

    @pytest.mark.parametrize("m", [2, 4])
    def test_triple_trace_is_the_signed_permutation_sum(self, m):
        # the commutator form against the six signed traces; each trace is
        # m^3 products of size <= max|L|^3, so float64 rounding stays far
        # below 1e-12 max|L|^3
        perms = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                 ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]
        rng = np.random.default_rng(13)
        shape = (3, 6, 5, 4, m, m)
        L = bloch._matrix_major(rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape))
        ref = sum(s * np.einsum("...ij,...jk,...ki->...", L[a], L[b], L[c])
                  for (a, b, c), s in perms)
        out = bloch._antisym_trace3(L)
        assert out.shape == shape[1:-2]
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(L).max() ** 3

    def test_density_is_read_only(self, pipeline):
        _, wfield = pipeline.gauge("fkm3d", {"dt": 0.5}, 16)
        dens = bloch.wzw_density(wfield)
        with pytest.raises(ValueError):
            dens[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            dens += 1.0


@pytest.fixture(scope="module")
def fkm_fields():
    model = models.make_model("fkm3d", {"dt": 0.5})
    raw = bloch.diagonalize_grid(model, BZGrid.cubic(3, 8))
    frames, wfield = bloch.gauge_pipeline(raw, model.theta,
                                          smoothness_limit=1.0)
    conn = bloch.berry_connection(frames, smoothness_limit=1.0)
    return raw, frames, wfield, conn


def _count_layout_conversions(monkeypatch):
    """Wrap `_mm` wherever it is imported and record every call that gets a
    stack (ndim > 2) whose node axes are not innermost in memory."""
    seen = []
    plain = linalg._mm

    def ordered(X):
        nodes, matrix = ([abs(s) for s, n in zip(X.strides[part],
                                                 X.shape[part]) if n > 1]
                         for part in (slice(None, -2), slice(-2, None)))
        return not (nodes and matrix) or min(matrix) >= max(nodes)

    def spy(X, Y):
        if not (ordered(X) and ordered(Y)):
            seen.append((X.shape, Y.shape))
        return plain(X, Y)
    for mod in (linalg, bloch, sphere):
        monkeypatch.setattr(mod, "_mm", spy)
    return seen


class TestLayout:
    """Every stacked field is matrix-major where it is created, so no
    product of the pipeline runs on a C-ordered stack."""

    def test_torus_fields_are_matrix_major(self, fkm_fields):
        raw, frames, wfield, conn = fkm_fields
        model = models.make_model("fkm3d", {"dt": 0.5})
        assert matrix_major(raw.frames)
        assert matrix_major(bloch._transport_init(raw))
        assert matrix_major(bloch._transport_init(raw, order=(2, 1, 0)))
        assert matrix_major(frames.frames)
        assert matrix_major(wfield.w)
        assert matrix_major(conn.A)
        assert matrix_major(bloch.quaternionic_average(conn, wfield).A)
        assert matrix_major(bloch.maurer_cartan_links(wfield))
        assert matrix_major(model.theta.apply(raw.frames))

    def test_multiscale_seed_is_matrix_major(self, bhz_raw):
        _, raw = bhz_raw
        assert matrix_major(bloch._multiscale_init(raw))

    def test_sphere_fields_are_matrix_major(self):
        model = models.make_model("dirac_s3", {"mass": -1.0})
        mesh = sphere.SphereMesh.cubic(12)
        assert matrix_major(sphere._spin_matrices(*mesh.axes()[1:]))
        for mass in (1.0, -1.0, -3.0):  # chart 1, glued, chart 2
            assert matrix_major(sphere.dirac_frames(mass, mesh))
        u = sphere.sphere_frames(model, mesh)
        assert matrix_major(sphere.sphere_sewing(u, model.theta, mesh))

    @pytest.mark.parametrize("argv", [
        ["--model", "trivial", "--params", "d=3,m=2", "--grid", "8"],
        ["--model", "trivial", "--params", "d=3,m=4", "--grid", "8"],
        ["--model", "fkm3d", "--params", "dt=0.5", "--grid", "8",
         "--tol-smoothness", "1.0"],
        # anneal trials on the 8^3 level
        ["--model", "layered3d", "--params", "m=2,tz=0.5", "--grid", "8"],
        # the multiscale seed
        ["--model", "bhz2d", "--grid", "24", "--methods", "pfaffian,planes"],
        ["--model", "dirac_s3", "--params", "mass=-1", "--grid", "12",
         "--methods", "s3"],
    ])
    def test_no_product_on_a_c_ordered_stack(self, monkeypatch, argv):
        seen = _count_layout_conversions(monkeypatch)
        if "--methods" not in argv:
            argv = argv + ["--methods",
                           "pfaffian,planes,wzw,winding,cs,localise"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["invariant"] + argv + ["--stable-output"])
        assert code in (0, 3)
        assert seen == []
