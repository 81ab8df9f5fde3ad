import numpy as np
import pytest

from tki import bloch, invariants, linalg, models, sphere
from tki.linalg import _matrix_major
from tki.sphere import SphereMesh
from conftest import matrix_major


@pytest.fixture(scope="module")
def mesh():
    return SphereMesh.cubic(16)


class TestMesh:
    def test_constraints(self):
        with pytest.raises(sphere.SphereError, match="even"):
            SphereMesh(10, 11, 12)  # odd theta count
        with pytest.raises(sphere.SphereError, match="even"):
            SphereMesh(10, 10, 14)  # phi not a multiple of 4

    def test_mesh_floor(self):
        # fewer than 10 cells in chi or theta misjudge the Dirac degree
        for shape in ((8, 10, 12), (10, 8, 12), (6, 6, 8)):
            with pytest.raises(sphere.SphereError, match="too coarse"):
                SphereMesh(*shape)
        assert SphereMesh.cubic(10).shape == (10, 10, 12)

    def test_cell_centered_angles(self, mesh):
        K = mesh.angles()
        assert K.shape == mesh.shape + (3,)
        chi, theta, phi = K[..., 0], K[..., 1], K[..., 2]
        assert 0 < chi.min() and chi.max() < np.pi
        assert 0 < theta.min() and theta.max() < np.pi
        assert phi.min() >= -np.pi and phi.max() < np.pi

    def test_involution_is_index_exact(self, mesh):
        vals = np.arange(np.prod(mesh.shape)).reshape(mesh.shape)
        assert np.array_equal(mesh.involute(mesh.involute(vals)), vals)
        # (chi, theta, phi) -> (chi, pi - theta, phi + pi) on angle values
        K = mesh.angles()
        chi, th, ph = K[..., 0], K[..., 1], K[..., 2]
        assert np.abs(mesh.involute(chi) - chi).max() <= 1e-12
        assert np.abs(mesh.involute(th) - (np.pi - th)).max() <= 1e-12
        wrapped = (mesh.involute(ph) - ph - np.pi + np.pi) % (2 * np.pi) \
            - np.pi
        assert np.abs(wrapped).max() <= 1e-12


    def test_involute_matches_index_map_and_keeps_layout(self, mesh):
        rng = np.random.default_rng(3)
        X = rng.standard_normal(mesh.shape + (2, 2)) + 0j
        Xm = _matrix_major(X)
        ref = X[mesh.involution_indices()]
        out, outm = mesh.involute(X), mesh.involute(Xm)
        assert np.array_equal(out, ref) and np.array_equal(outm, ref)
        assert out.flags.c_contiguous and matrix_major(outm)


def _max_link_defect(u):
    """Largest ||u+ u' - 1|| over the links of a frame stack on the mesh:
    open in chi and theta, periodic in phi."""
    worst = 0.0
    for axis, periodic in ((0, False), (1, False), (2, True)):
        u_c, v_c = u, np.roll(u, -1, axis=axis)
        if not periodic:
            sel = [slice(None)] * 3
            sel[axis] = slice(0, -1)
            u_c, v_c = u_c[tuple(sel)], v_c[tuple(sel)]
        ov = np.einsum("...ai,...aj->...ij", u_c.conj(), v_c)
        worst = max(worst, np.linalg.svd(ov - np.eye(2),
                                         compute_uv=False)[..., 0].max())
    return worst


# chart 1 alone, band-inverted (glued) and chart 2 alone; on these meshes
# the glue band's chi slabs start and end at different cells
DIRAC_MASSES = [1.0, -0.5, -1.0, -1.7, -3.0]
DIRAC_MESHES = [10, 14, 16, 32]


class TestDiracFrames:
    @pytest.mark.parametrize("mass", DIRAC_MASSES)
    def test_exact_eigenframes(self, mass):
        model = models.make_model("dirac_s3", {"mass": mass})
        for n in DIRAC_MESHES:
            mesh = SphereMesh.cubic(n)
            u = sphere.dirac_frames(mass, mesh)
            H = model.hamiltonian_batch(mesh.angles())
            Hu = np.einsum("...ab,...bi->...ai", H, u)
            overlap = np.einsum("...ai,...aj->...ij", u.conj(), Hu)
            ortho = np.einsum("...ai,...aj->...ij", u.conj(), u)
            assert np.abs(ortho - np.eye(2)).max() <= 1e-12
            # the span is an exact negative-energy eigenspace
            resid = Hu - np.einsum("...ai,...ij->...aj", u, overlap)
            assert np.abs(resid).max() <= 1e-9
            assert np.linalg.eigvalsh(overlap).max() < 0

    def test_smooth_everywhere(self):
        for mass in DIRAC_MASSES:
            for n in DIRAC_MESHES:
                u = sphere.dirac_frames(mass, SphereMesh.cubic(n))
                # the glue band turns a chi link by up to about 4.5 pi / n;
                # the bound is 0.9 at n = 16, scaled as 1 / n
                assert _max_link_defect(u) < 0.9 * 16 / n, (mass, n)

    def test_gapless_masses_rejected(self, mesh):
        for mass in (0.0, -2.0):
            with pytest.raises(sphere.GaplessAt):
                sphere.dirac_frames(mass, mesh)


class TestSphereFrames:
    def test_direct_sum_is_refused(self):
        # the product rule needs parity -1 here; a chart-wise smoothed
        # gauge rounds the degree to 0 and would report +1
        both = models.direct_sum(
            models.make_model("dirac_s3", {"mass": -1.0}),
            models.make_model("dirac_s3", {"mass": 1.0}))
        with pytest.raises(sphere.UnsupportedSphereModel):
            invariants.km_s3(both, 16)


@pytest.fixture(scope="module")
def wfield(mesh):
    model = models.make_model("dirac_s3", {"mass": -1.0})
    u = sphere.sphere_frames(model, mesh)
    return sphere.sphere_sewing(u, model.theta, mesh)


class TestSewingAndDensity:
    def test_unitary(self, wfield):
        eye = np.eye(2)
        prod = np.einsum("...ba,...bc->...ac", wfield.conj(), wfield)
        assert np.abs(prod - eye).max() <= 1e-8

    def test_involution_relation(self, wfield, mesh):
        assert np.abs(mesh.involute(wfield)
                      + np.swapaxes(wfield, -1, -2)).max() <= 1e-8

    def test_density_is_symmetric_and_degree_like(self, wfield, mesh):
        dens, discarded = sphere.sphere_wzw_density(wfield, mesh)
        assert np.abs(mesh.involute(dens) - dens).max() <= 1e-12
        assert discarded <= 1e-10
        assert abs(dens.sum() + 1) <= 0.1

    def test_density_logs_only_the_links_it_reads(self, monkeypatch):
        # the open chi and theta axes have no wrap-around link: the last
        # slice reuses the link product of the slice before it, so none of
        # the theta wrap links, whose eigenphases straddle the branch cut,
        # reaches the per-matrix eig log
        model = models.make_model("dirac_s3", {"mass": -1.0})
        mesh = SphereMesh.cubic(32)
        w = sphere.sphere_sewing(sphere.sphere_frames(model, mesh),
                                 model.theta, mesh)
        # the reference logs every periodic link, then overwrites the open
        # axes' last slice with the backward link
        hs = mesh.spacings
        L = bloch.unitary_link_log(w)
        for a, h in enumerate(hs):
            L[a] /= h
        for a in (0, 1):
            L[a][(slice(None),) * a + (-1,)] = L[a][(slice(None),) * a + (-2,)]
        ref = bloch._antisym_trace3(L).real * (hs[0] * hs[1] * hs[2]) / (
            24 * np.pi ** 2)
        sym = 0.5 * (ref + mesh.involute(ref))
        eig_nodes = []

        def counted(W, _f=linalg._eig_log):
            eig_nodes.append(W[..., 0, 0].size)
            return _f(W)
        monkeypatch.setattr(linalg, "_eig_log", counted)
        dens, discarded = sphere.sphere_wzw_density(w, mesh)
        assert eig_nodes == []
        assert np.array_equal(dens, sym)
        assert discarded == float(np.abs(ref - sym).sum())


class TestHemisphereDescent:
    def test_preserves_integral(self, mesh):
        model = models.make_model("dirac_s3", {"mass": -1.0})
        u = sphere.sphere_frames(model, mesh)
        w = sphere.sphere_sewing(u, model.theta, mesh)
        dens, _ = sphere.sphere_wzw_density(w, mesh)
        out = sphere.hemisphere_descent(dens, mesh)
        total = float(dens.sum())
        assert out["total"] == pytest.approx(total, abs=1e-12)
        for integral in out["level_integrals"]:
            assert integral == pytest.approx(total, abs=1e-9)
        assert out["rho0_N"] + out["rho0_S"] == pytest.approx(total,
                                                             abs=1e-9)
        assert out["rho0_S"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(16, 16, 16), (10, 12, 16),
                                       (16, 10, 12)])
    def test_every_level_keeps_the_integral(self, shape):
        # a random inversion-symmetric density: each push must carry the
        # full integral, which fails without the mirror term of the step
        mesh = SphereMesh(*shape)
        raw = np.random.default_rng(sum(shape)).standard_normal(shape)
        dens = 0.5 * (raw + mesh.involute(raw))
        out = sphere.hemisphere_descent(dens, mesh)
        total = float(dens.sum())
        bound = 1e-9 * np.abs(dens).sum()
        assert len(out["level_integrals"]) == 4
        for integral in out["level_integrals"]:
            assert abs(integral - total) <= bound
        assert abs(out["rho0_N"] + out["rho0_S"] - total) <= bound

    def test_mass_sweep_single_flip(self):
        # parity flips exactly once, at the pole gap closing
        parities = []
        from tki import invariants
        for mass in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5):
            out = invariants.km_s3(
                models.make_model("dirac_s3", {"mass": mass}), 16)
            parities.append(out["parity"])
        flips = sum(1 for a, b in zip(parities, parities[1:]) if a != b)
        assert parities[0] == -1 and parities[-1] == 1
        assert flips == 1
