import numpy as np
import pytest

from tki import models, sphere
from tki.sphere import SphereMesh


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


class TestDiracFrames:
    @pytest.mark.parametrize("mass", [1.0, -1.0, -3.0])
    def test_exact_eigenframes(self, mesh, mass):
        model = models.make_model("dirac_s3", {"mass": mass})
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

    def test_smooth_everywhere(self, mesh):
        for mass in (1.0, -1.0):
            u = sphere.dirac_frames(mass, mesh)
            for axis, periodic in ((0, False), (1, False), (2, True)):
                v = np.roll(u, -1, axis=axis)
                if not periodic:
                    sel = [slice(None)] * 3
                    sel[axis] = slice(0, -1)
                    u_c, v_c = u[tuple(sel)], v[tuple(sel)]
                else:
                    u_c, v_c = u, v
                ov = np.einsum("...ai,...aj->...ij", u_c.conj(), v_c)
                defect = np.linalg.svd(ov - np.eye(2),
                                       compute_uv=False)[..., 0]
                assert defect.max() < 0.9

    def test_gapless_masses_rejected(self, mesh):
        for mass in (0.0, -2.0):
            with pytest.raises(sphere.GaplessAt):
                sphere.dirac_frames(mass, mesh)


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
