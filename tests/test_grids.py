import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tki.grids import BZGrid, GridError
from tki.linalg import _matrix_major
from conftest import matrix_major


class TestConstruction:
    def test_cubic(self):
        g = BZGrid.cubic(3, 8)
        assert g.sizes == (8, 8, 8)

    @pytest.mark.parametrize("dim,sizes", [(0, ()), (4, (8,) * 4)])
    def test_rejects_bad_dimension(self, dim, sizes):
        with pytest.raises(GridError):
            BZGrid(dim, sizes)

    @pytest.mark.parametrize("sizes", [(7, 8), (2, 8), (8,)])
    def test_rejects_bad_sizes(self, sizes):
        with pytest.raises(GridError):
            BZGrid(2, sizes)


class TestGeometry:
    def test_nodes_cover_the_zone(self):
        g = BZGrid(1, (8,))
        nodes = g.axis_nodes(0)
        assert nodes[0] == pytest.approx(-np.pi)
        assert nodes[4] == pytest.approx(0.0)
        assert np.diff(nodes) == pytest.approx(2 * np.pi / 8)

    def test_node_mesh_shape(self):
        g = BZGrid(3, (4, 6, 8))
        assert g.node_mesh().shape == (4, 6, 8, 3)

    def test_cell_volume(self):
        g = BZGrid(2, (8, 10))
        assert g.cell_volume() * 80 == pytest.approx((2 * np.pi) ** 2)


class TestInvolution:
    def test_matches_momentum_negation(self):
        g = BZGrid(2, (6, 8))
        K = g.node_mesh()
        Km = g.involute(K)
        # -k agrees with the involuted mesh modulo 2 pi
        diff = (K + Km + np.pi) % (2 * np.pi) - np.pi
        assert np.abs(diff).max() <= 1e-12

    def test_is_involutive(self):
        g = BZGrid(3, (4, 6, 8))
        vals = np.arange(np.prod(g.sizes)).reshape(g.sizes)
        assert np.array_equal(g.involute(g.involute(vals)), vals)

    def test_cube_map_shifts_spanned_axes(self):
        # the cube spanned by axis 0 at anchor n covers [n, n + 1], whose
        # image [-n - 1, -n] is anchored at -n - 1
        g = BZGrid(2, (6, 8))
        rows, cols = g.involution_indices((0,))
        assert np.array_equal(rows.ravel(), (-np.arange(6) - 1) % 6)
        assert np.array_equal(cols.ravel(), -np.arange(8) % 8)
        vals = np.arange(48).reshape(6, 8)
        for axes in ((), (0,), (1,), (0, 1)):
            idx = g.involution_indices(axes)
            assert np.array_equal(vals[idx][idx], vals)

    def test_involute_matches_index_maps_and_keeps_layout(self):
        # a flip and a shift per axis: the index map of every cube, bitwise,
        # on C-ordered and matrix-major stacks alike
        g = BZGrid(3, (4, 6, 8))
        rng = np.random.default_rng(2)
        X = rng.standard_normal(g.sizes + (4, 2)) + 0j
        Xm = _matrix_major(X)
        for axes in ((), (0,), (1, 2), (0, 1, 2)):
            ref = X[g.involution_indices(axes)]
            out, outm = g.involute(X, axes), g.involute(Xm, axes)
            assert np.array_equal(out, ref) and np.array_equal(outm, ref)
            assert out.flags.c_contiguous and matrix_major(outm)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([4, 6, 8, 10]), st.integers(0, 2**32 - 1))
    def test_involution_is_a_permutation(self, n, seed):
        g = BZGrid(1, (n,))
        vals = np.random.default_rng(seed).standard_normal(n)
        assert sorted(g.involute(vals)) == sorted(vals)


class TestTrims:
    def test_count_and_fixedness(self):
        g = BZGrid(3, (4, 6, 8))
        trims = g.trims
        assert len(trims) == 8
        idx = np.stack(np.broadcast_arrays(*g.involution_indices()), axis=-1)
        for t in trims:
            assert tuple(idx[t]) == t

    def test_trim_momenta_are_self_inverse(self):
        g = BZGrid(2, (8, 8))
        mesh = g.node_mesh()
        for t in g.trims:
            k = mesh[t]
            diff = (2 * k + np.pi) % (2 * np.pi) - np.pi
            assert np.abs(diff).max() <= 1e-12

    def test_index_zero_is_the_pi_momentum(self):
        g = BZGrid(1, (8,))
        mesh = g.node_mesh()
        assert mesh[0, 0] == pytest.approx(-np.pi)
        assert mesh[4, 0] == pytest.approx(0.0)
