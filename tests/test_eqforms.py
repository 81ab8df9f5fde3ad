import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tki import bloch, eqforms
from tki.eqforms import (Cochain, d, integrate, involution_pullback, localise,
                         project_pm)
from tki.grids import BZGrid


def rand_cochain(grid, degree, seed):
    rng = np.random.default_rng(seed)
    ncomp = len(eqforms._components(grid.dim, degree))
    return Cochain(grid, degree, rng.standard_normal((ncomp,) + grid.sizes))


@pytest.fixture
def g3():
    return BZGrid.cubic(3, 8)


class TestCochain:
    def test_component_labels(self, g3):
        assert eqforms._components(3, 2) == [(0, 1), (0, 2), (1, 2)]

    def test_shape_validation(self, g3):
        with pytest.raises(eqforms.EqformsError):
            Cochain(g3, 1, np.zeros((2,) + g3.sizes))

    def test_from_density_and_norm(self, g3):
        dens = np.ones(g3.sizes)
        c = Cochain.from_density(g3, dens)
        assert c.degree == 3
        assert c.norm1() == pytest.approx(8**3)


class TestDifferential:
    def test_d_squared_zero(self, g3):
        for deg in (0, 1):
            c = rand_cochain(g3, deg, deg)
            assert np.abs(d(d(c)).values).max() <= 1e-12

    def test_top_degree_rejected(self, g3):
        with pytest.raises(eqforms.TopDegree):
            d(rand_cochain(g3, 3, 0))

    def test_gradient_of_linear_function(self):
        # d of a function depending on one index is a difference along it
        g = BZGrid.cubic(2, 8)
        f = np.add.outer(np.arange(8.0), np.zeros(8))
        c = Cochain(g, 0, f[None])
        df = d(c)
        # interior links increase by 1; the wrap-around links by -7
        assert df.components == [(0,), (1,)]
        assert sorted(np.unique(df.values[0])) == [-7.0, 1.0]
        assert np.abs(df.values[1]).max() == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_stokes_total_sum_vanishes(self, seed):
        # the full-torus sum of any exact top cochain is zero
        g = BZGrid.cubic(3, 6)
        c = rand_cochain(g, 2, seed)
        assert abs(integrate(d(c))) <= 1e-9 * max(c.norm1(), 1.0)


class TestInvolutionPullback:
    def test_involutive(self, g3):
        for deg in range(4):
            c = rand_cochain(g3, deg, deg)
            back = involution_pullback(involution_pullback(c))
            assert np.abs(back.values - c.values).max() == 0.0

    def test_commutes_with_d(self, g3):
        for deg in (0, 1, 2):
            c = rand_cochain(g3, deg, deg + 10)
            lhs = d(involution_pullback(c)).values
            rhs = involution_pullback(d(c)).values
            assert np.abs(lhs - rhs).max() == 0.0

    def test_top_degree_sign(self, g3):
        c = Cochain.from_density(g3, np.ones(g3.sizes))
        assert np.abs(involution_pullback(c).values + c.values).max() == 0.0
        # on a seeded random top cochain the pullback moves the cubes, and
        # the top integral is still inversion-odd
        c = rand_cochain(g3, 3, 11)
        assert abs(integrate(involution_pullback(c)) + integrate(c)) <= 1e-9

    def test_projectors_split(self, g3):
        c = rand_cochain(g3, 3, 5)
        plus, minus = project_pm(c)
        assert np.abs(plus.values + minus.values - c.values).max() <= 1e-12
        assert np.abs(involution_pullback(plus).values
                      - plus.values).max() <= 1e-12
        assert np.abs(involution_pullback(minus).values
                      + minus.values).max() <= 1e-12


def first_primitive(c, axis):
    """The half-torus primitive eta of the first descent step along axis,
    as the 2-cochain whose only nonzero component is the other two axes."""
    rest = tuple(a for a in range(c.grid.dim) if a != axis)
    eta = localise(c, axes=(axis,) + rest).levels[0][2]
    values = np.zeros((3,) + c.grid.sizes)
    values[eqforms._components(3, 2).index(rest)] = eta
    return Cochain(c.grid, 2, values)


class TestPrimitive:
    def test_derivative_recovers_on_half(self, g3):
        _, c = project_pm(rand_cochain(g3, 3, 7))
        for axis in range(3):
            eta = first_primitive(c, axis)
            deta = d(eta)
            n = g3.sizes[axis] // 2
            # on the interior of the half-domain slices the primitive
            # reproduces the cochain exactly
            sel = tuple(slice(None) if a != axis else slice(n, -1)
                        for a in range(3))
            diff = deta.values[(0,) + sel] - c.values[(0,) + sel]
            assert np.abs(diff).max() <= 1e-10

    def test_base_slice_is_zero(self, g3):
        _, c = project_pm(rand_cochain(g3, 3, 8))
        eta = first_primitive(c, 0)
        assert np.abs(eta.values[:, g3.sizes[0] // 2]).max() == 0.0

    def test_wrong_degree(self, g3):
        with pytest.raises(eqforms.WrongDegree):
            localise(rand_cochain(g3, 2, 0))


class TestLocalise:
    def test_uniform_density(self, g3):
        for upsilon in range(5):
            dens = np.full(g3.sizes, upsilon / np.prod(g3.sizes))
            tr = localise(Cochain.from_density(g3, dens))
            vals = dict(tr.fixed_values)
            assert vals.pop((0, 0, 0)) == pytest.approx(upsilon, abs=1e-12)
            assert max((abs(v) for v in vals.values()), default=0) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_exactness_on_random_odd_cochains(self, seed):
        g = BZGrid.cubic(3, 8)
        _, c = project_pm(rand_cochain(g, 3, seed))
        tr = localise(c)
        total = sum(tr.fixed_values.values())
        assert abs(total - integrate(c)) <= 1e-9 * max(c.norm1(), 1.0)
        for _, _, _, integral in tr.levels:
            assert abs(integral - tr.total) <= 1e-9 * max(c.norm1(), 1.0)

    def test_axis_order_leaves_parity_fixed(self, g3):
        _, c = project_pm(rand_cochain(g3, 3, 11))
        totals = []
        for axes in [(2, 1, 0), (0, 1, 2), (1, 2, 0)]:
            tr = localise(c, axes=axes)
            totals.append(sum(tr.fixed_values.values()))
        assert np.abs(np.array(totals) - totals[0]).max() <= 1e-9

    def test_even_part_rejected(self, g3):
        plus, _ = project_pm(rand_cochain(g3, 3, 13))
        with pytest.raises(eqforms.ParityViolation):
            localise(plus)

    def test_trace_dict_shape(self, g3):
        _, c = project_pm(rand_cochain(g3, 3, 12))
        doc = localise(c).as_dict()
        assert set(doc) >= {"axes", "level_integrals", "fixed_values",
                            "total"}
        assert len(doc["fixed_values"]) == 8


class TestSampleWzw:
    def test_field_tested_once_per_call(self, pipeline, monkeypatch):
        # the gate takes every axis's link norms in one call and reads the
        # field's cached k-independence: over the density and two samples a
        # fresh field is tested once, by its Maurer-Cartan links
        _, wfield = pipeline.gauge("fkm3d", {"dt": 0.5}, 16)
        fresh = bloch.SewingField(wfield.grid, wfield.w)
        seen, k_independent = [], bloch._k_independent
        monkeypatch.setattr(bloch, "_k_independent",
                            lambda x: seen.append(x) or k_independent(x))
        gates, link_deficiency = [], eqforms.link_deficiency
        monkeypatch.setattr(eqforms, "link_deficiency",
                            lambda u, *const: gates.append(u)
                            or link_deficiency(u, *const))
        bloch.wzw_density(fresh)
        for _ in range(2):
            eqforms.sample_wzw(fresh)
        assert len(seen) == 1 and seen[0] is fresh.w
        assert len(gates) == 2 and all(x is fresh.w for x in gates)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_gate_reads_every_axis(self, axis):
        # a quarter-turn phase step across two slices of one axis: that
        # axis's links there are i, with ||i - 1|| = sqrt 2, all others 1
        g = BZGrid.cubic(3, 8)
        w = np.broadcast_to(np.array([[0, 1], [-1, 0]], dtype=complex),
                            g.sizes + (2, 2)).copy()
        w[(slice(None),) * axis + (slice(4, None),)] *= 1j
        wfield = bloch.SewingField(g, w)
        with pytest.raises(bloch.RoughGauge, match="1.414 exceeds 1.0"):
            eqforms.sample_wzw(wfield)
        eqforms.sample_wzw(wfield, smoothness_limit=1.5)
