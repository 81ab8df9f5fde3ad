import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tki import linalg
from conftest import cofactor_pfaffian, random_skew, random_unitary


class TestPfaffian:
    def test_two_by_two(self):
        A = np.array([[0, 3.5 + 1j], [-3.5 - 1j, 0]])
        assert linalg.pfaffian(A) == pytest.approx(3.5 + 1j)

    def test_empty(self):
        assert linalg.pfaffian(np.zeros((0, 0))) == 1.0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_cofactor_expansion(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            A = random_skew(rng, n)
            assert linalg.pfaffian(A) == pytest.approx(
                cofactor_pfaffian(A), rel=1e-10)

    def test_square_is_determinant(self):
        rng = np.random.default_rng(1)
        A = random_skew(rng, 6)
        pf = linalg.pfaffian(A)
        assert pf**2 == pytest.approx(np.linalg.det(A), rel=1e-11)

    def test_congruence_covariance(self):
        # pf(B A B^T) = det(B) pf(A)
        rng = np.random.default_rng(2)
        A = random_skew(rng, 6)
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lhs = linalg.pfaffian(B @ A @ B.T)
        assert lhs == pytest.approx(np.linalg.det(B) * linalg.pfaffian(A),
                                    rel=1e-9)

    def test_singular_is_zero(self):
        A = np.zeros((4, 4), dtype=complex)
        A[0, 1], A[1, 0] = 1.0, -1.0  # rank 2
        assert linalg.pfaffian(A) == 0.0

    def test_rejects_odd_dimension(self):
        with pytest.raises(linalg.OddDimension):
            linalg.pfaffian(np.zeros((3, 3)))

    def test_rejects_non_skew(self):
        with pytest.raises(linalg.NotSkew):
            linalg.pfaffian(np.eye(4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8]))
    def test_pf_squared_is_det(self, seed, n):
        A = random_skew(np.random.default_rng(seed), n)
        pf = linalg.pfaffian(A)
        det = np.linalg.det(A)
        assert abs(pf**2 - det) <= 1e-9 * max(1.0, abs(det))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_skew_unitary_pfaffian_on_circle(self, seed):
        # skew-symmetrized unitaries u S u^T have |pf| = 1
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 4)
        S = np.kron(np.eye(2), np.array([[0, 1], [-1, 0]]))
        assert abs(linalg.pfaffian(u @ S @ u.T)) == pytest.approx(1.0)


class TestPolarUnitary:
    def test_projects_to_unitary_group(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        Q = linalg.polar_unitary(M)
        assert np.abs(Q.conj().T @ Q - np.eye(5)).max() <= 1e-12

    def test_fixes_unitaries(self):
        rng = np.random.default_rng(4)
        U = random_unitary(rng, 5)
        assert np.abs(linalg.polar_unitary(U) - U).max() <= 1e-12

    def test_rejects_singular(self):
        with pytest.raises(linalg.NearSingular):
            linalg.polar_unitary(np.diag([1.0, 0.0]))

    def test_rejects_non_square(self):
        with pytest.raises(linalg.NonSquare):
            linalg.polar_unitary(np.zeros((2, 3)))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        batched = linalg.batched_polar_unitary(M)
        for i in range(3):
            assert np.abs(batched[i] - linalg.polar_unitary(M[i])).max() \
                <= 1e-10


class TestPhaseContinue:
    def test_closed_loop_winding(self):
        t = np.linspace(0, 2 * np.pi, 41)
        phases, winding = linalg.phase_continue(np.exp(2j * t))
        assert winding == 2
        assert phases[-1] - phases[0] == pytest.approx(4 * np.pi)

    def test_negative_winding(self):
        t = np.linspace(0, 2 * np.pi, 41)
        _, winding = linalg.phase_continue(np.exp(-1j * t))
        assert winding == -1

    def test_rejects_undersampled(self):
        with pytest.raises(linalg.UndersampledPath):
            linalg.phase_continue(np.array([1.0, -1.0, 1.0]))

    def test_rejects_zero(self):
        with pytest.raises(linalg.ZeroEntry):
            linalg.phase_continue(np.array([1.0, 0.0, 1.0]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-3, 3))
    def test_recovers_winding_of_smooth_loop(self, seed, w):
        rng = np.random.default_rng(seed)
        t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        t = np.append(t, 2 * np.pi)
        wiggle = 0.2 * np.sin(3 * t + rng.uniform(0, 2 * np.pi))
        _, winding = linalg.phase_continue(np.exp(1j * (w * t + wiggle)))
        assert winding == w


class TestKramersCanonical:
    def test_standard_form(self):
        rng = np.random.default_rng(6)
        u = random_unitary(rng, 6)
        S = np.kron(np.eye(3), np.array([[0, 1], [-1, 0]]))
        skew_unitary = u @ S @ u.T
        a = linalg.kramers_canonical(skew_unitary)
        got = a.conj().T @ skew_unitary @ a.conj()
        assert np.abs(got - S).max() <= 1e-9
        assert np.abs(a.conj().T @ a - np.eye(6)).max() <= 1e-9

    def test_rejects_odd(self):
        with pytest.raises(linalg.OddDimension):
            linalg.kramers_canonical(np.zeros((3, 3)))
