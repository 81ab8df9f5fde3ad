from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from tki import linalg
from conftest import (cofactor_pfaffian, matrix_major, random_skew,
                      random_unitary)


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

    @pytest.mark.parametrize("m", [2, 4])
    def test_stack_matches_single_matrices(self, m):
        # one batched call factors every matrix as a call per matrix does
        rng = np.random.default_rng(4)
        M = rng.standard_normal((2, 5, m, m)) + 1j * rng.standard_normal(
            (2, 5, m, m))
        U = linalg.polar_unitary(M)
        single = np.array([[linalg.polar_unitary(x) for x in row]
                           for row in M])
        assert U.shape == M.shape
        assert np.abs(U - single).max() <= 1e-13
        if m == 2:  # the closed form is node by node
            assert np.array_equal(U, single)

    def test_stack_refused_when_any_matrix_is_singular(self):
        rng = np.random.default_rng(5)
        M = np.stack([random_unitary(rng, 2) for _ in range(6)])
        M[4] = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(linalg.NearSingular):
            linalg.polar_unitary(M)
        with pytest.raises(linalg.NonSquare):
            linalg.polar_unitary(np.zeros((3, 2, 4)))

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

    def test_start_shifts_the_branch(self):
        # a given start replaces arg z[0]; each later phase is the start
        # plus the cumulative sum of the steps, the winding unchanged
        t = np.linspace(0, 2 * np.pi, 41)
        z = np.exp(1j * t)
        start = np.angle(z[0]) + 4 * np.pi
        phases, winding = linalg.phase_continue(z, start)
        steps = np.angle(z[1:] / z[:-1])
        assert phases[0] == start and winding == 1
        assert np.array_equal(phases[1:], np.cumsum(steps) + start)

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


def _stack_unitaries(rng, n, m=2):
    A = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    q, r = np.linalg.qr(A)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _with_phases(V, phases):
    """V diag(exp(i phases)) V+ and its principal log V diag(i phases) V+."""
    Vd = np.swapaxes(V, -1, -2).conj()
    W = (V * np.exp(1j * phases)[..., None, :]) @ Vd
    L = (V * (1j * phases)[..., None, :]) @ Vd
    return W, L


_svd_polar = linalg._svd_polar


class TestClosedForm2x2:
    """The closed-form 2x2 polar, log and norm kernels against the SVD/eig
    path they replace."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
    def test_polar_matches_svd(self, seed, scale):
        rng = np.random.default_rng(seed)
        M = scale * (rng.standard_normal((64, 2, 2))
                     + 1j * rng.standard_normal((64, 2, 2)))
        s = np.linalg.svd(M, compute_uv=False)
        keep = s[:, 1] > 1e-3 * s[:, 0]     # a well-defined polar factor
        got = linalg.batched_polar_unitary(M)
        assert np.abs(got - _svd_polar(M))[keep].max(initial=0.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-15, 1e-12,
                                                       1e-9, 1e-6]))
    def test_polar_rank_one_and_near_singular(self, seed, eps):
        rng = np.random.default_rng(seed)
        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        M = gauss(64, 2, 1) @ gauss(64, 1, 2) + eps * gauss(64, 2, 2)
        U = linalg.batched_polar_unitary(M)
        Ud = np.swapaxes(U, -1, -2).conj()
        assert np.abs(Ud @ U - np.eye(2)).max() <= 1e-12
        # M = U P with P = U+ M Hermitian positive semidefinite
        P = Ud @ M
        size = np.abs(M).max()
        assert np.abs(P - np.swapaxes(P, -1, -2).conj()).max() <= 1e-12 * size
        assert np.linalg.eigvalsh(0.5 * (P + np.swapaxes(P, -1, -2).conj())
                                  ).min() >= -1e-12 * size

    def test_polar_of_zero_is_identity(self):
        got = linalg.batched_polar_unitary(np.zeros((3, 2, 2)))
        assert np.array_equal(got, _svd_polar(np.zeros((3, 2, 2))))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_polar_fixes_unitaries(self, seed):
        U = _stack_unitaries(np.random.default_rng(seed), 64)
        assert np.abs(linalg.batched_polar_unitary(U) - U).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_log_matches_eig(self, seed):
        W = _stack_unitaries(np.random.default_rng(seed), 64)
        L = linalg.unitary_log(W)
        assert np.abs(L - linalg._eig_log(W)).max() <= 1e-12
        assert np.abs(L + np.swapaxes(L, -1, -2).conj()).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-12, 1e-2))
    def test_log_near_identity(self, seed, size):
        rng = np.random.default_rng(seed)
        V = _stack_unitaries(rng, 64)
        W, truth = _with_phases(V, rng.uniform(-size, size, (64, 2)))
        L = linalg.unitary_log(W)
        assert np.abs(L - truth).max() <= 1e-12
        assert np.abs(L - linalg._eig_log(W)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_log_exactly_degenerate(self, seed):
        rng = np.random.default_rng(seed)
        phase = rng.uniform(-np.pi, np.pi, 64)
        W, truth = _with_phases(_stack_unitaries(rng, 64),
                                np.stack([phase, phase], axis=-1))
        W = np.concatenate([W, np.exp(1j * phase)[:, None, None] * np.eye(2)])
        truth = np.concatenate([truth, 1j * phase[:, None, None] * np.eye(2)])
        L = linalg.unitary_log(W)
        assert np.abs(L - truth).max() <= 1e-12
        assert np.abs(L - linalg._eig_log(W)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, -1.0]))
    def test_log_near_pi_same_side(self, seed, side):
        # both eigenphases within 1e-9 of +pi (or of -pi), on one side of
        # the branch cut
        rng = np.random.default_rng(seed)
        phases = side * (np.pi - rng.uniform(1e-12, 1e-9, (64, 2)))
        W, truth = _with_phases(_stack_unitaries(rng, 64), phases)
        L = linalg.unitary_log(W)
        assert np.abs(L - truth).max() <= 1e-12
        assert np.abs(L - linalg._eig_log(W)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
    def test_spectral_norm_matches_svd(self, seed, scale):
        rng = np.random.default_rng(seed)
        M = scale * (rng.standard_normal((64, 2, 2))
                     + 1j * rng.standard_normal((64, 2, 2)))
        # equal singular values: scaled unitaries
        M = np.concatenate([M, scale * _stack_unitaries(rng, 16)])
        ref = np.linalg.svd(M, compute_uv=False)[:, 0]
        got = linalg.batched_spectral_norm(M)
        assert np.abs(got - ref).max() <= 1e-12 * scale

    def test_other_sizes_take_the_general_path(self):
        rng = np.random.default_rng(9)
        W = _stack_unitaries(rng, 8, m=4)
        L = linalg.unitary_log(W)
        assert max(np.abs(expm(x) - w).max() for x, w in zip(L, W)) <= 1e-12
        M = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
        u, _, vh = np.linalg.svd(M)
        assert np.array_equal(_svd_polar(M),
                              np.einsum("...ab,...bc->...ac", u, vh))
        for m in (3, 4, 6):
            M = _conditioned_stack(rng, 64, m, 0.2, 1.0)
            assert np.abs(linalg.batched_polar_unitary(M)
                          - _svd_polar(M)).max() <= 1e-12
        assert np.allclose(linalg.batched_spectral_norm(M),
                           np.linalg.svd(M, compute_uv=False)[:, 0],
                           rtol=1e-12, atol=0)


def _conditioned_stack(rng, n, m, lo, hi):
    """U diag(s) V+ with singular values s drawn from [lo, hi] (relative to
    the largest one, which is 1)."""
    s = rng.uniform(lo, hi, (n, m))
    s[:, 0] = hi
    U, V = _stack_unitaries(rng, n, m), _stack_unitaries(rng, n, m)
    return (U * s[..., None, :]) @ np.swapaxes(V, -1, -2).conj()


def _assert_polar_factor(U, M, tol=1e-12):
    """U unitary and U+ M Hermitian positive semidefinite."""
    Ud = np.swapaxes(U, -1, -2).conj()
    assert np.abs(Ud @ U - np.eye(U.shape[-1])).max() <= tol
    P = Ud @ M
    size = np.abs(M).max()
    assert np.abs(P - np.swapaxes(P, -1, -2).conj()).max() <= tol * size
    assert np.linalg.eigvalsh(0.5 * (P + np.swapaxes(P, -1, -2).conj())
                              ).min() >= -tol * size


@contextmanager
def _fallback_nodes(name):
    """Record the number of nodes each call hands to linalg.<name>."""
    calls = []
    original = getattr(linalg, name)

    def spy(A):
        calls.append(len(A))
        return original(A)
    setattr(linalg, name, spy)
    try:
        yield calls
    finally:
        setattr(linalg, name, original)


class TestGeneralM:
    """The SVD polar factor and the one-eigh log for m > 2, and the eig
    fallback the log's certificate sends nodes to."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]),
           st.floats(1e-2, 1e2))
    def test_polar_matches_svd(self, seed, m, scale):
        rng = np.random.default_rng(seed)
        M = scale * _conditioned_stack(rng, 64, m, 0.05, 1.0)
        U = linalg.batched_polar_unitary(M)
        assert np.abs(U - _svd_polar(M)).max() <= 1e-12
        _assert_polar_factor(U, M)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]),
           st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
    def test_polar_rank_one_and_near_singular(self, seed, m, eps):
        rng = np.random.default_rng(seed)
        M = (_complex_stack(rng, (16, m, 1)) @ _complex_stack(rng, (16, 1, m))
             + eps * _complex_stack(rng, (16, m, m)))
        _assert_polar_factor(linalg.batched_polar_unitary(M), M)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 6]),
           st.floats(3.5, 100.0))
    def test_polar_large_top_singular_value(self, seed, m, top):
        # singular values (top, 1, ..., 1), far from unitary:
        # sigma_max / sigma_rms > sqrt 3
        rng = np.random.default_rng(seed)
        s = np.ones((16, m))
        s[:, 0] = top
        assert (top / np.sqrt((s ** 2).mean(axis=1)) > np.sqrt(3)).all()
        U, V = _stack_unitaries(rng, 16, m), _stack_unitaries(rng, 16, m)
        Vd = np.swapaxes(V, -1, -2).conj()
        M = (U * s[..., None, :]) @ Vd
        with _fallback_nodes("_svd_polar") as calls:
            got = linalg.batched_polar_unitary(M)
        assert calls == [16]
        assert np.abs(got - U @ Vd).max() <= 1e-12
        _assert_polar_factor(got, M)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]))
    def test_polar_fixes_unitaries(self, seed, m):
        U = _stack_unitaries(np.random.default_rng(seed), 64, m)
        assert np.abs(linalg.batched_polar_unitary(U) - U).max() <= 1e-12

    def test_polar_of_zero_takes_the_svd(self):
        M = np.zeros((2, 4, 4), dtype=complex)
        M[1] = np.eye(4)
        assert np.array_equal(linalg.batched_polar_unitary(M), _svd_polar(M))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]))
    def test_log_matches_expm(self, seed, m):
        W = _stack_unitaries(np.random.default_rng(seed), 16, m)
        L = linalg.unitary_log(W)
        assert max(np.abs(expm(x) - w).max() for x, w in zip(L, W)) <= 1e-12
        assert np.abs(L + np.swapaxes(L, -1, -2).conj()).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]))
    def test_log_exactly_degenerate(self, seed, m):
        rng = np.random.default_rng(seed)
        # a doubly degenerate phase, and scalar matrices
        phases = rng.uniform(-np.pi, np.pi, (32, m))
        phases[:, 1] = phases[:, 0]
        W, truth = _with_phases(_stack_unitaries(rng, 32, m), phases)
        W = np.concatenate([W, np.exp(1j * phases[:, :1, None]) * np.eye(m)])
        truth = np.concatenate([truth, 1j * phases[:, :1, None] * np.eye(m)])
        assert np.abs(linalg.unitary_log(W) - truth).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]),
           st.sampled_from([1.0, -1.0]))
    def test_log_near_pi(self, seed, m, side):
        # every eigenphase within 1e-9 of +pi (or of -pi) is the
        # well-conditioned case: compared with the exact log
        rng = np.random.default_rng(seed)
        V = _stack_unitaries(rng, 32, m)
        phases = side * (np.pi - rng.uniform(1e-12, 1e-9, (32, m)))
        W, truth = _with_phases(V, phases)
        assert np.abs(linalg.unitary_log(W) - truth).max() <= 1e-12
        # phases on both sides of the cut: the log itself is ill-conditioned
        # there, so ask for a principal log of W
        phases *= rng.choice([-1.0, 1.0], phases.shape)
        W, _ = _with_phases(V, phases)
        L = linalg.unitary_log(W)
        assert max(np.abs(expm(x) - w).max() for x, w in zip(L, W)) <= 1e-12
        assert np.abs(np.linalg.eigvalsh(-1j * L)).max() <= np.pi

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]),
           st.floats(0.1, 1.5))
    def test_log_collision_takes_eig(self, seed, m, t):
        # cos phi + c sin phi is the same at phi0 + t and phi0 - t, with
        # tan phi0 = c: the eigh mixes the two eigenvectors
        rng = np.random.default_rng(seed)
        phi0 = np.arctan(linalg._LOG_MIX)
        phases = rng.uniform(-np.pi, np.pi, (16, m))
        phases[:, 0], phases[:, 1] = phi0 + t, phi0 - t
        W, truth = _with_phases(_stack_unitaries(rng, 16, m), phases)
        with _fallback_nodes("_eig_log") as calls:
            L = linalg.unitary_log(W)
        assert calls == [16]
        assert np.abs(L - truth).max() <= 1e-12
        assert max(np.abs(expm(x) - w).max() for x, w in zip(L, W)) <= 1e-12


def _anti_hermitian_stack(rng, n, m, size):
    """n random anti-Hermitian m x m matrices of spectral norm `size`."""
    X = _complex_stack(rng, (n, m, m))
    X -= np.swapaxes(X, -1, -2).conj()
    return X * (size / np.linalg.norm(X, ord=2, axis=(-2, -1)))[:, None, None]


class TestUnitaryStep:
    """The relax step: the Cayley transform of theta for m > 2, the
    closed-form polar factor of 1 + theta for m = 2."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]),
           st.floats(1e-3, 10.0))
    def test_cayley_is_unitary(self, seed, m, size):
        theta = _anti_hermitian_stack(np.random.default_rng(seed), 32, m, size)
        U = linalg.unitary_step(theta)
        Ud = np.swapaxes(U, -1, -2).conj()
        assert np.abs(Ud @ U - np.eye(m)).max() <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 6]),
           st.floats(1e-3, 0.1))
    def test_cayley_agrees_with_the_exponential(self, seed, m, size):
        theta = _anti_hermitian_stack(np.random.default_rng(seed), 32, m, size)
        want = np.array([expm(x) for x in theta])
        # (1 - t/2)^-1 (1 + t/2) - exp(t) = t^3 / 12 + O(t^5)
        assert np.abs(linalg.unitary_step(theta) - want).max() <= size ** 3

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_cayley_is_matrix_major(self, m):
        theta = _anti_hermitian_stack(np.random.default_rng(m), 120, m, 0.5)
        theta = theta.reshape((6, 5, 4, m, m))
        C, Mm = np.ascontiguousarray(theta), linalg._matrix_major(theta)
        U, Um = linalg.unitary_step(C.copy()), linalg.unitary_step(Mm.copy())
        assert matrix_major(U) and matrix_major(Um)
        assert np.array_equal(U, Um)

    @pytest.mark.parametrize("layout", ["C", "matrix-major"])
    def test_m2_step_is_the_polar_of_one_plus_theta(self, layout):
        theta = _anti_hermitian_stack(np.random.default_rng(5), 120, 2, 0.5)
        theta = theta.reshape((6, 5, 4, 2, 2))
        if layout != "C":
            theta = linalg._matrix_major(theta)
        want = linalg.batched_polar_unitary(theta + np.eye(2))
        assert np.array_equal(linalg.unitary_step(theta), want)


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBatchedDet:
    # LAPACK's LU rounds to about 55 eps max|entry|^2 on random complex
    # stacks, so the two agree to a bound well above a few eps
    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e6])
    def test_2x2_matches_lapack(self, scale):
        rng = np.random.default_rng(17)
        M = scale * _complex_stack(rng, (6, 5, 4, 2, 2))
        M[0, 0, 0] = 0.0                                 # zero
        M[0, 0, 1] = np.outer([1, 2j], [3, -1j]) * scale  # singular
        for X in (M, linalg._matrix_major(M)):  # C order, matrix-major
            got = linalg.batched_det(X)
            assert got.shape == M.shape[:-2]
            bound = 1e-13 * np.abs(X).max(axis=(-2, -1)) ** 2
            assert (np.abs(got - np.linalg.det(X)) <= bound).all()
            assert got[0, 0, 0] == 0 and abs(got[0, 0, 1]) <= bound[0, 0, 1]

    def test_larger_stacks_take_lapack(self):
        M = _complex_stack(np.random.default_rng(18), (7, 4, 4))
        assert np.array_equal(linalg.batched_det(M), np.linalg.det(M))


class TestUnitaryRamp:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]))
    def test_powers_of_the_principal_log(self, seed, m):
        W = _stack_unitaries(np.random.default_rng(seed), 8, m)
        L = linalg.unitary_log(W)
        steps = [0.0, 0.25, 0.5, 1.0]
        for s, G in zip(steps, linalg.unitary_ramp(W, steps)):
            ref = np.stack([expm(s * x) for x in L])
            assert np.abs(G - ref).max() <= 1e-12, s


class TestMatrixMajor:
    def test_keeps_shape_and_values(self):
        X = _complex_stack(np.random.default_rng(0), (6, 5, 4, 3, 2))
        Xm = linalg._matrix_major(X)
        assert Xm.shape == X.shape and np.array_equal(Xm, X)
        # the node axes vary fastest, the matrix axes slowest
        assert Xm.strides[-2] > Xm.strides[-1] > Xm.strides[0]
        assert Xm.strides[2] == Xm.itemsize

    @pytest.mark.parametrize("left,right", [((2, 2), (2, 2)),
                                            ((4, 2), (2, 2)),
                                            ((4, 4), (4, 4))])
    def test_products_bitwise_equal(self, left, right):
        rng = np.random.default_rng(1)
        X = _complex_stack(rng, (7, 6, 5) + left)
        Y = _complex_stack(rng, (7, 6, 5) + right)
        Xm, Ym = linalg._matrix_major(X), linalg._matrix_major(Y)
        out = linalg._mm(Xm, Ym)
        assert np.array_equal(out, linalg._mm(X, Y))
        # the layout carries through the product
        assert out.strides[-1] > out.strides[0]
        assert np.array_equal(linalg._mm(linalg._dag(Xm), Xm),
                              linalg._mm(linalg._dag(X), X))

    def test_polar_keeps_layout(self):
        M = _complex_stack(np.random.default_rng(2), (6, 5, 4, 2, 2))
        Mm = linalg._matrix_major(M)
        U, Um = linalg.batched_polar_unitary(M), linalg.batched_polar_unitary(Mm)
        assert U.flags.c_contiguous
        assert Um.strides == Mm.strides
        assert np.array_equal(Um, U)


class TestLayoutIndependence:
    """Every stacked kernel gives bitwise the same result on a C-ordered
    stack and on its matrix-major copy, and keeps the matrix-major layout."""

    SHAPE = (6, 5, 4)

    def _stacks(self, M):
        M = np.ascontiguousarray(M)
        return M, linalg._matrix_major(M)

    def test_empty_stack(self):
        X = linalg._empty_stack((3,) + self.SHAPE + (4, 2))
        assert X.shape == (3,) + self.SHAPE + (4, 2) and X.dtype == complex
        assert matrix_major(X)
        assert np.shares_memory(linalg._matrix_major(X), X)

    def test_log_2x2_with_straddling_nodes(self):
        rng = np.random.default_rng(7)
        n = int(np.prod(self.SHAPE))
        phases = rng.uniform(-np.pi, np.pi, (n, 2))
        # a third of the nodes straddle the branch cut at +-pi
        phases[::3] = [np.pi - 0.1, -np.pi + 0.2]
        W, _ = _with_phases(_stack_unitaries(rng, n), phases)
        C, Mm = self._stacks(W.reshape(self.SHAPE + (2, 2)))
        with _fallback_nodes("_eig_log") as calls:
            L, Lm = linalg.unitary_log(C), linalg.unitary_log(Mm)
        # the forced nodes and random ones more than pi apart
        assert calls[0] == calls[1] >= len(phases[::3])
        assert np.array_equal(L, Lm)
        assert matrix_major(Lm)

    def test_log_4x4_with_failed_certificates(self):
        rng = np.random.default_rng(8)
        n = int(np.prod(self.SHAPE))
        phases = rng.uniform(-np.pi, np.pi, (n, 4))
        # colliding phases phi0 +- t on every fourth node
        phi0 = np.arctan(linalg._LOG_MIX)
        phases[::4, 0], phases[::4, 1] = phi0 + 0.7, phi0 - 0.7
        W, _ = _with_phases(_stack_unitaries(rng, n, 4), phases)
        C, Mm = self._stacks(W.reshape(self.SHAPE + (4, 4)))
        with _fallback_nodes("_eig_log") as calls:
            L, Lm = linalg.unitary_log(C), linalg.unitary_log(Mm)
        assert calls == [len(phases[::4])] * 2
        assert np.array_equal(L, Lm)
        assert matrix_major(Lm)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_polar_factor(self, m):
        C, Mm = self._stacks(_complex_stack(np.random.default_rng(10),
                                            self.SHAPE + (m, m)))
        U, Um = linalg.batched_polar_unitary(C), linalg.batched_polar_unitary(Mm)
        assert np.array_equal(U, Um)
        # the 2x2 closed form keeps its input's layout; the SVD factor of a
        # larger stack is matrix-major for either
        assert matrix_major(Um)
        assert U.flags.c_contiguous if m == 2 else matrix_major(U)

    @pytest.mark.parametrize("m", [2, 4])
    def test_spectral_norm_and_svd_polar(self, m):
        C, Mm = self._stacks(_complex_stack(np.random.default_rng(9),
                                            self.SHAPE + (m, m)))
        assert np.array_equal(linalg.batched_spectral_norm(C),
                              linalg.batched_spectral_norm(Mm))
        U, Um = linalg._svd_polar(C), linalg._svd_polar(Mm)
        assert np.array_equal(U, Um)
        # LAPACK returns C order; the factor is matrix-major either way
        assert matrix_major(U) and matrix_major(Um)
