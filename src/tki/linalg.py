"""Dense complex matrix kernels.

Small-matrix routines used throughout: stacked products and adjoints, the
Pfaffian of a skew-symmetric matrix, projection onto the unitary group, and
branch tracking of a phase along a discrete path.
"""

from __future__ import annotations

import numpy as np


def _mm(X, Y):
    return np.einsum("...ab,...bc->...ac", X, Y)


def _dag(X):
    return np.swapaxes(X, -1, -2).conj()


def _AH(X):
    """Anti-Hermitian part of a stack of square matrices."""
    return 0.5 * (X - _dag(X))


class LinalgError(ValueError):
    """Base class for kernel contract violations."""


class NonSquare(LinalgError):
    pass


class NotSkew(LinalgError):
    pass


class OddDimension(LinalgError):
    pass


class NearSingular(LinalgError):
    pass


class ZeroEntry(LinalgError):
    pass


class UndersampledPath(LinalgError):
    pass


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise LinalgError("matrix has non-finite entries")
    return M


def pfaffian(A):
    """Pfaffian of an even-dimensional skew-symmetric complex matrix.

    Parlett-Reid style skew elimination with partial pivoting; satisfies
    pf(A)^2 = det(A).
    """
    A = _as_square(A)
    n = A.shape[0]
    if n % 2:
        raise OddDimension("Pfaffian requires even dimension")
    scale = 1.0 + np.abs(A).max(initial=0.0)
    if np.abs(A + A.T).max(initial=0.0) > 1e-9 * scale:
        raise NotSkew("matrix is not skew-symmetric within tolerance")
    if n == 0:
        return 1.0 + 0.0j
    # work on an exactly skew copy
    A = 0.5 * (A - A.T)
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        # pivot: move the largest entry of column k below the diagonal to row k+1
        p = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if p != k + 1:
            A[[k + 1, p], :] = A[[p, k + 1], :]
            A[:, [k + 1, p]] = A[:, [p, k + 1]]
            pf = -pf
        piv = A[k + 1, k]
        if abs(piv) < 1e-14 * scale:
            return 0.0 + 0.0j
        pf *= A[k, k + 1]
        if k + 2 < n:
            tau = A[k + 2:, k] / piv
            v = A[k + 2:, k + 1]
            A[k + 2:, k + 2:] += np.outer(tau, v) - np.outer(v, tau)
    return pf


def polar_unitary(M):
    """Nearest unitary to M in Frobenius norm (polar factor via SVD)."""
    M = _as_square(M)
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= 1e-10 * s[0]:
        raise NearSingular("matrix too close to singular for a stable polar factor")
    return batched_polar_unitary(M)


def batched_polar_unitary(M: np.ndarray) -> np.ndarray:
    """Polar factors of a stack of square matrices (no conditioning check)."""
    u, _, vh = np.linalg.svd(M)
    return _mm(u, vh)


def phase_continue(z):
    """Track a continuous phase along a discrete path of nonzero complex numbers.

    Returns (phases, winding).  phases[i] = arg(z[i]) mod 2pi-continued so that
    consecutive differences lie in (-pi, pi); winding = (phases[-1] - phases[0]) / 2pi
    rounded to the nearest integer (an integer when the path is closed).
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or len(z) == 0:
        raise LinalgError("expected a nonempty 1-d sequence")
    if np.abs(z).min() <= 1e-12:
        raise ZeroEntry("path passes too close to zero")
    steps = np.angle(z[1:] / z[:-1])
    if len(steps) and np.abs(steps).max() >= np.pi / 2:
        raise UndersampledPath("phase jump >= pi/2 between consecutive samples")
    phases = np.empty(len(z))
    phases[0] = np.angle(z[0])
    phases[1:] = phases[0] + np.cumsum(steps)
    winding = int(round((phases[-1] - phases[0]) / (2 * np.pi)))
    return phases, winding


def kramers_canonical(S):
    """Basis in which a skew unitary matrix takes the standard symplectic form.

    Given S skew-symmetric and unitary (even dimension m), returns a unitary a
    with  a† S conj(a) = blockdiag([[0,1],[-1,0]], ...)  up to the accuracy of
    the input's skew-unitarity.

    The antiunitary map v -> S conj(v) squares to -1 and pairs each basis
    vector with an orthogonal partner, which is what makes this work.
    """
    S = _as_square(S)
    m = S.shape[0]
    if m % 2:
        raise OddDimension("skew unitary matrices have even dimension")
    cols = []
    P = np.eye(m, dtype=complex)  # projector onto the not-yet-spanned subspace
    for _ in range(m // 2):
        j = int(np.argmax(np.linalg.norm(P, axis=0)))
        v = P[:, j]
        v = v / np.linalg.norm(v)
        u = S @ v.conj()
        # re-orthogonalize against everything chosen so far (numerical hygiene)
        for c in cols + [v]:
            u = u - c * (c.conj() @ u)
        u = u / np.linalg.norm(u)
        cols.extend([u, v])
        for c in (u, v):
            P = P - np.outer(c, c.conj())
    return np.column_stack(cols)
