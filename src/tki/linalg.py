"""Dense complex matrix kernels.

Small-matrix routines used throughout: stacked products and adjoints, the
Pfaffian of a skew-symmetric matrix, projection onto the unitary group, and
branch tracking of a phase along a discrete path.

The stacked kernels behind the gauge smoother and the link logs --
`batched_polar_unitary`, `unitary_log` and `batched_spectral_norm` -- have
closed forms for 2x2 stacks (every Kramers-pair frame with m = 2) and keep
the SVD / eig path for every other size.
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


def _is_2x2(M) -> bool:
    return M.shape[-2:] == (2, 2)


def batched_polar_unitary(M: np.ndarray, svd: bool = False) -> np.ndarray:
    """Polar factors of a stack of square matrices (no conditioning check).

    2x2 stacks use the closed form (M + e^{i arg det M} adj(M)+) / tr sqrt(M+M)
    (phase 1 where det M = 0, the identity where M = 0), which agrees with
    the SVD factor u vh to rounding and stays unitary on rank-1 inputs; other
    sizes, or `svd=True`, take the SVD path.
    """
    if svd or not _is_2x2(M):
        u, _, vh = np.linalg.svd(M)
        return _mm(u, vh)
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    det = a * d - b * c
    mag = np.abs(det)
    phase = np.where(mag > 0, det / np.where(mag > 0, mag, 1.0), 1.0)
    # M + phase * adj(M)+ = (tr P) U for M = U P, so the Frobenius norm of
    # the sum is sqrt(2) tr P
    N = np.empty(M.shape, dtype=complex)
    N[..., 0, 0] = a + phase * d.conj()
    N[..., 0, 1] = b - phase * c.conj()
    N[..., 1, 0] = c - phase * b.conj()
    N[..., 1, 1] = d + phase * a.conj()
    norm = np.sqrt(0.5 * (N.real ** 2 + N.imag ** 2).sum(axis=(-2, -1)))
    zero = norm == 0
    N[zero] = np.eye(2)
    return N / np.where(zero, 1.0, norm)[..., None, None]


def _unitary_log_phases(W):
    """Eigen-decomposition of a stack of (near-)unitary matrices.

    Returns (V, phi) with W ~ V diag(exp(i phi)) V+, phi in (-pi, pi].
    """
    vals, vecs = np.linalg.eig(W)
    V = batched_polar_unitary(vecs, svd=True)
    return V, np.angle(vals)


def _eig_log(W):
    """Principal log of a stack of unitaries through `np.linalg.eig`."""
    Q, phi = _unitary_log_phases(W)
    return _mm(Q * (1j * phi)[..., None, :], _dag(Q))


def unitary_log(W: np.ndarray) -> np.ndarray:
    """Principal logarithm of a stack of unitary matrices (anti-Hermitian,
    eigenphases in (-pi, pi]).

    2x2 stacks use the Sylvester form  i phi_- 1 + dd (W - lambda_- 1)  with
    the divided difference dd = (i phi_+ - i phi_-) / (lambda_+ - lambda_-)
    written as exp(-i mean phi) / sinc(delta phi / 2 pi), stable through
    degeneracy.  Nodes whose eigenphases straddle the branch cut at +-pi
    (|phi_+ - phi_-| > pi, where dd grows without bound) and other sizes
    go through `np.linalg.eig`.
    """
    if not _is_2x2(W):
        return _eig_log(W)
    a, b, c, d = W[..., 0, 0], W[..., 0, 1], W[..., 1, 0], W[..., 1, 1]
    # eigenvalues t +- r from the discriminant in difference form, accurate
    # to rounding at (near-)degenerate nodes
    t = 0.5 * (a + d)
    half = 0.5 * (a - d)
    r = np.sqrt(half * half + b * c)
    lo = t - r
    phi_m = np.angle(lo)
    delta = np.angle((t + r) / lo)
    phi_p = phi_m + delta
    straddle = np.abs(phi_p) > np.pi
    dd = np.exp(-1j * (phi_m + 0.5 * delta)) / np.sinc(delta / (2 * np.pi))
    L = dd[..., None, None] * W
    L[..., 0, 0] += 1j * phi_m - dd * lo
    L[..., 1, 1] += 1j * phi_m - dd * lo
    L[straddle] = _eig_log(W[straddle])
    return L


def batched_spectral_norm(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack.

    2x2 stacks use the largest eigenvalue of the Hermitian M+M in the
    cancellation-free form (p + s)/2 + sqrt(((p - s)/2)^2 + |q|^2); other
    sizes take the SVD.
    """
    if not _is_2x2(M):
        return np.linalg.svd(M, compute_uv=False)[..., 0]
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    aa, bb = np.abs(a) ** 2, np.abs(b) ** 2
    cc, dd = np.abs(c) ** 2, np.abs(d) ** 2
    q = a.conj() * b + c.conj() * d
    top = 0.5 * (aa + bb + cc + dd) + np.sqrt(
        (0.5 * (aa + cc - bb - dd)) ** 2 + np.abs(q) ** 2)
    return np.sqrt(top)


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
