"""Dense complex matrix kernels.

Small-matrix routines used throughout: stacked products and adjoints, the
Pfaffian of a skew-symmetric matrix, projection onto the unitary group, the
powers of a unitary along a ramp (`unitary_ramp`, behind the holonomy
spreading of the one line transport, `bloch._transport_last_axis`, which
seeds the gauge and builds the planes route's ring gauge), and branch
tracking of a phase along a discrete path.

The stacked kernels behind the gauge smoother, the link logs and the
determinants of the plane fluxes, ring phases and fixed-node SU reduction --
`batched_polar_unitary`, `unitary_step`, `unitary_log`,
`batched_spectral_norm` and `batched_det` -- have closed forms for 2x2
stacks (every Kramers-pair frame with m = 2).  Larger stacks take one
LAPACK call per stack: the polar factor from `svd` (`_svd_polar`, which
the transport seed calls directly for every m), the smoother's step from
`solve` (a Cayley transform, unitary without a polar factor), the log
from one `eigh` of a Hermitian combination of W and W+, the norm from
`eigvalsh` of M+M, the determinant from `det`'s LU factorisation.  The
log certifies each node and sends the nodes that fail to the per-matrix
eig path.  It takes a unitary: the frames' link logs pass their
contractions through the polar factor first, while a sewing field's
links, unitary to rounding, go to the log directly (`bloch.link_log`,
`bloch.unitary_link_log`).

Layout.  Every stack of matrices (..., m, n) is stored matrix-major, its
two matrix axes outermost in memory, from the line that creates it:
`_empty_stack` allocates one, `_matrix_major` moves a LAPACK result or a
fancy-indexed copy into that layout, and a new array derived from a stack
keeps it, because `einsum`, the ufuncs, `empty_like` and `np.roll` follow
their operands' layout (order='K').  Each term of a product, and each entry
of a closed form, is then one long contiguous vector operation instead of a
loop of length 2-4 per node.  The layout changes neither shapes nor values:
products, closed forms and the LAPACK calls are bitwise those of C order.
`_mm` is a plain `einsum` and does not convert; a C-ordered stack still
gives the right values, only slower.
"""

from __future__ import annotations

import numpy as np


def _mm(X, Y):
    return np.einsum("...ab,...bc->...ac", X, Y)


def _matrix_major(X):
    """X with the same shape and values, its two matrix axes outermost in
    memory (strides of the node axes smallest); no copy is made when X is
    already stored that way."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(X, (-2, -1), (0, 1))),
                       (0, 1), (-2, -1))


def _empty_stack(shape, dtype=complex):
    """An uninitialised stack of the given shape (..., m, n), matrix-major."""
    shape = tuple(shape)
    return np.moveaxis(np.empty(shape[-2:] + shape[:-2], dtype=dtype),
                       (0, 1), (-2, -1))


def _scale_columns(V, d):
    """V diag(d) for a stack V (..., m, m) and diagonals d (..., m),
    allocated matrix-major whatever the layout of d."""
    return np.multiply(V, d[..., None, :], out=_empty_stack(V.shape))


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


def _as_square(M, stacked: bool = False) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if (M.ndim < 2 if stacked else M.ndim != 2) or M.shape[-1] != M.shape[-2]:
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
    """Nearest unitary in Frobenius norm (polar factor) to a square matrix,
    or to each matrix of a stack (..., m, m); refuses the input when one
    batched SVD finds any of its matrices too close to singular."""
    M = _as_square(M, stacked=True)
    s = np.linalg.svd(M, compute_uv=False)
    if np.any(s[..., -1] <= 1e-10 * s[..., 0]):
        raise NearSingular("matrix too close to singular for a stable polar factor")
    return batched_polar_unitary(M)


def _is_2x2(M) -> bool:
    return M.shape[-2:] == (2, 2)


def batched_det(M: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices: ad - bc for 2x2 stacks,
    LAPACK's LU for larger ones."""
    return (M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
            if _is_2x2(M) else np.linalg.det(M))


def batched_polar_unitary(M: np.ndarray) -> np.ndarray:
    """Polar factors of a stack of square matrices (no conditioning check).

    2x2 stacks use the closed form (M + e^{i arg det M} adj(M)+) / tr sqrt(M+M)
    (phase 1 where det M = 0, the identity where M = 0), which agrees with
    the SVD factor u vh to rounding and stays unitary on rank-1 inputs; the
    closed form returns its input's memory layout.  Larger stacks take one
    batched LAPACK SVD (`_svd_polar`), matrix-major.
    """
    if not _is_2x2(M):
        return _svd_polar(M)
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    det = batched_det(M)
    mag = np.abs(det)
    phase = np.where(mag > 0, det / np.where(mag > 0, mag, 1.0), 1.0)
    # M + phase * adj(M)+ = (tr P) U for M = U P, so the Frobenius norm of
    # the sum is sqrt(2) tr P
    N = np.empty_like(M, dtype=complex)
    N[..., 0, 0] = a + phase * d.conj()
    N[..., 0, 1] = b - phase * c.conj()
    N[..., 1, 0] = c - phase * b.conj()
    N[..., 1, 1] = d + phase * a.conj()
    norm = np.sqrt(0.5 * (N.real ** 2 + N.imag ** 2).sum(axis=(-2, -1)))
    zero = norm == 0
    if zero.any():
        N[zero] = np.eye(2)
    return N / np.where(zero, 1.0, norm)[..., None, None]


def _svd_polar(M):
    u, _, vh = np.linalg.svd(M)
    return _mm(_matrix_major(u), _matrix_major(vh))


def unitary_step(theta: np.ndarray) -> np.ndarray:
    """A unitary that agrees with exp(theta) to second order, for a stack
    of anti-Hermitian theta (..., m, m), which it overwrites.

    2x2 stacks take the closed-form polar factor of 1 + theta, built in
    place.  Larger stacks take the Cayley transform (1 - theta/2)^-1 (1 +
    theta/2), one batched solve, matrix-major: 1 - theta/2 is invertible
    for anti-Hermitian theta, and the transform is unitary to rounding.
    """
    eye = np.eye(theta.shape[-1])
    if _is_2x2(theta):
        theta += eye
        return batched_polar_unitary(theta)
    theta *= 0.5
    lhs = eye - theta
    theta += eye
    return _matrix_major(np.linalg.solve(lhs, theta))


def _unitary_log_phases(W):
    """Eigen-decomposition of a stack of (near-)unitary matrices.

    Returns (V, phi) with W ~ V diag(exp(i phi)) V+, phi in (-pi, pi].
    """
    vals, vecs = np.linalg.eig(W)
    V = _svd_polar(vecs)
    return V, np.angle(vals)


def unitary_ramp(W, steps):
    """Yield the powers W^s of a stack of unitaries (..., m, m) for each s
    in `steps`: V diag(exp(i s phi)) V+ from one `_unitary_log_phases` of
    W, so every power takes the principal branch."""
    V, phi = _unitary_log_phases(W)
    Vd = _dag(V)
    for s in steps:
        yield _mm(_scale_columns(V, np.exp(1j * s * phi)), Vd)


def _eig_log(W):
    """Principal log of a stack of unitaries through `np.linalg.eig`."""
    Q, phi = _unitary_log_phases(W)
    return _mm(_scale_columns(Q, 1j * phi), _dag(Q))


# c in A + c B: irrational, so that no pair of eigenphases symmetric about
# arctan c is common in practice; such a pair (a collision) fails the
# certificate below.  An off-diagonal D_ij of size e moves the log by up to
# about e pi / 2 per entry pair, so the certificate sits an order of
# magnitude below the 1e-12 the log is held to.
_LOG_MIX = 0.5 * (np.sqrt(5.0) - 1.0)
_LOG_OFFDIAG = 1e-13


def _eigh_log(W):
    """Principal log of a stack of m x m unitaries from one Hermitian eigh.

    W is normal, so A = (W + W+)/2 and B = (W - W+)/2i commute and
    A + c B = ((1 - ic) W + (1 + ic) W+) / 2 = V diag(cos phi + c sin phi) V+
    with the eigenvectors of W.  A degenerate eigenvalue is harmless where
    W is scalar on its eigenspace (degenerate phi); where two distinct
    phases collide in cos phi + c sin phi, V mixes them and D = V+ W V is
    not diagonal.  Nodes with an off-diagonal |D_ij| above _LOG_OFFDIAG go
    through `_eig_log`; the others get V diag(i arg D_jj) V+.
    """
    m = W.shape[-1]
    alpha = 0.5 * (1.0 - 1j * _LOG_MIX)
    H = _dag(W)
    H *= np.conj(alpha)
    H += alpha * W
    V = _matrix_major(np.linalg.eigh(H)[1])
    del H
    Vd = _dag(V)
    D = _mm(Vd, _mm(W, V))
    phi = np.angle(np.diagonal(D, axis1=-2, axis2=-1))
    off = np.abs(D)
    off[..., range(m), range(m)] = 0.0
    bad = off.max(axis=(-2, -1)) > _LOG_OFFDIAG
    del D, off
    L = _mm(_scale_columns(V, 1j * phi), Vd)
    if bad.any():
        L[bad] = _eig_log(W[bad])
    return L


def unitary_log(W: np.ndarray) -> np.ndarray:
    """Principal logarithm of a stack of unitary matrices (anti-Hermitian,
    eigenphases in (-pi, pi]).

    2x2 stacks use the Sylvester form  i phi_- 1 + dd (W - lambda_- 1)  with
    the divided difference dd = (i phi_+ - i phi_-) / (lambda_+ - lambda_-)
    written as exp(-i mean phi) / sinc(delta phi / 2 pi), stable through
    degeneracy.  Nodes whose eigenphases straddle the branch cut at +-pi
    (|phi_+ - phi_-| > pi, where dd grows without bound) go through
    `np.linalg.eig`; larger stacks take one Hermitian eigh (`_eigh_log`).
    """
    if not _is_2x2(W):
        return _eigh_log(W)
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
    if straddle.any():
        L[straddle] = _eig_log(W[straddle])
    return L


def batched_spectral_norm(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack.

    2x2 stacks use the largest eigenvalue of the Hermitian M+M in the
    cancellation-free form (p + s)/2 + sqrt(((p - s)/2)^2 + |q|^2); other
    sizes take the largest eigenvalue of M+M from `np.linalg.eigvalsh`,
    accurate to rounding relative to it, so the norm is too.
    """
    if not _is_2x2(M):
        top = np.linalg.eigvalsh(_mm(_dag(M), M))[..., -1]
        return np.sqrt(np.maximum(top, 0.0))
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    aa, bb = np.abs(a) ** 2, np.abs(b) ** 2
    cc, dd = np.abs(c) ** 2, np.abs(d) ** 2
    q = a.conj() * b + c.conj() * d
    top = 0.5 * (aa + bb + cc + dd) + np.sqrt(
        (0.5 * (aa + cc - bb - dd)) ** 2 + np.abs(q) ** 2)
    return np.sqrt(top)


def phase_continue(z, start=None):
    """Track a continuous phase along a discrete path of nonzero complex numbers.

    Returns (phases, winding): phases[0] is arg(z[0]), or `start` if given,
    and consecutive phases differ by the step of arg z in (-pi, pi); winding
    is (phases[-1] - phases[0]) / 2pi rounded (exact on a closed path).
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
    phases[0] = np.angle(z[0]) if start is None else start
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
