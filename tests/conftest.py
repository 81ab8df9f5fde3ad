import os

# one BLAS thread, set before numpy loads: OpenBLAS's idle threads spin on
# the grid-wide GEMMs and double the suite's CPU time on two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tki import bloch, models  # noqa: E402
from tki.linalg import _dag  # noqa: E402
from tki.grids import BZGrid  # noqa: E402


def random_skew(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A - A.T


def random_unitary(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(A)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def in_random_basis(model, seed):
    """The model in a seeded random orbital basis: H -> V H V+, and
    Theta = U K -> V Theta V+, that is U -> V U V^T."""
    V = random_unitary(np.random.default_rng(seed), model.n_bands)
    return dataclasses.replace(
        model, theta=models.TimeReversalOperator(V @ model.theta.U @ V.T),
        _batch=lambda K, f=model._batch: V @ f(K) @ V.conj().T)


def twisted(model, t):
    """The model conjugated by W(k) = exp(i t sum_a sin(k_a) G_a): H -> W H W+.

    G_a = (X_a + U X_a* U+)/2 for a fixed Hermitian X_a, so Theta G_a
    Theta^-1 = G_a and Theta W(k) Theta^-1 = W(-k): H_t keeps time reversal
    and the spectrum, and t -> H_t is a gapped time-reversal-symmetric
    homotopy, so the invariant is the untwisted model's.  The X_a are
    generic: on bhz2d, H_t breaks the inversion 1 x sigma_z that H has."""
    U, idx = model.theta.U, np.arange(model.n_bands)
    gens = []
    for a in range(model.dim):
        B = np.exp(1j * (a + 2) * np.add.outer(2 * idx, 3 * idx))
        X = 0.5 * (B + B.conj().T)
        gens.append(0.5 * (X + U @ X.conj() @ U.conj().T))

    def batch(K, f=model._batch):
        S = sum(np.sin(K[..., a, None, None]) * g for a, g in enumerate(gens))
        lam, V = np.linalg.eigh(S)
        W = (V * np.exp(1j * t * lam)[..., None, :]) @ _dag(V)
        return W @ f(K) @ _dag(W)
    return dataclasses.replace(model, _batch=batch)


def matrix_major(X):
    """True when X is stored matrix-major: its two matrix axes outermost in
    memory and the node axes one contiguous block under them."""
    return np.moveaxis(X, (-2, -1), (0, 1)).flags.c_contiguous


def cofactor_pfaffian(A):
    """Recursive cofactor expansion; independent reference for small matrices."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    if n == 2:
        return A[0, 1]
    total = 0.0 + 0.0j
    rest = list(range(1, n))
    for pos, j in enumerate(rest):
        keep = [i for i in rest if i != j]
        sub = A[np.ix_(keep, keep)]
        total += (-1) ** pos * A[0, j] * cofactor_pfaffian(sub)
    return total


class _PipelineCache:
    """Share diagonalization and gauge work across tests in one session."""

    def __init__(self):
        self._store = {}

    def key(self, name, params, n):
        return (name, tuple(sorted(params.items())), n)

    def raw(self, name, params, n, dim=3):
        k = ("raw",) + self.key(name, params, n)
        if k not in self._store:
            model = models.make_model(name, params)
            self._store[k] = bloch.diagonalize_grid(
                model, BZGrid.cubic(dim, n))
        return self._store[k]

    def gauge(self, name, params, n, dim=3, limit=1.0):
        """`bloch.gauge_pipeline`'s (frames, wfield)."""
        k = ("gauge",) + self.key(name, params, n)
        if k not in self._store:
            model = models.make_model(name, params)
            self._store[k] = bloch.gauge_pipeline(
                self.raw(name, params, n, dim), model.theta,
                smoothness_limit=limit)
        return self._store[k]


@pytest.fixture(scope="session")
def pipeline():
    return _PipelineCache()
