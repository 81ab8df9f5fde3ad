"""Registry of time-reversal symmetric gapped Bloch Hamiltonians.

Every model carries an antiunitary time reversal Theta: psi -> U conj(psi)
with U conj(U) = -1 (Kramers case) satisfying

    Theta H(k) Theta^{-1} = H(-k)

on the torus, or under inversion through the k0-axis on the 3-sphere.
The registry families are

    trivial(d, m)    atomic insulator, constant diag(-1...,+1...)
    bhz2d            4-band quantum spin Hall model, h(k) (+) conj(h(-k))
    layered3d        bhz2d layers with interlayer mass modulation tz cos k2
    fkm3d            4-band diamond-lattice Dirac model with spin-orbit lambda
    dirac_s3         continuum 4-band Dirac Hamiltonian on S3 (angular coords)

Externally sampled Hamiltonians enter through `ingest_sampled`, as a dict
or the path of a JSON file (see `export_sampled` for the exact layout).

A constant operator acts on a whole grid through one GEMM: Theta's U on a
matrix-major stack of frames, U* kron U on the rows of the Hamiltonians in
the time-reversal residual, and the gamma matrices against the coefficient
rows of `_dvec_to_h`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grids import BZGrid
from .linalg import polar_unitary

sx = np.array([[0, 1], [1, 0]], dtype=complex)
sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
sz = np.array([[1, 0], [0, -1]], dtype=complex)
s0 = np.eye(2, dtype=complex)


class ModelError(ValueError):
    pass


class UnknownModel(ModelError):
    pass


class BadParams(ModelError):
    pass


class SymmetryViolation(ModelError):
    pass


class Gapless(ModelError):
    pass


class IncompatibleGrid(ModelError):
    pass


class SchemaError(ModelError):
    pass


class OddGrid(SchemaError):
    pass


@dataclass(frozen=True)
class TimeReversalOperator:
    """Antiunitary psi -> U conj(psi) with U conj(U) = -1; U is kept as a
    read-only copy, so models can share one operator."""

    U: np.ndarray

    def __post_init__(self):
        U = np.array(self.U, dtype=complex)
        U.flags.writeable = False
        object.__setattr__(self, "U", U)
        n = U.shape[0]
        if not np.isfinite(U).all():
            raise SymmetryViolation("time-reversal unitary part has "
                                    "non-finite entries")
        if np.abs(U @ U.conj().T - np.eye(n)).max() > 1e-12:
            raise SymmetryViolation("time-reversal unitary part not unitary")
        if np.abs(U @ U.conj() + np.eye(n)).max() > 1e-12:
            raise SymmetryViolation("time reversal must square to -1")

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Apply Theta to vectors stored in the last-but-one index: one GEMM
        on the stack's matrix-major view (copied into that layout first only
        when psi is not stored so); the result is matrix-major."""
        P = np.ascontiguousarray(np.moveaxis(psi.conj(), (-2, -1), (0, 1)))
        out = self.U @ P.reshape(len(P), -1)
        return np.moveaxis(out.reshape(P.shape), (0, 1), (-2, -1))


@dataclass(frozen=True)
class BlochModel:
    name: str
    domain: str                # "torus" or "sphere3"
    dim: int
    n_bands: int
    n_occ: int
    theta: TimeReversalOperator
    params: dict
    _batch: object = field(repr=False)  # K (..., dim) -> (..., nb, nb)

    def hamiltonian_batch(self, K: np.ndarray) -> np.ndarray:
        return self._batch(np.asarray(K, dtype=float))


# ---------------------------------------------------------------------------
# registry families
# ---------------------------------------------------------------------------

def _dvec_to_h(d, gammas):
    """Sum_a d_a Gamma_a for stacked coefficient arrays d[a] of shape (...):
    one GEMM of the nodes' coefficient rows against the flattened gammas."""
    D, G = np.stack(d), np.stack(gammas)
    H = D.reshape(len(D), -1).T @ G.reshape(len(G), -1)
    return H.reshape(D.shape[1:] + G.shape[1:])


def _trivial_batch(dim, m):
    def batch(K):
        diag = np.concatenate([-np.ones(m), np.ones(m)])
        H = np.zeros(K.shape[:-1] + (2 * m, 2 * m), dtype=complex)
        H[..., range(2 * m), range(2 * m)] = diag
        return H
    return batch


def _bhz_block(kx, ky, A, B, M):
    d = [A * np.sin(kx), A * np.sin(ky),
         M - 2 * B * (2 - np.cos(kx) - np.cos(ky))]
    return _dvec_to_h(d, [sx, sy, sz])


def _bhz_batch(A, B, M, tz=0.0):
    def batch(K):
        kx, ky = K[..., 0], K[..., 1]
        Meff = M + (tz * np.cos(K[..., 2]) if K.shape[-1] == 3 else 0.0)
        up = _bhz_block(kx, ky, A, B, Meff)
        dn = _bhz_block(-kx, -ky, A, B, Meff).conj()
        H = np.zeros(K.shape[:-1] + (4, 4), dtype=complex)
        H[..., :2, :2] = up
        H[..., 2:, 2:] = dn
        return H
    return batch


_FKM_GAMMAS = [np.kron(s0, sx), np.kron(s0, sy),
               np.kron(sx, sz), np.kron(sy, sz), np.kron(sz, sz)]


def _fkm_batch(t, dt, lam):
    def batch(K):
        u, v, w = K[..., 0], K[..., 1], K[..., 2]
        d = [
            (t + dt) + t * (np.cos(u) + np.cos(v) + np.cos(w)),
            t * (np.sin(u) + np.sin(v) + np.sin(w)),
            lam * (np.sin(v) - np.sin(w) - np.sin(v - u) + np.sin(w - u)),
            lam * (np.sin(w) - np.sin(u) - np.sin(w - v) + np.sin(u - v)),
            lam * (np.sin(u) - np.sin(v) - np.sin(u - w) + np.sin(v - w)),
        ]
        return _dvec_to_h(d, _FKM_GAMMAS)
    return batch


_S3_GAMMAS = [np.kron(sx, sx), np.kron(sy, sx), np.kron(sz, sx),
              np.kron(s0, sz)]


def dirac_s3_dvec(K: np.ndarray, mass: float) -> np.ndarray:
    """Coefficients (d1, d2, d3, d0) of the S3 Dirac model at angular K."""
    chi, th, ph = K[..., 0], K[..., 1], K[..., 2]
    s = np.sin(chi)
    d = np.stack([
        s * np.sin(th) * np.cos(ph),
        s * np.sin(th) * np.sin(ph),
        s * np.cos(th),
        mass + 1.0 - np.cos(chi),
    ])
    return d


def _dirac_s3_batch(mass):
    def batch(K):
        return _dvec_to_h(list(dirac_s3_dvec(K, mass)), _S3_GAMMAS)
    return batch


# the Theta of bhz2d and layered3d (spin blocks swapped), and of fkm3d and
# dirac_s3 (i sigma_y on the spin factor)
_THETA_BHZ = TimeReversalOperator(np.block([[np.zeros((2, 2)), np.eye(2)],
                                            [-np.eye(2), np.zeros((2, 2))]]))
_THETA_SPIN = TimeReversalOperator(np.kron(1j * sy, s0))


def _theta_pairs(n_bands):
    """i sigma_y on consecutive pairs: the standard Kramers unitary."""
    return TimeReversalOperator(np.kron(np.eye(n_bands // 2), 1j * sy))


_REGISTRY = {
    "trivial": {"d": 3, "m": 2},
    "bhz2d": {"a": 1.0, "b": 1.0, "m": 2.0},
    "layered3d": {"a": 1.0, "b": 1.0, "m": 2.0, "tz": 0.0},
    "fkm3d": {"t": 1.0, "dt": 1.0, "lam": 0.25},
    "dirac_s3": {"mass": 1.0},
}


def parameter_names(name) -> tuple:
    """Parameter names a registry model declares; () for any other name."""
    return tuple(_REGISTRY.get(name, ()))


def make_model(name: str, params: dict | None = None,
               check: bool = True) -> BlochModel:
    """A registry model with its default parameters updated by `params`.

    Every family is Hermitian and time-reversal symmetric by its formula
    for all finite parameters, and non-finite ones are refused.  `check` is
    a gap probe for library callers (`_sanity_check`); the CLI skips it
    and decides the gap on the request's own grid."""
    if name not in _REGISTRY:
        raise UnknownModel(f"unknown model {name!r}; choices: {sorted(_REGISTRY)}")
    p = dict(_REGISTRY[name])
    for key, val in (params or {}).items():
        if key not in p:
            raise BadParams(f"{name} has no parameter {key!r}")
        if not np.isfinite(val):
            raise BadParams(f"{name} parameter {key!r} is {val}, not finite")
        p[key] = val

    if name == "trivial":
        d, m = int(p["d"]), int(p["m"])
        if d not in (2, 3) or m < 2 or m % 2:
            raise BadParams("trivial model needs d in {2,3} and even m >= 2")
        model = BlochModel(name, "torus", d, 2 * m, m,
                           _theta_pairs(2 * m), p, _trivial_batch(d, m))
    elif name == "bhz2d":
        model = BlochModel(name, "torus", 2, 4, 2, _THETA_BHZ,
                           p, _bhz_batch(p["a"], p["b"], p["m"]))
    elif name == "layered3d":
        model = BlochModel(name, "torus", 3, 4, 2, _THETA_BHZ,
                           p, _bhz_batch(p["a"], p["b"], p["m"], p["tz"]))
    elif name == "fkm3d":
        model = BlochModel(name, "torus", 3, 4, 2, _THETA_SPIN,
                           p, _fkm_batch(p["t"], p["dt"], p["lam"]))
    else:  # dirac_s3
        model = BlochModel(name, "sphere3", 3, 4, 2, _THETA_SPIN,
                           p, _dirac_s3_batch(p["mass"]))

    if check:
        _sanity_check(model)
    return model


def direct_sum(a: BlochModel, b: BlochModel) -> BlochModel:
    """Block direct sum H_a (+) H_b with Theta_a (+) Theta_b."""
    if a.domain != b.domain or a.dim != b.dim:
        raise BadParams("direct sum requires matching domains")
    na, nb = a.n_bands, b.n_bands

    def batch(K):
        H = np.zeros(K.shape[:-1] + (na + nb, na + nb), dtype=complex)
        H[..., :na, :na] = a.hamiltonian_batch(K)
        H[..., na:, na:] = b.hamiltonian_batch(K)
        return H

    U = np.zeros((na + nb, na + nb), dtype=complex)
    U[:na, :na] = a.theta.U
    U[na:, na:] = b.theta.U
    return BlochModel(f"{a.name}+{b.name}", a.domain, a.dim, na + nb,
                      a.n_occ + b.n_occ, TimeReversalOperator(U),
                      {"left": a.params, "right": b.params}, batch)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _tr_residual(U, H, Hm) -> float:
    """Largest entry of U conj(H(k)) U^dagger - H(-k): zero for a
    time-reversal symmetric Hamiltonian.  One GEMM on the rows of H: the
    conjugate of U conj(H) U^dagger is U* H U^T, whose row-major flattening
    is that of H times (U* kron U)^T."""
    n = U.shape[0]
    Z = np.reshape(H, (-1, n * n)) @ np.kron(U.conj(), U).T
    np.conjugate(Z, out=Z)
    Z -= np.reshape(Hm, Z.shape)
    return float(np.abs(Z).max())


_PROBE_N = 16  # nodes per axis of the torus gap probe


def _sanity_check(model: BlochModel):
    """Gap probe: Gapless when the spectrum touches zero on a 16^d torus
    grid, or on S^3 on a 10 x 10 x 8 cell-centred mesh and both poles."""
    if model.domain == "torus":
        K = BZGrid.cubic(model.dim, _PROBE_N).node_mesh()
    else:
        from .sphere import SphereMesh
        K = np.concatenate([SphereMesh(10, 10, 8).angles().reshape(-1, 3),
                            [[0.0] * 3, [np.pi, 0, 0]]])
    gap = np.abs(np.linalg.eigvalsh(model.hamiltonian_batch(K))).min()
    if gap <= 1e-8:
        raise Gapless(f"spectrum touches zero (min |E| = {gap:.2e})")


def validate_model(model: BlochModel, grid: BZGrid) -> dict:
    """Symmetry / gap / Kramers report on a torus grid."""
    if model.domain != "torus" or grid.dim != model.dim:
        raise IncompatibleGrid("grid does not match the model's domain")
    H = model.hamiltonian_batch(grid.node_mesh())
    U = model.theta.U
    tr_residual = _tr_residual(U, H, grid.involute(H))
    ev, vec = np.linalg.eigh(H)
    min_gap = float(np.abs(ev).min())
    kramers_ok = True
    for t in grid.trims:
        e = ev[t]
        if np.abs(e[0::2] - e[1::2]).max() > 1e-9:
            kramers_ok = False
        psi = vec[t][:, :model.n_occ]
        overlap = np.abs(np.einsum("ai,ab,bi->i", psi.conj(),
                                   U, psi.conj()))
        if overlap.max() > 1e-9:
            kramers_ok = False
    return {"tr_residual": tr_residual, "min_gap": min_gap,
            "kramers_ok": kramers_ok}


# ---------------------------------------------------------------------------
# sampled-Hamiltonian interchange
# ---------------------------------------------------------------------------

_SCHEMA_FIELDS = ("dim", "sizes", "n_bands", "n_occ",
                  "theta_real", "theta_imag", "h_real", "h_imag")


def export_sampled(model: BlochModel, sizes) -> dict:
    """Sample a torus model on a grid into the JSON interchange layout."""
    grid = BZGrid(model.dim, tuple(sizes))
    H = model.hamiltonian_batch(grid.node_mesh())
    return {
        "dim": model.dim,
        "sizes": list(grid.sizes),
        "n_bands": model.n_bands,
        "n_occ": model.n_occ,
        "theta_real": model.theta.U.real.ravel().tolist(),
        "theta_imag": model.theta.U.imag.ravel().tolist(),
        "h_real": H.real.ravel().tolist(),
        "h_imag": H.imag.ravel().tolist(),
    }


def ingest_sampled(source) -> BlochModel:
    """Build a lookup-table model from a sampled-Hamiltonian document.

    `source` is a dict or the path of a JSON file.  The model answers only
    on the declared nodes: any other momentum raises IncompatibleGrid
    rather than aliasing to the nearest sample.
    """
    doc = source
    if not isinstance(source, dict):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot parse document: {exc}") from exc

    for key in _SCHEMA_FIELDS:
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    dim = int(doc["dim"])
    if dim not in (2, 3):
        raise SchemaError("dim must be 2 or 3")
    sizes = tuple(int(n) for n in doc["sizes"])
    if len(sizes) != dim:
        raise SchemaError("sizes must have one entry per axis")
    if any(n % 2 for n in sizes):
        raise OddGrid("grid sizes must be even")
    nb, n_occ = int(doc["n_bands"]), int(doc["n_occ"])
    if nb % 2 or n_occ % 2 or not (0 < n_occ < nb):
        raise SchemaError("n_bands and n_occ must be even with 0 < n_occ < n_bands")

    def _cplx(re_key, im_key, shape):
        re = np.asarray(doc[re_key], dtype=float)
        im = np.asarray(doc[im_key], dtype=float)
        want = int(np.prod(shape))
        if re.size != want or im.size != want:
            raise SchemaError(f"{re_key}/{im_key} must have {want} entries")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise SchemaError(f"{re_key}/{im_key} has non-finite entries")
        return (re + 1j * im).reshape(shape)

    U = _cplx("theta_real", "theta_imag", (nb, nb))
    H = _cplx("h_real", "h_imag", sizes + (nb, nb))
    try:
        theta = TimeReversalOperator(U)
    except SymmetryViolation:
        # relax the constructor tolerance to the ingest tolerance: a U within
        # it is replaced by the nearest skew-symmetric unitary, the polar
        # factor of its skew part, for which U conj(U) = -1 to rounding
        if (np.abs(U @ U.conj().T - np.eye(nb)).max() > 1e-8
                or np.abs(U @ U.conj() + np.eye(nb)).max() > 1e-8):
            raise
        theta = TimeReversalOperator(polar_unitary(0.5 * (U - U.T)))

    grid = BZGrid(dim, sizes)
    if np.abs(H - np.swapaxes(H, -1, -2).conj()).max() > 1e-8:
        raise SymmetryViolation("sampled Hamiltonians not Hermitian within 1e-8")
    res = _tr_residual(U, H, grid.involute(H))
    if res > 1e-8:
        raise SymmetryViolation(
            f"time-reversal contract violated on the declared grid ({res:.2e})")

    def batch(K):
        K = np.asarray(K, dtype=float)
        idx = []
        for a, n in enumerate(sizes):
            x = (K[..., a] + np.pi) * n / (2 * np.pi)
            na = np.rint(x)
            if np.abs(x - na).max() > 1e-6:
                raise IncompatibleGrid(
                    f"momenta off the sampled {'x'.join(map(str, sizes))} "
                    f"grid along axis {a}; the sample is only defined on "
                    "its declared nodes")
            idx.append(na.astype(int) % n)
        return H[tuple(idx)]

    return BlochModel("ingested", "torus", dim, nb, n_occ, theta,
                      {"sizes": list(sizes)}, batch)
