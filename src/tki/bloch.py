"""Occupied frame fields on BZ grids, smooth gauges, sewing matrices.

The pipeline here feeds every invariant route:

    diagonalize_grid -> gauge_pipeline -> berry_connection
                                       -> quaternionic_average

    gauge_pipeline = smooth_gauge -> sewing_field -> su_reduce

Every gauge-dependent route gets its frames and sewing fields from
`gauge_pipeline`.  The shared kernels live here too: `link_log` (principal
log of the link unitaries, behind the Berry connection, the quaternionic
map, the Maurer-Cartan links and the S^3 density), `plaquette_flux` (behind
both plane Chern counts) and `_antisym_trace3` over `_PERMS3` (behind both
WZW densities and the Chern-Simons integral).  The smoother's alignment
sweeps, `link_log` and `FrameField.smoothness` run on the closed-form 2x2
kernels of `linalg` (polar factor, principal log, operator norm) when
m = 2; the transport seed keeps the SVD / eig path for every m.

Conventions.  Frames u(k) are n_bands x m matrices of occupied eigenvectors.
The sewing matrix is w_ab(k) = <u_a(-k), Theta u_b(k)>; it is unitary when the
occupied space is time-reversal invariant and satisfies w(-k) = -w(k)^t.
Forward differences with spacing h_a = 2 pi / N_a discretize all derivatives
except in the quaternionic average, which needs centered differences to be an
exact involution on the index lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import BZGrid
from .linalg import (_AH, _dag, _mm, _unitary_log_phases,
                     batched_polar_unitary, batched_spectral_norm,
                     phase_continue, unitary_log)


class BlochError(ValueError):
    pass


class GaplessAt(BlochError):
    pass


class EigFailure(BlochError):
    pass


class ChernObstruction(BlochError):
    def __init__(self, plane, chern):
        super().__init__(f"nonzero Chern number {chern} on plane {plane}")
        self.plane, self.chern = plane, chern


class ConvergenceFailure(BlochError):
    pass


class RoughGauge(BlochError):
    pass


class DetWinding(BlochError):
    def __init__(self, cycle, winding):
        super().__init__(f"det(w) winds by {winding} around cycle {cycle}")
        self.cycle, self.winding = cycle, winding


class GaugeMismatch(BlochError):
    pass


@dataclass(frozen=True)
class FrameField:
    grid: BZGrid
    frames: np.ndarray          # (*sizes, n_bands, m)
    energies: np.ndarray        # (*sizes, m)

    @property
    def m(self) -> int:
        return self.frames.shape[-1]

    @property
    def smoothness(self) -> float:
        """Max over links of the operator-norm deficiency ||1 - u(k)+ u(k+d)||."""
        u = self.frames
        worst = 0.0
        eye = np.eye(self.m)
        for a in range(self.grid.dim):
            O = _mm(_dag(u), np.roll(u, -1, axis=a))
            worst = max(worst, float(batched_spectral_norm(O - eye).max()))
        return worst

    def restrict_plane(self, axis: int, index: int) -> "FrameField":
        """Slice frames onto the 2-torus k_axis = const (index 0 or N/2)."""
        sizes = tuple(n for a, n in enumerate(self.grid.sizes) if a != axis)
        sub = BZGrid(self.grid.dim - 1, sizes)
        sel = tuple(index if a == axis else slice(None)
                    for a in range(self.grid.dim))
        return FrameField(sub, self.frames[sel], self.energies[sel])


@dataclass(frozen=True)
class SewingField:
    grid: BZGrid
    w: np.ndarray               # (*sizes, m, m)
    det_phase: np.ndarray | None = field(default=None)  # continuous f with
    # det(w_original) = exp(2 pi i m f); populated by su_reduce

    @property
    def m(self) -> int:
        return self.w.shape[-1]

    def residuals(self) -> dict:
        w = self.w
        eye = np.eye(self.m)
        unit = float(np.abs(_mm(_dag(w), w) - eye).max())
        invol = float(np.abs(self.grid.involute(w)
                             + np.swapaxes(w, -1, -2)).max())
        skew = max(float(np.abs(w[t] + w[t].T).max()) for t in self.grid.trims)
        return {"unitarity": unit, "involution": invol, "trim_skew": skew}


@dataclass(frozen=True)
class ConnectionField:
    grid: BZGrid
    A: np.ndarray               # (dim, *sizes, m, m), anti-Hermitian
    quaternionic_residual: float = field(default=float("nan"))


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def diagonalize_grid(model, grid: BZGrid, gap: float = 1e-8) -> FrameField:
    """Occupied eigenframes of the model on every grid node.

    Raises GaplessAt when an occupied level rises to -gap or an empty one
    drops to +gap anywhere on the grid.
    """
    H = model.hamiltonian_batch(grid.node_mesh())
    try:
        ev, vec = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigFailure(str(exc)) from exc
    m = model.n_occ
    below, above = ev[..., m - 1], ev[..., m]
    if below.max() >= -gap or above.min() <= gap:
        node = np.unravel_index(int(np.argmin(above - below)), below.shape)
        raise GaplessAt(f"gap closes near node {node}")
    return FrameField(grid, vec[..., :, :m], ev[..., :m])


# ---------------------------------------------------------------------------
# plane Chern numbers (gauge invariant, plaquette link method)
# ---------------------------------------------------------------------------

def plaquette_flux(frames2d: np.ndarray) -> np.ndarray:
    """Principal-branch Berry flux through every plaquette of a 2-d frame
    array, from the determinants of its four link overlaps."""
    u = frames2d
    lx = np.linalg.det(_mm(_dag(u), np.roll(u, -1, axis=0)))
    ly = np.linalg.det(_mm(_dag(u), np.roll(u, -1, axis=1)))
    loop = lx * np.roll(ly, -1, axis=0) * np.roll(lx, -1, axis=1).conj() * ly.conj()
    return np.angle(loop)


def plane_flux_sum(frames2d: np.ndarray):
    """(total flux, Chern integer, integrality residual) of a 2-d frame array."""
    total = float(plaquette_flux(frames2d).sum())
    chern = int(round(total / (2 * np.pi)))
    return total, chern, abs(total / (2 * np.pi) - chern)


def plane_chern_numbers(raw: FrameField) -> dict:
    """Chern number of every invariant coordinate plane at slice indices 0, N/2."""
    out = {}
    if raw.grid.dim == 2:
        _, c, r = plane_flux_sum(raw.frames)
        out[(0, 1, None, None)] = (c, r)
        return out
    for axis in range(3):
        pair = tuple(a for a in range(3) if a != axis)
        for idx in (0, raw.grid.sizes[axis] // 2):
            sel = tuple(idx if a == axis else slice(None) for a in range(3))
            _, c, r = plane_flux_sum(raw.frames[sel])
            out[pair + (axis, idx)] = (c, r)
    return out


# ---------------------------------------------------------------------------
# smooth periodic gauge
# ---------------------------------------------------------------------------

def link_log(u: np.ndarray, axis: int) -> np.ndarray:
    """Principal log of the forward link unitaries polar(u(k)+ u(k + e_axis)),
    periodic along `axis` and not divided by the spacing."""
    return unitary_log(batched_polar_unitary(
        _mm(_dag(u), np.roll(u, -1, axis=axis))))


def _transport_last_axis(u):
    """Parallel transport along the last grid axis of u (..., N, nb, m),
    then spread the closing holonomy so the gauge is smoothly periodic.

    The seed keeps the SVD polar factor and the eig log of the holonomy even
    for m = 2: at a Kramers-degenerate holonomy -1, rounding decides which
    eigenvector gets phase +pi and which -pi, so a kernel that rounds
    differently seeds a different gauge."""
    n = u.shape[-3]
    for i in range(1, n):
        M = _mm(_dag(u[..., i - 1, :, :]), u[..., i, :, :])
        u[..., i, :, :] = _mm(u[..., i, :, :],
                              _dag(batched_polar_unitary(M, svd=True)))
    V, phi = _unitary_log_phases(batched_polar_unitary(
        _mm(_dag(u[..., n - 1, :, :]), u[..., 0, :, :]), svd=True))
    # per node i apply V diag(exp(i * (i/n) * phi)) V+
    steps = np.arange(n) / n
    ph = np.exp(1j * steps[:, None] * phi[..., None, :])    # (..., n, m) order fix below
    ph = np.moveaxis(ph, -2, 0)                             # (n, ..., m)
    for i in range(n):
        G = _mm(V * ph[i][..., None, :], _dag(V))
        u[..., i, :, :] = _mm(u[..., i, :, :], G)
    return u


def _mean_deficiency(u, sq_norms):
    """Mean over links of ||O - 1||_F, O = u(k)+ u(k + e_a), from
    ||O - 1||^2 = ||O||^2 - 2 Re tr O + m with the ||O||^2 given per axis."""
    m = u.shape[-1]
    tot = 0.0
    for a, sq in enumerate(sq_norms):
        re_tr = np.einsum("...ij,...ij->...", u.conj(),
                          np.roll(u, -1, axis=a)).real
        tot += float(np.sqrt(np.maximum(sq - 2 * re_tr + m, 0.0)).mean())
    return tot / len(sq_norms)


def _relax(u, dim, max_sweeps, rel_tol=1e-4):
    """Jacobi alignment sweeps: rotate each frame toward its neighbours,
    until the mean link deficiency plateaus.

    The sweeps change u only by unitaries on the right, which leave each
    link's ||O||_F fixed, so those norms are formed once per call."""
    sq_norms = []
    for a in range(dim):
        O = _mm(_dag(u), np.roll(u, -1, axis=a))
        sq_norms.append((O.real ** 2 + O.imag ** 2).sum(axis=(-2, -1)))
    prev = _mean_deficiency(u, sq_norms)
    for _ in range(max_sweeps):
        T = np.zeros_like(u)
        for a in range(dim):
            T += np.roll(u, 1, axis=a) + np.roll(u, -1, axis=a)
        u = _mm(u, batched_polar_unitary(_mm(_dag(u), T)))
        cur = _mean_deficiency(u, sq_norms)
        if prev - cur < rel_tol * max(prev, 1e-12):
            break
        prev = cur
    return u


def _transport_init(raw: FrameField, order=None) -> np.ndarray:
    """Seed gauge from nested parallel transport (line, then sheet, then
    bulk, each with Wilson-loop closure spreading) along the given axis
    order."""
    dim = raw.grid.dim
    order = tuple(range(dim)) if order is None else tuple(order)
    u = np.transpose(raw.frames, order + (dim, dim + 1)).copy()
    for a in range(dim):
        sel = tuple([slice(None)] * (a + 1) + [0] * (dim - a - 1))
        block = u[sel]
        if a == 0:
            block = block[np.newaxis]
        _transport_last_axis(block)
    inv = tuple(np.argsort(order))
    return np.transpose(u, inv + (dim, dim + 1)).copy()


def _multiscale_init(raw: FrameField, max_sweeps: int) -> np.ndarray:
    """Seed gauge by prolonging a half-resolution smooth gauge and aligning
    the raw frames to it via polar projection."""
    grid, dim = raw.grid, raw.grid.dim
    coarse = BZGrid(dim, tuple(n // 2 for n in grid.sizes))
    sub = (slice(None, None, 2),) * dim
    uc = _smooth_frames(FrameField(coarse, raw.frames[sub],
                                   raw.energies[sub]), max_sweeps)
    ref = uc
    for a in range(dim):
        ref = np.repeat(ref, 2, axis=a)
    return _mm(raw.frames, batched_polar_unitary(_mm(_dag(raw.frames), ref)))


def _anneal(u: np.ndarray, raw: FrameField, max_sweeps: int) -> tuple:
    """Dissolve residual vortex lines (metastable under pure alignment, e.g.
    when two everywhere-degenerate columns lock into conjugate Chern sectors)
    with deterministic random kicks followed by re-relaxation."""
    dim = raw.grid.dim
    rng = np.random.default_rng(12345)
    best = u
    best_s = FrameField(raw.grid, u, raw.energies).smoothness
    for trial in range(12):
        if best_s < 0.7:
            break
        amp = 0.9 * 0.75 ** (trial % 4)
        X = (rng.standard_normal(raw.grid.sizes + (u.shape[-1],) * 2)
             + 1j * rng.standard_normal(raw.grid.sizes + (u.shape[-1],) * 2))
        ev, V = np.linalg.eigh(-1j * amp * _AH(X))
        kick = _mm(V * np.exp(1j * ev)[..., None, :], _dag(V))
        u = _relax(_mm(best, kick), dim, max_sweeps)
        s = FrameField(raw.grid, u, raw.energies).smoothness
        if s < best_s:
            best, best_s = u, s
    return best, best_s


def _smooth_frames(raw: FrameField, max_sweeps: int) -> np.ndarray:
    """Recursive gauge construction: seed from a half-resolution smooth gauge
    when the grid allows it, otherwise from nested parallel transport; relax
    and anneal, falling back to the alternate seeding when the first one
    settles into a defective local minimum."""
    grid, dim = raw.grid, raw.grid.dim
    multiscale_ok = all(n % 4 == 0 and n >= 24 for n in grid.sizes)
    inits = [lambda: _transport_init(raw)]
    if multiscale_ok:
        inits.insert(0, lambda: _multiscale_init(raw, max_sweeps))
    if dim > 1:
        inits.append(lambda: _transport_init(raw, order=range(dim)[::-1]))
    best, best_s = None, np.inf
    for make_init in inits:
        u = _relax(make_init(), dim, max_sweeps)
        u, s = _anneal(u, raw, max_sweeps)
        if s < best_s:
            best, best_s = u, s
        if best_s < 0.7:
            break
    return best


def smooth_gauge(raw: FrameField, max_sweeps: int = 400) -> FrameField:
    """Smooth periodic gauge for the occupied frames.

    Multiscale: the gauge is first built on a half-resolution subgrid
    (recursively; nested parallel transport with Wilson-loop closure at the
    coarsest level), prolonged, and relaxed by local alignment sweeps until
    the mean link deficiency plateaus.  Fails with ChernObstruction when an
    invariant plane carries a nonzero Chern number, in which case no smooth
    periodic gauge exists.
    """
    for plane, (c, _) in plane_chern_numbers(raw).items():
        if c != 0:
            raise ChernObstruction(plane[:2], c)
    u = _smooth_frames(raw, max_sweeps)
    field_ = FrameField(raw.grid, u, raw.energies)
    if field_.smoothness > 1.2:
        raise ConvergenceFailure(
            f"gauge smoothing stalled at deficiency {field_.smoothness:.3f}")
    return field_


def gauge_pipeline(raw: FrameField, theta, smoothness_limit: float = 0.5):
    """smooth_gauge -> sewing_field -> su_reduce on diagonalized frames.

    Returns (frames, wfield, wred): the smooth gauge, its sewing field and
    the SU-reduced sewing field.
    """
    frames = smooth_gauge(raw)
    wfield = sewing_field(frames, theta, smoothness_limit=smoothness_limit)
    return frames, wfield, su_reduce(wfield)


# ---------------------------------------------------------------------------
# sewing matrix field
# ---------------------------------------------------------------------------

def sewing_field(frames: FrameField, theta,
                 smoothness_limit: float = 0.5) -> SewingField:
    s = frames.smoothness
    if s > smoothness_limit:
        raise RoughGauge(f"frame smoothness {s:.3f} exceeds {smoothness_limit}")
    u = frames.frames
    w = _mm(_dag(frames.grid.involute(u)), theta.apply(u))
    out = SewingField(frames.grid, w)
    res = out.residuals()
    if max(res.values()) > 1e-8:
        raise BlochError(f"sewing-matrix contracts violated: {res}")
    return out


def su_reduce(wfield: SewingField) -> SewingField:
    """Divide out the determinant phase: w -> exp(-i phi / m) w, det = 1.

    phi is a continuous branch of arg det(w) built by sweeping the grid;
    time reversal forbids det(w) from winding around any fundamental cycle,
    which is checked and reported as DetWinding if violated.
    """
    grid, w, m = wfield.grid, wfield.w, wfield.m
    d = np.linalg.det(w)
    if np.abs(np.abs(d) - 1).max() > 1e-6:
        raise BlochError("det(w) strays from the unit circle")

    for a in range(grid.dim):
        sel = tuple(slice(None) if b == a else 0 for b in range(grid.dim))
        loop = np.append(d[sel], d[sel][0])
        _, wind = phase_continue(loop)
        if wind != 0:
            raise DetWinding(a, wind)

    # continuous branch of arg det(w), swept axis by axis from the origin
    phi = np.empty(grid.sizes)
    for a in range(grid.dim):
        sel = tuple([slice(None)] * (a + 1) + [0] * (grid.dim - a - 1))
        sub = d[sel]                       # shape sizes[:a+1]; last axis is a
        inc = np.angle(sub[..., 1:] / sub[..., :-1])
        walk = np.concatenate([np.zeros(inc.shape[:-1] + (1,)),
                               np.cumsum(inc, axis=-1)], axis=-1)
        if a == 0:
            base = np.angle(sub[..., :1])
        else:
            prev = tuple([slice(None)] * a + [0] * (grid.dim - a))
            base = phi[prev][..., None]
        phi[sel] = base + walk
    # symmetrize: det w(-k) = det w(k) forces phi to be inversion even; the
    # two branch constructions agree up to rounding, so averaging is safe
    phi = 0.5 * (phi + grid.involute(phi))

    wt = np.exp(-1j * phi / m)[..., None, None] * w
    out = SewingField(grid, wt, det_phase=phi / (2 * np.pi * m))
    if np.abs(np.linalg.det(wt) - 1).max() > 1e-9:
        raise BlochError("determinant reduction failed to reach SU(m)")
    return out


# ---------------------------------------------------------------------------
# Berry connection and its quaternionic average
# ---------------------------------------------------------------------------

def berry_connection(frames: FrameField,
                     smoothness_limit: float = 0.5) -> ConnectionField:
    """Log-link Berry connection.

    A_mu(k) is the average of the principal logarithms of the two unitary
    transporters touching k along axis mu, divided by the spacing; it agrees
    with u+ du to O(h^2) and handles large single-link rotations exactly.
    """
    s = frames.smoothness
    if s > smoothness_limit:
        raise RoughGauge(f"frame smoothness {s:.3f} exceeds {smoothness_limit}")
    grid, u = frames.grid, frames.frames
    A = np.empty((grid.dim,) + grid.sizes + (frames.m, frames.m), dtype=complex)
    for a, h in enumerate(grid.spacings):
        L = link_log(u, a)
        A[a] = _AH(0.5 * (L + np.roll(L, 1, axis=a)) / h)
    return ConnectionField(grid, A)


def _sigma_map(A, wfield: SewingField):
    """Image of the connection under the quaternionic structure.

    sigma(A)_mu(k) = -w(k) conj(A_mu(-k)) w(k)+ + (1/2)[w (Dw+)_mu - (Dw)_mu w+]

    The derivative term uses the symmetrized principal log of the link
    unitaries, which keeps the stencil at n the mirror of the one at -n, so
    the map is an exact involution on the index lattice (up to the accuracy
    of w's unitarity and involution relation).
    """
    grid, w = wfield.grid, wfield.w
    wd = _dag(w)
    out = np.empty_like(A)
    for a, h in enumerate(grid.spacings):
        pull = grid.involute(A[a]).conj()
        # (1/2)[w dw+ - dw w+] = -w Lambda w+ with Lambda = w+ dw, realized
        # as the symmetrized principal log of the forward link unitaries
        L = link_log(w, a) / h
        Lam = 0.5 * (L + np.roll(L, 1, axis=a))
        out[a] = -_mm(w, _mm(pull + Lam, wd))
    return out


def quaternionic_average(conn: ConnectionField,
                         wfield: SewingField) -> ConnectionField:
    """Average the connection with its quaternionic image: A' = (A + sigma A)/2.

    The result is fixed by sigma (residual recorded), hence compatible with
    the quaternionic structure defined by w.
    """
    if conn.grid.sizes != wfield.grid.sizes:
        raise GaugeMismatch("connection and sewing field live on different grids")
    Ap = 0.5 * (conn.A + _sigma_map(conn.A, wfield))
    residual = float(np.abs(Ap - _sigma_map(Ap, wfield)).max())
    return ConnectionField(conn.grid, Ap, quaternionic_residual=residual)


# ---------------------------------------------------------------------------
# WZW density
# ---------------------------------------------------------------------------

_PERMS3 = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]


def _antisym_trace3(X, Y, Z):
    """sum_{perm} sign tr(X_a Y_b Z_c) over nodes; X, Y, Z stacked on axis 0."""
    out = 0.0
    for (a, b, c), s in _PERMS3:
        out = out + s * np.einsum("...ij,...jk,...ki->...", X[a], Y[b], Z[c])
    return out


def maurer_cartan_links(wfield: SewingField) -> np.ndarray:
    """Discrete w^{-1} dw per axis: principal log of the forward link unitary.

    L_mu(k) = log(w(k)+ w(k+d_mu)) / h_mu.  Agrees with the plain difference
    quotient to O(h) but keeps the result exactly in the Lie algebra, which
    buys roughly one order of accuracy in the WZW Riemann sums.
    """
    grid, w = wfield.grid, wfield.w
    L = np.empty((grid.dim,) + grid.sizes + (wfield.m, wfield.m), dtype=complex)
    for a, h in enumerate(grid.spacings):
        L[a] = link_log(w, a) / h
    return L


def wzw_density(wfield: SewingField) -> np.ndarray:
    """Per-cube Riemann weight of (1/24 pi^2) tr((w^{-1} dw)^3).

    Full antisymmetrization of tr(L_a L_b L_c) over the three axes, times the
    cube volume, so the plain sum of the returned array is the discretized
    integral of the 3-form.
    """
    grid = wfield.grid
    if grid.dim != 3:
        raise BlochError("the WZW density lives on 3-dimensional grids")
    L = maurer_cartan_links(wfield)
    dens = _antisym_trace3(L, L, L).real
    return dens * grid.cell_volume() / (24 * np.pi ** 2)
