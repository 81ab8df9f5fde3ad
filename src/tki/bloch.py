"""Occupied frame fields on BZ grids, smooth gauges, sewing matrices.

The pipeline here feeds every invariant route:

    diagonalize_grid -> gauge_pipeline -> berry_connection
                                       -> quaternionic_average

    gauge_pipeline = smooth_gauge -> sewing_field

`diagonalize_grid` runs `eigh` on half the grid, the slab n_last in [0, N/2]
of the last axis, and fills every other node k from its mirror -k by time
reversal, u(k) = U conj(u(-k)) and E(k) = E(-k); a k-independent slab
fills by copying node 0, so it stays k-independent.  The fill takes the
model's time reversal as given (registry formulas, `ingest_sampled`'s
1e-8 gate) and checks it nowhere.

Every gauge-dependent route gets its frames and sewing fields from
`gauge_pipeline`.  The shared kernels live here too: `link_log` (principal
log of the polar factor of every frame link along every axis, behind the
Berry connection: a frame link u+ u' is a contraction, not a unitary),
`unitary_link_log` (the same log of a sewing field's links, taken directly:
the field is gated unitary to 1e-8 and its links are unitary to rounding,
behind the Maurer-Cartan links and the S^3 density), `plaquette_flux` (behind
both plane Chern counts: a frame field traces its six invariant planes,
one on a 2-d grid, once in `FrameField.plane_fluxes`, for both the Chern
check and the planes route) and `_antisym_trace3`, the antisymmetrised
triple trace taken as 3 tr(L_0 [L_1, L_2]) (behind both WZW densities and
the Chern-Simons integral).  A sewing field takes its Maurer-Cartan links once
(`SewingField.links`); the degree density and the quaternionic map's
derivative term both read the unreduced field's.  The density does not see
the determinant phase: a scalar added to a link log drops out of 3 tr(L_0
[L_1, L_2]).  So only the Pfaffian route reduces w, at the fixed nodes
(`su_reduce`).  The smooth gauge comes from Fourier-accelerated
gauge-fixing steps (`_relax`): each rotates every node at once by the
inverse lattice Laplacian, applied with `np.fft`, of the alignment
gradient.  A rough relaxed gauge escapes by random kicks (`_anneal`) or
by the next seed of its multiscale level (`_smooth_frames`).

A field that does not depend on k (every node equal to node 0 by the
exact test `_k_independent`, as for an atomic insulator in any orbital
basis) has every link u+ u.  Each frame and sewing field is tested at
most once and keeps the answer (`FrameField.k_independent`,
`SewingField.k_independent`; the raw frames take `diagonalize_grid`'s
test of H, or of its slab when H varies, a connection its frames'
answer).  `smooth_gauge` returns k-independent frames as they are.
Every stage that is bit-exact on such a field runs its per-node formula
on node 0 alone and copies the result to every node once (`_on_node0`):
`diagonalize_grid`'s `eigh` of a constant H, the plane fluxes
(`FrameField.plane_fluxes`), the planes route's ring gauges
(`invariants._plane_raws`, one ring per ring length), the link logs and
`link_deficiency`, the sewing residuals (`SewingField.residuals`), the
degree density, and the cs route's kernels (`berry_connection`,
`quaternionic_average`'s sigma map and residual, and
`invariants.km_chern_simons`, which also skips the derivative of a
constant).  Each is gated on the test of the array it reads, never on an
upstream field's answer.  The sewing product u(-k)+ Theta u(k) stays on
the full stack, because `theta.apply` is one GEMM over the whole stack,
whose node 0 alone rounds differently in the last bits (an atomic
insulator in a random orbital basis shows it).
The steps and the link kernels run on the stacked kernels of `linalg`
(relax step, polar factor, principal log, operator norm): closed forms
when m = 2, and for larger m one LAPACK call per stack (a solve for the
Cayley step, an SVD for the polar factor, a Hermitian eigensolver for the
log and the norm).  The one line transport, `_transport_last_axis`,
takes the SVD polar and the eig log for every m, m = 2 included; it
seeds the gauge and builds the planes route's ring gauge
(`invariants._ring_tr_gauge`).  Frames, sewing fields, connections, link
logs and the Fourier transforms of the steps follow the layout rule of
`linalg`.

Conventions.  Frames u(k) are n_bands x m matrices of occupied eigenvectors.
The sewing matrix is w_ab(k) = <u_a(-k), Theta u_b(k)>; it is unitary when the
occupied space is time-reversal invariant and satisfies w(-k) = -w(k)^t.
Forward differences with spacing h_a = 2 pi / N_a discretize all derivatives
except in the quaternionic average, which needs centered differences to be an
exact involution on the index lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .grids import BZGrid
from .linalg import (_AH, _dag, _empty_stack, _matrix_major, _mm,
                     _scale_columns, _svd_polar, LinalgError, batched_det,
                     batched_polar_unitary, batched_spectral_norm,
                     phase_continue, unitary_log, unitary_ramp, unitary_step)


# the defaults every caller reads: the gauge smoothness gate of sewing
# fields and Berry connections, and the spectral gap below which a node is
# declared gapless
SMOOTHNESS_LIMIT = 0.5
GAP = 1e-8


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


class DetJump(BlochError):
    pass


class GaugeMismatch(BlochError):
    pass


@dataclass(frozen=True)
class FrameField:
    grid: BZGrid
    frames: np.ndarray          # (*sizes, n_bands, m)
    energies: np.ndarray        # (*sizes, m)
    # the k-independence of the frames when the function that made them
    # knows it (`diagonalize_grid`); None has `k_independent` test them
    const: bool | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.frames.shape[-1]

    @cached_property
    def k_independent(self) -> bool:
        """`_k_independent` of the frames, exact; tested at most once per
        instance, and not at all when `const` was passed."""
        return _k_independent(self.frames) if self.const is None \
            else self.const

    @cached_property
    def deficiency(self) -> np.ndarray:
        """Operator-norm deficiency ||1 - u(k)+ u(k + e_a)|| of every forward
        link, periodic, shape (dim, *sizes); computed once per instance."""
        return link_deficiency(self.frames, self.k_independent)

    @cached_property
    def plane_fluxes(self) -> dict:
        """`plaquette_flux` of every invariant coordinate plane, keyed (b, c,
        axis, index): the plane of axes b < c at k_axis = index, 0 or N/2;
        a 2-d grid is its own plane, (0, 1, None, None).  Traced once per
        instance for both the Chern check and the planes route; k-independent
        frames trace one plaquette per plane (`_on_node0`)."""
        def flux(u):
            return _on_node0(plaquette_flux, (u,), 2, self.k_independent,
                             u.shape[:2], np.empty)
        if self.grid.dim == 2:
            return {(0, 1, None, None): flux(self.frames)}
        return {tuple(b for b in range(3) if b != a) + (a, idx):
                flux(self.restrict_plane(a, idx).frames)
                for a in range(3) for idx in (0, self.grid.sizes[a] // 2)}

    @property
    def smoothness(self) -> float:
        """Max over links of the deficiency."""
        return float(self.deficiency.max())

    def restrict_plane(self, axis: int, index: int) -> "FrameField":
        """Slice frames onto the 2-torus k_axis = const (index 0 or N/2)."""
        sizes = tuple(n for a, n in enumerate(self.grid.sizes) if a != axis)
        sub = BZGrid(self.grid.dim - 1, sizes)
        sel = tuple(index if a == axis else slice(None)
                    for a in range(self.grid.dim))
        return FrameField(sub, self.frames[sel], self.energies[sel])


@dataclass(frozen=True)
class SewingField:
    """Sewing matrices w(k) on a grid."""

    grid: BZGrid
    w: np.ndarray               # (*sizes, m, m)

    @property
    def m(self) -> int:
        return self.w.shape[-1]

    @cached_property
    def k_independent(self) -> bool:
        """`_k_independent` of w, exact; tested at most once per instance."""
        return _k_independent(self.w)

    @cached_property
    def links(self) -> np.ndarray:
        """The `maurer_cartan_links` array, computed once per instance;
        read-only."""
        L = maurer_cartan_links(self)
        L.flags.writeable = False
        return L

    @cached_property
    def degree_density(self) -> np.ndarray:
        """The `wzw_density` array, computed once per instance; read-only.
        A k-independent w, whose links are then node 0's copied, takes
        one node's triple trace (`_on_node0`)."""
        grid = self.grid
        dens = _on_node0(
            lambda L: (_antisym_trace3(L).real * grid.cell_volume()
                       / (24 * np.pi ** 2)),
            (self.links,), grid.dim, self.k_independent, grid.sizes,
            np.empty)
        dens.flags.writeable = False
        return dens

    def residuals(self) -> dict:
        """Max over the nodes of the unitarity, involution and fixed-node
        skewness defects of w; a k-independent w is measured on node 0
        alone (`_on_node0`), whose one node is every fixed node."""
        dim = self.grid.dim

        def defects(w):
            unit = float(np.abs(_mm(_dag(w), w) - np.eye(self.m)).max())
            invol = float(np.abs(self.grid.involute(w)
                                 + np.swapaxes(w, -1, -2)).max())
            skew = max(float(np.abs(w[t] + w[t].T).max()) for t in
                       product(*[(0, n // 2) for n in w.shape[:dim]]))
            return {"unitarity": unit, "involution": invol,
                    "trim_skew": skew}
        return _on_node0(defects, (self.w,), dim, self.k_independent)


@dataclass(frozen=True)
class ConnectionField:
    grid: BZGrid
    A: np.ndarray               # (dim, *sizes, m, m), anti-Hermitian
    quaternionic_residual: float = field(default=float("nan"))
    # the frames' k-independence (`berry_connection`): every node of A then
    # equals node 0
    k_independent: bool = False


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def diagonalize_grid(model, grid: BZGrid, gap: float = GAP) -> FrameField:
    """Occupied eigenframes of the model on every grid node.

    H is built and diagonalised only on the slab n_last in [0, N/2] of the
    last grid axis, which holds both of its fixed planes.  Every other node
    k is the mirror of a slab node -k, and time reversal fills it: u(k) =
    Theta u(-k) = U conj(u(-k)), E(k) = E(-k), one `theta.apply` and one
    `grid.involute` of the matrix-major stack.  The slab holds the
    transport seed's first line and sheet (`_transport_init`), which stay
    `eigh` frames.

    A k-independent H (`_k_independent`) takes one `eigh`, of node 0
    (`_on_node0`), whose frames and energies fill the slab: LAPACK solves
    each matrix of a stack on its own, so this changes no bit.  A
    k-independent slab fills the rest of the grid by copying node 0, so
    the field stays k-independent: Theta's image of a constant frame spans
    the same space in another basis.  H's test, or when H varies the
    slab's, is the field's answer (`FrameField.k_independent`): either
    way every node is a copy of node 0.

    The fill assumes Theta H(k) Theta^-1 = H(-k), which is not checked
    here: registry models satisfy it by their formula, and `ingest_sampled`
    refuses a sample whose time-reversal residual exceeds 1e-8.  A model
    that breaks it gets the frames of its slab's Theta image off the slab.

    Raises GaplessAt when an occupied level rises to -gap or an empty one
    drops to +gap anywhere on the grid; E(-k) = E(k), so the slab decides.
    """
    half = grid.sizes[-1] // 2 + 1
    H = model.hamiltonian_batch(grid.node_mesh()[..., :half, :])
    const = _k_independent(H)
    try:
        ev, vec = _on_node0(np.linalg.eigh, (H,), grid.dim, const)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigFailure(str(exc)) from exc
    m = model.n_occ
    below, above = ev[..., m - 1], ev[..., m]
    if below.max() >= -gap or above.min() <= gap:
        node = tuple(int(i) for i in np.unravel_index(
            int(np.argmin(above - below)), below.shape))
        raise GaplessAt(f"gap closes near node {node}")
    frames = _empty_stack(grid.sizes + (model.n_bands, m))
    energies = np.empty(grid.sizes + (m,))
    frames[..., :half, :, :] = slab = vec[..., :m]
    energies[..., :half, :] = ev[..., :m]
    energies[..., half:, :] = grid.involute(energies)[..., half:, :]
    const = const or _k_independent(slab)
    frames[..., half:, :, :] = (
        slab[(0,) * grid.dim] if const
        else model.theta.apply(grid.involute(frames)[..., half:, :, :]))
    return FrameField(grid, frames, energies, const=const)


# ---------------------------------------------------------------------------
# plane Chern numbers (gauge invariant, plaquette link method)
# ---------------------------------------------------------------------------

def plaquette_flux(frames2d: np.ndarray) -> np.ndarray:
    """Principal-branch Berry flux through every plaquette of a 2-d frame
    array, from the determinants of its four link overlaps."""
    u = frames2d
    lx = batched_det(_mm(_dag(u), np.roll(u, -1, axis=0)))
    ly = batched_det(_mm(_dag(u), np.roll(u, -1, axis=1)))
    loop = lx * np.roll(ly, -1, axis=0) * np.roll(lx, -1, axis=1).conj() * ly.conj()
    return np.angle(loop)


def plane_chern_numbers(raw: FrameField) -> dict:
    """(Chern number, integrality residual) of every invariant coordinate
    plane at slice indices 0 and N/2 (`FrameField.plane_fluxes`); a 2-d
    grid is its own plane."""
    total = {key: float(flux.sum()) / (2 * np.pi)
             for key, flux in raw.plane_fluxes.items()}
    return {key: (round(x), abs(x - round(x))) for key, x in total.items()}


# ---------------------------------------------------------------------------
# smooth periodic gauge
# ---------------------------------------------------------------------------

def _k_independent(x: np.ndarray) -> bool:
    """True iff every node of a stack (*sizes, n, m) equals node 0 (==).
    The last and the middle node are compared first, so a field that
    varies returns without a full-array compare."""
    nodes = x.shape[:-2]
    x0 = x[(0,) * len(nodes)]
    size = int(np.prod(nodes))
    if any((x[np.unravel_index(i, nodes)] != x0).any()
           for i in (size - 1, size // 2)):
        return False
    return bool((x == x0).all())


def _node0(x, dim):
    """The one-node slice [0:1] of the dim grid axes that stand just before
    the two matrix axes of a stack (..., *sizes, n, m): a view that keeps
    every axis.  `grid.involute` and `np.roll` are identities on it, so a
    per-node formula runs on it unchanged."""
    return x[(Ellipsis,) + (slice(0, 1),) * dim + (slice(None),) * 2]


def _on_node0(kernel, xs, dim, const, shape=None, alloc=_empty_stack):
    """kernel(*xs) for a per-node formula of the stacks xs (`_node0`'s
    layout).  When const (every node of every x equals its node 0, by the
    exact `_k_independent` test of the arrays the kernel reads), the kernel
    runs on the `_node0` views alone, whose one node is bitwise each node
    of the full stacks' result.  That node is copied once to every node of
    a new alloc(shape, dtype); without a shape (a reduction, such as a
    max) the kernel's result is returned as it is."""
    if not const:
        return kernel(*xs)
    r = kernel(*(_node0(x, dim) for x in xs))
    if shape is None:
        return r
    out = alloc(shape, r.dtype)
    out[...] = r
    return out


def _link_stack(kernel, u, alloc, tail=(), const=None):
    """kernel(u(k)+ u(k + e_a)) of the forward links along every grid axis
    a, periodic, stacked on axis 0 of alloc((dim, *sizes) + tail), one
    axis's link product alive at a time.  A k-independent u runs the kernel
    on the link u0+ u0 alone (`_on_node0`), copied to every node and axis.
    `const` is u's k-independence when the field holding u has it
    (`FrameField.k_independent`, `SewingField.k_independent`); None tests u
    here, once per call."""
    dim = u.ndim - 2
    shape = (dim,) + u.shape[:dim] + tail
    if _k_independent(u) if const is None else const:
        return _on_node0(lambda u0: kernel(_mm(_dag(u0), u0)), (u,), dim,
                         True, shape, alloc)
    out = alloc(shape)
    for a in range(dim):
        out[a] = kernel(_mm(_dag(u), np.roll(u, -1, axis=a)))
    return out


def link_log(u: np.ndarray, const=None) -> np.ndarray:
    """Principal log of the forward link unitaries polar(u(k)+ u(k + e_a))
    along every axis a, stacked on axis 0, matrix-major, not divided by the
    spacing (`_link_stack`, which reads `const`).  For frames, whose links
    are contractions."""
    return _link_stack(lambda O: unitary_log(batched_polar_unitary(O)),
                       u, _empty_stack, (u.shape[-1],) * 2, const)


def unitary_link_log(w: np.ndarray, const=None) -> np.ndarray:
    """`link_log` of a field of unitaries, such as a sewing field: its links
    w(k)+ w(k + e_a) are unitary to rounding, so `unitary_log` takes them
    as they are, without a polar factor."""
    return _link_stack(unitary_log, w, _empty_stack, (w.shape[-1],) * 2,
                       const)


def link_deficiency(u: np.ndarray, const=None) -> np.ndarray:
    """Operator-norm deficiency ||u(k)+ u(k + e_a) - 1|| of the forward
    links along every axis a, stacked on axis 0 (`_link_stack`, which reads
    `const`)."""
    return _link_stack(
        lambda O: batched_spectral_norm(O - np.eye(O.shape[-1])), u, np.empty,
        const=const)


def _transport_last_axis(u, end=None):
    """Parallel transport along the last grid axis of u (..., N, nb, m),
    then spread the holonomy towards `end` (..., nb, m) evenly along the
    line, node i taking its power i/N.  The default end, the line's own
    first node, makes the gauge smoothly periodic: the transport seed.  The
    planes route's ring gauge passes the canonical frames at the next fixed
    point.

    The seed keeps the SVD polar factor and the eig log of the holonomy
    (`linalg.unitary_ramp`) even for m = 2: at a Kramers-degenerate
    holonomy -1, rounding decides which eigenvector gets phase +pi and which
    -pi, so a kernel that rounds differently seeds a different gauge."""
    n = u.shape[-3]
    for i in range(1, n):
        M = _mm(_dag(u[..., i - 1, :, :]), u[..., i, :, :])
        u[..., i, :, :] = _mm(u[..., i, :, :], _dag(_svd_polar(M)))
    end = u[..., 0, :, :] if end is None else end
    ramp = unitary_ramp(_svd_polar(_mm(_dag(u[..., n - 1, :, :]), end)),
                        np.arange(n) / n)
    for i, G in enumerate(ramp):
        u[..., i, :, :] = _mm(u[..., i, :, :], G)
    return u


def _link_products(u, dim):
    """One pass over the forward link products O_a = u(k)+ u(k + e_a) of
    every axis: the mean over the links of ||O - 1||_F, the convergence
    measure of `_relax`, and the alignment target M = sum_a [O_a(k) +
    O_a(k - e_a)+] = u(k)+ sum of u's 2 dim neighbours.

    ||O - 1||^2 = ||O||^2 - 2 Re tr O + m.  u+ is taken once, the dim
    products fill one stack (dim, *sizes, m, m) and their norms are reduced
    together, each axis's mean on its own, so the measure and M round as a
    pass that takes the axes one at a time and adds M from zero does."""
    m = u.shape[-1]
    ud = _dag(u)
    O = _empty_stack((dim,) + u.shape[:-2] + (m, m))
    M = _empty_stack(u.shape[:-2] + (m, m))
    M.fill(0)
    for a in range(dim):
        np.einsum("...ab,...bc->...ac", ud, np.roll(u, -1, axis=a), out=O[a])
        M += O[a]
        M += _dag(np.roll(O[a], 1, axis=a))
    sq = (O.real ** 2 + O.imag ** 2).sum(axis=(-2, -1))
    means = np.sqrt(np.maximum(
        sq - 2 * np.trace(O, axis1=-2, axis2=-1).real + m, 0.0)).mean(
            axis=tuple(range(1, dim + 1)))
    # the axes' means added in axis order, as a loop over the axes adds them
    return float(np.cumsum(means)[-1]) / dim, M


@lru_cache(maxsize=8)
def _laplacian_symbol(sizes):
    """p^2 = sum_a 4 sin^2(p_a / 2) on the Fourier modes of a grid, shaped
    (*sizes, 1, 1), with inf on the constant mode; built once per grid
    shape, read-only."""
    p2 = sum(np.ix_(*(4 * np.sin(np.pi * np.arange(n) / n) ** 2
                      for n in sizes)))
    p2[(0,) * len(sizes)] = np.inf  # drops the constant mode
    p2.flags.writeable = False
    return p2[..., None, None]


def _inverse_laplacian(X, dim):
    """L^-1 X over the grid axes of a stack X (*sizes, m, m): Fourier mode p
    is divided by p^2 (`_laplacian_symbol`), the symbol of the periodic
    lattice Laplacian, and the constant mode is dropped."""
    axes = tuple(range(dim))
    Xh = np.fft.fftn(X, axes=axes)
    Xh /= _laplacian_symbol(X.shape[:dim])
    return np.fft.ifftn(Xh, axes=axes)


# Fourier-accelerated steps per relax, and the relative change of the mean
# link deficiency per step below which a relax stops
_MAX_STEPS = 400
_REL_TOL = 1e-4


def _relax(u, dim):
    """Fourier-accelerated gauge fixing for lattice Landau gauge (Davies et
    al.): raise sum Re tr O over the links by per-node rotations, until the
    mean link deficiency plateaus.

    Each step turns every node at once by `unitary_step(theta)`, theta =
    L^-1 AH(M) from `_link_products` and `_inverse_laplacian`: the exact
    step of the functional linearised about the current gauge, so no step
    size is tuned and the long-wavelength modes fall as fast as the short
    ones.  The rotation is polar(1 + theta) for m = 2 and the Cayley
    transform of theta for larger m; both agree with exp(theta) to second
    order.  A step that moves the deficiency by less than _REL_TOL of
    itself ends the call, and so does a rise after the first step: a step
    lowers the functional, not the mean of ||O - 1||_F, and a first step
    from a seed or a kick can raise that mean."""
    u = _matrix_major(u)
    prev, M = _link_products(u, dim)
    for step in range(_MAX_STEPS):
        theta = _inverse_laplacian(_AH(M), dim)
        del M  # free the target before the step allocates the next one
        u = _mm(u, unitary_step(theta))
        del theta
        cur, M = _link_products(u, dim)
        if (abs(prev - cur) < _REL_TOL * max(prev, 1e-12)
                or cur > prev and step > 0):
            break
        prev = cur
    return u


def _transport_init(raw: FrameField, order=None) -> np.ndarray:
    """Seed gauge from nested parallel transport (line, then sheet, then
    bulk, each with Wilson-loop closure spreading) along the given axis
    order."""
    dim = raw.grid.dim
    order = tuple(range(dim)) if order is None else tuple(order)
    # order "K" copies in raw's memory order, so the transposed-back
    # result is as matrix-major as raw without a second copy
    u = np.transpose(raw.frames, order + (dim, dim + 1)).copy(order="K")
    for a in range(dim):
        sel = tuple([slice(None)] * (a + 1) + [0] * (dim - a - 1))
        block = u[sel]
        if a == 0:
            block = block[np.newaxis]
        _transport_last_axis(block)
    inv = tuple(np.argsort(order))
    return np.transpose(u, inv + (dim, dim + 1))


def _multiscale_init(raw: FrameField) -> np.ndarray:
    """Seed gauge by prolonging a half-resolution smooth gauge and aligning
    the raw frames to it via polar projection."""
    grid, dim = raw.grid, raw.grid.dim
    coarse = BZGrid(dim, tuple(n // 2 for n in grid.sizes))
    sub = (slice(None, None, 2),) * dim
    coarse_raw = FrameField(coarse, raw.frames[sub], raw.energies[sub])
    coarse_ref = _smooth_frames(coarse_raw, finest=False).frames
    ref = _empty_stack(raw.frames.shape)
    for offset in product((0, 1), repeat=dim):
        ref[tuple(slice(o, None, 2) for o in offset)] = coarse_ref
    return _mm(raw.frames, batched_polar_unitary(_mm(_dag(raw.frames), ref)))


def _defect_line(field_: FrameField) -> bool:
    """More than 2 dim links (the star of one node) with deficiency above
    0.7: a vortex line rather than a lone hot node."""
    return np.count_nonzero(field_.deficiency > 0.7) > 2 * field_.grid.dim


def _anneal(field_: FrameField, raw: FrameField) -> tuple:
    """Dissolve residual vortex lines (metastable under pure alignment, e.g.
    when two everywhere-degenerate columns lock into conjugate Chern sectors)
    with deterministic random kicks followed by re-relaxation.

    Trials start only on a defect line (`_defect_line`).  A lone hot node,
    such as the six-link Gamma spot of a gauge near a gap closing, is left
    as relaxed: kicks do not move it.  Returns the best field and its
    smoothness."""
    dim = raw.grid.dim
    best, best_s = field_, field_.smoothness
    if not _defect_line(field_):
        return best, best_s
    rng = np.random.default_rng(12345)
    shape = raw.grid.sizes + (field_.m,) * 2
    for trial in range(12):
        if best_s < 0.7:
            break
        amp = 0.9 * 0.75 ** (trial % 4)
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ev, V = np.linalg.eigh(-1j * amp * _AH(X))
        V = _matrix_major(V)
        kick = _mm(_scale_columns(V, np.exp(1j * ev)), _dag(V))
        u = _relax(_mm(best.frames, kick), dim)
        kicked = FrameField(raw.grid, u, raw.energies)
        s = kicked.smoothness
        if s < best_s:
            best, best_s = kicked, s
    return best, best_s


def _smooth_frames(raw: FrameField, finest=True) -> FrameField:
    """Recursive gauge construction: seed from a half-resolution smooth gauge
    when the grid allows it, otherwise from nested parallel transport; relax
    and anneal, falling back to the next seed (transport, then reversed axis
    order) while the best gauge is above deficiency 0.7.  On the finest
    level a lone hot node ends the loop, as every seed leaves it hot; a
    coarser level tries every seed, as near-equal coarse gauges can lead the
    next level to different ends (bhz2d m = 0.3 at 24^2: 0.50 or 0.57)."""
    grid, dim = raw.grid, raw.grid.dim
    multiscale_ok = all(n % 4 == 0 and n >= 24 for n in grid.sizes)
    inits = [lambda: _transport_init(raw)]
    if multiscale_ok:
        inits.insert(0, lambda: _multiscale_init(raw))
    if dim > 1:
        inits.append(lambda: _transport_init(raw, order=range(dim)[::-1]))
    best, best_s = None, np.inf
    for make_init in inits:
        relaxed = FrameField(grid, _relax(make_init(), dim), raw.energies)
        field_, s = _anneal(relaxed, raw)
        if s < best_s:
            best, best_s = field_, s
        if best_s < 0.7 or (finest and not _defect_line(best)):
            break
    return best


def smooth_gauge(raw: FrameField) -> FrameField:
    """Smooth periodic gauge for the occupied frames.

    Multiscale: the gauge is first built on a half-resolution subgrid
    (recursively; nested parallel transport with Wilson-loop closure at the
    coarsest level), prolonged, and relaxed by Fourier-accelerated
    gauge-fixing steps (`_relax`) until the mean link deficiency plateaus; a
    level whose relaxed gauge still holds a defect line is kicked and
    relaxed again (`_anneal`), and a level left above deficiency 0.7 tries
    its next seed (`_smooth_frames`).  The returned field caches its
    per-link deficiency, which the smoothness gates downstream read.  Fails
    with ChernObstruction when an invariant plane carries a nonzero Chern
    number, in which case no smooth periodic gauge exists, and with
    ConvergenceFailure when the gauge stays above deficiency 1.2.

    k-independent frames (`_k_independent`) come back as they are: each
    link is u+ u, and every seed and relax would return them unchanged.
    """
    for plane, (c, _) in plane_chern_numbers(raw).items():
        if c != 0:
            raise ChernObstruction(plane[:2], c)
    if raw.k_independent:
        return raw
    field_ = _smooth_frames(raw)
    s = field_.smoothness
    if s > 1.2:
        raise ConvergenceFailure(
            f"gauge smoothing stalled at deficiency {s:.3f}")
    return field_


def gauge_pipeline(raw: FrameField, theta,
                   smoothness_limit: float = SMOOTHNESS_LIMIT):
    """smooth_gauge -> sewing_field on diagonalized frames.

    Returns (frames, wfield): the smooth gauge and its sewing field, which
    every gauge route reads; the Pfaffian route reduces it at the fixed
    nodes itself (`su_reduce`).
    """
    frames = smooth_gauge(raw)
    return frames, sewing_field(frames, theta,
                                smoothness_limit=smoothness_limit)


# ---------------------------------------------------------------------------
# sewing matrix field
# ---------------------------------------------------------------------------

def sewing_field(frames: FrameField, theta,
                 smoothness_limit: float = SMOOTHNESS_LIMIT) -> SewingField:
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


def su_reduce(wfield: SewingField) -> np.ndarray:
    """The SU-reduced sewing matrices exp(-i phi / m) w, det = 1, at the
    fixed nodes alone, stacked (2^dim, m, m) in `grid.trims` order.

    phi is a continuous branch of arg det(w), continued from the origin
    along the fixed-node staircase: along axis 0 to N_0/2, then along axis
    1 from both fixed nodes reached, then along axis 2 from all four.
    Time reversal forbids det(w) from winding around any fundamental cycle:
    the three axis cycles through the origin are checked (DetWinding), and
    so is |det w| = 1 on them.  Every cycle and line is continued by
    `phase_continue`, whose refusals, a det at zero or a step of arg det of
    pi/2 or more, become DetJump.
    """
    grid, w, dim = wfield.grid, wfield.w, wfield.grid.dim

    def continued(d, where, start=None):
        try:
            return phase_continue(d, start)
        except LinalgError as exc:
            raise DetJump(f"{exc} {where}") from exc
    for a in range(dim):
        d = batched_det(w[tuple(slice(None) if b == a else 0
                                for b in range(dim))])
        if np.abs(np.abs(d) - 1).max() > 1e-6:
            raise BlochError("det(w) strays from the unit circle")
        _, wind = continued(np.append(d, d[0]), f"around cycle {a}")
        if wind != 0:
            raise DetWinding(a, wind)

    phi = {(0,) * dim: np.angle(d[0])}  # d[0]: the origin's det
    for a, n in enumerate(grid.sizes):
        for start in list(phi):
            d = batched_det(w[start[:a] + (slice(n // 2 + 1),)
                              + start[a + 1:]])
            phases, _ = continued(d, f"along axis {a} from fixed node "
                                  f"{start}", phi[start])
            phi[start[:a] + (n // 2,) + start[a + 1:]] = phases[-1]
    trims = grid.trims
    return (np.exp(-1j * np.array([phi[t] for t in trims]) / wfield.m)
            [:, None, None] * w[tuple(np.transpose(trims))])


# ---------------------------------------------------------------------------
# Berry connection and its quaternionic average
# ---------------------------------------------------------------------------

def berry_connection(frames: FrameField,
                     smoothness_limit: float = SMOOTHNESS_LIMIT
                     ) -> ConnectionField:
    """Log-link Berry connection.

    A_mu(k) is the average of the principal logarithms of the two unitary
    transporters touching k along axis mu, divided by the spacing; it agrees
    with u+ du to O(h^2) and handles large single-link rotations exactly.

    k-independent frames (`FrameField.k_independent`) log and average
    node 0 alone and fill the grid once (`_on_node0`); the connection takes
    the frames' answer.
    """
    s = frames.smoothness
    if s > smoothness_limit:
        raise RoughGauge(f"frame smoothness {s:.3f} exceeds {smoothness_limit}")
    grid, const, u = frames.grid, frames.k_independent, frames.frames

    def connection(u):
        A = link_log(u, const)  # averaged in place, per axis
        for a, h in enumerate(grid.spacings):
            A[a] = _AH(0.5 * (A[a] + np.roll(A[a], 1, axis=a)) / h)
        return A
    A = _on_node0(connection, (u,), grid.dim, const,
                  (grid.dim,) + u.shape[:-2] + (frames.m,) * 2)
    return ConnectionField(grid, A, k_independent=const)


def quaternionic_average(conn: ConnectionField,
                         wfield: SewingField) -> ConnectionField:
    """Average the connection with its quaternionic image: A' = (A + sigma A)/2,

    sigma(A)_mu(k) = -w(k) conj(A_mu(-k)) w(k)+ + (1/2)[w (Dw+)_mu - (Dw)_mu w+].

    The derivative term is -w Lambda_mu w+ with Lambda = w+ dw, the
    symmetrized Maurer-Cartan link of w along mu (`SewingField.links`): the
    stencil at n mirrors the one at -n, so sigma is an exact involution on
    the index lattice (up to w's unitarity and involution residuals).  A' is
    fixed by sigma (residual max |A' - sigma A'| recorded), hence compatible
    with the quaternionic structure defined by w, the sewing field of the
    connection's own frames (not its SU reduction).

    When the connection and w are both k-independent
    (`ConnectionField.k_independent`, `SewingField.k_independent`), sigma
    and the residual run on node 0 alone and A' fills the grid once
    (`_on_node0`); A' is k-independent too.
    """
    if conn.grid.sizes != wfield.grid.sizes:
        raise GaugeMismatch("connection and sewing field live on different grids")
    grid = wfield.grid
    const = conn.k_independent and wfield.k_independent
    residuals = []

    def average(w, A, links):
        wd = _dag(w)
        Ap = np.empty_like(A)
        for a in range(grid.dim):
            L = links[a]
            lam = 0.5 * (L + np.roll(L, 1, axis=a))

            def sigma(X):
                return -_mm(w, _mm(grid.involute(X).conj() + lam, wd))
            Ap[a] = 0.5 * (A[a] + sigma(A[a]))
            residuals.append(np.abs(Ap[a] - sigma(Ap[a])).max())
        return Ap
    Ap = _on_node0(average, (wfield.w, conn.A, wfield.links), grid.dim,
                   const, conn.A.shape)
    return ConnectionField(conn.grid, Ap,
                           quaternionic_residual=float(np.max(residuals)),
                           k_independent=const)


# ---------------------------------------------------------------------------
# WZW density
# ---------------------------------------------------------------------------

_PERMS3 = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]


def _antisym_trace3(L):
    """sum_{perm} sign tr(L_a L_b L_c) over nodes, for a stack L with its
    three axes on axis 0: by cyclicity the six signed traces are 3 tr(L_0
    [L_1, L_2]).  The trace is summed entry by entry in a fixed order, so
    the result does not depend on the stack's layout."""
    C = _mm(L[1], L[2]) - _mm(L[2], L[1])
    return 3 * sum(L[0][..., i, j] * C[..., j, i]
                   for i, j in product(range(L.shape[-1]), repeat=2))


def maurer_cartan_links(wfield: SewingField) -> np.ndarray:
    """Discrete w^{-1} dw per axis: principal log of the forward link unitary.

    L_mu(k) = log(w(k)+ w(k+d_mu)) / h_mu.  Agrees with the plain difference
    quotient to O(h) but keeps the result exactly in the Lie algebra, which
    buys roughly one order of accuracy in the WZW Riemann sums.
    """
    grid, w, const = wfield.grid, wfield.w, wfield.k_independent

    def links(w):
        L = unitary_link_log(w, const)
        for a, h in enumerate(grid.spacings):
            L[a] /= h
        return L
    return _on_node0(links, (w,), grid.dim, const,
                     (grid.dim,) + w.shape)


def wzw_density(wfield: SewingField) -> np.ndarray:
    """Per-cube Riemann weight of (1/24 pi^2) tr((w^{-1} dw)^3).

    Full antisymmetrization of tr(L_a L_b L_c) over the three axes, times the
    cube volume, so the plain sum of the returned array is the discretized
    integral of the 3-form.  Built once per sewing field: every call on the
    same field returns one read-only array (`SewingField.degree_density`).
    """
    if wfield.grid.dim != 3:
        raise BlochError("the WZW density lives on 3-dimensional grids")
    return wfield.degree_density
