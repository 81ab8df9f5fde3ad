"""Angular meshes on the 3-sphere and the two-pole localisation descent.

The 3-sphere is charted by angles (chi, theta, phi) with chi, theta in
(0, pi) and phi periodic; cells are centered between the coordinate
singularities, so no sample sits on a pole.  The inversion through the
chi-axis acts as (chi, theta, phi) -> (chi, pi - theta, phi +- pi), an
exact permutation of cell centers whose only fixed points on the sphere
itself are the two poles chi = 0 (N) and chi = pi (S).

For a gapped band model on the sphere the module builds a globally smooth
occupied gauge (the sphere is simply connected, so none of the torus
obstructions arise), samples the degree density of the sewing map, and
either integrates it directly or localises it onto the two poles by the
same cumulative-sum descent used on torus grids: hemisphere -> boundary
two-sphere -> boundary circles -> poles, each step exactly integral
preserving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _dag, _mm, batched_polar_unitary
from .bloch import (GaplessAt, _antisym_trace3, _transport_last_axis,
                    link_log)
from .models import BlochModel


class SphereError(ValueError):
    pass


@dataclass(frozen=True)
class SphereMesh:
    """Cell-centered angular mesh: chi_j = (j+1/2) pi/n_chi,
    theta_k = (k+1/2) pi/n_theta, phi_l = -pi + 2 pi (l+1/2)/n_phi."""

    n_chi: int
    n_theta: int
    n_phi: int

    def __post_init__(self):
        # below 10 cells in chi or theta the Dirac degree integral of every
        # band-inverted mass rounds to the wrong parity (+0.06 at 6 cells,
        # +0.19 at 8, -0.83 at 10)
        if self.n_chi < 10 or self.n_theta < 10 or self.n_phi < 8:
            raise SphereError(
                f"mesh {self.shape} too coarse: n_chi and n_theta must be "
                ">= 10 to resolve the degree integral")
        if self.n_theta % 2 or self.n_phi % 4:
            raise SphereError(
                "need n_theta even and n_phi divisible by 4 so the inversion "
                "and the hemisphere boundary are index-exact")

    @classmethod
    def cubic(cls, n: int) -> "SphereMesh":
        n_phi = n + (-n) % 4
        return cls(n, n, n_phi)

    @property
    def shape(self):
        return (self.n_chi, self.n_theta, self.n_phi)

    @property
    def spacings(self):
        return (np.pi / self.n_chi, np.pi / self.n_theta,
                2 * np.pi / self.n_phi)

    def angles(self) -> np.ndarray:
        chi = (np.arange(self.n_chi) + 0.5) * np.pi / self.n_chi
        th = (np.arange(self.n_theta) + 0.5) * np.pi / self.n_theta
        ph = -np.pi + (np.arange(self.n_phi) + 0.5) * 2 * np.pi / self.n_phi
        return np.stack(np.meshgrid(chi, th, ph, indexing="ij"), axis=-1)

    def involution_indices(self):
        """Cell-index permutation of (chi, theta, phi) -> (chi, pi - theta,
        phi + pi)."""
        return np.ix_(np.arange(self.n_chi),
                      self.n_theta - 1 - np.arange(self.n_theta),
                      (np.arange(self.n_phi) + self.n_phi // 2) % self.n_phi)

    def involute(self, values: np.ndarray) -> np.ndarray:
        return values[self.involution_indices()]


def _open_transport(u, axis):
    """Parallel transport along an open (non-periodic) axis from its first
    slice; no closure correction is needed."""
    v = np.moveaxis(u, axis, -3)
    n = v.shape[-3]
    for i in range(1, n):
        M = _mm(_dag(v[..., i - 1, :, :]), v[..., i, :, :])
        v[..., i, :, :] = _mm(v[..., i, :, :], _dag(batched_polar_unitary(M)))
    return np.moveaxis(v, -3, axis)


def _sphere_relax(u, sweeps=60):
    """Jacobi alignment sweeps with wrap links only on the periodic phi
    axis."""
    for _ in range(sweeps):
        tgt = np.zeros_like(u)
        for axis, periodic in ((0, False), (1, False), (2, True)):
            for shift in (1, -1):
                nb = np.roll(u, shift, axis=axis)
                if not periodic:
                    edge = [slice(None)] * u.ndim
                    edge[axis] = 0 if shift == 1 else -1
                    nb[tuple(edge)] = 0.0
                tgt = tgt + nb
        proj = _mm(_dag(u), tgt)
        u = _mm(u, batched_polar_unitary(proj))
    return u


def _dirac_charts(mass: float, mesh: SphereMesh):
    """The two closed-form lower-band charts of the sphere Dirac model.

    With a = sin(chi), f = mass + 1 - cos(chi), r = sqrt(a^2 + f^2) and
    D = a * (unit_vector . sigma), the columns

        chart 1: (-D e_j, (f+r) e_j) / sqrt(2 r (r+f))   (singular at f = -r)
        chart 2: ((f-r) e_j,  D e_j) / sqrt(2 r (r-f))   (singular at f = +r)

    span the lower doublet, and on the overlap chart2 = chart1 @ (v.sigma).
    """
    ang = mesh.angles()
    chi, th, ph = ang[..., 0], ang[..., 1], ang[..., 2]
    a = np.sin(chi)
    f = mass + 1.0 - np.cos(chi)
    r = np.sqrt(a * a + f * f)
    vs = np.empty(mesh.shape + (2, 2), dtype=complex)
    vs[..., 0, 0] = np.cos(th)
    vs[..., 0, 1] = np.sin(th) * np.exp(-1j * ph)
    vs[..., 1, 0] = np.sin(th) * np.exp(1j * ph)
    vs[..., 1, 1] = -np.cos(th)
    return a, f, r, vs


def _assemble_chart(first_block, second_block):
    """Stack two (..., 2, 2) spin blocks into 4x2 frames with the row order
    (spin, orbital) -> 2*spin + orbital."""
    out = np.empty(first_block.shape[:-2] + (4, 2), dtype=complex)
    out[..., 0::2, :] = first_block
    out[..., 1::2, :] = second_block
    return out


def dirac_frames(mass: float, mesh: SphereMesh) -> np.ndarray:
    """Globally smooth occupied frames of the sphere Dirac model.

    For masses with a band inversion the two charts are glued across an
    equatorial band by the smooth unitary interpolation
    exp(-i pi s / 2) * exp(i s (pi/2) v.sigma), which connects the identity
    to v.sigma as s runs from 0 to 1; elsewhere a single chart is global.
    Raises GaplessAt at the critical masses.
    """
    if abs(mass) < 1e-8 or abs(mass + 2.0) < 1e-8:
        raise GaplessAt(f"sphere Dirac model is critical at mass {mass}")
    a, f, r, vs = _dirac_charts(mass, mesh)
    eye = np.eye(2, dtype=complex)
    if mass > 0:  # chart 1 is global: f > 0 everywhere
        n1 = np.sqrt(2 * r * (r + f))[..., None, None]
        return _assemble_chart(-a[..., None, None] * vs / n1,
                               (f + r)[..., None, None] * eye / n1)
    if mass < -2:  # chart 2 is global: f < 0 everywhere
        n2 = np.sqrt(2 * r * (r - f))[..., None, None]
        return _assemble_chart((f - r)[..., None, None] * eye / n2,
                               a[..., None, None] * vs / n2)
    # band-inverted: chart 2 near chi = 0, chart 1 near chi = pi, glued by
    # u = chart1 @ h(s) with s running 1 -> 0 across [pi/3, 2 pi/3]
    chi = mesh.angles()[..., 0]
    t = np.clip((2 * np.pi / 3 - chi) / (np.pi / 3), 0.0, 1.0)
    s = 3 * t * t - 2 * t ** 3
    n1 = np.sqrt(2 * r * (r + f))[..., None, None]
    u1 = _assemble_chart(-a[..., None, None] * vs / n1,
                         (f + r)[..., None, None] * eye / n1)
    n2 = np.sqrt(2 * r * (r - f))[..., None, None]
    u2 = _assemble_chart((f - r)[..., None, None] * eye / n2,
                         a[..., None, None] * vs / n2)
    half = np.pi / 2
    phase = np.exp(-1j * half * s)[..., None, None]
    hs = phase * (np.cos(half * s)[..., None, None] * eye
                  + 1j * np.sin(half * s)[..., None, None] * vs)
    glued = _mm(u1, hs)
    lo = chi < np.pi / 3
    glued[lo] = u2[lo]
    hi = chi > 2 * np.pi / 3
    glued[hi] = u1[hi]
    return glued


def sphere_frames(model: BlochModel, mesh: SphereMesh) -> np.ndarray:
    """Globally smooth occupied frames over the mesh.

    The sphere Dirac family uses its closed-form glued charts.  Other
    sphere models are diagonalized cell by cell and gauge-smoothed by
    nested parallel transport plus alignment sweeps; note that this
    numerical fallback only controls smoothness chart-wise, so it is
    trustworthy when the model is known to carry zero degree.  Raises
    GaplessAt if the spectral gap closes on the mesh.
    """
    if model.domain != "sphere3":
        raise SphereError("expected a sphere-domain model")
    if model.name == "dirac_s3":
        return dirac_frames(float(model.params["mass"]), mesh)
    H = model.hamiltonian_batch(mesh.angles())
    energies, vecs = np.linalg.eigh(H)
    m = model.n_occ
    gap = energies[..., m] - energies[..., m - 1]
    if gap.min() <= 1e-8:
        idx = np.unravel_index(int(np.argmin(gap)), gap.shape)
        raise GaplessAt(f"gap {gap.min():.2e} at cell {idx}")
    u = np.ascontiguousarray(vecs[..., :m])
    # phi line at (0, 0, :): periodic transport with spread closure
    line = u[0:1, 0]
    _transport_last_axis(line)
    u[0, 0] = line[0]
    u[0:1] = _open_transport(u[0:1], 1)      # theta sheet at chi index 0
    u = _open_transport(u, 0)                # chi bulk
    return _sphere_relax(u)


def sphere_sewing(frames: np.ndarray, theta, mesh: SphereMesh) -> np.ndarray:
    """Sewing matrices w(p) = u(tau p)+ Theta u(p) on the mesh."""
    w = _mm(_dag(mesh.involute(frames)), theta.apply(frames))
    dev = np.abs(_mm(w, _dag(w)) - np.eye(w.shape[-1])).max()
    if dev > 1e-8:
        raise SphereError(
            f"sewing unitarity residual {dev:.2e}: frames do not span a "
            "time-reversal stable occupied space")
    return w


def sphere_wzw_density(w: np.ndarray, mesh: SphereMesh):
    """Per-cell degree density of the sewing map, symmetrized under the
    inversion.

    Returns (density, discarded) where density integrates (by a plain sum)
    to the degree of w and satisfies density o involution = density exactly;
    discarded is the 1-norm of the removed asymmetric part, a pure
    discretization artifact.
    """
    hs = mesh.spacings
    L = [link_log(w, a) / h for a, h in enumerate(hs)]
    for a in (0, 1):  # open axes: the last slice reuses its backward link
        L[a][(slice(None),) * a + (-1,)] = L[a][(slice(None),) * a + (-2,)]
    dens = (_antisym_trace3(L, L, L).real * (hs[0] * hs[1] * hs[2])
            / (24 * np.pi ** 2))
    sym = 0.5 * (dens + mesh.involute(dens))
    discarded = float(np.abs(dens - sym).sum())
    return sym, discarded


def hemisphere_descent(density: np.ndarray, mesh: SphereMesh) -> dict:
    """Localise a symmetrized degree density onto the two poles.

    Step 1 trivializes over the hemisphere phi in (-pi/2, pi/2), pushing the
    integral to the two boundary half-spheres; step 2 trivializes along
    theta over one of them (its partner is the inversion mirror); step 3
    accumulates along chi from the south end.  Every step is a plain
    telescoping sum, so rho0_N + rho0_S equals the total exactly.
    """
    if density.shape != mesh.shape:
        raise SphereError("density shape does not match the mesh")
    nphi, nth, nchi = mesh.n_phi, mesh.n_theta, mesh.n_chi
    total = float(density.sum())
    l0 = nphi // 4
    # hemisphere F: phi cells l0 .. l0 + nphi/2 - 1
    fcells = (np.arange(nphi // 2) + l0) % nphi
    # eta2 at the closing face phi = +pi/2 equals the full fiber sum over F
    eta2_face1 = density[:, :, fcells].sum(axis=2)        # (nchi, ntheta)
    # rho2 on the two faces; face 0 (phi = -pi/2) carries the mirror image
    rho2 = np.stack([eta2_face1[:, ::-1], eta2_face1])    # (face, chi, theta)
    level2 = float(rho2.sum())
    # descend face index 0 along theta; eta1 at the theta = pi edge
    eta1_edge1 = rho2[0].sum(axis=1)                      # (nchi,)
    # rho1 on the four boundary circles (face, edge) with the mirrors
    rho1 = np.zeros((2, 2, nchi))
    rho1[0, 1] = eta1_edge1
    rho1[1, 0] = eta1_edge1                               # inversion mirror
    level1 = float(rho1.sum())
    # accumulate along chi from the south end (chi = pi): the north pole
    # receives the full line sums, the south pole nothing
    rho0_n = float(rho1.sum())
    rho0_s = 0.0
    return {
        "total": total,
        "level_integrals": [total, level2, level1, rho0_n + rho0_s],
        "rho0_N": rho0_n,
        "rho0_S": rho0_s,
    }
