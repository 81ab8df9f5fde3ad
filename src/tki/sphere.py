"""Angular meshes on the 3-sphere and the two-pole localisation descent.

The 3-sphere is charted by angles (chi, theta, phi) with chi, theta in
(0, pi) and phi periodic; cells are centered between the coordinate
singularities, so no sample sits on a pole.  The inversion through the
chi-axis acts as (chi, theta, phi) -> (chi, pi - theta, phi +- pi), an
exact permutation of cell centers whose only fixed points on the sphere
itself are the two poles chi = 0 (N) and chi = pi (S).

For the sphere Dirac family the module builds a globally smooth occupied
gauge from two closed-form charts (the sphere is simply connected, so none
of the torus obstructions arise; other sphere models are refused, see
`sphere_frames`), samples the degree density of the sewing map, and
either integrates it directly or localises it onto the two poles with the
descent step of the torus grids, `eqforms.push`, applied three times:
hemisphere -> boundary two-sphere -> the circle through both poles ->
poles, each step exactly integral preserving.

The frames are built one chi slab at a time, each slab from the one chart
it uses.  The density logs the sewing links without a polar factor
(`linalg.unitary_log`): `sphere_sewing` gates the field unitary to 1e-8,
and its links are unitary to rounding.  The open
chi and theta axes have no wrap-around link; their last slice reuses the
link product of the slice before it, so no link is logged that the
density does not read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _dag, _empty_stack, _mm, unitary_log
from .bloch import GaplessAt, _antisym_trace3
from .eqforms import push
from .models import BlochModel


class SphereError(ValueError):
    pass


class UnsupportedSphereModel(SphereError):
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

    def axes(self) -> tuple:
        """The cell-center angles chi, theta and phi, one 1-d array each."""
        chi = (np.arange(self.n_chi) + 0.5) * np.pi / self.n_chi
        th = (np.arange(self.n_theta) + 0.5) * np.pi / self.n_theta
        ph = -np.pi + (np.arange(self.n_phi) + 0.5) * 2 * np.pi / self.n_phi
        return chi, th, ph

    def angles(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)

    def involution_indices(self):
        """Cell-index permutation of (chi, theta, phi) -> (chi, pi - theta,
        phi + pi)."""
        return np.ix_(np.arange(self.n_chi),
                      self.n_theta - 1 - np.arange(self.n_theta),
                      (np.arange(self.n_phi) + self.n_phi // 2) % self.n_phi)

    def involute(self, values: np.ndarray) -> np.ndarray:
        """Pull a cell-indexed array back along the inversion: a flip of
        theta and a half-turn of phi, which keep the layout of `values`."""
        return np.roll(np.flip(values, axis=1), self.n_phi // 2, axis=2)


def _spin_matrices(th, ph):
    """v.sigma for the unit vector at (theta, phi): a (n_theta, n_phi, 2, 2)
    stack, shared by every chi slab."""
    st = np.sin(th)[:, None]
    vs = _empty_stack((len(th), len(ph), 2, 2))
    vs[..., 0, 0] = np.cos(th)[:, None]
    vs[..., 0, 1] = st * np.exp(-1j * ph)
    vs[..., 1, 0] = st * np.exp(1j * ph)
    vs[..., 1, 1] = -np.cos(th)[:, None]
    return vs


def _dirac_chart(chart: int, mass: float, chi, vs, out):
    """Fill out (len(chi), n_theta, n_phi, 4, 2) with one closed-form
    lower-band chart of the sphere Dirac model.

    With a = sin(chi), f = mass + 1 - cos(chi), r = sqrt(a^2 + f^2) and
    D = a * (unit_vector . sigma), the columns

        chart 1: (-D e_j, (f+r) e_j) / sqrt(2 r (r+f))   (singular at f = -r)
        chart 2: ((f-r) e_j,  D e_j) / sqrt(2 r (r-f))   (singular at f = +r)

    span the lower doublet, and on the overlap chart2 = chart1 @ (v.sigma).
    The spin blocks fill the rows (spin, orbital) -> 2*spin + orbital.
    """
    a = np.sin(chi)
    f = mass + 1.0 - np.cos(chi)
    r = np.sqrt(a * a + f * f)
    a, f, r = (x[:, None, None, None, None] for x in (a, f, r))
    eye = np.eye(2, dtype=complex)
    if chart == 1:
        n1 = np.sqrt(2 * r * (r + f))
        out[..., 0::2, :] = -a * vs / n1
        out[..., 1::2, :] = (f + r) * eye / n1
    else:
        n2 = np.sqrt(2 * r * (r - f))
        out[..., 0::2, :] = (f - r) * eye / n2
        out[..., 1::2, :] = a * vs / n2
    return out


def dirac_frames(mass: float, mesh: SphereMesh) -> np.ndarray:
    """Globally smooth occupied frames of the sphere Dirac model.

    For masses with a band inversion the two charts are glued across an
    equatorial band by the smooth unitary interpolation
    exp(-i pi s / 2) * exp(i s (pi/2) v.sigma), which connects the identity
    to v.sigma as s runs from 0 to 1; elsewhere a single chart is global.
    Each chi slab is built from the one chart it uses.  Raises GaplessAt at
    the critical masses.
    """
    if abs(mass) < 1e-8 or abs(mass + 2.0) < 1e-8:
        raise GaplessAt(f"sphere Dirac model is critical at mass {mass}")
    chi, th, ph = mesh.axes()
    vs = _spin_matrices(th, ph)
    out = _empty_stack(mesh.shape + (4, 2))
    # chart 1 is global for mass > 0, where f > 0 everywhere, and chart 2
    # for mass < -2, where f < 0; band-inverted, chart 2 covers chi < pi/3,
    # chart 1 chi > 2 pi/3, and u = chart1 @ h(s) the band between, with s
    # running 1 -> 0 across it
    if mass > 0:
        lo = hi = 0
    elif mass < -2:
        lo = hi = mesh.n_chi
    else:
        lo = int(np.searchsorted(chi, np.pi / 3, side="left"))
        hi = int(np.searchsorted(chi, 2 * np.pi / 3, side="right"))
    _dirac_chart(2, mass, chi[:lo], vs, out[:lo])
    _dirac_chart(1, mass, chi[lo:], vs, out[lo:])
    if lo < hi:
        t = np.clip((2 * np.pi / 3 - chi[lo:hi]) / (np.pi / 3), 0.0, 1.0)
        s = (3 * t * t - 2 * t ** 3)[:, None, None, None, None]
        half = np.pi / 2
        hs = np.multiply(np.exp(-1j * half * s),
                         np.cos(half * s) * np.eye(2, dtype=complex)
                         + 1j * np.sin(half * s) * vs,
                         out=_empty_stack((hi - lo,) + vs.shape))
        out[lo:hi] = _mm(out[lo:hi], hs)
    return out


def sphere_frames(model: BlochModel, mesh: SphereMesh) -> np.ndarray:
    """Globally smooth occupied frames over the mesh.

    Only the sphere Dirac family is supported: its closed-form glued charts
    are smooth across the whole sphere.  Any other sphere model (a direct
    sum of Dirac models included) raises UnsupportedSphereModel, because a
    gauge smoothed chart by chart makes the degree integral vanish by
    construction and rounds every such model to parity +1.  Raises
    GaplessAt if the spectral gap closes on the mesh.
    """
    if model.domain != "sphere3":
        raise SphereError("expected a sphere-domain model")
    if model.name != "dirac_s3":
        raise UnsupportedSphereModel(
            f"no globally smooth S^3 gauge for model {model.name!r}: only "
            "dirac_s3 is supported on the sphere")
    return dirac_frames(float(model.params["mass"]), mesh)


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
    L = _empty_stack((3,) + w.shape)
    for a, h in enumerate(hs):  # one axis's link product alive at a time
        O = _mm(_dag(w), np.roll(w, -1, axis=a))
        if a < 2:  # open axes: the last slice reuses its backward link
            O[(slice(None),) * a + (-1,)] = O[(slice(None),) * a + (-2,)]
        L[a] = unitary_log(O)
        L[a] /= h
    dens = (_antisym_trace3(L).real * (hs[0] * hs[1] * hs[2])
            / (24 * np.pi ** 2))
    sym = 0.5 * (dens + mesh.involute(dens))
    discarded = float(np.abs(dens - sym).sum())
    return sym, discarded


def hemisphere_descent(density: np.ndarray, mesh: SphereMesh) -> dict:
    """Localise a symmetrized degree density onto the two poles.

    Three pushes of the torus descent step, each integral preserving:

    1. the hemisphere phi in (-pi/2, pi/2) onto the boundary two-sphere
       phi = +-pi/2, whose two half-discs glue along theta into a circle
       psi on which the inversion is the half-turn;
    2. half of psi (theta running from pi to 0 on the phi = -pi/2 disc)
       onto the circle theta in {0, pi} through both poles, on which the
       inversion is a reflection;
    3. half of that circle (chi running from pi to 0 at theta = pi) onto
       its fixed points, the poles chi = 0 (N) and chi = pi (S).
    """
    if density.shape != mesh.shape:
        raise SphereError("density shape does not match the mesh")
    nchi, nth, nphi = mesh.shape
    # phi rolled so that the hemisphere is the upper half of its axis; the
    # inversion's phi -> phi + pi commutes with the roll
    _, rho2 = push(np.roll(density, nphi // 4, axis=2), 2,
                   mesh.involution_indices())
    # psi: the disc phi = +pi/2 with theta 0 -> pi, then phi = -pi/2 back
    psi = np.concatenate([rho2[:, :, 0], rho2[:, ::-1, nphi // 2]], axis=1)
    half_turn = (np.arange(2 * nth) + nth) % (2 * nth)
    _, rho1 = push(psi, 1, (slice(None), half_turn))
    # the arc theta = 0 with chi 0 -> pi, then theta = pi back
    circle = np.concatenate([rho1[:, 0], rho1[::-1, nth]])
    reflection = -np.arange(2 * nchi) % (2 * nchi)
    _, rho0 = push(circle, 0, (reflection,))
    total = float(density.sum())
    return {
        "total": total,
        "level_integrals": [total] + [float(f.sum())
                                      for f in (psi, circle, rho0)],
        "rho0_N": float(rho0[0]),
        "rho0_S": float(rho0[nchi]),
    }
