"""Kane-Mele invariant of a gapped time-reversal symmetric band model.

Routes to the same Z2 parity:

* ``km_trim_pfaffian``  — product of sewing-matrix Pfaffians over the
  inversion-fixed momenta, SU-reduced there alone, in 2D and 3D alike;
* ``km_plane_invariant`` / ``km_weak_strong`` — the 2D invariant of each
  inversion-stable plane from Berry fluxes over half the plane and boundary
  Berry phases in a time-reversal-constrained ring gauge, combined into weak
  and strong 3D indices; both count their planes through ``_plane_raws``,
  which reads the Berry fluxes a frame field traces once for its Chern check
  and this count alike (``bloch.FrameField.plane_fluxes``); their margin is
  the largest plaquette flux (``plane_flux_margin``);
* ``km_wzw`` — the degree integral of the sewing map, whose parity is the
  invariant; its density (``bloch.wzw_density``, built once per sewing field)
  also feeds ``km_winding``, ``km_chern_simons`` and the ``localise`` route;
* ``km_winding`` — the same integral resummed over slices and rounded the
  same way: a diagnostic that agrees with ``km_wzw`` by construction;
* ``km_chern_simons`` — the Chern-Simons integral of the quaternionically
  averaged Berry connection, related to the degree integral by a factor -1/2
  (its cubic term is ``bloch._antisym_trace3``, the density's kernel, one
  commutator trace per node);
* ``km_s3`` — for the sphere Dirac model ``dirac_s3``, the degree integral
  of the sewing map, localised onto the two poles.

The density routes (``km_wzw``, ``km_winding``, ``km_chern_simons`` and the
``localise`` route) need a 3-d grid; the other two take a 2-d one too.

``assemble_report`` collects any subset of method outputs into the JSON
report, with a consensus flag.
"""

from __future__ import annotations

import numpy as np

from .grids import BZGrid
from .linalg import (_dag, _empty_stack, batched_det, kramers_canonical,
                     pfaffian)
from . import bloch
from .bloch import (FrameField, SewingField, ConnectionField, _PERMS3,
                    _antisym_trace3, _on_node0, _transport_last_axis,
                    wzw_density)

_W0 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
# the S^3 mesh size of `km_s3` and of `tki invariant` without --grid, and
# the coarser one of each point of `tki phase-diagram` without --grid
S3_MESH = 48
S3_SWEEP_MESH = 24


class InvariantError(ValueError):
    pass


class NonSkewTrim(InvariantError):
    pass


class PfaffianOffCircle(InvariantError):
    pass


class BoundaryGaugeFailure(InvariantError):
    pass


class AxisInconsistency(InvariantError):
    pass


class NonConvergent(InvariantError):
    pass


class UnaveragedConnection(InvariantError):
    pass


def _round_parity(raw: float, lattice: float = 1.0, slack: float = 0.25):
    """Round raw/lattice to the nearest integer and return ((-1)^n, residual);
    refuse to round when the distance exceeds the slack."""
    x = raw / lattice
    n = int(round(x))
    resid = abs(x - n)
    if resid > slack:
        raise NonConvergent(
            f"value {raw:.4f} is {resid:.3f} lattice units from the nearest "
            "admissible point")
    return (-1) ** (n % 2), resid


def km_trim_pfaffian(wfield: SewingField):
    """Parity from the sewing-matrix Pfaffians at the inversion-fixed nodes.

    Reduces the field at the fixed nodes (`bloch.su_reduce`, whose refusals
    pass through); each Pfaffian then lies on the unit circle and, being
    real at a fixed node, equals ±1 up to discretization noise.  Returns
    (parity, pfaffians in the order of grid.trims).
    """
    pfs = []
    for t, W in zip(wfield.grid.trims, bloch.su_reduce(wfield)):
        if np.abs(W + W.T).max() > 1e-8:
            raise NonSkewTrim(f"sewing matrix at fixed node {t} is not skew")
        pf = pfaffian(0.5 * (W - W.T))
        if abs(abs(pf) - 1.0) > 1e-4:
            raise PfaffianOffCircle(
                f"|pf| = {abs(pf):.6f} at fixed node {t}; gauge too rough")
        pfs.append(complex(pf))
    signs = [1 if p.real > 0 else -1 for p in pfs]
    parity = int(np.prod(signs))
    return parity, pfs


def _ring_tr_gauge(rings: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Impose a time-reversal-constrained gauge on closed inversion-stable
    rings of frames (index j ~ momentum, inversion j -> -j mod N), stacked
    as (rings, N, n_bands, m); a plane's two boundary rings go in one call,
    and so do the boundary rings of all planes whose rings have one length.

    At the two fixed points the sewing matrix S is rotated to the standard
    symplectic form, for all rings at once: by [[0, 1], [S_10 / |S_10|, 0]]
    when m = 2, the basis `linalg.kramers_canonical` finds there, and by
    that function per fixed point when m > 2.  Between them the gauge is
    the seed's line transport (`bloch._transport_last_axis`) of the half
    rings j in [0, N/2), all rings at once, its holonomy spread towards the
    canonical frames at N/2, and the second half of each ring is the
    time-reversal mirror of the first.  A singular link fails
    `_ring_phase_sum`'s determinant test instead.
    """
    N, m = rings.shape[1], rings.shape[-1]
    half = N // 2
    v = _empty_stack(rings.shape)
    v[...] = rings
    x = v[:, [0, half]]  # (rings, 2 fixed points, n_bands, m)
    s = _dag(x) @ U @ x.conj()
    mag = np.abs(s[..., 1, 0])
    if (np.abs(s + np.swapaxes(s, -1, -2)).max() > 1e-6
            or m == 2 and mag.min() < 1e-6):
        raise BoundaryGaugeFailure(
            "sewing matrix at a ring fixed point is not skew unitary; the "
            "ring is not inversion-stable or the bands are not gapped on it")
    if m == 2:
        basis = np.zeros_like(s)
        basis[..., 0, 1], basis[..., 1, 0] = 1.0, s[..., 1, 0] / mag
    else:
        basis = np.vectorize(kramers_canonical, signature="(m,m)->(m,m)")(s)
    v[:, [0, half]] = x @ basis
    _transport_last_axis(v[:, :half], end=v[:, half])
    # mirror half: the partner of j is N - j, and the trivial sewing matrix
    # is _W0 on each Kramers pair
    v[:, N - 1:half:-1] = -(U @ v[:, 1:half].conj()) @ np.kron(
        np.eye(m // 2), _W0)
    return v


def _ring_phase_sum(v: np.ndarray) -> float:
    """Total Berry phase of a ring gauge: sum of principal link-det phases."""
    link = np.einsum("jba,jbc->jac", v.conj(), np.roll(v, -1, axis=0))
    dets = batched_det(link)
    if np.abs(dets).min() < 1e-8:
        raise BoundaryGaugeFailure("degenerate ring link; undersampled ring")
    return float(np.angle(dets).sum())


def _plane_raw(flux, bottom, top) -> float:
    """The plane count before rounding: boundary Berry phases of the gauged
    rings n1 = N/2 (bottom) and n1 = 0 (top) against the Berry flux over
    the half plane n1 in [N/2, N-1], from the plane's plaquette fluxes.

    Both ring phases are summed towards increasing n0.  The boundary of the
    half plane runs the bottom ring that way and the top ring (n1 = N) the
    other way, so the flux is phi(bottom) - phi(top) mod 2 pi in any gauge,
    and (phi(bottom) - phi(top) - flux) / 2 pi is an integer."""
    fsum = float(flux[:, flux.shape[1] // 2:].sum())
    return ((_ring_phase_sum(bottom) - _ring_phase_sum(top) - fsum)
            / (2 * np.pi))


def _plane_raws(field: FrameField, U: np.ndarray) -> list:
    """Raw counts of a frame field's invariant planes, in the key order of
    `FrameField.plane_fluxes`.  The fluxes are the ones the field traced for
    its Chern check: each plane is traced once per field.

    The boundary rings n1 = N/2 and n1 = 0 of all planes whose rings have
    one length are gauged together, one `_ring_tr_gauge` call per length.
    When the field is k-independent (`bloch.FrameField.k_independent`)
    those rings are all equal, and the call gauges the first alone: the
    gauge treats each ring on its own, so every ring's gauge is bitwise
    that one.
    """
    planes = {k: field.restrict_plane(*k[2:]).frames if k[2] is not None
              else field.frames for k in field.plane_fluxes}
    gauged = {}
    for n in sorted({u.shape[0] for u in planes.values()}):
        group = [k for k, u in planes.items() if u.shape[0] == n]
        rings = np.stack([planes[k][:, j] for k in group
                          for j in (planes[k].shape[1] // 2, 0)])
        v = (np.broadcast_to(_ring_tr_gauge(rings[:1], U), rings.shape)
             if field.k_independent else _ring_tr_gauge(rings, U))
        gauged.update(zip(group, v.reshape((len(group), 2) + v.shape[1:])))
    return [_plane_raw(field.plane_fluxes[k], *gauged[k]) for k in planes]


def plane_flux_margin(field: FrameField) -> float:
    """The planes route's residual: the largest |plaquette flux| over the
    field's invariant planes (`FrameField.plane_fluxes`), divided by pi.

    A plane's raw count is an integer to rounding on every input, since its
    plaquette sum telescopes, so its distance from the integer gates
    nothing.  What can fail is the principal branch of a plaquette: a flux
    near +-pi is a plaquette the grid undersamples, and the margin rises
    towards 1 as the grid coarsens."""
    return max(float(np.abs(flux).max())
               for flux in field.plane_fluxes.values()) / np.pi


def km_plane_invariant(frames2d: FrameField, theta) -> tuple:
    """The 2D invariant of an inversion-stable plane.

    Berry fluxes are summed over the half plane n1 in [N/2, N-1] (they are
    gauge independent, so the raw frames suffice), while the two boundary
    rings n1 = N/2 and n1 = 0 get time-reversal-constrained gauges whose
    Berry phases close the Stokes balance: the half plane's boundary runs
    the ring n1 = N/2 towards increasing n0 and the ring n1 = 0 towards
    decreasing n0 (`_plane_raw`).  The total is 2*pi times an integer whose
    parity is the invariant.  Returns (parity, raw integer estimate before
    rounding).
    """
    if frames2d.grid.dim != 2:
        raise InvariantError("plane invariant expects a 2-d frame field")
    raw, = _plane_raws(frames2d, theta.U)
    parity, _ = _round_parity(raw)
    return parity, raw


def km_weak_strong(raw: FrameField, theta) -> tuple:
    """Weak and strong indices from the six inversion-stable planes.

    For each axis the invariants of its two stable planes (momentum 0 and
    pi) multiply to the strong index; the three axis estimates must agree.
    weak[a] is the invariant of the momentum-pi plane normal to axis a.
    The six planes are counted as by `km_plane_invariant`, in one
    `_plane_raws` call.
    Returns (strong, weak triple, per-plane dict keyed by (axis, index)).
    """
    grid = raw.grid
    if grid.dim != 3:
        raise InvariantError("weak/strong indices require a 3-d frame field")
    nu = {k[2:]: _round_parity(r)[0]  # keyed (axis, index)
          for k, r in zip(raw.plane_fluxes, _plane_raws(raw, theta.U))}
    strong_by_axis = [nu[(a, 0)] * nu[(a, grid.sizes[a] // 2)]
                      for a in range(3)]
    if len(set(strong_by_axis)) != 1:
        raise AxisInconsistency(
            f"strong index differs between axis pairings: {strong_by_axis}")
    weak = tuple(nu[(a, 0)] for a in range(3))  # momentum-pi planes
    return strong_by_axis[0], weak, nu


def km_wzw(wfield: SewingField) -> tuple:
    """Degree integral of the sewing map and its parity.

    Returns (integral, parity); the integral must land within 0.25 of an
    integer, and its parity is the invariant.
    """
    integral = float(wzw_density(wfield).sum())
    parity, _ = _round_parity(integral)
    return integral, parity


def km_winding(wfield: SewingField) -> tuple:
    """The degree integral resummed as a family of slice contributions.

    Each slice of the last axis contributes s_j; the rounded total is the
    winding index, identical by construction to the rounding in km_wzw.
    Returns (index, parity, per-slice series).
    """
    series = wzw_density(wfield).sum(axis=(0, 1))
    total = float(series.sum())
    parity, _ = _round_parity(total)
    return int(round(total)), parity, series


def km_chern_simons(conn: ConnectionField, wfield: SewingField) -> tuple:
    """Chern-Simons integral of a quaternionically averaged connection.

    cs = -(1/8 pi^2) * integral of tr(A dA + (2/3) A^3), the sign fixed so
    that cs = -(1/2) * (degree integral) for an averaged connection; the
    derivative is taken spectrally (the averaged field is smooth and
    periodic, so Fourier differentiation is far more accurate than any local
    stencil here).  cs sits within discretization error of a half-integer.
    A k-independent connection (`bloch.ConnectionField.k_independent`)
    takes its cubic term on node 0 alone, copied to every node and summed
    over the grid (`bloch._on_node0`), and skips its six derivative terms:
    dA = 0, while the spectral derivative of a constant is zero only to
    rounding.
    Returns (cs, parity, relation_residual).
    """
    if not conn.quaternionic_residual <= 1e-6:  # also catches NaN
        raise UnaveragedConnection(
            f"connection residual {conn.quaternionic_residual:.2e} exceeds "
            "1e-6; average it first")
    grid = conn.grid
    if grid.dim != 3:
        raise InvariantError("the Chern-Simons integral needs a 3-d grid")
    A = conn.A  # (3, *sizes, m, m), anti-Hermitian

    def dmu(f, mu):
        n = grid.sizes[mu]
        wave = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, period 2pi
        shape = [1] * f.ndim
        shape[mu] = n
        return np.fft.ifft(np.fft.fft(f, axis=mu) * (1j * wave.reshape(shape)),
                           axis=mu)

    const = conn.k_independent
    total = (2.0 / 3.0) * _on_node0(_antisym_trace3, (A,), 3, const,
                                    grid.sizes, np.empty).sum()
    if not const:
        for (m0, m1, m2), s in _PERMS3:
            total += s * np.einsum("...ab,...ba->...", A[m0],
                                   dmu(A[m2], m1)).sum()
    cs = -float((total * grid.cell_volume()).real) / (8 * np.pi ** 2)
    wzw_integral = float(wzw_density(wfield).sum())
    relation_residual = abs(cs + 0.5 * wzw_integral)
    if relation_residual > 0.1:
        raise NonConvergent(
            f"Chern-Simons / degree relation off by {relation_residual:.3f}")
    # parity is exp(2 pi i cs) rounded: odd multiples of 1/2 give -1
    parity, _ = _round_parity(cs, lattice=0.5)
    return cs, parity, relation_residual


def km_s3(model, mesh_size: int = S3_MESH) -> dict:
    """Invariant of a sphere-domain model by quadrature and localisation.

    Integrates the degree density of the sewing map over the whole sphere
    (upsilon estimate) and localises it onto the two poles; the pole values
    add up to the quadrature exactly, the north pole carrying the full
    integer in this descent convention.  Returns a dict with parity,
    upsilon, rho0_N, rho0_S and the discarded asymmetric 1-norm.  Only
    ``dirac_s3`` has a smooth S^3 gauge here; other sphere models raise
    `sphere.UnsupportedSphereModel`.
    """
    from .sphere import (SphereMesh, sphere_frames, sphere_sewing,
                         sphere_wzw_density, hemisphere_descent)
    mesh = SphereMesh.cubic(mesh_size)
    frames = sphere_frames(model, mesh)
    w = sphere_sewing(frames, model.theta, mesh)
    dens, discarded = sphere_wzw_density(w, mesh)
    trace = hemisphere_descent(dens, mesh)
    upsilon = trace["total"]
    parity, resid = _round_parity(upsilon)
    return {
        "parity": parity,
        "upsilon": upsilon,
        "residual": resid,
        "rho0_N": trace["rho0_N"],
        "rho0_S": trace["rho0_S"],
        "discarded": discarded,
        "level_integrals": trace["level_integrals"],
    }


def assemble_report(model_desc: dict, grid: BZGrid,
                    method_outputs: dict) -> dict:
    """Combine per-method outputs into the JSON report.

    method_outputs maps method name to a dict with at least {"parity", "raw",
    "residual", "runtime_ms"}; non-convergent methods may instead carry an
    {"error"} entry, which also goes into the notes, and the "residual" the
    route measured before it refused, if any.  Consensus is true iff at
    least one parity was computed and all computed parities agree.
    """
    methods, parities, notes = {}, set(), []
    for name, out in method_outputs.items():
        if "error" in out:
            methods[name] = {"error": out["error"]}
            if "residual" in out:
                methods[name]["residual"] = float(out["residual"])
            notes.append(f"{name}: {out['error']}")
            continue
        methods[name] = {
            "parity": int(out["parity"]),
            "raw": float(out["raw"]),
            "residual": float(out["residual"]),
            "runtime_ms": float(out.get("runtime_ms", 0.0)),
        }
        parities.add(int(out["parity"]))
    planes = method_outputs.get("planes", {})
    return {
        "model": model_desc,
        "grid": list(grid.sizes),
        "methods": methods,
        "trim_pfaffians": [[p.real, p.imag] for p in method_outputs.get(
            "pfaffian", {}).get("pfaffians", [])],
        "weak": list(planes.get("weak", [])),
        "strong": planes.get("parity"),
        "consensus": len(parities) == 1,
        "notes": notes,
    }
