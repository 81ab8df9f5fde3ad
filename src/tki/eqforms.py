"""Cubical cochain calculus on torus grids with the momentum inversion.

Real-valued p-cochains live on oriented p-cubes of a uniform torus grid:
one value per node and per size-p subset of axes (the cube spanned by those
axes, anchored at the node).  The module provides the exterior derivative,
the pullback along the inversion k -> -k, the splitting into even/odd parts,
and a dimension-descending localisation: an inversion-odd top cochain is
repeatedly trivialized on half the torus and pushed to the boundary tori,
ending with one number per inversion-fixed node whose sum equals the
original integral exactly (up to floating-point roundoff).
`localise` is the one implementation of the descent step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .grids import BZGrid
from .bloch import RoughGauge, SewingField, wzw_density
from .linalg import batched_spectral_norm


class EqformsError(ValueError):
    pass


class TopDegree(EqformsError):
    pass


class WrongDegree(EqformsError):
    pass


class ParityViolation(EqformsError):
    pass


def _components(dim: int, degree: int):
    """Sorted axis subsets indexing the components of a degree-p cochain."""
    return list(combinations(range(dim), degree))


@dataclass(frozen=True)
class Cochain:
    """A real p-cochain: values[i] is the field of the i-th axis subset."""

    grid: BZGrid
    degree: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.degree <= self.grid.dim:
            raise WrongDegree(f"degree {self.degree} out of range")
        comps = _components(self.grid.dim, self.degree)
        vals = np.asarray(self.values, dtype=float)
        want = (len(comps),) + self.grid.sizes
        if vals.shape != want:
            raise EqformsError(f"values shape {vals.shape}, expected {want}")
        if not np.all(np.isfinite(vals)):
            raise EqformsError("cochain values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def components(self):
        return _components(self.grid.dim, self.degree)

    @classmethod
    def zeros(cls, grid: BZGrid, degree: int) -> "Cochain":
        n = len(_components(grid.dim, degree))
        return cls(grid, degree, np.zeros((n,) + grid.sizes))

    @classmethod
    def from_density(cls, grid: BZGrid, density: np.ndarray) -> "Cochain":
        """Top cochain whose single component is the given per-cube field."""
        return cls(grid, grid.dim, np.asarray(density, dtype=float)[np.newaxis])

    def norm1(self) -> float:
        return float(np.abs(self.values).sum())


def d(c: Cochain) -> Cochain:
    """Exterior derivative (coboundary).  d(d(c)) = 0 exactly."""
    if c.degree >= c.grid.dim:
        raise TopDegree("cannot raise the degree of a top cochain")
    dim = c.grid.dim
    src = {S: c.values[i] for i, S in enumerate(c.components)}
    out = []
    for T in _components(dim, c.degree + 1):
        acc = np.zeros(c.grid.sizes)
        for j, a in enumerate(T):
            S = T[:j] + T[j + 1:]
            f = src[S]
            acc += (-1.0) ** j * (np.roll(f, -1, axis=a) - f)
        out.append(acc)
    return Cochain(c.grid, c.degree + 1, np.stack(out))


def _subset_involution(grid: BZGrid, S) -> tuple:
    """Index map realizing the inversion on cubes spanned by axes S:
    the anchor goes to -n - sum_{a in S} e_a (mod N)."""
    idx = []
    for a, n in enumerate(grid.sizes):
        off = 1 if a in S else 0
        idx.append((-np.arange(n) - off) % n)
    return np.ix_(*idx)


def involution_pullback(c: Cochain) -> Cochain:
    """Pullback along k -> -k; an exact involution.

    A p-cube spanned by axes S anchored at n maps to the cube with the same
    axes anchored at -n - sum_{a in S} e_a, and each inverted axis reverses
    orientation, contributing a sign (-1)^p.
    """
    sign = (-1.0) ** c.degree
    out = np.empty_like(c.values)
    for i, S in enumerate(c.components):
        out[i] = sign * c.values[i][_subset_involution(c.grid, S)]
    return Cochain(c.grid, c.degree, out)


def project_pm(c: Cochain):
    """Split into the inversion-even and inversion-odd parts.

    Returns (plus, minus) with plus + minus = c, pullback(plus) = plus and
    pullback(minus) = -minus, all exact.
    """
    pb = involution_pullback(c)
    plus = Cochain(c.grid, c.degree, 0.5 * (c.values + pb.values))
    minus = Cochain(c.grid, c.degree, c.values - plus.values)
    return plus, minus


def integrate(c: Cochain, region: str = "all", axis: int = None) -> float:
    """Integral of a top cochain: the sum of its cube values.

    region "all" sums every cube; "fundamental_domain" sums anchors with
    n_axis in [N/2, N-1] (axis defaults to the grid's fundamental-domain
    axis).  The two halves add up to the full integral exactly.
    """
    if c.degree != c.grid.dim:
        raise WrongDegree("integration requires a top cochain")
    if region == "all":
        return float(c.values.sum())
    if region != "fundamental_domain":
        raise EqformsError(f"unknown region {region!r}")
    a = c.grid.fdomain_axis if axis is None else axis % c.grid.dim
    n = c.grid.sizes[a]
    sel = [slice(None)] * (c.grid.dim + 1)
    sel[a + 1] = slice(n // 2, n)
    return float(c.values[tuple(sel)].sum())


@dataclass(frozen=True)
class LocalisationTrace:
    """Record of a full localisation descent.

    levels: per descent step (dimension d, rho, eta, integral), where rho is
    the top cochain being descended at that dimension and integral is its
    slice sum; fixed_values maps each inversion-fixed node index tuple to its
    final number; total is the integral of the input cochain.
    """

    grid: BZGrid
    axes: tuple
    levels: tuple
    fixed_values: dict
    total: float

    def as_dict(self) -> dict:
        return {
            "axes": list(self.axes),
            "total": self.total,
            "level_integrals": [
                {"dimension": dim_, "integral": integral}
                for dim_, _, _, integral in self.levels
            ],
            "fixed_values": {
                ",".join(map(str, t)): v for t, v in self.fixed_values.items()
            },
        }


def localise(c: Cochain, axes=None, tol: float = 1e-10) -> LocalisationTrace:
    """Descend an inversion-odd top cochain to the inversion-fixed nodes.

    The input must satisfy pullback(c) = -c within tol relative to its
    1-norm (project with project_pm first if needed).  At each step the
    current top cochain is trivialized on half the torus along the next
    axis and replaced by its boundary push-forward; every step preserves
    the integral exactly, so the fixed-node values sum to the integral of
    the input.

    The primitive eta of each step (recorded in `levels`) has the single
    component missing its axis a; it vanishes on the base slice n_a = N/2,
    satisfies d(eta) = c on every cube anchored in [N/2, N-1] exactly, and
    stores the closing fiber sum over the half at n_a = 0.
    """
    grid = c.grid
    dim = grid.dim
    if c.degree != dim:
        raise WrongDegree("localisation starts from a top cochain")
    pb = involution_pullback(c)
    scale = max(c.norm1(), 1.0)
    if np.abs(pb.values + c.values).max() > tol * scale:
        raise ParityViolation(
            "input is not odd under the inversion; project it first")
    axes = tuple(range(dim - 1, -1, -1)) if axes is None else tuple(axes)
    if sorted(axes) != list(range(dim)):
        raise EqformsError("axes must be a permutation of the grid axes")
    total = integrate(c)
    levels = []
    remaining = list(range(dim))
    cur_field = c.values[0]
    cur = c
    for level_dim, a in zip(range(dim, 0, -1), axes):
        n = grid.sizes[a]
        s = (-1.0) ** remaining.index(a)
        # half-torus primitive along axis a, vanishing on the n_a = N/2 slice
        dens = np.moveaxis(cur_field, a, -1)
        eta_half = s * np.cumsum(dens[..., n // 2:], axis=-1)
        eta_field = np.zeros_like(dens)
        eta_field[..., n // 2 + 1:] = eta_half[..., :-1]
        eta_field[..., 0] = eta_half[..., -1]
        eta_field = np.moveaxis(eta_field, -1, a)
        S = tuple(b for b in remaining if b != a)
        eta = _single_component(grid, S, eta_field)
        # push to the two inversion-stable boundary slices
        mirrored = eta_field[_subset_involution(grid, S)]
        rho_field = np.zeros_like(eta_field)
        for slice_idx in (0, n // 2):
            sel = [slice(None)] * dim
            sel[a] = slice_idx
            sel = tuple(sel)
            rho_field[sel] = s * (eta_field[sel] + mirrored[sel])
        levels.append((level_dim, cur, eta, float(cur_field.sum())))
        cur_field = rho_field
        cur = _single_component(grid, S, rho_field)
        remaining.remove(a)
    fixed = {t: float(cur_field[t]) for t in grid.trims}
    levels.append((0, cur, None, float(cur_field.sum())))
    return LocalisationTrace(grid, axes, tuple(levels), fixed, total)


def _single_component(grid: BZGrid, S, field_values: np.ndarray) -> Cochain:
    """Cochain of degree |S| whose only nonzero component is the subset S."""
    out = Cochain.zeros(grid, len(S))
    vals = out.values.copy()
    vals[out.components.index(S)] = field_values
    return Cochain(grid, len(S), vals)


def sample_wzw(wfield: SewingField, smoothness_limit: float = 0.3):
    """Sample the trivialisation 3-density of an SU-reduced sewing field as
    a top cochain and project out its inversion-even part.

    Returns (cochain, discarded) where cochain is exactly inversion-odd and
    discarded is the 1-norm of the removed even part (a discretization
    artifact that must shrink under grid refinement).  Raises RoughGauge
    when the field varies too fast between neighbouring nodes for the link
    logarithms to be trustworthy.
    """
    grid = wfield.grid
    if grid.dim != 3:
        raise WrongDegree("the trivialisation density lives on 3-d grids")
    w = wfield.w
    worst = 0.0
    for a in range(3):
        diff = np.roll(w, -1, axis=a) - w
        worst = max(worst, float(batched_spectral_norm(diff).max()))
    if worst > smoothness_limit:
        raise RoughGauge(
            f"sewing field link deficiency {worst:.3f} exceeds "
            f"{smoothness_limit}")
    c = Cochain.from_density(grid, wzw_density(wfield))
    plus, minus = project_pm(c)
    return minus, plus.norm1()
