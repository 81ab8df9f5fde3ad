"""Uniform Brillouin-zone grids on T^d with inversion bookkeeping.

Nodes are k_a = -pi + 2 pi n_a / N_a.  The momentum inversion k -> -k acts
on indices as n -> (N - n) mod N per axis; its fixed nodes (n_a in {0, N/2})
are the time-reversal invariant momenta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class BZGrid:
    dim: int
    sizes: tuple

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GridError(f"unsupported dimension {self.dim}")
        sizes = tuple(int(n) for n in self.sizes)
        if len(sizes) != self.dim:
            raise GridError("sizes must have one entry per axis")
        for n in sizes:
            if n < 4 or n % 2:
                raise GridError("grid sizes must be even and >= 4")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def cubic(cls, dim: int, n: int) -> "BZGrid":
        return cls(dim, (n,) * dim)

    @property
    def spacings(self):
        return tuple(2 * np.pi / n for n in self.sizes)

    def axis_nodes(self, a: int) -> np.ndarray:
        n = self.sizes[a]
        return -np.pi + 2 * np.pi * np.arange(n) / n

    def node_mesh(self) -> np.ndarray:
        """Array of shape sizes + (dim,) with the momentum of every node."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def involution_indices(self, axes=()):
        """Per-axis index arrays realizing the inversion on the cubes spanned
        by `axes`: the anchor n goes to -n - sum_{a in axes} e_a (mod N).
        With no axes this is the node map n -> (N - n) mod N."""
        return np.ix_(*[(-np.arange(n) - int(a in axes)) % n
                        for a, n in enumerate(self.sizes)])

    def involute(self, values: np.ndarray, axes=()) -> np.ndarray:
        """Pull a node-indexed array back along the inversion (on the cubes
        spanned by `axes`, as `involution_indices`).  A flip and a shift of
        each axis: the same exact permutation as the index map, and the
        result keeps the memory layout of `values`."""
        every = tuple(range(self.dim))
        shifts = tuple(1 - int(a in axes) for a in every)
        return np.roll(np.flip(values, axis=every), shifts, axis=every)

    @property
    def trims(self):
        """The 2^dim inversion-fixed node index tuples."""
        return [t for t in product(*[(0, n // 2) for n in self.sizes])]

    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))
