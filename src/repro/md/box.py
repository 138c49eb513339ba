"""Orthorhombic periodic box with minimum-image arithmetic.

All distance computations in the engine go through this module so the
periodic convention lives in exactly one place.  Vector routines accept
arbitrary leading shapes and are fully numpy-vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """An orthorhombic periodic cell with edge lengths ``lengths`` (nm)."""

    lengths: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.lengths) != 3 or any(l <= 0 for l in self.lengths):
            raise ValueError(f"box needs three positive edge lengths: {self.lengths}")

    @classmethod
    def cubic(cls, edge: float) -> "Box":
        return cls((edge, edge, edge))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.lengths, dtype=np.float64)

    @property
    def volume(self) -> float:
        lx, ly, lz = self.lengths
        return lx * ly * lz

    @property
    def min_edge(self) -> float:
        return min(self.lengths)

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into [0, L) per dimension (out-of-place)."""
        pos = np.asarray(positions, dtype=np.float64)
        return np.mod(pos, self.array)

    def minimum_image(self, dr: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors."""
        dr = np.asarray(dr, dtype=np.float64)
        box = self.array
        return dr - box * np.round(dr / box)

    def displacement(self, r_a: np.ndarray, r_b: np.ndarray) -> np.ndarray:
        """Minimum-image displacement(s) ``r_a - r_b``."""
        return self.minimum_image(np.asarray(r_a, dtype=np.float64) - np.asarray(r_b, dtype=np.float64))

    def distance(self, r_a: np.ndarray, r_b: np.ndarray) -> np.ndarray:
        """Minimum-image distance(s) between position arrays."""
        d = self.displacement(r_a, r_b)
        return np.sqrt(np.sum(d * d, axis=-1))

    def check_cutoff(self, r_cut: float) -> None:
        """Raise if ``r_cut`` violates the minimum-image requirement."""
        if r_cut <= 0:
            raise ValueError(f"cutoff must be positive: {r_cut}")
        if 2.0 * r_cut > self.min_edge:
            raise ValueError(
                f"cutoff {r_cut} nm needs a box edge of at least {2 * r_cut} nm; "
                f"box is {self.lengths}"
            )


def minimum_image_fold(
    cols: np.ndarray,
    box_arr: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    d: np.ndarray,
    r2: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """Minimum-image ``cols[:, ii] - cols[:, jj]`` into ``d[:, :n]``
    (``n = len(ii)``); returns ``r2[:n]``, the squared distances.

    ``cols`` holds positions one column per coordinate, ``(3, slots)``;
    ``d`` (3 rows), ``r2`` and the scratch ``t`` are caller-owned and at
    least ``n`` long, so a blocked caller allocates them once.  The
    result is bitwise that of `Box.minimum_image` on the ``(n, 3)``
    displacements followed by ``np.sum(dr * dr, axis=-1)``: the same
    elementwise operations in the same order, one column at a time
    (gather, subtract, divide by the edge, round, multiply, subtract),
    and ``r2`` accumulates ``x*x + y*y + z*z`` left to right, as
    ``np.sum`` over a 3-element axis does.  Every image is rounded
    afresh from the given positions, so the fold never goes stale when
    a particle crosses a face.  ``box_arr`` carries the arithmetic's
    dtype (float32 edges for float32 columns).
    """
    n = len(ii)
    t = t[:n]
    for c in range(3):
        dc = d[c, :n]
        np.take(cols[c], ii, out=dc, mode="clip")
        np.take(cols[c], jj, out=t, mode="clip")
        dc -= t
        np.divide(dc, box_arr[c], out=t)
        np.round(t, out=t)
        t *= box_arr[c]
        dc -= t
    r2 = r2[:n]
    np.multiply(d[0, :n], d[0, :n], out=r2)
    np.multiply(d[1, :n], d[1, :n], out=t)
    r2 += t
    np.multiply(d[2, :n], d[2, :n], out=t)
    r2 += t
    return r2
