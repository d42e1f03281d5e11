"""Structured 3-D box meshes of hexahedral spectral elements.

CMT-nek partitions the computational domain into hexahedral elements,
each discretized by ``N^3`` GLL points (Fig. 3 of the paper).  The
mini-app workloads all run on structured boxes, so this module models a
box of ``ex x ey x ez`` identical hex elements with optional periodic
wrap per direction, and the affine reference-to-physical geometry that
a structured box admits.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from ..kernels.gll import gll_points
from ..records import checked

Coord = Tuple[int, int, int]


@checked
class BoxMesh(NamedTuple):
    """A global box of hexahedral elements.

    Parameters
    ----------
    shape:
        Elements per direction, ``(ex, ey, ez)``.
    n:
        GLL points per direction per element (polynomial order + 1).
    periodic:
        Per-direction periodicity flags.
    lengths:
        Physical box extents; elements are uniform bricks.
    """

    shape: Coord
    n: int
    periodic: Tuple[bool, bool, bool] = (True, True, True)
    lengths: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    def _check(self) -> None:
        if len(self.shape) != 3 or any(s < 1 for s in self.shape):
            raise ValueError(f"bad element shape {self.shape}")
        if self.n < 2:
            raise ValueError(f"need at least 2 GLL points, got {self.n}")
        if any(l <= 0 for l in self.lengths):
            raise ValueError(f"bad box lengths {self.lengths}")

    # -- element indexing ------------------------------------------------

    @property
    def nelgt(self) -> int:
        """Total (global) element count, Nek's ``nelgt``."""
        ex, ey, ez = self.shape
        return ex * ey * ez

    # -- geometry ----------------------------------------------------------

    @property
    def element_lengths(self) -> Tuple[float, float, float]:
        """Physical edge lengths of one element."""
        return tuple(
            l / s for l, s in zip(self.lengths, self.shape)
        )  # type: ignore[return-value]

    @property
    def jacobian(self) -> Tuple[float, float, float]:
        """d(reference)/d(physical) scale per direction.

        A reference element spans [-1, 1]; physical derivative =
        reference derivative * (2 / element edge length).
        """
        return tuple(
            2.0 / h for h in self.element_lengths
        )  # type: ignore[return-value]

    def element_nodes(self, coords: Coord) -> np.ndarray:
        """Physical GLL node positions for one element.

        Returns shape ``(3, n, n, n)`` with axes (xyz, r, s, t).
        """
        xg = np.asarray(gll_points(self.n))
        hx, hy, hz = self.element_lengths
        ix, iy, iz = coords
        x = (ix + 0.5 * (xg + 1.0)) * hx
        y = (iy + 0.5 * (xg + 1.0)) * hy
        z = (iz + 0.5 * (xg + 1.0)) * hz
        out = np.empty((3, self.n, self.n, self.n))
        out[0] = x[:, None, None]
        out[1] = y[None, :, None]
        out[2] = z[None, None, :]
        return out

    def unique_points_shape(self) -> Coord:
        """Global unique point grid (continuous numbering) per direction."""
        out = []
        for s, per in zip(self.shape, self.periodic):
            npts = s * (self.n - 1)
            if not per:
                npts += 1
            out.append(npts)
        return tuple(out)  # type: ignore[return-value]
