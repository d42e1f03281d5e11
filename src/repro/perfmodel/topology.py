"""Interconnect topologies: hop counts between ranks.

The paper's communication study (Section VI) motivates "appropriate
latency and bandwidth models for the machines"; message latency in a
real cluster depends on how many switch/link hops separate two ranks.
This module provides hop-count models for the three shapes that matter
for Nek-family codes:

* :class:`FlatTopology` — every pair one hop (a single crossbar); the
  simplest useful model.
* :class:`FatTreeTopology` — ranks packed ``ranks_per_node`` to a node,
  nodes packed ``nodes_per_switch`` to a leaf switch, leaf switches
  joined by a core level.  Matches Compton (42 dual-socket nodes on
  Mellanox Infiniscale IV QDR).
* :class:`TorusTopology` — a 3-D torus with dimension-ordered routing,
  the BG/Q-style network Nek5000 scaling studies ran on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


class Topology:
    """Base class: maps a pair of world ranks to a hop count."""

    def hops(self, src: int, dst: int) -> int:
        raise NotImplementedError

    def hops_batch(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hops` over aligned rank arrays.

        The base implementation loops over the scalar method; concrete
        topologies override it with pure-numpy arithmetic that produces
        exactly the same integers.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        flat_s, flat_d = np.broadcast_arrays(src, dst)
        out = np.fromiter(
            (
                self.hops(int(s), int(d))
                for s, d in zip(flat_s.ravel(), flat_d.ravel())
            ),
            dtype=np.int64,
            count=flat_s.size,
        )
        return out.reshape(flat_s.shape)


@dataclass(frozen=True)
class FlatTopology(Topology):
    """Uniform network: one hop between any two distinct ranks."""

    def hops(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def hops_batch(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        return np.where(src == dst, 0, 1).astype(np.int64)


@dataclass(frozen=True)
class FatTreeTopology(Topology):
    """Two-level fat tree.

    Hop counts: 0 within a rank (self), 1 within a node (shared
    memory), 2 within a leaf switch, 4 across the core level.
    """

    ranks_per_node: int = 16
    nodes_per_switch: int = 18

    def __post_init__(self) -> None:
        if self.ranks_per_node < 1 or self.nodes_per_switch < 1:
            raise ValueError("fat-tree parameters must be >= 1")

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        node_s, node_d = src // self.ranks_per_node, dst // self.ranks_per_node
        if node_s == node_d:
            return 1
        sw_s = node_s // self.nodes_per_switch
        sw_d = node_d // self.nodes_per_switch
        return 2 if sw_s == sw_d else 4

    def hops_batch(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        node_s = src // self.ranks_per_node
        node_d = dst // self.ranks_per_node
        sw_s = node_s // self.nodes_per_switch
        sw_d = node_d // self.nodes_per_switch
        out = np.where(sw_s == sw_d, 2, 4)
        out = np.where(node_s == node_d, 1, out)
        out = np.where(src == dst, 0, out)
        return out.astype(np.int64)

    def same_node(self, src: int, dst: int) -> bool:
        """True when both ranks live on the same physical node."""
        return src // self.ranks_per_node == dst // self.ranks_per_node

    def same_node_batch(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`same_node` over aligned rank arrays."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        return src // self.ranks_per_node == dst // self.ranks_per_node


@dataclass(frozen=True)
class TorusTopology(Topology):
    """3-D torus with dimension-ordered (Manhattan, wrap-around) routing.

    Ranks are laid out lexicographically on ``shape = (px, py, pz)``
    with x fastest, matching :mod:`repro.mesh.partition`.
    """

    shape: Tuple[int, int, int] = (8, 8, 4)

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.shape):
            raise ValueError(f"bad torus shape {self.shape}")

    @property
    def nranks(self) -> int:
        px, py, pz = self.shape
        return px * py * pz

    def coords(self, rank: int) -> Tuple[int, int, int]:
        """Rank -> (x, y, z) coordinates, x fastest."""
        px, py, pz = self.shape
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} outside torus {self.shape}")
        return rank % px, (rank // px) % py, rank // (px * py)

    @staticmethod
    def _ring_dist(a: int, b: int, n: int) -> int:
        d = abs(a - b)
        return min(d, n - d)

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        cs, cd = self.coords(src), self.coords(dst)
        return sum(
            self._ring_dist(a, b, n) for a, b, n in zip(cs, cd, self.shape)
        )

    def hops_batch(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        px, py, pz = self.shape
        if src.size and (
            src.min() < 0
            or dst.min() < 0
            or src.max() >= self.nranks
            or dst.max() >= self.nranks
        ):
            raise ValueError(f"rank outside torus {self.shape}")
        total = np.zeros(np.broadcast(src, dst).shape, dtype=np.int64)
        for a, b, n in (
            (src % px, dst % px, px),
            ((src // px) % py, (dst // px) % py, py),
            (src // (px * py), dst // (px * py), pz),
        ):
            d = np.abs(a - b)
            total = total + np.minimum(d, n - d)
        return total
