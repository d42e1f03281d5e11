"""When to rebalance: threshold, hysteresis, and cadence modes.

The policy is evaluated identically on every rank from identically
allgathered cost data, so rebalance decisions are collective-consistent
by construction — no extra vote is needed.

Modes
-----
``off``
    Never rebalance (the default; zero overhead, zero behavior change).
``auto``
    Rebalance when the measured max/mean cost imbalance exceeds
    ``threshold``, subject to ``min_interval`` steps of hysteresis
    since the last rebalance (migration is not free; chasing noise
    churns the mesh for nothing).
``every``
    Unconditionally rebalance every ``every`` steps (the manual-cadence
    mode CMT-nek exposes for studies).
``manual``
    Only when the host explicitly forces it.
"""

from __future__ import annotations

from dataclasses import dataclass

MODES = ("off", "auto", "every", "manual")


@dataclass(frozen=True)
class RebalancePolicy:
    """Decision rule driving :class:`repro.lb.manager.LoadBalancer`."""

    mode: str = "off"
    #: Max/mean cost-imbalance trigger for ``auto`` (1.0 = perfect).
    threshold: float = 1.10
    #: Cadence (steps) for ``every`` mode.
    every: int = 0
    #: Minimum steps between rebalances (``auto`` hysteresis).
    min_interval: int = 4

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"lb mode {self.mode!r} not in {MODES}")
        if self.threshold < 1.0:
            raise ValueError(f"threshold {self.threshold} must be >= 1.0")
        if self.mode == "every" and self.every < 1:
            raise ValueError("mode 'every' needs every >= 1")

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def wants_check(self) -> bool:
        """Should costs be gathered after a step?  After every step,
        whenever the policy can fire on its own."""
        return self.enabled and self.mode != "manual"

    def due(self, step: int, last_rebalance: int, imbalance: float) -> bool:
        """Rebalance after step ``step`` given the measured imbalance?"""
        if self.mode == "every":
            return (step + 1) % self.every == 0
        if self.mode == "auto":
            if step - last_rebalance < self.min_interval:
                return False
            return imbalance > self.threshold
        return False

    def describe(self) -> str:
        if self.mode == "off":
            return "lb: off"
        if self.mode == "every":
            return f"lb: every {self.every} steps"
        if self.mode == "manual":
            return "lb: manual"
        return (
            f"lb: auto (threshold={self.threshold:.3g}, "
            f"min_interval={self.min_interval})"
        )
