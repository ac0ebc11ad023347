"""Shared utilities: seeded RNG, simulated clock, logging."""

from repro.utils.clock import SECONDS_PER_CYCLE, SimulatedClock, TemporalContext
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequencer, default_rng, spawn

__all__ = [
    "SECONDS_PER_CYCLE",
    "SimulatedClock",
    "TemporalContext",
    "get_logger",
    "SeedSequencer",
    "default_rng",
    "spawn",
]
