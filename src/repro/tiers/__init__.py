"""Tiered cache hierarchy simulation (client -> edge -> sharded origin)."""

from repro.tiers.exercise import TiersExerciseReport, run_tiers_exercise
from repro.tiers.sim import (
    DEFAULT_EDGE_FRACS,
    DEFAULT_POLICIES,
    TIERS_REPORT_VERSION,
    TiersConfig,
    TiersReport,
    simulate_tiers,
)

__all__ = [
    "DEFAULT_EDGE_FRACS",
    "DEFAULT_POLICIES",
    "TIERS_REPORT_VERSION",
    "TiersConfig",
    "TiersExerciseReport",
    "TiersReport",
    "run_tiers_exercise",
    "simulate_tiers",
]
