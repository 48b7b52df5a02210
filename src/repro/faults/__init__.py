"""repro.faults: seeded, composable fault injection for the registry stack.

The paper's 30-day crawl lived through real weather — sharded-search 5xx,
rate limiting, flapping connections, bodies that arrived short. This
package reproduces that weather on demand so the pipeline's resilience is
a tested property instead of a hope:

* :mod:`~repro.faults.rules` — declarative fault rules and schedules;
* :mod:`~repro.faults.injector` — the deterministic per-request planner;
* :mod:`~repro.faults.session` — middleware over any session surface;
* :mod:`~repro.faults.plans` — named, repeatable chaos scenarios;
* :mod:`~repro.faults.atrest` — silent blob-store corruption (the fault
  :class:`~repro.ha.scrub.BlobScrubber` exists to catch);
* :mod:`~repro.faults.chaos` — the end-to-end exercise behind
  ``repro chaos``, with resilience invariants (clock, report base and
  hub set-up come from :mod:`repro.exercise`).
"""

from repro.faults.atrest import (
    corrupt_at_rest,
    corrupt_shard_at_rest,
    corrupt_some_at_rest,
)
from repro.faults.chaos import ChaosReport, run_chaos
from repro.faults.events import EVENT_KINDS, ShardEvent, plan_shard_events
from repro.faults.injector import FaultInjector, RequestFaults
from repro.faults.plans import build_plan, plan_names
from repro.faults.session import FaultInjectingSession
from repro.faults.rules import FaultRule, Schedule

__all__ = [
    "ChaosReport",
    "EVENT_KINDS",
    "ShardEvent",
    "corrupt_at_rest",
    "corrupt_shard_at_rest",
    "corrupt_some_at_rest",
    "FaultInjectingSession",
    "FaultInjector",
    "FaultRule",
    "RequestFaults",
    "Schedule",
    "build_plan",
    "plan_names",
    "plan_shard_events",
    "run_chaos",
]
