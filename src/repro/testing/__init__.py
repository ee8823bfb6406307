"""Test-support utilities shipped with the library.

Currently home to the deterministic fault-injection harness
(:mod:`repro.testing.faults`) used by the chaos tests and available to
downstream users who want to rehearse their own degradation paths —
both the router-level faults (search failures, claim corruption) and
the service-level ones (worker death/wedge schedules, cache-file
corruption helpers) and the process-pool ones (pool worker death/wedge
schedules).
"""

from repro.testing.faults import (
    CORRUPT_OWNER,
    FaultInjector,
    FaultPlan,
    PoolFaultPlan,
    ServiceFaultPlan,
    StepClock,
    flip_byte,
    pool_faults,
    service_faults,
    truncate_file,
)

__all__ = [
    "CORRUPT_OWNER",
    "FaultInjector",
    "FaultPlan",
    "PoolFaultPlan",
    "ServiceFaultPlan",
    "StepClock",
    "flip_byte",
    "pool_faults",
    "service_faults",
    "truncate_file",
]
