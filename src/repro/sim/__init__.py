"""Simulation substrate: timelines, schedules, validation, clock, DES engine.

The paper's heuristics *build* a schedule against simulated time (§IV); this
package provides the machinery they share:

* :class:`~repro.sim.timeline.IntervalTimeline` — unit-capacity resource
  calendars (machine execution slots, per-machine in/out comm channels);
* :class:`~repro.sim.schedule.Schedule` — the mutable mapping state: plan a
  tentative (subtask, version, machine) assignment with all incoming
  communications, then commit or discard it;
* :mod:`~repro.sim.validate` — independent checking of every simulation
  assumption against a finished schedule;
* :class:`~repro.sim.clock.SimulationClock` — the 0.1 s-cycle clock driving
  the SLRH loop;
* :mod:`~repro.sim.engine` — an event-driven executor that *runs* a schedule,
  and :func:`~repro.sim.engine.rollback_machine`, the one machine-loss rule
  (the ad hoc scenario of §I); loss and rejoin timelines replay through
  :func:`repro.session.run_with_events`.
"""

from repro.sim.clock import SimulationClock
from repro.sim.engine import ExecutionLog, execute_schedule
from repro.sim.schedule import Assignment, ExecutionPlan, PlannedComm, Schedule
from repro.sim.timeline import IntervalTimeline
from repro.sim.trace import MappingTrace, TraceRecord
from repro.sim.validate import ValidationError, validate_schedule

__all__ = [
    "IntervalTimeline",
    "Schedule",
    "Assignment",
    "ExecutionPlan",
    "PlannedComm",
    "SimulationClock",
    "MappingTrace",
    "TraceRecord",
    "validate_schedule",
    "ValidationError",
    "ExecutionLog",
    "execute_schedule",
]
