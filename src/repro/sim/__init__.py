"""Simulation substrate: timelines, schedules, validation, clock, machine loss.

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
* :func:`~repro.sim.engine.rollback_machine` — the one machine-loss rule
  (the ad hoc scenario of §I); loss and rejoin timelines replay through
  :func:`repro.session.run_with_events`.

The committed calendars are the simulation: :func:`validate_schedule`
checks that no task starts before its parents finish and its inputs
arrive, and :func:`repro.analysis.compute_stats` gives per-machine load
and utilisation.
"""

from repro.sim.clock import SimulationClock
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
]
