"""Live-grid streaming sessions (ROADMAP item 3; §I, §VIII of the paper).

The paper's ad hoc grid is defined by assets that "can — and frequently
do — appear and disappear from the grid at unanticipated times", and its
§VIII names dynamic machine loss as future work.  This package makes that
churn a first-class *online* workload: a session holds one mutable
:class:`~repro.sim.schedule.Schedule` plus one persistent
:class:`~repro.core.kernel.SchedulingKernel`, consumes a stream of grid
events (task arrivals, machine losses and rejoins, clock advances) and
replans incrementally between them — never a from-scratch rebuild unless
the differential oracle mode (``kernel="rebuild"``) is forced.

Layers:

* :mod:`repro.session.events` — the event grammar
  (:class:`SessionEvent`), JSON parsing and a deterministic synthetic
  event generator for benchmarks and smoke tests;
* :mod:`repro.session.engine` — :class:`SessionEngine`, the replanning
  state machine, and :func:`run_with_events`, the offline replay that is
  the byte-identity oracle for every streamed session and the one replay
  path for loss/rejoin (churn) timelines;
* :mod:`repro.session.codec` — NDJSON mapping *deltas*
  (:class:`DeltaEncoder` / :func:`mapping_from_delta_ndjson`), the one
  streamed mapping encoding: after each event only new, changed and
  retracted assignments are emitted, and the client reassembles them —
  in any block order — into the full final mapping.  ``map --ndjson``
  prints a finished mapping as one such block.

The HTTP surface (open a session, stream events in, stream deltas out)
lives in :mod:`repro.service.sessions`; the replan-frequency study
(ΔT × H × churn-rate sweep) in ``repro.experiments churn-sweep``.
"""

from repro.session.codec import DeltaEncoder, mapping_from_delta_ndjson
from repro.session.engine import (
    ChurnRecord,
    SessionEngine,
    SessionOutcome,
    run_with_events,
)
from repro.session.events import (
    EVENT_KINDS,
    SessionEvent,
    event_from_dict,
    synthesize_events,
)

__all__ = [
    "ChurnRecord",
    "DeltaEncoder",
    "EVENT_KINDS",
    "SessionEngine",
    "SessionEvent",
    "SessionOutcome",
    "event_from_dict",
    "mapping_from_delta_ndjson",
    "run_with_events",
    "synthesize_events",
]
