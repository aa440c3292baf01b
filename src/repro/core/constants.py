"""Shared numeric tolerances for the scheduling core.

One named epsilon instead of scattered ``1e-9`` literals: every gate that
compares simulated times or release clocks (the pool's release gate, the
kernel's sleep/wake predicates, τ acceptance, horizon eligibility) must
use the *same* tolerance, or two sides of one comparison can disagree by
a rounding error — the kernel once woke machines one event early because
its sleep computation subtracted the epsilon the release gate *adds*
(see ``SchedulingKernel._serve_machine``).

This module is a leaf: it imports nothing, so it is safely importable
from ``repro.sim`` while ``repro.core`` is still initialising.
"""

#: Absolute tolerance for simulated-time and release-clock comparisons.
EPSILON: float = 1e-9

#: Tolerance of every energy-budget verdict: a demand fits a budget *b*
#: when it is at most ``b * (1 + BUDGET_TOLERANCE) + BUDGET_TOLERANCE``
#: (relative round-off on a large budget, absolute on an empty one).  The
#: planning verdict (``Schedule._demand_shortfall``), rule (b)
#: (``FeasibilityChecker.is_feasible``) and the hoisted thresholds of the
#: columnar pool and the static slot store all read it, so a plan the
#: pool admits is one the schedule will commit.
BUDGET_TOLERANCE: float = 1e-12
