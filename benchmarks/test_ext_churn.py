"""Extension bench — mid-run machine loss and grid churn (loss + rejoin).

The ad hoc scenario motivating the paper (§I): a machine vanishes mid-run,
the session engine rolls back its work and every descendant at the loss
cycle, and SLRH-1 replans from there on the machines still online.
Reported: a fast and a slow machine lost at τ/4, what the fast machine's
*return* at τ/2 is worth, the uninterrupted baseline, and a loss at cycle 0
— the same rule with perfect foreknowledge of the loss.
"""

from conftest import once

from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SlrhConfig
from repro.experiments.reporting import format_table
from repro.session import SessionEvent, run_with_events
from repro.sim.validate import validate_schedule

WEIGHTS = Weights.from_alpha_beta(0.5, 0.2)


def _run(scale):
    suite = scale.suite()
    scenario = suite.scenario(0, 0, "A")
    scheduler = SLRH1(SlrhConfig(weights=WEIGHTS))
    quarter = int(scenario.tau / 4 / 0.1)
    fast, slow = 1, scenario.n_machines - 1  # fast-1, slow-1

    def loss(machine, cycle=quarter):
        return SessionEvent("machine_loss", cycle, machine=machine)

    rejoin = SessionEvent("machine_rejoin", 2 * quarter, machine=fast)
    timelines = (
        ("no churn", None, []),
        ("loss only", fast, [loss(fast)]),
        ("loss + rejoin", fast, [loss(fast), rejoin]),
        ("loss only", slow, [loss(slow)]),
        ("loss at cycle 0", fast, [loss(fast, 0)]),
        ("loss at cycle 0", slow, [loss(slow, 0)]),
    )
    rows = []
    for label, machine, events in timelines:
        out = run_with_events(scenario, scheduler, events)
        final = out.final.schedule
        validate_schedule(final)
        if events and events[-1].kind == "machine_loss":
            # A permanent loss leaves nothing on the lost machine.
            assert all(a.machine != machine for a in final.assignments.values())
        rows.append(
            [label,
             "-" if machine is None else scenario.grid[machine].name,
             final.n_mapped, out.final.t100, round(out.final.aet, 1),
             out.final.complete, out.total_rolled_back]
        )
    return rows


def test_churn_timeline(benchmark, emit, scale):
    rows = once(benchmark, lambda: _run(scale))
    by_label = {(r[0], r[1]): r for r in rows}
    # A rejoin can only help (or match) the permanent loss.
    assert by_label["loss + rejoin", "fast-1"][2] >= by_label["loss only", "fast-1"][2]
    # A loss at cycle 0 has nothing to roll back.
    assert by_label["loss at cycle 0", "fast-1"][6] == 0
    assert by_label["loss at cycle 0", "slow-1"][6] == 0
    emit(
        "ext_churn",
        format_table(
            ["timeline", "lost", "mapped", "T100", "AET", "complete",
             "rolled back"],
            rows,
            title=(
                "Extension: machine loss and grid churn — one machine lost "
                "at tau/4 (fast-1 optionally rejoining at tau/2), against a "
                f"loss at cycle 0 ({scale.name} scale)"
            ),
        ),
    )
