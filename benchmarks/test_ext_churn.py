"""Extension bench — grid churn (loss + rejoin) vs permanent loss.

Quantifies what a machine's *return* is worth: the same loss event with and
without a later rejoin, against the uninterrupted baseline.
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

    loss = SessionEvent("machine_loss", quarter, machine=1)
    rejoin = SessionEvent("machine_rejoin", 2 * quarter, machine=1)

    baseline = run_with_events(scenario, scheduler, [])
    lost = run_with_events(scenario, scheduler, [loss])
    returned = run_with_events(scenario, scheduler, [loss, rejoin])
    rows = []
    for label, out in (
        ("no churn", baseline),
        ("loss only", lost),
        ("loss + rejoin", returned),
    ):
        validate_schedule(out.final.schedule)
        rows.append(
            [label, out.final.schedule.n_mapped, out.final.t100,
             round(out.final.aet, 1), out.final.complete,
             out.total_rolled_back]
        )
    return rows


def test_churn_timeline(benchmark, emit, scale):
    rows = once(benchmark, lambda: _run(scale))
    by_label = {r[0]: r for r in rows}
    # A rejoin can only help (or match) the permanent loss.
    assert by_label["loss + rejoin"][1] >= by_label["loss only"][1]
    emit(
        "ext_churn",
        format_table(
            ["timeline", "mapped", "T100", "AET", "complete", "rolled back"],
            rows,
            title=(
                "Extension: grid churn — fast-1 lost at tau/4, optionally "
                f"rejoining at tau/2 ({scale.name} scale)"
            ),
        ),
    )
