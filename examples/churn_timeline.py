#!/usr/bin/env python
"""Grid churn timeline: a machine drops out and later rejoins.

The full ad hoc story from the paper's introduction — "assets connected to
the grid can, and frequently do, appear and disappear at unanticipated
times" — on a 48-subtask run:

* t = τ/4 : fast-1 (a notebook) walks out of radio range.  Everything it
  had computed is unrecoverable (checkpoint-free model); the rollback also
  invalidates all downstream work, and surviving machines keep the energy
  they had already burnt on now-useless subtasks (sunk cost).
* t = τ/2 : fast-1 reappears with whatever battery it has left, and the
  SLRH starts assigning to it again at the next tick.

The run is compared against an uninterrupted baseline, and the final
schedule is drawn as a text Gantt chart.

Run:  python examples/churn_timeline.py
"""

from repro import (
    SLRH1,
    SessionEvent,
    SlrhConfig,
    Weights,
    compute_stats,
    paper_scaled_suite,
    render_gantt,
    run_with_events,
    validate_schedule,
)

N_TASKS = 48


def main() -> None:
    suite = paper_scaled_suite(N_TASKS, n_etc=1, n_dag=1, seed=3)
    scenario = suite.scenario(0, 0, "A")
    scheduler = SLRH1(SlrhConfig(weights=Weights.from_alpha_beta(0.5, 0.2)))

    baseline = scheduler.map(scenario)
    print(f"uninterrupted: T100={baseline.t100}, AET={baseline.aet:.0f}s, "
          f"complete={baseline.complete}")

    quarter = int(scenario.tau / 4 / 0.1)
    events = [
        SessionEvent("machine_loss", quarter, machine=1),
        SessionEvent("machine_rejoin", 2 * quarter, machine=1),
    ]
    out = run_with_events(scenario, scheduler, events)
    validate_schedule(out.final.schedule)

    for record in out.records:
        ev = record.event
        what = ("lost" if ev.kind == "machine_loss" else "rejoined")
        print(f"t={ev.cycle * 0.1:6.0f}s: {scenario.grid[ev.machine].name} {what}"
              + (f" — rolled back {len(record.rolled_back)} subtasks, "
                 f"{record.sunk_energy:.1f} energy units sunk"
                 if ev.kind == "machine_loss" else ""))

    final = out.final
    print(f"with churn:   T100={final.t100}, AET={final.aet:.0f}s, "
          f"complete={final.complete}")
    stats = compute_stats(final.schedule)
    print(f"load imbalance {stats.imbalance:.2f}, "
          f"primary fraction {stats.version_mix:.0%}\n")
    print(render_gantt(final.schedule, width=100))


if __name__ == "__main__":
    main()
