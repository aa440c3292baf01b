#!/usr/bin/env python
"""Ad hoc machine loss: the scenario that motivates the paper.

A field-deployed grid (2 notebooks + 2 PDAs) is a quarter of the way
through executing a 64-subtask application when one machine drops off the
network.  The session engine rolls back every assignment whose results are
unrecoverable and SLRH-1 replans the remainder from the loss cycle on the
machines still online — no global restart, exactly the "reschedule
on-the-fly" capability §I calls for.

The study loses each machine in turn, and also reports the paper's static
Cases B and C (grids that *start* without the machine) as reference points.

Run:  python examples/machine_loss_study.py
"""

from repro import SLRH1, SlrhConfig, Weights, paper_scaled_suite, validate_schedule
from repro.session import SessionEngine, SessionEvent

N_TASKS = 64


def main() -> None:
    suite = paper_scaled_suite(N_TASKS, n_etc=1, n_dag=1, seed=7)
    scenario = suite.scenario(0, 0, "A")
    scheduler = SLRH1(SlrhConfig(weights=Weights.from_alpha_beta(0.5, 0.2)))

    baseline = scheduler.map(scenario)
    print(f"baseline (all machines): T100={baseline.t100}, "
          f"AET={baseline.aet:.0f}s, complete={baseline.complete}")

    loss_cycle = int(scenario.tau / 4 / 0.1)
    print(f"\nlosing one machine at t={loss_cycle * 0.1:.0f}s (tau/4):\n")
    header = (f"{'lost machine':>14} {'rolled back':>11} {'kept':>5} "
              f"{'T100 final':>10} {'complete':>8}")
    print(header)
    print("-" * len(header))
    for lost in range(scenario.n_machines):
        engine = SessionEngine(scenario, scheduler)
        record = engine.apply(SessionEvent("machine_loss", loss_cycle, machine=lost))
        kept = len(engine.schedule.assignments)
        final = engine.close().final
        validate_schedule(final.schedule)
        print(f"{scenario.grid[lost].name:>14} {len(record.rolled_back):>11} "
              f"{kept:>5} {final.t100:>10} {str(final.complete):>8}")

    # The paper's static comparison points: grids that never had the machine.
    print("\nstatic reference (paper Cases B and C, machine absent from t=0):")
    for case in ("B", "C"):
        result = scheduler.map(suite.scenario(0, 0, case))
        print(f"  Case {case}: T100={result.t100}, AET={result.aet:.0f}s, "
              f"complete={result.complete}")


if __name__ == "__main__":
    main()
