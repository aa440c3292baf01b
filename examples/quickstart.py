#!/usr/bin/env python
"""Quickstart: map a DAG of subtasks onto an ad hoc grid with SLRH-1.

Walks the full public API surface in ~40 lines:

1. build a paper-regime scenario (ETC matrix, layered DAG, data sizes, τ);
2. run the SLRH-1 resource manager at fixed objective weights;
3. validate the resulting schedule against every §III model assumption;
4. report each machine's utilisation and energy use.

Run:  python examples/quickstart.py
"""

from repro import (
    SLRH1,
    SlrhConfig,
    Weights,
    compute_stats,
    paper_scaled_grid,
    paper_scaled_spec,
    generate_scenario,
    upper_bound,
    validate_schedule,
)

N_TASKS = 64

def main() -> None:
    # 1. A scenario under the proportional-shrink protocol: |T| = 64 with
    #    batteries and tau scaled by 64/1024, preserving the paper's regime.
    scenario = generate_scenario(
        paper_scaled_spec(N_TASKS),
        grid=paper_scaled_grid(N_TASKS),
        seed=2004,
        name="quickstart",
    )
    print(f"scenario: |T|={scenario.n_tasks}, |M|={scenario.n_machines}, "
          f"tau={scenario.tau:.0f}s, TSE={scenario.grid.total_system_energy:.1f}")

    # 2. SLRH-1 with alpha=0.5 (T100 reward), beta=0.2 (energy penalty),
    #    gamma=0.3 (use-the-time-budget bias).
    config = SlrhConfig(weights=Weights.from_alpha_beta(0.5, 0.2))
    result = SLRH1(config).map(scenario)
    print(f"mapped {result.schedule.n_mapped}/{scenario.n_tasks} subtasks, "
          f"T100={result.t100}, AET={result.aet:.0f}s "
          f"(tau={scenario.tau:.0f}s), success={result.success}")
    print(f"heuristic execution time: {result.heuristic_seconds:.3f}s "
          f"over {result.trace.ticks} clock ticks")

    # 3. Independent validation of every simulation assumption.
    validate_schedule(result.schedule)
    print("schedule validated: precedence, channels, energy all consistent")

    # How close to the theoretical ceiling?
    bound = upper_bound(scenario)
    print(f"upper bound on T100: {bound.t100_bound} "
          f"(achieved {result.t100 / bound.t100_bound:.0%})")

    # 4. Per-machine load over the makespan, read off the committed calendars.
    stats = compute_stats(result.schedule)
    for j, machine in enumerate(scenario.grid):
        print(f"  {machine.name}: utilisation {stats.utilisation[j]:5.1%}, "
              f"energy used {result.schedule.energy.consumed(j):6.2f} "
              f"of {machine.battery:6.2f} units")


if __name__ == "__main__":
    main()
