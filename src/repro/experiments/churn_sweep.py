"""Replan-frequency study: what does keeping the kernel warm buy?

The paper's receding-horizon argument (§V) is that replanning *often* is
what makes an ad hoc grid tolerable — but replanning often is only
affordable if each replan is cheap.  This study drives one SLRH-1
session through deterministic synthesized grid-event streams
(:func:`repro.session.synthesize_events`: task arrivals, machine losses
and rejoins, quiet advances) and compares, cell by cell over a
ΔT × H × churn-rate grid, the two ways to service the same stream:

* **incremental session** — one persistent columnar kernel across every
  event, fed precise deltas (``note_arrival`` / ``note_rejoin`` /
  ``note_disturbance``) and never re-based (the ``repro.session``
  default);
* **per-event from-scratch** — a fresh rebuild-mode kernel for every
  inter-event segment, the way a stateless service would re-map on each
  event.

Both arms produce **byte-identical** final mappings (asserted per cell —
the speedup is never bought with a different schedule), so the only
thing that moves is heuristic wall time.  The headline number —
``session_speedup`` at the 240-task gate scale — is a self-normalised
ratio of the two arms on the same machine, which is what
``benchmarks/check_regression.py`` gates (floor 1.5×).

Churn rate is expressed in events per 100 cycles of session lifetime;
half of each stream's events are held-task arrivals, the rest machine
churn and advances (the :func:`~repro.session.synthesize_events` mix).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SlrhConfig
from repro.experiments.reporting import format_table
from repro.heuristics import generate_named_scenario
from repro.io.serialization import canonical_json_bytes, mapping_to_dict
from repro.session import run_with_events, synthesize_events

SCHEMA = "repro.bench.churn/1"

#: The gate criterion mirrored by ``benchmarks/check_regression.py``:
#: the incremental session must beat per-event from-scratch mapping by
#: at least this factor at the gate scale.
GATE_SPEEDUP_FLOOR = 1.5
GATE_N_TASKS = 240

_DEF_DELTA_TS = (5, 10, 20)
_DEF_HORIZONS = (50, 100)
_DEF_RATES = (5.0, 15.0, 30.0)


def _n_events(rate_per_100: float, max_cycle: int) -> int:
    return max(2, int(round(rate_per_100 * max_cycle / 100.0)))


def _measure_cell(
    scenario,
    weights: Weights,
    delta_t: int,
    horizon: int,
    rate: float,
    max_cycle: int,
    seed: int,
    repeats: int = 1,
) -> dict:
    """Both arms on one (ΔT, H, churn-rate) cell; best-of-*repeats*,
    interleaved so machine-speed drift hits both arms equally."""
    n_events = _n_events(rate, max_cycle)
    held, events = synthesize_events(
        scenario, seed=seed, n_events=n_events, max_cycle=max_cycle
    )
    session_cfg = SlrhConfig(
        weights=weights, delta_t_cycles=delta_t, horizon_cycles=horizon
    )
    scratch_cfg = SlrhConfig(
        weights=weights,
        delta_t_cycles=delta_t,
        horizon_cycles=horizon,
        kernel="rebuild",
    )
    best_session = best_scratch = float("inf")
    session_outcome = scratch_outcome = None
    for _ in range(max(1, repeats)):
        session_outcome = run_with_events(
            scenario, SLRH1(session_cfg), events, pending=held, persistent=True
        )
        scratch_outcome = run_with_events(
            scenario, SLRH1(scratch_cfg), events, pending=held, persistent=False
        )
        best_session = min(best_session, session_outcome.final.heuristic_seconds)
        best_scratch = min(best_scratch, scratch_outcome.final.heuristic_seconds)
    session_bytes = canonical_json_bytes(
        mapping_to_dict(session_outcome.final.schedule)
    )
    scratch_bytes = canonical_json_bytes(
        mapping_to_dict(scratch_outcome.final.schedule)
    )
    if session_bytes != scratch_bytes:
        raise RuntimeError(
            f"ΔT={delta_t} H={horizon} rate={rate}: the incremental session "
            "and the from-scratch replay disagree — the warm-pool path is "
            "broken (byte-identity is the correctness contract)"
        )
    perf = session_outcome.final.schedule.perf
    reuse = perf.get("pool.reuse_hits")
    builds = perf.get("pool.builds")
    return {
        "delta_t_cycles": delta_t,
        "horizon_cycles": horizon,
        "churn_rate_per_100": rate,
        "n_events": len(events),
        "session_seconds": round(best_session, 6),
        "scratch_seconds": round(best_scratch, 6),
        "speedup": round(best_scratch / best_session, 4)
        if best_session > 0
        else 0.0,
        "n_mapped": session_outcome.final.schedule.n_mapped,
        "rolled_back": session_outcome.total_rolled_back,
        "pool_reuse_hits": reuse,
        "pool_builds": builds,
        "identical": True,
    }


def run_churn_sweep(
    n_tasks: int = 96,
    seed: int = 7,
    alpha: float = 0.5,
    beta: float = 0.2,
    delta_ts: Sequence[int] = _DEF_DELTA_TS,
    horizons: Sequence[int] = _DEF_HORIZONS,
    rates: Sequence[float] = _DEF_RATES,
    max_cycle: int = 60,
    repeats: int = 1,
) -> dict:
    """The full ΔT × H × churn-rate sweep; returns the artefact document
    (without the gate section — see :func:`measure_gate`)."""
    scenario = generate_named_scenario(n_tasks, seed)
    weights = Weights.from_alpha_beta(alpha, beta)
    cells = [
        _measure_cell(
            scenario, weights, dt, h, rate, max_cycle, seed, repeats=repeats
        )
        for dt in delta_ts
        for h in horizons
        for rate in rates
    ]
    return {
        "schema": SCHEMA,
        "scenario": {
            "n_tasks": n_tasks,
            "seed": seed,
            "alpha": alpha,
            "beta": beta,
            "max_cycle": max_cycle,
        },
        "heuristic": "slrh1",
        "repeats": repeats,
        "sweep": cells,
    }


def measure_gate(
    seed: int = 7,
    alpha: float = 0.5,
    beta: float = 0.2,
    n_tasks: int = GATE_N_TASKS,
    rate: float = 15.0,
    max_cycle: int = 60,
    repeats: int = 1,
) -> dict:
    """The regression-gate measurement: one 240-task cell at the default
    (ΔT, H) with moderate churn.  ``session_speedup`` is the number
    ``check_regression.py`` holds against :data:`GATE_SPEEDUP_FLOOR`."""
    scenario = generate_named_scenario(n_tasks, seed)
    weights = Weights.from_alpha_beta(alpha, beta)
    cell = _measure_cell(
        scenario, weights, 10, 100, rate, max_cycle, seed, repeats=repeats
    )
    return {
        "n_tasks": n_tasks,
        "seed": seed,
        "alpha": alpha,
        "beta": beta,
        "churn_rate_per_100": rate,
        "max_cycle": max_cycle,
        "n_events": cell["n_events"],
        "session_seconds": cell["session_seconds"],
        "scratch_seconds": cell["scratch_seconds"],
        "session_speedup": cell["speedup"],
        "identical": cell["identical"],
        "criterion": f"session_speedup >= {GATE_SPEEDUP_FLOOR}",
    }


def figure_churn(doc: dict) -> str:
    """Text figure: the sweep as an aligned table plus the gate line."""
    rows = [
        (
            c["delta_t_cycles"],
            c["horizon_cycles"],
            c["churn_rate_per_100"],
            c["n_events"],
            c["session_seconds"] * 1e3,
            c["scratch_seconds"] * 1e3,
            c["speedup"],
            c["n_mapped"],
            c["rolled_back"],
        )
        for c in doc["sweep"]
    ]
    scenario = doc["scenario"]
    table = format_table(
        (
            "dT", "H", "churn/100cyc", "events",
            "session ms", "scratch ms", "speedup", "mapped", "rolled back",
        ),
        rows,
        title=(
            "Replan-frequency study (SLRH-1, "
            f"{scenario['n_tasks']} tasks, seed {scenario['seed']}): "
            "incremental session vs per-event from-scratch mapping\n"
            "(final mappings byte-identical in every cell)"
        ),
    )
    gate = doc.get("gate")
    if gate:
        table += (
            f"\n\ngate @ {gate['n_tasks']} tasks: "
            f"session {gate['session_seconds']*1e3:.1f}ms  "
            f"from-scratch {gate['scratch_seconds']*1e3:.1f}ms  "
            f"speedup {gate['session_speedup']:.2f}x "
            f"(floor {GATE_SPEEDUP_FLOOR}x)"
        )
    return table
