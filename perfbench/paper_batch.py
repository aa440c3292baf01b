"""paper-batch: the experiment pipeline at the paper's scale, in-process.

One op is one |T| = 1024 map: ``run_heuristic`` on one (scenario,
heuristic) cell at default weights.  The cells are all six registry
heuristics over distinct ``paper_scaled_suite(1024, ...)`` scenarios of
Cases A, B and C, every cell mapped once in seeded order, so no input
repeats and memoising results cannot pose as a speed-up, and every run
maps the same number of cells of each heuristic and case.  Only
``repro.core``, ``repro.sim`` and ``repro.baselines`` do work here.

Every timing is speed-adjusted: the benchmark's reference loop is timed
right before and right after each op (and each set-up pass), and the op's
time is scaled by ``NOMINAL_REF_S / mean(before, after)``, which cancels
the host's CPU-speed swings.  ``setup_s`` is the median of
:data:`COLD_SETUPS` cold set-ups, each in its own interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    CASES,
    MIN_OPS,
    ROOT,
    default_path_env,
    end_to_end,
    ensure_src_on_path,
    paper_scenarios,
    ref_loop,
    run_context,
    speed_scale,
    timed_imports,
    vm_hwm_mb,
)
from layers import engine_metrics, merge, ratio, residual_pct

IMPORTS = (
    "repro.heuristics",
    "repro.workload.scenario",
    "repro.io.serialization",
    "repro.sim.validate",
    "repro.core.kernel",
)

N_TASKS = 1024
#: Maps per second of ``--seconds`` on the reference host (ops are a
#: fixed count, so every run does the same work).
NOMINAL_OPS_PER_S = 2.5
#: Cold set-ups whose median is ``setup_s``: the run's own, the rest each
#: in a fresh interpreter.
COLD_SETUPS = 3
DIGESTS = BENCH_DIR / "digests.json"
#: Cells per scenario pair: one scenario per case, six heuristics each.
CELLS_PER_PAIR = len(CASES) * 6


def n_pairs_for(seconds: float) -> int:
    wanted = max(MIN_OPS, round(seconds * NOMINAL_OPS_PER_S))
    return math.ceil(wanted / CELLS_PER_PAIR)


def n_ops_for(seconds: float) -> int:
    return n_pairs_for(seconds) * CELLS_PER_PAIR


def generate(n_tasks: int, seed: int, n_ops: int) -> dict:
    """Scenario name -> Scenario: *n_ops* cells' worth of scenarios."""
    scenarios = paper_scenarios(n_tasks, n_ops // CELLS_PER_PAIR, seed)
    return {scenario.name: scenario for scenario in scenarios}


def warm_up(seed: int) -> None:
    """Map one small scenario with every heuristic (code paths, lazy
    imports), so the first timed op is not a cold one."""
    from repro.heuristics import HEURISTIC_NAMES, run_heuristic

    scenario = paper_scenarios(32, 1, seed)[0]
    for name in HEURISTIC_NAMES:
        run_heuristic(name, scenario)


def op_sequence(scenarios: dict, seed: int) -> list[tuple[str, str]]:
    from repro.heuristics import HEURISTIC_NAMES

    cells = [(name, h) for name in sorted(scenarios) for h in HEURISTIC_NAMES]
    random.Random(seed).shuffle(cells)
    return cells


def expected_digests(path: Path, n_tasks: int, seed: int) -> dict[str, str]:
    """The checked-in mapping SHA-256 table for (|T|, seed), if any."""
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(f"{n_tasks}:{seed}", {})


def mapping_digest(schedule) -> str:
    from repro.io.serialization import canonical_json_bytes, mapping_to_dict

    return hashlib.sha256(canonical_json_bytes(mapping_to_dict(schedule))).hexdigest()


def check(result, expected: str | None) -> bool:
    """Schedule validity, plus the digest table where it has the cell."""
    from repro.sim.validate import ValidationError, validate_schedule

    try:
        validate_schedule(result.schedule)
    except ValidationError:
        return False
    return expected is None or mapping_digest(result.schedule) == expected


def timed_pass(ops, scenarios, expected, refs, *, span=None) -> dict:
    """Map every cell of *ops*.  One reference pass sits between two
    consecutive ops and serves as the "after" of one and the "before"
    of the next; each op's check runs after that pass, off the clock."""
    from repro.heuristics import run_heuristic

    adjusted: list[float] = []
    raw: list[float] = []
    ok: list[bool] = []
    before = ref_loop()
    refs.append(before)
    for name, heuristic in ops:
        scenario = scenarios[name]
        started = time.perf_counter()
        if span is None:
            result = run_heuristic(heuristic, scenario)
        else:
            result = span("op", run_heuristic, heuristic, scenario)
        elapsed = time.perf_counter() - started
        after = ref_loop()
        refs.append(after)
        raw.append(elapsed)
        adjusted.append(elapsed * speed_scale(before, after))
        ok.append(check(result, expected.get(f"{name}/{heuristic}")))
        del result
        before = after
    return {"adjusted": adjusted, "raw": raw, "ok": ok}


def set_up(n_tasks: int, seed: int, n_ops: int, refs: list[float]) -> tuple[dict, dict]:
    """Generate the scenarios and warm up; returns them and the
    speed-adjusted phase times."""
    before = ref_loop()
    started = time.perf_counter()
    scenarios = generate(n_tasks, seed, n_ops)
    generated = time.perf_counter()
    warm_up(seed)
    warmed = time.perf_counter()
    after = ref_loop()
    refs += (before, after)
    scale = speed_scale(before, after)
    times = {
        "setup.generate_s": (generated - started) * scale,
        "setup.warmup_s": (warmed - generated) * scale,
    }
    return scenarios, times


def cold_set_up(n_tasks: int, seed: int, n_ops: int, env: dict) -> dict:
    """The phase times of one set-up in a fresh interpreter (this file
    run as a script), so imports and first calls are cold as in a run."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), str(n_tasks), str(seed), str(n_ops)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(opts, import_s: float, env: dict) -> tuple[dict, int, int, dict]:
    from repro.core.kernel import resolve_kernel_mode

    n_tasks = opts.tasks or N_TASKS
    n_ops = n_ops_for(opts.seconds)
    refs: list[float] = []
    scenarios, times = set_up(n_tasks, opts.seed, n_ops, refs)
    setups = [{"setup.import_s": import_s, **times}]

    # Benchmark-side preparation, off the set-up clock.
    ops = op_sequence(scenarios, opts.seed)
    expected = expected_digests(DIGESTS, n_tasks, opts.seed)
    report = {
        "workload": "paper-batch",
        "n_tasks": n_tasks,
        "ops": len(ops),
        "digests_checked": bool(expected),
        **run_context(resolve_kernel_mode(None), 0),
    }
    if opts.trace:
        # An untraced and a traced pass over the same cells, each on its
        # own freshly generated copy of the scenarios.
        from tracer import RECORDER, install_engine

        ops = ops[: max(1, len(ops) // 2)]
        plain = timed_pass(ops, scenarios, expected, refs)
        scenarios = generate(n_tasks, opts.seed, n_ops)
        install_engine()
        result = timed_pass(ops, scenarios, expected, refs, span=RECORDER.span)
    else:
        result = timed_pass(ops, scenarios, expected, refs)
    peak_rss_mb = vm_hwm_mb()
    del scenarios
    setups += [cold_set_up(n_tasks, opts.seed, n_ops, env) for _ in range(COLD_SETUPS - 1)]
    setup_s = statistics.median(sum(setup.values()) for setup in setups)
    host_ref_ms = statistics.median(refs) * 1e3

    failed = result["ok"].count(False)
    if not opts.trace:
        latencies = [t for t, good in zip(result["adjusted"], result["ok"]) if good]
        ops_per_s = ratio(len(latencies), sum(result["adjusted"]))
        report.update(
            {
                "ops_per_s_raw": ratio(len(latencies), sum(result["raw"])),
                "ops_per_s_adjusted": ops_per_s,
                "host.ref_ms": host_ref_ms,
                "setups_s": [sum(setup.values()) for setup in setups],
            }
        )
        metrics = end_to_end(setup_s, ops_per_s, latencies, peak_rss_mb)
        return report, len(ops), failed, metrics

    failed += plain["ok"].count(False)
    tree, counts = merge(RECORDER.records)
    n = len(ops)
    values = engine_metrics(tree, counts, n)
    values.update(
        {
            **{key: statistics.median(s[key] for s in setups) for key in setups[0]},
            "host.ref_ms": host_ref_ms,
            "trace.ops": n,
            "trace.overhead_pct": 100.0
            * (sum(result["adjusted"]) / sum(plain["adjusted"]) - 1.0),
        }
    )
    values["trace.residual_pct"] = residual_pct(values, tree["op"][1] * 1e3 / n)
    return report, 2 * n, failed, values


def main(argv: list[str]) -> int:
    """``paper_batch.py TASKS SEED N_OPS``: one cold set-up; prints its
    speed-adjusted phase times as JSON."""
    default_path_env()
    ensure_src_on_path()
    n_tasks, seed, n_ops = (int(arg) for arg in argv)
    import_s = timed_imports(IMPORTS)
    _, times = set_up(n_tasks, seed, n_ops, [])
    print(json.dumps({"setup.import_s": import_s, **times}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
