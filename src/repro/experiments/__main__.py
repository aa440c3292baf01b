"""CLI: regenerate the paper's full evaluation report, or map one scenario.

Usage::

    python -m repro.experiments [--scale smoke|small|medium|paper]
                                [--only tables|fig2|fig3|fig4|fig5|fig6|fig7]
                                [--out PATH] [--jobs N|auto] [--perf-out PATH]

    python -m repro.experiments map (--scenario FILE | --generate N [--seed S])
                                    [--heuristic NAME] [--alpha A --beta B]
                                    [--kernel columnar|rebuild]
                                    [--out PATH|-] [--ndjson]
                                    [--trace-out TRACE.json] [--ledger-out LOG.ndjson]

    python -m repro.experiments explain LOG.ndjson --task T [--tick K]

    python -m repro.experiments churn-sweep [--n-tasks N] [--delta-t 5,10,20]
                                            [--horizons 50,100] [--rates 5,15,30]
                                            [--out BENCH_churn.json]

The report form prints every table and figure the paper reports (at the
selected scale) and optionally writes the combined report to a file.
Figures 3-7 share one cached weight-optimisation study, so requesting
several of them costs little more than one.

When the weight-optimisation study runs, its merged performance counters
(plan pairs, pool sizes, per-phase wall time — see
:mod:`repro.perf`) are written as JSON next to the benchmark artefacts:
``benchmarks/out/perf_<scale>.json`` by default, or ``--perf-out PATH``.

The ``map`` form is the batch twin of the :mod:`repro.service` daemon's
``POST /v1/map``: it dispatches through the same registry
(:mod:`repro.heuristics`) and emits the same canonical mapping bytes
(:func:`repro.io.serialization.canonical_mapping_bytes`), so for a fixed
scenario + seed the two surfaces are byte-identical — the service test
suite enforces exactly that.

Observability extras on ``map`` (SLRH family only; neither changes the
mapping bytes): ``--trace-out`` writes a Chrome trace-event JSON of the
span tree (load it in Perfetto / ``chrome://tracing`` to see the whole
mapping — pool build, version select, commit — laid out per tick), and
``--ledger-out`` writes the decision ledger as NDJSON.  The ``explain``
form reads such a ledger back and reports *why* a task landed where it
did — which machines rejected it, at which reason and by what margin.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from repro.experiments.comparison import run_comparison
from repro.perf import write_perf_json
from repro.util.parallel import resolve_jobs

from repro.experiments import (
    figure2_delta_t_sweep,
    figure3_weight_sensitivity,
    figure4_t100_comparison,
    figure5_vs_upper_bound,
    figure6_execution_time,
    figure7_value_metric,
)
from repro.experiments.scale import _PRESETS, scale_from_env
from repro.experiments.tables import render_tables

_SECTIONS = ("tables", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


def map_main(argv: list[str] | None = None) -> int:
    """The ``map`` subcommand: run one registry heuristic on one scenario."""
    from repro.heuristics import HEURISTIC_NAMES, run_heuristic
    from repro.io.serialization import (
        canonical_mapping_bytes,
        scenario_from_dict,
        scenario_to_dict,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments map",
        description="Map one scenario with a registry heuristic and emit "
        "canonical mapping JSON (byte-identical to the service's /v1/map).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="scenario JSON file to map")
    source.add_argument(
        "--generate", type=int, metavar="N",
        help="generate a paper-scaled N-task scenario instead of loading one",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for --generate (default: 0)",
    )
    parser.add_argument(
        "--heuristic", default="slrh1",
        help=f"registry heuristic to run (one of: {', '.join(HEURISTIC_NAMES)})",
    )
    parser.add_argument("--alpha", type=float, default=None, help="objective α")
    parser.add_argument("--beta", type=float, default=None, help="objective β")
    parser.add_argument(
        "--kernel", default=None, choices=("columnar", "rebuild"),
        help="candidate-pool maintenance mode for the scheduling kernel "
        "(default: $REPRO_KERNEL or 'columnar'; mappings are byte-identical "
        "in both — 'columnar' is the delta-maintained hot path, 'rebuild' "
        "the paper's from-scratch loop and the differential oracle)",
    )
    parser.add_argument(
        "--out", default="-",
        help="mapping output path ('-' streams to stdout; parents created)",
    )
    parser.add_argument(
        "--ndjson", action="store_true",
        help="emit the session delta stream instead of one document: one "
        "block at cycle 0 with event 'close', then the footer (the bytes a "
        "service session closed at cycle 0 streams)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="TRACE.json",
        help="write a Chrome trace-event JSON of the mapping's span tree "
        "(view in Perfetto; SLRH family only)",
    )
    parser.add_argument(
        "--ledger-out", default=None, metavar="LOG.ndjson",
        help="write the decision ledger (candidate rejections with reason "
        "codes) as NDJSON; read back with the 'explain' subcommand "
        "(SLRH family only)",
    )
    args = parser.parse_args(argv)

    import json as _json

    from repro.heuristics import generate_named_scenario
    from repro.obs.ledger import write_decision_log
    from repro.obs.spans import Tracer

    if args.scenario is not None:
        doc = _json.loads(pathlib.Path(args.scenario).read_text())
    else:
        # Round-trip through the document form so the mapped Scenario is
        # bit-for-bit the one a service client would register.
        doc = scenario_to_dict(generate_named_scenario(args.generate, args.seed))
    tracer = Tracer() if args.trace_out else None
    previous_kernel = os.environ.get("REPRO_KERNEL")
    if args.kernel is not None:
        # The registry builds schedulers with kernel=None, which defers to
        # $REPRO_KERNEL — the flag is just a spelling of that contract,
        # scoped to this one map so an in-process caller keeps its own.
        os.environ["REPRO_KERNEL"] = args.kernel
    try:
        scenario = scenario_from_dict(doc)
        result = run_heuristic(
            args.heuristic,
            scenario,
            args.alpha,
            args.beta,
            ledger=bool(args.ledger_out),
            tracer=tracer,
        )
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    finally:
        if previous_kernel is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = previous_kernel
    if args.trace_out:
        trace_path = pathlib.Path(args.trace_out)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(trace_path)
        print(f"span trace ({len(tracer.events)} events) -> {trace_path}",
              file=sys.stderr)
    if args.ledger_out:
        ledger_path = pathlib.Path(args.ledger_out)
        ledger_path.parent.mkdir(parents=True, exist_ok=True)
        write_decision_log(ledger_path, result)
        print(
            f"decision ledger ({len(result.trace.ledger.records)} rejections) "
            f"-> {ledger_path}",
            file=sys.stderr,
        )
    if args.ndjson:
        from repro.session import DeltaEncoder

        encoder = DeltaEncoder(result.schedule)
        payload = b"".join(
            [*encoder.delta_lines(cycle=0, event="close"), *encoder.footer_lines()]
        )
    else:
        payload = canonical_mapping_bytes(result.schedule)
    if args.out == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(payload)
        print(
            f"{result.heuristic}: mapped {result.schedule.n_mapped}/"
            f"{scenario.n_tasks} tasks of {scenario.name} "
            f"(success={result.success}) -> {out}"
        )
    return 0


def explain_main(argv: list[str] | None = None) -> int:
    """The ``explain`` subcommand: replay a decision ledger into a "why"
    report for one task (or list the tasks the log knows about)."""
    from repro.obs.ledger import explain_report, explain_tasks, read_decision_log

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments explain",
        description="Explain why a task landed where it did, from a decision "
        "ledger written by `map --ledger-out`.",
    )
    parser.add_argument("log", help="decision-ledger NDJSON file")
    parser.add_argument(
        "--task", type=int, default=None, metavar="T",
        help="task id to explain (omit to list the tasks in the log)",
    )
    parser.add_argument(
        "--tick", type=int, default=None, metavar="K",
        help="restrict the rejection history to heuristic tick K",
    )
    args = parser.parse_args(argv)
    try:
        log = read_decision_log(args.log)
    except OSError as exc:
        parser.error(f"cannot read {args.log}: {exc.strerror or exc}")
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))
    if args.task is None:
        tasks = explain_tasks(log)
        header = log["header"]
        print(
            f"{header.get('scenario', '?')} via {header.get('heuristic', '?')}: "
            f"{len(log['commits'])} commits, {len(log['rejects'])} rejections"
        )
        print(f"tasks: {', '.join(str(t) for t in tasks)}")
        print("rerun with --task T for the per-task report")
        return 0
    try:
        print(explain_report(log, args.task, tick=args.tick))
    except BrokenPipeError:  # report piped into head/less that exited early
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def churn_sweep_main(argv: list[str] | None = None) -> int:
    """The ``churn-sweep`` subcommand: the replan-frequency study
    (incremental streaming session vs per-event from-scratch mapping
    over a ΔT × H × churn-rate grid) plus the 240-task gate cell;
    prints the text figure and writes ``BENCH_churn.json``."""
    import json as _json

    from repro.experiments.churn_sweep import (
        figure_churn,
        measure_gate,
        run_churn_sweep,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments churn-sweep",
        description="Replan-frequency study: streaming-session speedup "
        "over per-event from-scratch mapping, swept over ΔT x H x churn rate.",
    )
    parser.add_argument("--n-tasks", type=int, default=96,
                        help="sweep scenario size (default 96)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--beta", type=float, default=0.2)
    parser.add_argument("--delta-t", default="5,10,20",
                        help="comma-separated ΔT values (cycles)")
    parser.add_argument("--horizons", default="50,100",
                        help="comma-separated horizon values (cycles)")
    parser.add_argument("--rates", default="5,15,30",
                        help="comma-separated churn rates (events per 100 cycles)")
    parser.add_argument("--max-cycle", type=int, default=60,
                        help="session close cycle (default 60)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per cell (best-of; default 1)")
    parser.add_argument("--gate-tasks", type=int, default=None,
                        help="gate-cell scenario size (default 240; 0 skips "
                        "the gate measurement)")
    parser.add_argument("--out", default="benchmarks/BENCH_churn.json",
                        help="artefact path ('-' disables)")
    args = parser.parse_args(argv)
    try:
        delta_ts = tuple(int(v) for v in args.delta_t.split(",") if v.strip())
        horizons = tuple(int(v) for v in args.horizons.split(",") if v.strip())
        rates = tuple(float(v) for v in args.rates.split(",") if v.strip())
    except ValueError:
        parser.error("--delta-t/--horizons/--rates must be comma-separated numbers")
    if not (delta_ts and horizons and rates):
        parser.error("--delta-t/--horizons/--rates each need at least one value")

    doc = run_churn_sweep(
        n_tasks=args.n_tasks,
        seed=args.seed,
        alpha=args.alpha,
        beta=args.beta,
        delta_ts=delta_ts,
        horizons=horizons,
        rates=rates,
        max_cycle=args.max_cycle,
        repeats=args.repeats,
    )
    gate_tasks = args.gate_tasks
    if gate_tasks != 0:
        doc["gate"] = measure_gate(
            seed=args.seed,
            alpha=args.alpha,
            beta=args.beta,
            **({} if gate_tasks is None else {"n_tasks": gate_tasks}),
            max_cycle=args.max_cycle,
            repeats=args.repeats,
        )
    print(figure_churn(doc))
    if args.out != "-":
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    return 0


def build_report(scale, only: list[str]) -> str:
    parts: list[str] = [
        f"SLRH reproduction report — scale '{scale.name}' "
        f"(|T|={scale.n_tasks}, {scale.n_etc} ETC x {scale.n_dag} DAG)",
    ]
    if "tables" in only:
        parts.append(render_tables(scale))
    if "fig2" in only:
        parts.append(figure2_delta_t_sweep(scale).render())
    if "fig3" in only:
        fig3 = figure3_weight_sensitivity(scale)
        parts.append(fig3.render())
        rate = fig3.slrh2_success_rate()
        if rate is not None:
            parts.append(f"SLRH-2 mapping success rate: {rate:.2f}")
    for key, fn in (
        ("fig4", figure4_t100_comparison),
        ("fig5", figure5_vs_upper_bound),
        ("fig6", figure6_execution_time),
        ("fig7", figure7_value_metric),
    ):
        if key in only:
            parts.append(fn(scale).render())
    return "\n\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    from repro.obs.log import configure_from_env

    configure_from_env()
    if argv and argv[0] == "map":
        return map_main(argv[1:])
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "churn-sweep":
        return churn_sweep_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures "
        "(or `map` one scenario / `explain` a decision ledger; "
        "see `map --help` and `explain --help`).",
    )
    parser.add_argument(
        "--scale", choices=sorted(_PRESETS), default=None,
        help="study size (default: $REPRO_SCALE or 'small')",
    )
    parser.add_argument(
        "--only", nargs="*", choices=_SECTIONS, default=list(_SECTIONS),
        help="subset of artefacts to regenerate",
    )
    parser.add_argument("--out", default=None, help="also write the report here")
    parser.add_argument(
        "--jobs", default=None,
        help="worker processes for the weight-search study: an integer or "
        "'auto' for one per CPU (default: $REPRO_JOBS or serial)",
    )
    parser.add_argument(
        "--perf-out", default=None,
        help="where to write the perf-counter JSON (default: "
        "benchmarks/out/perf_<scale>.json; '-' disables)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None:
        try:
            jobs = resolve_jobs(args.jobs)
        except ValueError as exc:
            parser.error(f"--jobs: {exc}")
        os.environ["REPRO_JOBS"] = str(jobs)

    scale = _PRESETS[args.scale] if args.scale else scale_from_env()
    start = time.perf_counter()
    report = build_report(scale, args.only)
    elapsed = time.perf_counter() - start
    report += f"\n\ngenerated in {elapsed:.1f}s"
    print(report)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")

    # The comparison study (figures 3-7 / tables) is memoised: if any of
    # those sections ran above, this re-read is free and its counters
    # describe exactly the work done.  Fig2-only runs have no study.
    if args.perf_out != "-" and set(args.only) & {
        "tables", "fig3", "fig4", "fig5", "fig6", "fig7"
    }:
        results = run_comparison(scale)
        path = pathlib.Path(args.perf_out or f"benchmarks/out/perf_{scale.name}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        write_perf_json(
            path,
            results.perf_snapshot(),
            scale=scale.name,
            jobs=resolve_jobs(None),
            wall_seconds=elapsed,
            command="python -m repro.experiments",
        )
        print(f"perf counters written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    sys.exit(main())
