"""The observability layer (:mod:`repro.obs`): structured event log, span
tracing, decision ledger + explain, Prometheus exposition — and the
contract that none of it ever changes a mapping."""

from __future__ import annotations

import io
import json
import pathlib
import sys
import threading
import time
import urllib.request

import pytest

from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SLRH2, SLRH3, SlrhConfig
from repro.heuristics import generate_named_scenario, run_heuristic
from repro.io.serialization import canonical_mapping_bytes
from repro.obs import (
    DEADLINE_INFEASIBLE,
    ENERGY_INFEASIBLE,
    LOST_ON_SCORE,
    NULL_TRACER,
    REASON_CODES,
    Tracer,
    configure,
    disable,
    enabled,
    explain_report,
    get_logger,
    read_decision_log,
    render_prometheus,
    sanitize_metric_name,
    write_decision_log,
)
from repro.obs.ledger import iter_records
from repro.perf import PerfCounters
from repro.sim.schedule import Schedule

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends with the event log disabled."""
    disable()
    yield
    disable()


# ---------------------------------------------------------------------------
# structured event log


class TestEventLog:
    def test_disabled_is_default_and_silent(self):
        assert not enabled()
        # No handler, no output, no error — a pure no-op.
        get_logger("t").event("nothing.happens", x=1)

    def test_enabled_writes_one_json_object_per_line(self):
        buf = io.StringIO()
        configure(stream=buf)
        assert enabled()
        log = get_logger("unit")
        log.event("alpha", n=1)
        log.event("beta", s="x", nested={"a": 1})
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [d["event"] for d in lines] == ["alpha", "beta"]
        assert lines[0]["logger"] == "repro.obs.unit"
        assert lines[0]["level"] == "info" and lines[0]["n"] == 1
        assert lines[1]["nested"] == {"a": 1}
        # keys are sorted so the lines are diffable
        raw = buf.getvalue().splitlines()[0]
        keys = list(json.loads(raw))
        assert keys == sorted(keys)

    def test_bind_context_rides_along_and_per_call_wins(self):
        buf = io.StringIO()
        configure(stream=buf)
        log = get_logger("unit").bind(job="job-1", k="bound")
        log.event("e", k="call")
        doc = json.loads(buf.getvalue())
        assert doc["job"] == "job-1" and doc["k"] == "call"

    def test_error_level(self):
        buf = io.StringIO()
        configure(stream=buf)
        get_logger("unit").error("boom", why="test")
        doc = json.loads(buf.getvalue())
        assert doc["level"] == "error" and doc["why"] == "test"

    def test_disable_returns_to_noop(self):
        buf = io.StringIO()
        configure(stream=buf)
        disable()
        get_logger("unit").event("after")
        assert buf.getvalue() == ""
        assert not enabled()

    def test_configure_file_target(self, tmp_path):
        target = tmp_path / "sub" / "events.ndjson"
        configure(str(target))
        get_logger("unit").event("to.file", ok=True)
        disable()  # flush + close
        doc = json.loads(target.read_text())
        assert doc["event"] == "to.file" and doc["ok"] is True

    def test_configure_from_env(self, tmp_path, monkeypatch):
        from repro.obs.log import configure_from_env

        monkeypatch.delenv("REPRO_OBS_LOG", raising=False)
        assert configure_from_env() is False
        target = tmp_path / "env.ndjson"
        monkeypatch.setenv("REPRO_OBS_LOG", str(target))
        assert configure_from_env() is True
        get_logger("unit").event("via.env")
        disable()
        assert json.loads(target.read_text())["event"] == "via.env"

    def test_unserialisable_values_fall_back_to_str(self):
        buf = io.StringIO()
        configure(stream=buf)
        get_logger("unit").event("odd", obj=object())
        doc = json.loads(buf.getvalue())
        assert doc["obj"].startswith("<object object")


# ---------------------------------------------------------------------------
# span tracing


class TestTracer:
    def test_spans_record_name_duration_args(self):
        tracer = Tracer()
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
        # inner exits first, so it is recorded first
        assert [e["name"] for e in tracer.events] == ["inner", "outer"]
        outer = tracer.spans_named("outer")[0]
        inner = tracer.spans_named("inner")[0]
        assert outer["args"] == {"k": 1}
        assert outer["dur"] >= inner["dur"] >= 0.0
        # containment: inner lies inside outer on the timeline
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-9

    def test_perf_histograms_fed(self):
        perf = PerfCounters()
        tracer = Tracer(perf=perf)
        for _ in range(3):
            with tracer.span("work"):
                pass
        hist = perf.histogram("span.work_seconds")
        assert hist is not None and hist.count == 3

    def test_chrome_trace_layout(self, tmp_path):
        tracer = Tracer()
        with tracer.span("phase", tick=0):
            pass
        tracer.instant("marker", note="x")
        doc = tracer.chrome_trace(pid=7, tid=9)
        assert doc["displayTimeUnit"] == "ms"
        meta, *events = doc["traceEvents"]
        assert meta["ph"] == "M" and meta["name"] == "process_name"
        complete = next(e for e in events if e["ph"] == "X")
        instant = next(e for e in events if e["ph"] == "i")
        assert complete["name"] == "phase" and complete["pid"] == 7
        assert complete["dur"] >= 0 and complete["ts"] >= 0  # microseconds
        assert instant["name"] == "marker" and instant["s"] == "t"
        out = tracer.write_chrome_trace(tmp_path / "deep" / "trace.json")
        assert json.loads(out.read_text())["traceEvents"]

    def test_null_tracer_is_shared_noop(self):
        assert NULL_TRACER.enabled is False
        a = NULL_TRACER.span("anything", x=1)
        b = NULL_TRACER.span("else")
        assert a is b  # one shared context manager, zero allocation
        with a:
            pass
        assert NULL_TRACER.instant("i") is None


# ---------------------------------------------------------------------------
# a traced run is the production run


def _exact_counters() -> tuple[str, ...]:
    """The regression gate's deterministic counter list (one source)."""
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))
    try:
        import check_regression
    finally:
        sys.path.pop(0)
    return check_regression.EXACT_COUNTERS


def _trace_shape(trace) -> tuple:
    """Everything a MappingTrace records besides the timing-bearing perf
    snapshot: the commit records and the tick/scan/stall counters."""
    return (trace.records, trace.ticks, trace.machine_scans, trace.empty_pool_ticks)


def _assert_same_run(plain, traced, tracer) -> None:
    """Traced and untraced runs are one program: same bytes, records,
    counters; the trace saw the columnar fast-forward; and every tick is
    accounted for by exactly one ``kernel.tick`` span or one tick of a
    ``kernel.stall`` span."""
    assert canonical_mapping_bytes(traced.schedule) == canonical_mapping_bytes(
        plain.schedule
    )
    assert _trace_shape(traced.trace) == _trace_shape(plain.trace)
    for counter in _exact_counters():
        assert traced.trace.perf.get(counter, 0.0) == plain.trace.perf.get(
            counter, 0.0
        ), counter
    names = {e["name"] for e in tracer.events}
    assert {"map", "kernel.tick", "kernel.stall", "pool.columnar", "commit"} <= names
    assert "pool.build" not in names  # never the rebuild oracle
    stalls = tracer.spans_named("kernel.stall")
    assert all(e["args"]["ticks"] >= 1 for e in stalls)
    assert all({"ticks", "tick", "clock"} <= set(e["args"]) for e in stalls)
    ticks = len(tracer.spans_named("kernel.tick"))
    assert ticks + sum(e["args"]["ticks"] for e in stalls) == traced.trace.ticks


class TestTracedProductionRun:
    """A live tracer keeps the columnar stall fast-forward: the traced
    map is the production map, seen as one ``kernel.stall`` span per run
    of stall ticks."""

    @pytest.mark.parametrize("cls", [SLRH1, SLRH2, SLRH3], ids=lambda c: c.name)
    def test_traced_map_is_the_production_map(self, cls):
        scenario = generate_named_scenario(48, 7)
        config = SlrhConfig(
            weights=Weights.from_alpha_beta(0.5, 0.2), kernel="columnar"
        )
        plain = cls(config).map(scenario)
        tracer = Tracer()
        traced = cls(config).map(scenario, tracer=tracer)
        _assert_same_run(plain, traced, tracer)
        assert len(tracer.spans_named("map")) == 1

    def test_traced_event_replay_is_the_production_replay(self):
        from repro.session import SessionEvent, run_with_events

        scenario = generate_named_scenario(48, 7)
        events = [
            SessionEvent("machine_loss", 2, machine=1),
            SessionEvent("machine_rejoin", 5, machine=1),
            SessionEvent("task_arrival", 8, task=3),
        ]
        config = SlrhConfig(
            weights=Weights.from_alpha_beta(0.5, 0.2), kernel="columnar"
        )
        plain = run_with_events(scenario, SLRH1(config), events)
        tracer = Tracer()
        traced = run_with_events(scenario, SLRH1(config), events, tracer=tracer)
        assert traced.records == plain.records
        assert any(r.rolled_back for r in traced.records)
        _assert_same_run(plain.final, traced.final, tracer)
        # One event span per applied event (the close included), and one
        # map span per replan segment.
        assert len(tracer.spans_named("session.event")) == len(events) + 1
        assert len(tracer.spans_named("map")) == len(events) + 1

    def test_ledgered_map_refuses_a_columnar_kernel(self):
        scenario = generate_named_scenario(12, 1)
        columnar = SLRH1(
            SlrhConfig(weights=Weights.from_alpha_beta(0.5, 0.2), kernel="columnar")
        )
        ledgered = SLRH1(
            SlrhConfig(weights=Weights.from_alpha_beta(0.5, 0.2), ledger=True)
        )
        kernel = columnar.make_kernel(Schedule(scenario))
        with pytest.raises(ValueError, match="rebuild kernel"):
            ledgered.map(scenario, schedule=kernel.schedule, kernel=kernel)


# ---------------------------------------------------------------------------
# decision ledger on a real mapping


@pytest.fixture(scope="module")
def ledgered_run():
    """gen24-seed7 mapped by SLRH-1 with ledger + tracer enabled.

    This scenario is the smallest generated instance that exercises a
    secondary-version commit, so the explain report has real content.
    """
    scenario = generate_named_scenario(24, 7)
    tracer = Tracer()
    result = run_heuristic("slrh1", scenario, 0.5, 0.2, ledger=True, tracer=tracer)
    return scenario, result, tracer


class TestDecisionLedger:
    def test_observability_never_changes_the_mapping(self, ledgered_run):
        scenario, result, _ = ledgered_run
        plain = run_heuristic("slrh1", scenario, 0.5, 0.2)
        assert canonical_mapping_bytes(result.schedule) == canonical_mapping_bytes(
            plain.schedule
        )
        assert plain.trace.ledger is None  # off by default

    def test_reason_codes_are_known_and_margins_nonnegative(self, ledgered_run):
        _, result, _ = ledgered_run
        ledger = result.trace.ledger
        assert len(ledger) > 0
        for rec in ledger:
            assert rec.reason in REASON_CODES
            assert rec.tick >= 0
            if rec.margin is not None:
                assert rec.margin >= 0.0
        assert iter_records(ledger.records, LOST_ON_SCORE)

    def test_secondary_commit_explained_with_numeric_margin(self, ledgered_run):
        _, result, _ = ledgered_run
        secondary = [
            r for r in result.trace.records if r.version == "secondary"
        ]
        assert secondary, "gen24-seed7 must exercise a secondary commit"
        task = secondary[0].task
        machine = secondary[0].machine
        # The ledger holds a primary rejection on that machine for that task
        primary_rejects = [
            r
            for r in result.trace.ledger.for_task(task)
            if r.version == "primary" and r.machine == machine
        ]
        assert primary_rejects and primary_rejects[-1].margin is not None

    def test_rejected_machine_decisions_carry_margin(self, ledgered_run):
        _, result, _ = ledgered_run
        # Some committed task must have been rejected on a *different*
        # machine at some tick, with a numeric margin saying by how much.
        commits = {r.task: r.machine for r in result.trace.records}
        cross = [
            r
            for r in result.trace.ledger
            if r.task in commits
            and r.machine >= 0
            and r.machine != commits[r.task]
            and r.margin is not None
        ]
        assert cross, "expected rejected-machine records with margins"

    def test_spans_cover_the_mapping_hierarchy(self, ledgered_run):
        _, _, tracer = ledgered_run
        names = {e["name"] for e in tracer.events}
        assert {"map", "kernel.tick", "pool.build", "select", "commit"} <= names
        assert len(tracer.spans_named("map")) == 1

    def test_span_histograms_land_in_result_perf_artifact(self, ledgered_run):
        _, result, _ = ledgered_run
        hist = result.schedule.perf.histogram("span.pool.build_seconds")
        assert hist is not None and hist.count > 0

    def test_tick_and_empty_pool_counters_surface(self, ledgered_run):
        _, result, _ = ledgered_run
        assert result.perf["tick.count"] == result.trace.ticks
        assert result.perf["pool.empty_ticks"] == result.trace.empty_pool_ticks
        assert result.trace.ticks > 0

    def test_non_slrh_heuristics_reject_obs(self):
        scenario = generate_named_scenario(12, 1)
        with pytest.raises(ValueError, match="SLRH family"):
            run_heuristic("minmin", scenario, ledger=True)
        with pytest.raises(ValueError, match="SLRH family"):
            run_heuristic("maxmax", scenario, 0.5, 0.2, ledger=True)
        with pytest.raises(ValueError, match="span tracing"):
            run_heuristic("greedy", scenario, tracer=Tracer())

    def test_deadline_infeasible_recorded_when_tau_exceeded(self):
        # Shrink tau so the run cannot finish: unmapped tasks must be
        # recorded as deadline_infeasible with a seconds-past-tau margin.
        scenario = generate_named_scenario(24, 7).with_tau(1.0)
        result = SLRH1(
            SlrhConfig(weights=Weights.from_alpha_beta(0.5, 0.2), ledger=True)
        ).map(scenario)
        if result.success:
            pytest.skip("scenario still mapped under the tiny tau")
        missed = iter_records(result.trace.ledger.records, DEADLINE_INFEASIBLE)
        assert missed
        assert all(r.machine == -1 and r.margin > 0 for r in missed)


class TestDecisionLogRoundTrip:
    def test_write_read_explain(self, ledgered_run, tmp_path):
        _, result, _ = ledgered_run
        path = tmp_path / "ledger.ndjson"
        write_decision_log(path, result)
        log = read_decision_log(path)
        assert log["header"]["schema"] == "repro.obs.ledger/1"
        assert log["header"]["heuristic"] == "SLRH-1"
        assert len(log["commits"]) == len(result.trace.records)
        assert len(log["rejects"]) == len(result.trace.ledger)
        assert log["summary"]["success"] is True

        secondary = next(c for c in log["commits"] if c["version"] == "secondary")
        report = explain_report(log, secondary["task"])
        assert f"task {secondary['task']}" in report
        assert "committed:" in report and "version=secondary" in report
        assert "secondary-version verdict" in report
        assert "margin" in report  # numeric margin in the rejection lines

    def test_write_requires_ledger(self, tmp_path):
        scenario = generate_named_scenario(12, 1)
        result = run_heuristic("slrh1", scenario, 0.5, 0.2)
        with pytest.raises(ValueError, match="without the decision ledger"):
            write_decision_log(tmp_path / "x.ndjson", result)

    def test_read_rejects_foreign_files(self, tmp_path):
        bogus = tmp_path / "not_a_ledger.ndjson"
        bogus.write_text('{"event": "header", "schema": "other/1"}\n')
        with pytest.raises(ValueError, match="repro.obs.ledger/1"):
            read_decision_log(bogus)


class TestExplainCLI:
    def test_map_then_explain_subcommands(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        ledger = tmp_path / "ledger.ndjson"
        trace = tmp_path / "trace.json"
        out = tmp_path / "mapping.json"
        rc = main([
            "map", "--generate", "24", "--seed", "7",
            "--out", str(out),
            "--ledger-out", str(ledger),
            "--trace-out", str(trace),
        ])
        assert rc == 0 and ledger.exists() and trace.exists()
        assert json.loads(trace.read_text())["traceEvents"]
        capsys.readouterr()

        rc = main(["explain", str(ledger)])
        assert rc == 0
        listing = capsys.readouterr().out
        assert "commits" in listing and "--task" in listing

        # find a secondary commit to explain
        commits = [
            json.loads(l)
            for l in ledger.read_text().splitlines()
            if '"event": "commit"' in l or '"event":"commit"' in l
        ]
        task = next(c["task"] for c in commits if c["version"] == "secondary")
        rc = main(["explain", str(ledger), "--task", str(task)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "secondary-version verdict" in report and "margin" in report

    def test_explain_missing_file_errors_cleanly(self, tmp_path, capsys):
        from repro.experiments.__main__ import explain_main

        with pytest.raises(SystemExit) as exc:
            explain_main([str(tmp_path / "missing.ndjson"), "--task", "0"])
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Prometheus exposition


class TestPrometheus:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("pool.reuse_hits") == "repro_pool_reuse_hits"
        assert sanitize_metric_name("repro_already") == "repro_already"
        assert sanitize_metric_name("weird-char$") == "repro_weird_char_"
        assert sanitize_metric_name("9lives", namespace="") == "_9lives"

    def test_golden_exposition(self):
        doc = {
            "schema": "repro.perf/2",
            "context": {"service": "repro.service"},
            "counters": {
                "plan.pairs": 42.0,
                "pool.reuse_hits": 30.0,
                "pool.invalidations": 12.0,
                "commit.count": 7.0,
                "tick.count": 19.0,
                "pool.empty_ticks": 4.0,
                "service.submitted": 3.0,
            },
            "gauges": {
                "service.queue_depth": 3.0,
                "service.draining": 0.0,
                "service.load": float("nan"),
            },
            "histograms": {
                "service.map_seconds": {
                    "count": 4, "sum": 1.0, "mean": 0.25,
                    "p50": 0.2, "p95": 0.4, "p99": 0.4,
                },
            },
        }
        assert render_prometheus(doc) == (GOLDEN / "metrics.prom").read_text()

    def test_exposition_grammar(self):
        text = render_prometheus(
            {"counters": {"a.b": 1}, "histograms": {"h": {"count": 1, "sum": 2.0, "p50": 2.0}}}
        )
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name = line.split("{")[0].split(" ")[0]
                assert name[0].isalpha() or name[0] == "_"
        assert "repro_a_b_total 1" in text
        assert 'repro_h{quantile="0.5"} 2' in text
        assert "repro_h_count 1" in text
        assert render_prometheus({}) == ""


# ---------------------------------------------------------------------------
# service integration: /metrics negotiation + access log golden


@pytest.fixture()
def obs_service():
    from repro.service.app import make_server
    from repro.service.jobs import ShardRouter
    from repro.service.registry import ScenarioRegistry

    manager = ShardRouter(ScenarioRegistry(), shards=1, max_queue=8)
    server = make_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    manager.drain(timeout=30)
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    manager.close(drain_timeout=0)


def _get(url: str, headers: dict | None = None) -> tuple[int, str, bytes]:
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


class TestServiceObservability:
    def test_metrics_content_negotiation(self, obs_service):
        # default: JSON document
        status, ctype, body = _get(obs_service + "/metrics")
        assert status == 200 and ctype == "application/json"
        assert json.loads(body)["schema"] == "repro.perf/2"
        # Accept: text/plain -> Prometheus exposition
        status, ctype, body = _get(
            obs_service + "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert ctype.startswith("text/plain") and "version=0.0.4" in ctype
        text = body.decode()
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert text.endswith("\n")
        # ?format=prom works without the header; ?format=json forces JSON
        status, ctype, _ = _get(obs_service + "/metrics?format=prom")
        assert ctype.startswith("text/plain")
        status, ctype, _ = _get(
            obs_service + "/metrics?format=json", headers={"Accept": "text/plain"}
        )
        assert ctype == "application/json"

    def test_access_log_golden_record(self, obs_service):
        buf = io.StringIO()
        configure(stream=buf)
        try:
            status, _, _ = _get(obs_service + "/healthz")
            assert status == 200
            # The handler writes the access record after the response is
            # on the wire, so the client can get here first: wait for the
            # record before detaching the log.
            deadline = time.monotonic() + 5.0
            while (
                '"http.request"' not in buf.getvalue()
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        finally:
            disable()
        records = [json.loads(l) for l in buf.getvalue().splitlines()]
        access = next(r for r in records if r.get("event") == "http.request")
        assert access.pop("ts") > 0
        assert 0.0 <= access.pop("latency_seconds") < 30.0
        golden = json.loads((GOLDEN / "access_log.json").read_text())
        assert access == golden

    def test_job_lifecycle_events(self, obs_service):
        from repro.io.serialization import scenario_to_dict

        buf = io.StringIO()
        configure(stream=buf)
        try:
            doc = scenario_to_dict(generate_named_scenario(12, 1))
            req = urllib.request.Request(
                obs_service + "/v1/scenarios",
                data=json.dumps(doc).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                sid = json.loads(resp.read())["id"]
            req = urllib.request.Request(
                obs_service + "/v1/map",
                data=json.dumps({"scenario": sid, "heuristic": "slrh1"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                assert resp.status == 200
        finally:
            disable()
        events = [json.loads(l)["event"] for l in buf.getvalue().splitlines()]
        for expected in ("job.submitted", "job.dispatched", "job.finished"):
            assert expected in events, events


# ---------------------------------------------------------------------------
# loadgen retry budget


class _Stub429Handler:
    """Minimal handler factory answering every /v1/map with 429."""

    @staticmethod
    def make(counts: dict):
        from http.server import BaseHTTPRequestHandler

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *a):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                counts["posts"] = counts.get("posts", 0) + 1
                body = json.dumps({"error": "full", "retry_after": 0}).encode()
                self.send_response(429)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        return Handler


class TestLoadgenRetryBudget:
    def test_gives_up_after_bounded_retries(self):
        from http.server import ThreadingHTTPServer

        from repro.service.loadgen import run_level

        counts: dict = {}
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub429Handler.make(counts))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            level = run_level(
                f"http://{host}:{port}", ["sha256:x"], "slrh1",
                clients=2, requests_per_client=2, max_retries=3,
            )
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
        # 2 clients x 2 requests, each giving up after 3 retries
        assert level["gave_up"] == 4
        assert level["retries_429"] == 4 * (3 + 1)  # initial try + 3 retries
        assert level["requests"] == 0 and level["errors"] == 0
        # every attempt hit the stub: (3 retries + 1 first try) per request
        assert counts["posts"] == level["retries_429"]


# ---------------------------------------------------------------------------
# the CI regression gate (logic only; the workload runs in CI)


class TestRegressionGate:
    @pytest.fixture(scope="class")
    def gate(self):
        sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))
        try:
            import check_regression
        finally:
            sys.path.pop(0)
        return check_regression

    def _snapshot(self, gate, speedup=1.5, pairs=100.0):
        return {
            "schema": gate.SCHEMA,
            "variants": {
                "slrh1": {
                    "columnar_seconds": 0.1,
                    "rebuild_seconds": 0.1 * speedup,
                    "kernel_speedup": speedup,
                    "counters": {"plan.pairs": pairs},
                }
            },
        }

    def test_identical_snapshot_passes(self, gate):
        base = self._snapshot(gate)
        assert gate.compare(self._snapshot(gate), base, tolerance=0.25) == []

    def test_speedup_regression_fails_beyond_25_percent(self, gate):
        base = self._snapshot(gate, speedup=2.0)
        ok = gate.compare(self._snapshot(gate, speedup=1.6), base, 0.25)
        assert ok == []  # 20% loss: within tolerance
        bad = gate.compare(self._snapshot(gate, speedup=1.4), base, 0.25)
        assert len(bad) == 1 and "speedup regressed" in bad[0]

    def test_structural_counter_drift_fails_exactly(self, gate):
        base = self._snapshot(gate)
        bad = gate.compare(self._snapshot(gate, pairs=101.0), base, 0.25)
        assert len(bad) == 1 and "plan.pairs" in bad[0]

    def test_checked_in_baseline_matches_live_counters(self, gate):
        """The structural counters in the committed baseline must describe
        the current algorithm — a cheap single-variant re-measure."""
        baseline = json.loads(gate.BASELINE_PATH.read_text())
        assert baseline["schema"] == gate.SCHEMA
        scenario = generate_named_scenario(gate.N_TASKS, gate.SEED)
        result = SLRH1(
            SlrhConfig(weights=Weights.from_alpha_beta(gate.ALPHA, gate.BETA))
        ).map(scenario)
        for counter, expected in baseline["variants"]["slrh1"]["counters"].items():
            assert result.perf.get(counter, 0.0) == expected, counter
