"""Tests for the whole-program analyses: call graph, lock-order cycles,
guard verification, process-boundary safety, blocking discipline, SARIF
output and the diff-aware ``--changed`` mode.

Program rules need :func:`lint_paths` (which builds the project graph);
:func:`lint_file` deliberately skips them.  Call-graph unit tests build
:class:`~repro.lint.callgraph.Project` straight from in-memory
``FileContext`` objects — no fixture files required.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.lint import build_project, lint_file, lint_paths, render_sarif
from repro.lint.__main__ import main as lint_main
from repro.lint.callgraph import lock_label
from repro.lint.model import FileContext
from repro.lint.runner import changed_files

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SERVICE = FIXTURES / "repro" / "service"
REPO = Path(__file__).resolve().parent.parent


def service_findings(rule: str, filename: str | None = None):
    report = lint_paths([SERVICE])
    found = [f for f in report.unsuppressed if f.rule == rule]
    if filename is not None:
        found = [f for f in found if f.path.endswith(filename)]
    return found


def ctx_of(module: str, source: str) -> FileContext:
    return FileContext(Path(f"/virtual/{module.replace('.', '/')}.py"),
                       source, module)


# -- call-graph resolution ----------------------------------------------------


def test_callgraph_resolves_self_and_typed_attr_calls():
    project = build_project([ctx_of("repro.service.mini", """
import threading

class Engine:
    def run(self):
        return 1

class Holder:
    def __init__(self, engine: Engine):
        self.engine = engine

    def go(self):
        self.engine.run()
        return self.local()

    def local(self):
        return 2
""")])
    holder_go = project.functions["repro.service.mini.Holder.go"]
    targets = {
        t.qname for site in project.callsites(holder_go) for t in site.targets
    }
    assert targets == {
        "repro.service.mini.Engine.run",
        "repro.service.mini.Holder.local",
    }
    assert all(not site.duck for site in project.callsites(holder_go))


def test_callgraph_resolves_imports_and_constructors():
    helpers = ctx_of("repro.service.helpers", """
def tool():
    return 1

class Widget:
    def __init__(self):
        self.n = 0
""")
    user = ctx_of("repro.service.user", """
from repro.service.helpers import tool, Widget

def use():
    tool()
    return Widget()
""")
    project = build_project([helpers, user])
    use = project.functions["repro.service.user.use"]
    targets = {
        t.qname for site in project.callsites(use) for t in site.targets
    }
    assert targets == {
        "repro.service.helpers.tool",
        "repro.service.helpers.Widget.__init__",
    }


def test_callgraph_duck_fallback_skips_container_names():
    project = build_project([ctx_of("repro.service.ducky", """
class Registry:
    def lookup(self, key):
        return key

class Caller:
    def __init__(self):
        self.stats = {}

    def use(self, thing):
        thing.lookup("x")   # duck-resolved: unique project method name
        self.stats.get("x")  # NOT resolved: dict-shaped name
""")])
    use = project.functions["repro.service.ducky.Caller.use"]
    sites = project.callsites(use)
    assert len(sites) == 1
    assert sites[0].duck
    assert sites[0].targets[0].qname == "repro.service.ducky.Registry.lookup"


def test_condition_aliases_to_wrapped_lock():
    project = build_project([ctx_of("repro.service.condal", """
import threading

class Pump:
    def __init__(self):
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)

    def kick(self):
        with self._wake:
            self._wake.notify()
""")])
    cls = project.classes["repro.service.condal.Pump"]
    assert cls.lock_alias["_wake"] == "_lock"
    kick = project.functions["repro.service.condal.Pump.kick"]
    acquired = {lock_label(lock) for lock, _ in
                project.direct_acquisitions(kick)}
    assert acquired == {"Pump._lock"}  # the condition IS the lock


def test_locked_suffix_and_requires_lock_contracts():
    project = build_project([ctx_of("repro.service.contract", """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()

    def _poke_locked(self):
        return 1

    # requires-lock: _lock
    def peek(self):
        return 2
""")])
    for name in ("_poke_locked", "peek"):
        func = project.functions[f"repro.service.contract.Box.{name}"]
        assert {lock_label(lock) for lock in project.entry_locks(func)} == {
            "Box._lock"
        }


def test_acquires_annotation_feeds_the_graph():
    project = build_project([ctx_of("repro.service.notes", """
import threading

class Outer:
    def __init__(self):
        self._lock = threading.Lock()

    # acquires: Inner._lock
    def _step_locked(self):
        return opaque_dispatch()

class Inner:
    def __init__(self):
        self._lock = threading.Lock()
""")])
    step = project.functions["repro.service.notes.Outer._step_locked"]
    acquired = {lock_label(lock) for lock, _ in
                project.direct_acquisitions(step)}
    assert acquired == {"Inner._lock"}


# -- lock-order ---------------------------------------------------------------


def test_lock_order_cycle_found_with_witness_path():
    found = service_findings("lock-order-cycle", "bad_lock_order.py")
    assert len(found) == 1
    msg = found[0].message
    assert "potential deadlock" in msg
    assert "Alpha._lock -> Beta._lock -> Alpha._lock" in msg
    # The witness path names concrete functions and lines for both edges.
    assert "Alpha.forward" in msg and "Beta.backward" in msg
    assert "Beta.grab" in msg and "Alpha.poke" in msg


def test_lock_order_hierarchy_and_nonblocking_probe_clean():
    assert service_findings("lock-order-cycle", "good_lock_order.py") == []


# -- guard-verification -------------------------------------------------------


def test_unguarded_helper_call_is_found_with_guarded_attr_named():
    found = service_findings("guard-verified-call", "bad_guard_call.py")
    assert {f.line for f in found} == {30, 33}
    by_line = {f.line: f.message for f in found}
    assert "Counter.racy calls Counter._bump_locked" in by_line[30]
    assert "the _locked suffix" in by_line[30]
    assert "self._total" in by_line[30]  # what the lock protects
    assert "# requires-lock" in by_line[33]


def test_guarded_calls_with_lock_held_are_clean():
    assert service_findings("guard-verified-call", "good_guard_call.py") == []


# -- process-boundary ---------------------------------------------------------


def test_unpicklable_pipe_payloads_found():
    found = service_findings("pipe-unpicklable", "bad_pipe.py")
    assert {f.line for f in found} == {31, 32, 37, 43}
    messages = "\n".join(f.message for f in found)
    assert "a lock" in messages and "a thread" in messages
    assert "fork-time Process args" in messages
    # The indirect case names the witness chain through Sender.ship.
    indirect = [f for f in found if f.line == 43][0]
    assert "Sender.ship" in indirect.message
    assert "Sender.ship:" in indirect.message  # qname:line witness


def test_thread_started_before_fork_found():
    found = service_findings("thread-before-fork", "bad_pipe.py")
    assert len(found) == 1
    assert "starts a thread" in found[0].message
    assert "forks at line" in found[0].message


def test_clean_boundary_usage_passes():
    for rule in ("pipe-unpicklable", "thread-before-fork"):
        assert service_findings(rule, "good_pipe.py") == []


# -- blocking-discipline ------------------------------------------------------


def test_timeoutless_waits_found():
    found = service_findings("blocking-call-timeout", "bad_blocking.py")
    assert {f.line for f in found} == {16, 17, 24}
    messages = "\n".join(f.message for f in found)
    assert ".get()" in messages
    assert "bounded" in messages
    assert ".recv()" in messages


def test_bounded_waits_and_poll_credit_pass():
    assert service_findings(
        "blocking-call-timeout", "good_blocking.py"
    ) == []


def test_justified_suppression_masks_blocking_finding():
    report = lint_paths([SERVICE])
    suppressed = [
        f for f in report.suppressed
        if f.rule == "blocking-call-timeout"
        and f.path.endswith("good_blocking.py")
    ]
    assert len(suppressed) == 1
    assert suppressed[0].justification


# -- runner integration -------------------------------------------------------


def test_lint_file_skips_program_rules():
    found = lint_file(SERVICE / "bad_lock_order.py")
    assert [f for f in found if f.rule == "lock-order-cycle"] == []


def test_program_findings_respect_scope():
    # Same cycle source pinned outside every program-rule scope: silent.
    source = (SERVICE / "bad_lock_order.py").read_text()
    report = lint_paths(
        [SERVICE / "bad_lock_order.py"],
        modules={SERVICE / "bad_lock_order.py": "somewhere.else"},
    )
    assert source  # (read to keep the fixture honest about existing)
    assert [
        f for f in report.findings if f.rule == "lock-order-cycle"
    ] == []


def test_changed_only_filters_findings_but_keeps_graph():
    # Only good_lock_order.py "changed": the bad file's cycle is filtered
    # out of the report even though the graph saw it.
    changed = {(SERVICE / "good_lock_order.py").resolve()}
    report = lint_paths([SERVICE], changed_only=changed)
    assert report.unsuppressed == []
    full = lint_paths([SERVICE])
    assert any(f.rule == "lock-order-cycle" for f in full.unsuppressed)


def test_changed_files_reads_git(tmp_path):
    git = lambda *a: subprocess.run(
        ["git", *a], cwd=tmp_path, check=True, capture_output=True
    )
    try:
        git("init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git unavailable")
    git("config", "user.email", "t@example.invalid")
    git("config", "user.name", "t")
    (tmp_path / "a.py").write_text("A = 1\n")
    git("add", "a.py")
    git("commit", "-qm", "seed")
    (tmp_path / "a.py").write_text("A = 2\n")
    (tmp_path / "b.py").write_text("B = 1\n")  # untracked counts too
    changed = changed_files("HEAD", repo_root=tmp_path)
    assert {p.name for p in changed} == {"a.py", "b.py"}


# -- SARIF --------------------------------------------------------------------


def test_sarif_output_is_valid_and_carries_suppressions():
    report = lint_paths([SERVICE])
    doc = json.loads(render_sarif(report, base_dir=REPO))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "lock-order-cycle" in rule_ids
    results = run["results"]
    assert results, "fixtures must produce SARIF results"
    levels = {r["level"] for r in results}
    assert "error" in levels
    suppressed = [r for r in results if r.get("suppressions")]
    assert suppressed and all(
        s["suppressions"][0]["kind"] == "inSource" for s in suppressed
    )
    for result in results:
        loc = result["locations"][0]["physicalLocation"]
        uri = loc["artifactLocation"]["uri"]
        assert not uri.startswith("/")  # relative to the repo root
        assert loc["region"]["startLine"] >= 1


def test_cli_sarif_format(capsys):
    rc = lint_main(["--format", "sarif", str(SERVICE / "good_pipe.py")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"] == []


# -- the repo itself ----------------------------------------------------------


def test_repo_concurrency_rules_clean_and_exercised():
    """The four new families run repo-wide and pass; the known-justified
    shard_main recv suppression proves the pipeline is actually looking."""
    report = lint_paths(
        [REPO / "src"],
        rule_ids=[
            "lock-order-cycle",
            "guard-verified-call",
            "pipe-unpicklable",
            "thread-before-fork",
            "blocking-call-timeout",
        ],
    )
    assert report.unsuppressed == [], [
        f"{f.path}:{f.line} [{f.rule}] {f.message}" for f in report.unsuppressed
    ]
    assert any(
        f.rule == "blocking-call-timeout" and f.path.endswith("worker.py")
        for f in report.suppressed
    ), "shard_main's justified recv suppression must be exercised"


def test_repo_lock_graph_matches_documented_hierarchy():
    """The audited order: router -> shard queue lock, manager/session ->
    shard pipe and session-host locks, and never the reverse."""
    from repro.lint.model import module_path_for
    from repro.lint.rules.lock_order import _function_edges
    from repro.lint.runner import iter_python_files

    ctxs = [
        FileContext(p, p.read_text(encoding="utf-8"), module_path_for(p))
        for p in iter_python_files([REPO / "src"])
    ]
    project = build_project(ctxs)
    edges: dict = {}
    for func in project.functions_in_scope(
        ("repro.service", "repro.session", "repro.util")
    ):
        _function_edges(project, func, edges)
    labels = {(lock_label(a), lock_label(b)) for a, b in edges}
    assert ("ShardRouter._lock", "ProcessShard._lock") in labels
    assert ("ProcessShard._lock", "ShardRouter._lock") not in labels
    for upper in ("SessionManager._lock", "LiveSession.lock"):
        for lower in ("ProcessShard._pipe_lock", "SessionHost._lock"):
            assert (lower, upper) not in labels
