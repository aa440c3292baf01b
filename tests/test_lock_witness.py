"""The lock witness itself (``tests/lock_witness.py``).

The toy cases install a fresh :class:`Witness` in a toy module, so what
they break is recorded there and never fails the run.  The last case
drives the real service and reads the suite-wide :data:`WITNESS`.
"""

from __future__ import annotations

import importlib.util
import sys
import threading

import pytest

from repro.heuristics import generate_named_scenario
from repro.io.serialization import scenario_to_dict
from repro.service.jobs import ShardRouter
from repro.service.registry import ScenarioRegistry
from repro.service.sessions import SessionManager
from repro.session import event_from_dict
from tests.lock_witness import WITNESS, Witness, owns

TOY_SOURCE = '''\
import threading


class Alpha:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def forward(self, beta):
        with self._lock:
            beta.poke()

    def poke(self):
        with self._lock:
            self.count += 1

    def _bump_locked(self):
        self.count += 1

    # requires-lock: _lock
    def peek(self):
        return self.count

    def bump(self):
        with self._lock:
            self._bump_locked()
            return self.peek()

    def racy(self):
        self._bump_locked()
        return self.peek()


class Beta:
    def __init__(self):
        self._lock = threading.Lock()

    def backward(self, alpha):
        with self._lock:
            alpha.poke()

    def poke(self):
        with self._lock:
            pass

    def probe(self, alpha):
        with self._lock:
            if alpha._lock.acquire(blocking=False):
                alpha._lock.release()


class Gamma:
    def __init__(self):
        self._lock = threading.Lock()
'''

TOY_RANKS = {"Alpha._lock": 1, "Beta._lock": 2}


@pytest.fixture()
def toy(tmp_path, monkeypatch):
    """The toy module, with its own witness installed."""
    path = tmp_path / "witness_toy.py"
    path.write_text(TOY_SOURCE)
    spec = importlib.util.spec_from_file_location("witness_toy", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "witness_toy", module)
    spec.loader.exec_module(module)
    witness = Witness(TOY_RANKS, home=("witness_toy",))
    witness.install(module)
    return module, witness


def _first_line_of(method: str) -> int:
    """The line number of the first statement of a toy method."""
    return TOY_SOURCE.splitlines().index(f"    def {method}:") + 2


def test_nesting_both_ways_names_both_stacks(toy):
    module, witness = toy
    alpha, beta = module.Alpha(), module.Beta()
    alpha.forward(beta)  # rank 1 then 2: legal
    assert witness.violations == []
    beta.backward(alpha)  # rank 2 then 1: the inversion
    assert witness.edges == {("Alpha._lock", "Beta._lock"), ("Beta._lock", "Alpha._lock")}
    [message] = witness.unreported()
    assert "blocking on Alpha._lock (rank 1) while holding Beta._lock (rank 2)" in message
    held, taken = message.split("Alpha._lock is being taken at")
    # Each stack ends at its own acquire.
    assert f"line {_first_line_of('backward(self, alpha)')}, in backward" in held
    assert f"line {_first_line_of('poke(self)')}, in poke" in taken
    assert "test_nesting_both_ways_names_both_stacks" in taken
    assert witness.unreported() == []


def test_test_held_locks_and_probes_source_no_edge(toy):
    module, witness = toy
    alpha, beta = module.Alpha(), module.Beta()
    with beta._lock:  # held by test code, not by the toy module
        alpha.poke()
    beta.probe(alpha)  # a non-blocking probe of a lower rank
    assert witness.edges == set()
    assert witness.violations == []


def test_locked_call_without_its_lock_is_reported(toy):
    module, witness = toy
    alpha = module.Alpha()
    assert alpha.bump() == 1
    assert witness.violations == []
    assert alpha.racy() == 2  # recorded, not raised
    suffix, annotated = witness.unreported()
    assert "Alpha._bump_locked runs without Alpha._lock" in suffix
    assert "Alpha.peek runs without Alpha._lock" in annotated
    assert "in racy" in suffix and "Alpha._lock is not held" in suffix


def test_contract_names_the_thread_that_holds_the_lock(toy):
    module, witness = toy
    alpha = module.Alpha()
    taken, release = threading.Event(), threading.Event()

    def hold() -> None:
        with alpha._lock:
            taken.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert taken.wait(10)
        assert alpha._lock.locked() and not owns(alpha._lock)
        alpha.peek()
    finally:
        release.set()
        holder.join(10)
    [message] = witness.unreported()
    assert f"is held by thread {holder.ident}" in message and "in hold" in message


def test_unranked_lock_is_reported(toy):
    module, witness = toy
    module.Gamma()
    [message] = witness.unreported()
    assert "unranked lock: Gamma._lock" in message
    assert "in __init__" in message


def test_condition_on_a_witnessed_lock(toy):
    module, witness = toy
    alpha = module.Alpha()
    ready = threading.Condition(alpha._lock)
    with pytest.raises(RuntimeError):
        ready.notify()  # not owned by this thread
    with ready:
        assert owns(alpha._lock)
        assert not ready.wait(timeout=0.01)
        assert owns(alpha._lock)
    assert not alpha._lock.locked()
    assert witness.violations == []


def test_service_run_takes_the_documented_edges():
    """A job, a session open, one event batch that closes it: the
    witness sees the three orders the service documents."""
    registry = ScenarioRegistry()
    router = ShardRouter(registry, shards=1).start()
    try:
        sessions = SessionManager(registry, router=router)
        sid, _ = registry.put(scenario_to_dict(generate_named_scenario(12, 3)))
        WITNESS.edges.clear()
        job = router.submit(sid, "greedy")
        assert job.done.wait(60) and job.state == "succeeded", job.error
        session = sessions.open({"scenario": sid, "heuristic": "slrh1"})
        events = [
            event_from_dict({"event": "advance", "cycle": 5}),
            event_from_dict({"event": "close", "cycle": 10}),
        ]
        assert list(session.stream(events))
        assert session.status_doc()["state"] == "closed"
    finally:
        router.close(drain_timeout=0)
    assert {
        ("ShardRouter._lock", "ProcessShard._lock"),
        ("SessionManager._lock", "ShardRouter._lock"),
        ("LiveSession.lock", "ShardRouter._lock"),
    } <= WITNESS.edges
    for held, taken in WITNESS.edges:
        assert WITNESS.ranks[held] < WITNESS.ranks[taken]
