"""A lock witness for the service's threads, after Linux lockdep.

``tests/conftest.py`` installs :data:`WITNESS` for every test run.  It
replaces the ``threading`` name in each :mod:`repro.service` module
with a proxy whose ``Lock()`` makes a :class:`WitnessLock`, labelled
``Class.attr`` from the line that made it (``ProcessShard._pipe_lock``).
Each lock knows its owner thread and where it was taken; each thread has
the list of locks it holds.  The witness records a violation, and the
test in which it happened fails with the acquisition stacks, when

* a blocking acquire does not rise in :data:`RANKS` above every lock the
  thread already holds.  Two locks of one rank never nest, so the table
  is acyclic by construction and no graph search is needed;
* a ``*_locked`` or ``# requires-lock: <attr>`` method runs while the
  calling thread does not own its lock;
* the service makes a lock that :data:`RANKS` does not list.

Two kinds of hold source no edges.  A hold taken outside ``repro.*``
code is not the service's order: a test may stall a shard with
``with shard._pipe_lock:`` and then call the router.  An
``acquire(blocking=False)`` probe can fail but never deadlock.

Violations are recorded, never raised: a dispatcher thread catches
``Exception``, so a raise there would read as an ordinary failed job.
A forked shard child inherits the witness, but what it sees stays in
the child, so ``SessionHost._lock`` is ranked yet never checked here.
"""

from __future__ import annotations

import _thread
import functools
import importlib
import inspect
import linecache
import pkgutil
import re
import sys
import threading
import traceback
from types import FrameType, ModuleType
from typing import Any, Callable

#: The service's lock order.  A thread may block on a lock only when the
#: lock's rank is above the rank of every lock the thread holds.
RANKS: dict[str, int] = {
    "SessionManager._lock": 0,
    "LiveSession.lock": 1,
    "ShardRouter._lock": 2,
    "ProcessShard._lock": 3,
    "ProcessShard._pipe_lock": 3,
    "ScenarioRegistry._lock": 4,
    "MapRun._encode_lock": 4,
    "SessionHost._lock": 4,
}

#: ``self.<attr> = threading.Lock()``, the line a lock's label comes from.
_LOCK_LINE = re.compile(r"self\.(\w+)\s*(?::[^=]+)?=\s*threading\.Lock\(\)")
_REQUIRES_LOCK = re.compile(r"#\s*requires-lock:\s*(\w+)")

#: Frames kept per acquisition stack.
STACK_DEPTH = 12

Stack = tuple[tuple[str, int, str], ...]


def _stack(frame: FrameType | None) -> Stack:
    frames = []
    while frame is not None and len(frames) < STACK_DEPTH:
        frames.append((frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name))
        frame = frame.f_back
    return tuple(frames)


def _format(stack: Stack) -> str:
    return "".join(traceback.format_list([(*f, None) for f in reversed(stack)]))


def _caller(frame: FrameType) -> FrameType:
    """The first frame outside ``threading``: a ``Condition`` takes and
    retakes its lock on behalf of the code that uses it."""
    while frame.f_back is not None and frame.f_globals.get("__name__") == "threading":
        frame = frame.f_back
    return frame


class WitnessLock:
    """A ``threading.Lock`` that reports to its :class:`Witness`.

    ``threading.Condition(lock)`` keeps working: it needs ``acquire``,
    ``release`` and an owner-aware ``_is_owned``.
    """

    def __init__(self, witness: Witness, label: str) -> None:
        self.label = label
        self.rank = witness.ranks.get(label)
        self._witness = witness
        self._lock = _thread.allocate_lock()
        # The current hold: owner thread, whether repro code took it
        # (only those holds source edges), and where.
        self.owner: int | None = None
        self.home = False
        self.stack: Stack = ()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._witness._acquire(self, sys._getframe(1), blocking, timeout)

    def __enter__(self) -> bool:
        return self._witness._acquire(self, sys._getframe(1), True, -1)

    def release(self) -> None:
        self._witness._release(self)

    def __exit__(self, *exc: object) -> None:
        self._witness._release(self)

    def locked(self) -> bool:
        return self._lock.locked()

    def _is_owned(self) -> bool:
        return self.owner == threading.get_ident()

    def __reduce__(self) -> Any:
        raise TypeError(f"cannot pickle lock {self.label}")


class _Threading:
    """``threading`` as a witnessed module sees it: the real module, but
    ``Lock()`` makes a :class:`WitnessLock`."""

    def __init__(self, witness: Witness) -> None:
        self._witness = witness

    def __getattr__(self, name: str) -> Any:
        return getattr(threading, name)

    def Lock(self) -> WitnessLock:  # threading's name
        frame = sys._getframe(1)
        code = frame.f_code
        line = linecache.getline(code.co_filename, frame.f_lineno)
        match = _LOCK_LINE.search(line)
        if match:
            label = f"{code.co_qualname.rpartition('.')[0]}.{match.group(1)}"
        else:
            label = f"{frame.f_globals['__name__']}:{code.co_qualname}"
        return self._witness.lock(label, frame)


class Witness:
    """Lock order and lock contracts for the modules it is installed in.

    *home* names the module prefixes whose holds source edges.
    """

    def __init__(self, ranks: dict[str, int], home: tuple[str, ...] = ("repro.",)) -> None:
        self.ranks = ranks
        self.home = home
        #: Every (held, acquired) pair a home thread has blocked on.
        self.edges: set[tuple[str, str]] = set()
        self.violations: list[str] = []
        self._reported = 0
        self._held: dict[int, list[WitnessLock]] = {}

    def install(self, module: ModuleType) -> None:
        """Witness the locks *module* makes from now on, and check the
        lock contracts of the classes it defines."""
        module.threading = _Threading(self)
        for cls in list(vars(module).values()):
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                self._check_contracts(cls)

    def lock(self, label: str, frame: FrameType) -> WitnessLock:
        if label not in self.ranks:
            self.violations.append(
                f"unranked lock: {label} is not in the rank table; made at\n"
                + _format(_stack(frame))
            )
        return WitnessLock(self, label)

    def unreported(self) -> list[str]:
        """The violations recorded since the last call."""
        new = self.violations[self._reported:]
        self._reported += len(new)
        return new

    # -- acquire and release ------------------------------------------------

    def _acquire(
        self, lock: WitnessLock, frame: FrameType, blocking: bool, timeout: float
    ) -> bool:
        frame = _caller(frame)
        me = threading.get_ident()
        home = frame.f_globals.get("__name__", "").startswith(self.home)
        stack = _stack(frame)
        held = self._held.setdefault(me, [])
        if home and blocking:
            # A copy: another thread may release one of these locks.
            for other in list(held):
                if not other.home:
                    continue
                self.edges.add((other.label, lock.label))
                if other.rank is None or lock.rank is None or lock.rank > other.rank:
                    continue
                self.violations.append(
                    f"lock order: blocking on {lock.label} (rank {lock.rank}) "
                    f"while holding {other.label} (rank {other.rank}); a "
                    "thread may only take a lock ranked above every lock it "
                    f"holds.\n{other.label} was taken at\n{_format(other.stack)}"
                    f"{lock.label} is being taken at\n{_format(stack)}"
                )
        if not lock._lock.acquire(blocking, timeout):
            return False
        lock.owner, lock.home, lock.stack = me, home, stack
        held.append(lock)
        return True

    def _release(self, lock: WitnessLock) -> None:
        # Any thread may release a Lock; the hold leaves its owner's list.
        owner, lock.owner = lock.owner, None
        if owner is not None and lock in self._held.get(owner, ()):
            self._held[owner].remove(lock)
        lock._lock.release()

    # -- lock contracts ----------------------------------------------------

    def _check_contracts(self, cls: type) -> None:
        """Wrap each ``*_locked`` and ``# requires-lock:`` method of *cls*.
        A bare ``*_locked`` method requires ``_lock`` when the class makes
        one, else the class's only lock."""
        made = _LOCK_LINE.findall(inspect.getsource(cls))
        default = "_lock" if "_lock" in made else (made[0] if len(made) == 1 else None)
        for name, func in list(vars(cls).items()):
            if not inspect.isfunction(func):
                continue
            match = _REQUIRES_LOCK.search(inspect.getcomments(func) or "")
            if match is not None:
                attr = match.group(1)
            elif name.endswith("_locked"):
                if default is None:
                    raise TypeError(
                        f"{cls.__qualname__}.{name} is *_locked, but the class "
                        "makes no lock it could require"
                    )
                attr = default
            else:
                continue
            setattr(cls, name, self._contract(func, attr))

    def _contract(self, func: Callable[..., Any], attr: str) -> Callable[..., Any]:
        @functools.wraps(func)
        def checked(obj: Any, *args: Any, **kwargs: Any) -> Any:
            lock = getattr(obj, attr)
            if not lock._is_owned():
                holder = (
                    f"{lock.label} is not held"
                    if lock.owner is None
                    else f"{lock.label} is held by thread {lock.owner}, taken at\n"
                    + _format(lock.stack)
                )
                self.violations.append(
                    f"lock contract: {func.__qualname__} runs without "
                    f"{lock.label}, which its caller must hold; called at\n"
                    f"{_format(_stack(sys._getframe(1)))}{holder}"
                )
            return func(obj, *args, **kwargs)

        return checked


#: The witness of the service's locks, installed by ``tests/conftest.py``.
WITNESS = Witness(RANKS)


def owns(lock: object) -> bool:
    """Whether the calling thread holds *lock*, a witnessed lock (unlike
    ``Lock.locked()``, which is true when any thread holds it)."""
    if not isinstance(lock, WitnessLock):
        raise TypeError(f"{lock!r} is not a witnessed lock")
    return lock._is_owned()


def install_service() -> None:
    """Install :data:`WITNESS` in every :mod:`repro.service` module but
    the load generator, a client whose locks guard its own tallies."""
    import repro.service

    for info in pkgutil.iter_modules(repro.service.__path__):
        if info.name not in ("__main__", "loadgen"):
            WITNESS.install(importlib.import_module(f"repro.service.{info.name}"))
