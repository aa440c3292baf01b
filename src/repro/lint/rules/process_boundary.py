"""Process-boundary family: what may cross the fork line.

A shard child (:class:`repro.service.shard.ProcessShard`) talks to its
parent over one duplex pipe; anything written to a pipe or queue must
survive pickling in one process and unpickling in another.  Locks,
threads, sockets, generators, lambdas and open files do not — they
either raise at pickle time (best case) or silently detach from the
state they guarded (worst case).  The "picklable whitelist" is
therefore defined by its complement: a payload is fine unless the
analyzer can *prove* it is one of the known-bad kinds
(:data:`_BAD_KINDS`), directly or one call away through a parameter that
flows into a boundary send.

The second rule covers fork hygiene: CPython's ``fork`` clones only the
calling thread, so a thread started *before* the fork leaves the child
with locks whose owners no longer exist.  Within any function that forks
(starts a ``Process``, directly or through a resolved callee), every
thread ``.start()`` must come lexically after the fork point — the
``ProcessShard.start`` ordering ("fork before traffic") becomes a
checked invariant instead of a comment.  The check is lexical, within
one function: that ``ShardRouter.start`` forks every child before it
starts any dispatcher thread is pinned by a test instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import FunctionInfo, Project
from repro.lint.model import Finding
from repro.lint.registry import register

_SCOPES = ("repro.service", "repro.util")

#: Kind tags that must never cross a pipe/queue to another process.
_BAD_KINDS = {
    "lock": "a lock",
    "condition": "a condition variable",
    "thread": "a thread",
    "socket": "a socket",
    "generator": "a generator",
    "lambda": "a lambda",
    "file": "an open file",
    "process": "a process handle",
}

#: Kinds additionally banned in *runtime* sends (pickled through the
#: channel) but fine as fork-time ``Process(args=...)`` arguments, where
#: multiprocessing hands them to the child by inheritance.
_RUNTIME_ONLY_BAD = {
    "connection": "a pipe connection",
    "queue": "a multiprocessing queue",
    "queue-bounded": "a bounded queue",
    "event": "an event",
}


def _bad_kind(kinds: tuple[str, ...], fork_time: bool) -> str | None:
    for kind in kinds:
        if kind in _BAD_KINDS:
            return _BAD_KINDS[kind]
        if not fork_time and kind in _RUNTIME_ONLY_BAD:
            return _RUNTIME_ONLY_BAD[kind]
    return None


def _payload_parts(expr: ast.expr) -> list[ast.expr]:
    """The expressions actually crossing: tuple/list/dict payloads are
    checked element-wise, everything else as one value."""
    if isinstance(expr, (ast.Tuple, ast.List)):
        out: list[ast.expr] = []
        for elt in expr.elts:
            if isinstance(elt, ast.Starred):
                out.append(elt.value)
            else:
                out.extend(_payload_parts(elt))
        return out
    if isinstance(expr, ast.Dict):
        return [v for v in expr.values if v is not None]
    return [expr]


def _boundary_sends(
    project: Project, func: FunctionInfo
) -> Iterator[tuple[ast.Call, ast.expr, bool]]:
    """``(call, payload, fork_time)`` for every boundary crossing in
    *func*: ``<connection>.send(x)``, ``<queue>.put(x)``, and the
    ``args=(...)`` of a ``Process`` construction."""
    env = project.function_env(func)
    cls = (
        project.classes.get(func.class_qname)
        if func.class_qname is not None
        else None
    )
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.args:
            kinds = project._expr_kinds(
                node.func.value, func.module, env, cls
            )
            if node.func.attr in ("send", "put", "put_nowait") and any(
                k in ("connection", "queue", "queue-bounded") for k in kinds
            ):
                yield node, node.args[0], False
                continue
        if "process" in project._expr_kinds(node, func.module, env, cls):
            for kw in node.keywords:
                if kw.arg == "args":
                    yield node, kw.value, True


def _boundary_params(
    project: Project,
    scoped: list[FunctionInfo],
) -> dict[str, dict[str, list[tuple[str, int]]]]:
    """``func qname -> {param name -> witness chain to the send}`` for
    parameters that flow into a boundary send, one propagation fixpoint
    over resolved call sites (``f(x)`` where ``f`` sends its param)."""
    flows: dict[str, dict[str, list[tuple[str, int]]]] = {}
    for func in scoped:
        param_names = {
            a.arg
            for a in (
                func.node.args.posonlyargs
                + func.node.args.args
                + func.node.args.kwonlyargs
            )
        }
        for call, payload, _fork in _boundary_sends(project, func):
            for part in _payload_parts(payload):
                if isinstance(part, ast.Name) and part.id in param_names:
                    flows.setdefault(func.qname, {}).setdefault(
                        part.id, [(func.qname, call.lineno)]
                    )
    for _ in range(4):  # chains deeper than this don't exist in practice
        changed = False
        for func in scoped:
            param_names = [
                a.arg
                for a in (
                    func.node.args.posonlyargs + func.node.args.args
                )
                if a.arg not in ("self", "cls")
            ]
            for site in project.callsites(func):
                if site.duck:
                    continue
                for target in site.targets:
                    sink = flows.get(target.qname)
                    if not sink:
                        continue
                    t_params = [
                        a.arg
                        for a in (
                            target.node.args.posonlyargs
                            + target.node.args.args
                        )
                        if a.arg not in ("self", "cls")
                    ]
                    for i, arg in enumerate(site.node.args):
                        if i >= len(t_params):
                            break
                        chain = sink.get(t_params[i])
                        if chain is None:
                            continue
                        if (
                            isinstance(arg, ast.Name)
                            and arg.id in param_names
                        ):
                            mine = flows.setdefault(func.qname, {})
                            if arg.id not in mine:
                                mine[arg.id] = [
                                    (func.qname, site.node.lineno)
                                ] + chain
                                changed = True
        if not changed:
            break
    return flows


@register(
    "pipe-unpicklable",
    "process-boundary",
    "payloads crossing a shard's pipe (or any queue) to another process must "
    "be picklable by construction — no locks, threads, sockets, "
    "generators, lambdas or open files across a fork boundary",
    scopes=_SCOPES,
    program=True,
)
def pipe_unpicklable(project: Project) -> Iterator[Finding]:
    scoped = project.functions_in_scope(_SCOPES)
    flows = _boundary_params(project, scoped)
    for func in scoped:
        env = project.function_env(func)
        cls = (
            project.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        # Direct sends.
        for call, payload, fork_time in _boundary_sends(project, func):
            for part in _payload_parts(payload):
                kinds = project._expr_kinds(part, func.module, env, cls)
                bad = _bad_kind(kinds, fork_time)
                if bad is not None:
                    where = (
                        "fork-time Process args" if fork_time
                        else "the process boundary"
                    )
                    yield Finding(
                        rule="pipe-unpicklable",
                        path=str(func.ctx.path),
                        line=part.lineno,
                        col=part.col_offset,
                        message=(
                            f"{func.short} sends {bad} "
                            f"({ast.unparse(part)}) across {where}"
                        ),
                    )
        # Indirect: an argument flowing into a callee's boundary send.
        for site in project.callsites(func):
            if site.duck:
                continue
            for target in site.targets:
                sink = flows.get(target.qname)
                if not sink:
                    continue
                t_params = [
                    a.arg
                    for a in (
                        target.node.args.posonlyargs + target.node.args.args
                    )
                    if a.arg not in ("self", "cls")
                ]
                for i, arg in enumerate(site.node.args):
                    if i >= len(t_params):
                        break
                    chain = sink.get(t_params[i])
                    if chain is None:
                        continue
                    kinds = project._expr_kinds(arg, func.module, env, cls)
                    bad = _bad_kind(kinds, fork_time=False)
                    if bad is None:
                        continue
                    witness = " -> ".join(
                        f"{q}:{line}" for q, line in chain
                    )
                    yield Finding(
                        rule="pipe-unpicklable",
                        path=str(func.ctx.path),
                        line=arg.lineno,
                        col=arg.col_offset,
                        message=(
                            f"{func.short} passes {bad} "
                            f"({ast.unparse(arg)}) to {target.short}, "
                            f"which sends it across the process boundary "
                            f"[{witness}]"
                        ),
                    )


@register(
    "thread-before-fork",
    "process-boundary",
    "no thread may be started before a fork on the same setup path — the "
    "child inherits locked locks whose owner threads do not exist",
    scopes=_SCOPES,
    program=True,
)
def thread_before_fork(project: Project) -> Iterator[Finding]:
    # A function "forks" at the line it starts a Process, or calls a
    # resolved callee that does.
    fork_line: dict[str, int] = {}
    scoped = project.functions_in_scope(_SCOPES)
    for func in scoped:
        env = project.function_env(func)
        cls = (
            project.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "start"
            ):
                kinds = project._expr_kinds(
                    node.func.value, func.module, env, cls
                )
                if "process" in kinds:
                    fork_line[func.qname] = min(
                        fork_line.get(func.qname, node.lineno), node.lineno
                    )
    for _ in range(4):  # propagate through resolved call chains
        changed = False
        for func in scoped:
            for site in project.callsites(func):
                if site.duck:
                    continue
                if any(t.qname in fork_line for t in site.targets):
                    line = site.node.lineno
                    if line < fork_line.get(func.qname, 10**9):
                        fork_line[func.qname] = line
                        changed = True
        if not changed:
            break
    for func in scoped:
        fork_at = fork_line.get(func.qname)
        if fork_at is None:
            continue
        env = project.function_env(func)
        cls = (
            project.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        for node in ast.walk(func.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "start"
                and node.lineno < fork_at
            ):
                continue
            kinds = project._expr_kinds(node.func.value, func.module, env, cls)
            if "thread" in kinds:
                yield Finding(
                    rule="thread-before-fork",
                    path=str(func.ctx.path),
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{func.short} starts a thread "
                        f"({ast.unparse(node.func.value)}) at line "
                        f"{node.lineno} but forks at line {fork_at}; "
                        f"start threads after the fork"
                    ),
                )
