"""Whole-program model: symbol tables, a call graph, and lock analysis.

The per-file rules of PR 5 trust conventions (the ``*_locked`` suffix, the
``# guarded-by:`` comments) without being able to *verify* them — that
needs the project, not the file.  This module builds, from every
:class:`~repro.lint.model.FileContext` in one lint run:

* a **symbol table** — every class and function under its dotted qualified
  name, with the lock attributes each class declares
  (``self._lock = threading.Lock()`` and friends; a
  ``threading.Condition(self._lock)`` is an *alias* of the lock it wraps);
* **light type inference** — ``self.x = ClassName(...)`` in ``__init__``,
  annotated parameters stored on ``self``, local assignments, and a small
  set of concurrency factories (``threading.Thread`` → thread,
  ``ctx.Pipe()`` → a pair of connections, ``ctx.Queue()`` → queue …).
  Union annotations (``A | B``) fan out to every resolvable class;
* a **call graph** — call sites resolved through imports, ``self``,
  inferred attribute/local types and class constructors.  Unresolvable
  method calls fall back to *duck* edges (every project method of that
  name) unless the name collides with a builtin-container method —
  ``x.get(...)`` is almost always a dict, never ``ShardRouter.get``;
* **lock analysis** — for any AST node, the set of locks lexically held
  (enclosing ``with self._lock:`` blocks, ``.acquire()``/``.release()``
  intervals, the function's own contract), and per function the set of
  locks it may acquire *transitively* through the call graph, each with a
  witness chain for findings.

Annotation grammar (trailing comments, same style as ``# guarded-by:``):

* ``# requires-lock: <attr>`` — the function runs with ``self.<attr>``
  held by its caller (the ``*_locked`` naming convention is equivalent;
  both may also appear on the first line of the body);
* ``# acquires: <attr>`` or ``# acquires: Class.<attr>`` — the function
  acquires that lock internally in a way the AST cannot see (C code,
  dynamic dispatch); it is fed into the lock-order graph as if a
  ``with`` were visible.

Everything here is deliberately syntactic and conservative: resolution
that cannot be proven is dropped (guard verification under-approximates,
so it never false-positives on unknown receivers) or widened (lock-order
follows duck edges, so a potential cycle through an untyped ``backend``
attribute is still seen).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.lint.astutil import collect_imports, dotted_name
from repro.lint.model import FileContext, ParentMap

_REQUIRES_LOCK_RE = re.compile(
    r"#\s*requires-lock:\s*(?:self\.)?([A-Za-z_][A-Za-z0-9_]*)"
)
_ACQUIRES_RE = re.compile(
    r"#\s*acquires:\s*((?:[A-Za-z_][A-Za-z0-9_]*\.)?[A-Za-z_][A-Za-z0-9_]*)"
)
_GUARDED_BY_RE = re.compile(
    r"#\s*guarded-by:\s*(?:self\.)?([A-Za-z_][A-Za-z0-9_]*)"
)

#: Dotted factory → inferred kind tag for concurrency primitives.
_KIND_FACTORIES: dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "threading.Condition": "condition",
    "threading.Event": "event",
    "threading.Thread": "thread",
    "threading.Timer": "thread",
    "queue.Queue": "queue",
    "queue.SimpleQueue": "queue",
    "queue.LifoQueue": "queue",
    "queue.PriorityQueue": "queue",
    "multiprocessing.Queue": "queue",
    "multiprocessing.SimpleQueue": "queue",
    "multiprocessing.JoinableQueue": "queue",
    "multiprocessing.Process": "process",
    "multiprocessing.get_context": "mpcontext",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "lock",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "open": "file",
}

#: Methods of an mpcontext object (``ctx = multiprocessing.get_context()``).
_CONTEXT_FACTORIES: dict[str, str] = {
    "Queue": "queue",
    "SimpleQueue": "queue",
    "JoinableQueue": "queue",
    "Process": "process",
    "Lock": "lock",
    "RLock": "lock",
    "Pipe": "pipe-pair",
}

#: Method names never duck-resolved: they collide with builtin containers
#: or concurrency primitives, so an unresolved ``x.get(...)`` is far more
#: likely a dict than a project method.
_DUCK_EXCLUDE = frozenset(
    set(dir(dict)) | set(dir(list)) | set(dir(set)) | set(dir(str))
    | set(dir(bytes)) | set(dir(tuple)) | set(dir(frozenset))
    | {
        "acquire", "release", "wait", "notify", "notify_all", "locked",
        "send", "recv", "send_bytes", "recv_bytes", "poll", "fileno",
        "put", "get", "put_nowait", "get_nowait", "qsize", "empty", "full",
        "join", "start", "run", "is_alive", "terminate", "kill",
        "close", "open", "read", "write", "flush", "popleft", "appendleft",
        "move_to_end", "popitem", "set", "is_set",
    }
)

#: Cap on duck fan-out: a name defined on more project classes than this
#: is too generic to resolve by name alone.
_DUCK_LIMIT = 6


def _comment_annotation(
    ctx: FileContext,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    pattern: re.Pattern[str],
) -> list[str]:
    """Every *pattern* match on the ``def`` line, a standalone comment
    directly above it, or the first line of the body."""
    lines = {node.lineno, node.lineno - 1}
    if node.body:
        first = node.body[0].lineno
        lines.add(first)
        # Standalone comment lines between the signature and the body
        # (``def f(self):`` / ``# requires-lock: _lock`` / first stmt).
        lines.update(range(node.lineno + 1, first))
    out: list[str] = []
    for lineno in sorted(lines):
        text = ctx.line_text(lineno)
        stripped = text.strip()
        if lineno < node.lineno and not stripped.startswith("#"):
            continue
        if node.lineno < lineno and (
            node.body and lineno < node.body[0].lineno
        ) and not stripped.startswith("#"):
            continue
        out.extend(m.group(1) for m in pattern.finditer(text))
    return out


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qname: str  # e.g. "repro.service.jobs.ShardRouter.submit"
    module: str
    name: str
    class_qname: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext
    requires_lock: str | None = None  # own-class lock attr held on entry
    acquires_notes: tuple[str, ...] = ()  # raw "# acquires:" annotations

    @property
    def short(self) -> str:
        """Class-qualified display name (``ShardRouter.submit``)."""
        if self.class_qname is not None:
            return f"{self.class_qname.rsplit('.', 1)[-1]}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One class: its methods, declared locks, and inferred attr types."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: lock attr → "lock" | "condition"
    locks: dict[str, str] = field(default_factory=dict)
    #: condition attr → the lock attr it wraps (identity alias)
    lock_alias: dict[str, str] = field(default_factory=dict)
    #: attr → inferred kind tag ("class:<qname>", "lock", "queue", …)
    attr_kinds: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: attr → guarding lock attr (from "# guarded-by:")
    guarded: dict[str, str] = field(default_factory=dict)

    def canonical_lock(self, attr: str) -> str | None:
        """The lock attr *attr* names, following condition aliases."""
        if attr in self.lock_alias:
            return self.lock_alias[attr]
        if attr in self.locks:
            return attr
        return None

    def default_lock(self) -> str | None:
        """The lock a bare ``*_locked`` method of this class implies:
        ``_lock`` when declared, else the class's only lock."""
        real = [a for a, kind in self.locks.items() if kind == "lock"]
        if "_lock" in real:
            return "_lock"
        if len(real) == 1:
            return real[0]
        return None


#: A lock's identity: ``(owner, attr)`` where owner is a class qname for
#: instance locks or ``<module>:<function>`` for function-local locks.
LockId = tuple[str, str]


def lock_label(lock: LockId) -> str:
    owner, attr = lock[0].rsplit(".", 1)[-1], lock[1]
    return f"{owner}.{attr}"


@dataclass
class CallSite:
    """One resolved call: where, from whom, to whom."""

    caller: FunctionInfo
    node: ast.Call
    targets: tuple[FunctionInfo, ...]
    duck: bool  # resolved by name only (over-approximation)


class Project:
    """The whole-program view the program-scoped rules analyze."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: dict[str, FileContext] = {
            str(ctx.path): ctx for ctx in contexts
        }
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: bare class name → [qnames] (for annotation resolution)
        self._class_by_name: dict[str, list[str]] = {}
        #: method name → [FunctionInfo] (duck resolution)
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._imports: dict[str, dict[str, str]] = {}
        self._parents: dict[str, ParentMap] = {}
        self._env_cache: dict[str, dict[str, tuple[str, ...]]] = {}
        self._callsites: dict[str, list[CallSite]] | None = None
        self._acquires: dict[str, dict[LockId, list[tuple[str, int]]]] | None = None
        for ctx in sorted(contexts, key=lambda c: c.module):
            self._collect(ctx)
        # Second pass: attr kinds may reference classes collected later.
        for cls in self.classes.values():
            self._infer_class_attrs(cls)

    # -- construction ------------------------------------------------------

    def _collect(self, ctx: FileContext) -> None:
        self._imports[ctx.module] = collect_imports(ctx.tree)
        self._parents[str(ctx.path)] = ParentMap.of(ctx.tree)
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                self._collect_class(ctx, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(ctx, node, None)

    def _collect_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        qname = f"{ctx.module}.{node.name}"
        info = ClassInfo(
            qname=qname,
            module=ctx.module,
            name=node.name,
            node=node,
            ctx=ctx,
            bases=tuple(
                d for d in (dotted_name(b) for b in node.bases) if d is not None
            ),
        )
        self.classes[qname] = info
        self._class_by_name.setdefault(node.name, []).append(qname)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(ctx, item, info)

    def _collect_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo | None,
    ) -> None:
        qname = (
            f"{cls.qname}.{node.name}" if cls is not None
            else f"{ctx.module}.{node.name}"
        )
        # "__default__" defers resolution to entry_locks(): the class's
        # lock attrs are only known after the second inference pass.
        requires = None
        annotated = _comment_annotation(ctx, node, _REQUIRES_LOCK_RE)
        if annotated:
            requires = annotated[0]
        elif node.name.endswith("_locked") and cls is not None:
            requires = "__default__"
        info = FunctionInfo(
            qname=qname,
            module=ctx.module,
            name=node.name,
            class_qname=cls.qname if cls is not None else None,
            node=node,
            ctx=ctx,
            requires_lock=requires,
            acquires_notes=tuple(_comment_annotation(ctx, node, _ACQUIRES_RE)),
        )
        self.functions[qname] = info
        if cls is not None:
            cls.methods[node.name] = info
            self._methods_by_name.setdefault(node.name, []).append(info)

    def _infer_class_attrs(self, cls: ClassInfo) -> None:
        init = cls.methods.get("__init__")
        param_kinds: dict[str, tuple[str, ...]] = {}
        if init is not None:
            for arg in init.node.args.args + init.node.args.kwonlyargs:
                if arg.annotation is not None:
                    kinds = self._annotation_kinds(arg.annotation, cls.module)
                    if kinds:
                        param_kinds[arg.arg] = kinds
        # Walk every method (not just __init__) so late-bound attrs and
        # fixtures with setup helpers still resolve; first writer wins,
        # which keeps __init__ (collected first in class body order)
        # authoritative.
        for method in cls.methods.values():
            env = dict(param_kinds) if method is init else {}
            for node in ast.walk(method.node):
                if isinstance(node, ast.Assign):
                    self._note_assign(cls, node.targets, node.value, env)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    self._note_assign(cls, [node.target], node.value, env)
                    attr = _self_attr(node.target)
                    if attr is not None and attr not in cls.attr_kinds:
                        kinds = self._annotation_kinds(
                            node.annotation, cls.module
                        )
                        if kinds:
                            cls.attr_kinds[attr] = kinds
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    lock = _guarded_lock(cls.ctx, node.lineno)
                    if lock is not None:
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in targets:
                            attr = _self_attr(target)
                            if attr is not None:
                                cls.guarded.setdefault(attr, lock)

    def _note_assign(
        self,
        cls: ClassInfo,
        targets: list[ast.expr],
        value: ast.expr,
        env: dict[str, tuple[str, ...]],
    ) -> None:
        kinds = self._expr_kinds(value, cls.module, env, cls)
        for target in targets:
            attr = _self_attr(target)
            if attr is None:
                if isinstance(target, ast.Name):
                    if kinds:
                        env[target.id] = kinds
                elif isinstance(target, ast.Tuple) and kinds == ("pipe-pair",):
                    # recv_conn, send_conn = ctx.Pipe(duplex=False)
                    for elt in target.elts:
                        elt_attr = _self_attr(elt)
                        if elt_attr is not None:
                            cls.attr_kinds.setdefault(
                                elt_attr, ("connection",)
                            )
                        elif isinstance(elt, ast.Name):
                            env[elt.id] = ("connection",)
                continue
            if kinds and attr not in cls.attr_kinds:
                cls.attr_kinds[attr] = kinds
            if kinds == ("lock",):
                cls.locks.setdefault(attr, "lock")
            elif kinds == ("condition",):
                cls.locks.setdefault(attr, "condition")
                wrapped = _condition_wrapped_lock(value)
                if wrapped is not None:
                    cls.lock_alias[attr] = wrapped

    def _annotation_kinds(
        self, annotation: ast.expr, module: str
    ) -> tuple[str, ...]:
        """Kind tags for a parameter/attribute annotation.  Handles string
        annotations and ``A | B`` unions of resolvable project classes."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return ()
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            return tuple(
                dict.fromkeys(
                    self._annotation_kinds(annotation.left, module)
                    + self._annotation_kinds(annotation.right, module)
                )
            )
        dotted = dotted_name(annotation)
        if dotted is None or dotted == "None":
            return ()
        resolved = self._resolve_class_name(dotted, module)
        if resolved is not None:
            return (f"class:{resolved}",)
        return ()

    def _resolve_class_name(self, dotted: str, module: str) -> str | None:
        """Class qname for a (possibly import-qualified) class reference."""
        origins = self._imports.get(module, {})
        head, _, tail = dotted.partition(".")
        origin = origins.get(head)
        full = f"{origin}.{tail}" if origin and tail else (origin or dotted)
        for candidate in (f"{module}.{dotted}", full, dotted):
            if candidate in self.classes:
                return candidate
        # Bare name declared in exactly one project module.
        if "." not in dotted:
            qnames = self._class_by_name.get(dotted, ())
            if len(qnames) == 1:
                return qnames[0]
        return None

    # -- expression kinds --------------------------------------------------

    def _expr_kinds(
        self,
        expr: ast.expr,
        module: str,
        env: dict[str, tuple[str, ...]],
        cls: ClassInfo | None,
    ) -> tuple[str, ...]:
        """Kind tags for *expr* (empty = unknown)."""
        if isinstance(expr, ast.GeneratorExp):
            return ("generator",)
        if isinstance(expr, ast.Lambda):
            return ("lambda",)
        if isinstance(expr, ast.Await):
            return self._expr_kinds(expr.value, module, env, cls)
        if isinstance(expr, ast.Name):
            return env.get(expr.id, ())
        if isinstance(expr, ast.Attribute):
            attr = _self_attr(expr)
            if attr is not None and cls is not None:
                return cls.attr_kinds.get(attr, ())
            # Two-level: <known>.attr
            base = self._expr_kinds(expr.value, module, env, cls)
            for kind in base:
                if kind.startswith("class:"):
                    target_cls = self.classes.get(kind[len("class:"):])
                    if target_cls is not None:
                        found = target_cls.attr_kinds.get(expr.attr)
                        if found:
                            return found
            return ()
        if not isinstance(expr, ast.Call):
            return ()
        # Calls: factories first, then project constructors.
        target = dotted_name(expr.func)
        if target is not None:
            origins = self._imports.get(module, {})
            head, _, tail = target.partition(".")
            origin = origins.get(head)
            resolved = f"{origin}.{tail}" if origin and tail else (origin or target)
            kind = _KIND_FACTORIES.get(resolved) or _KIND_FACTORIES.get(target)
            if kind is not None:
                if kind == "queue" and _bounded_queue_args(expr):
                    return ("queue-bounded",)
                return (kind,)
            class_qname = self._resolve_class_name(target, module)
            if class_qname is not None:
                return (f"class:{class_qname}",)
        # <mpcontext>.Queue() / .Pipe() / .Process()
        if isinstance(expr.func, ast.Attribute):
            base = self._expr_kinds(expr.func.value, module, env, cls)
            if "mpcontext" in base:
                kind = _CONTEXT_FACTORIES.get(expr.func.attr)
                if kind == "queue" and _bounded_queue_args(expr):
                    return ("queue-bounded",)
                if kind is not None:
                    return (kind,)
        return ()

    def function_env(self, func: FunctionInfo) -> dict[str, tuple[str, ...]]:
        """Local name → kind tags for *func* (params from annotations, a
        single linear pass over assignments; control flow ignored)."""
        cached = self._env_cache.get(func.qname)
        if cached is not None:
            return cached
        cls = (
            self.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        env: dict[str, tuple[str, ...]] = {}
        args = func.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                kinds = self._annotation_kinds(arg.annotation, func.module)
                if kinds:
                    env[arg.arg] = kinds
        self._mark_boundary_params(func, env)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign):
                value_kinds = self._expr_kinds(node.value, func.module, env, cls)
                for target in node.targets:
                    if isinstance(target, ast.Name) and value_kinds:
                        env[target.id] = value_kinds
                    elif isinstance(target, ast.Tuple) and value_kinds == (
                        "pipe-pair",
                    ):
                        for elt in target.elts:
                            if isinstance(elt, ast.Name):
                                env[elt.id] = ("connection",)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                kinds = self._annotation_kinds(node.annotation, func.module)
                if not kinds and node.value is not None:
                    kinds = self._expr_kinds(node.value, func.module, env, cls)
                if kinds:
                    env[node.target.id] = kinds
            elif isinstance(node, ast.For) and isinstance(
                node.target, ast.Name
            ):
                kinds = self._iter_element_kinds(node.iter, func, env, cls)
                if kinds:
                    env[node.target.id] = kinds
        self._env_cache[func.qname] = env
        return env

    def _iter_element_kinds(
        self,
        iterable: ast.expr,
        func: FunctionInfo,
        env: dict[str, tuple[str, ...]],
        cls: ClassInfo | None,
    ) -> tuple[str, ...]:
        """Element kinds for ``for x in <iterable>`` when the iterable is a
        ``self.<attr>`` list built from one class's constructor
        (``self.shards = [ProcessShard(...) for ...]``)."""
        attr = _self_attr(iterable)
        if attr is None or cls is None:
            return ()
        init = cls.methods.get("__init__")
        if init is None:
            return ()
        for node in ast.walk(init.node):
            if not isinstance(node, ast.Assign):
                continue
            if not any(_self_attr(t) == attr for t in node.targets):
                continue
            value = node.value
            if isinstance(value, ast.ListComp):
                return self._expr_kinds(value.elt, func.module, env, cls)
            if isinstance(value, ast.List) and value.elts:
                return self._expr_kinds(value.elts[0], func.module, env, cls)
        return ()

    def _mark_boundary_params(
        self, func: FunctionInfo, env: dict[str, tuple[str, ...]]
    ) -> None:
        """Functions used as a process main get their first parameter
        typed ``connection`` — the shard contract ``main(conn, index,
        *args)``, one duplex pipe carrying commands in and replies out."""
        if func.qname in self._shard_mains():
            args = func.node.args.posonlyargs + func.node.args.args
            names = [a.arg for a in args if a.arg not in ("self", "cls")]
            if names:
                env.setdefault(names[0], ("connection",))

    def _shard_mains(self) -> frozenset[str]:
        """Qnames of functions passed as ``target=`` to a
        ``Process(...)`` construction (``ctx.Process``,
        ``multiprocessing.Process``)."""
        cached = getattr(self, "_shard_mains_cache", None)
        if cached is not None:
            return cached
        mains: set[str] = set()
        for ctx in self.contexts.values():
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                target = dotted_name(node.func)
                fn_expr: ast.expr | None = None
                if target is not None and target.split(".")[-1] == "Process":
                    for kw in node.keywords:
                        if kw.arg == "target":
                            fn_expr = kw.value
                if fn_expr is not None:
                    fn_name = dotted_name(fn_expr)
                    if fn_name is not None:
                        resolved = self._resolve_function_name(
                            fn_name, ctx.module
                        )
                        if resolved is not None:
                            mains.add(resolved.qname)
        self._shard_mains_cache = frozenset(mains)
        return self._shard_mains_cache

    def _resolve_function_name(
        self, dotted: str, module: str
    ) -> FunctionInfo | None:
        origins = self._imports.get(module, {})
        head, _, tail = dotted.partition(".")
        origin = origins.get(head)
        full = f"{origin}.{tail}" if origin and tail else (origin or dotted)
        for candidate in (f"{module}.{dotted}", full, dotted):
            found = self.functions.get(candidate)
            if found is not None and found.class_qname is None:
                return found
        return None

    # -- call graph --------------------------------------------------------

    def callsites(self, func: FunctionInfo) -> list[CallSite]:
        if self._callsites is None:
            self._callsites = {}
            for f in self.functions.values():
                self._callsites[f.qname] = list(self._resolve_callsites(f))
        return self._callsites.get(func.qname, [])

    def _resolve_callsites(self, func: FunctionInfo) -> Iterator[CallSite]:
        env = self.function_env(func)
        cls = (
            self.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            targets, duck = self._call_targets(node, func, env, cls)
            if targets:
                yield CallSite(
                    caller=func, node=node, targets=tuple(targets), duck=duck
                )

    def _call_targets(
        self,
        call: ast.Call,
        func: FunctionInfo,
        env: dict[str, tuple[str, ...]],
        cls: ClassInfo | None,
    ) -> tuple[list[FunctionInfo], bool]:
        fn = call.func
        if isinstance(fn, ast.Name):
            # Local function, imported function, or class constructor.
            found = self._resolve_function_name(fn.id, func.module)
            if found is not None:
                return [found], False
            class_qname = self._resolve_class_name(fn.id, func.module)
            if class_qname is not None:
                init = self.classes[class_qname].methods.get("__init__")
                return ([init], False) if init is not None else ([], False)
            return [], False
        if not isinstance(fn, ast.Attribute):
            return [], False
        method = fn.attr
        # self.method()
        if isinstance(fn.value, ast.Name) and fn.value.id == "self" and cls:
            found_m = self._method_on(cls, method)
            if found_m is not None:
                return [found_m], False
        # <typed expr>.method() — self attrs, typed locals, class refs.
        receiver_kinds = self._expr_kinds(fn.value, func.module, env, cls)
        resolved: list[FunctionInfo] = []
        knows_receiver = bool(receiver_kinds)
        for kind in receiver_kinds:
            if kind.startswith("class:"):
                target_cls = self.classes.get(kind[len("class:"):])
                if target_cls is not None:
                    found_m = self._method_on(target_cls, method)
                    if found_m is not None:
                        resolved.append(found_m)
        if resolved:
            return resolved, False
        # module.function()
        dotted = dotted_name(fn)
        if dotted is not None:
            found = self._resolve_function_name(dotted, func.module)
            if found is not None:
                return [found], False
            class_qname = self._resolve_class_name(dotted, func.module)
            if class_qname is not None:
                init = self.classes[class_qname].methods.get("__init__")
                if init is not None:
                    return [init], False
        # ClassName.method(...) (unbound call)
        if isinstance(fn.value, ast.Name):
            class_qname = self._resolve_class_name(fn.value.id, func.module)
            if class_qname is not None:
                found_m = self._method_on(self.classes[class_qname], method)
                if found_m is not None:
                    return [found_m], False
        # Duck fallback: every project method of that name — only when the
        # receiver's type is unknown and the name isn't container-generic.
        if knows_receiver or method in _DUCK_EXCLUDE:
            return [], False
        candidates = self._methods_by_name.get(method, [])
        if 0 < len(candidates) <= _DUCK_LIMIT:
            return sorted(candidates, key=lambda f: f.qname), True
        return [], False

    def _method_on(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Method lookup through project-resolvable base classes."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if cur.qname in seen:
                continue
            seen.add(cur.qname)
            if name in cur.methods:
                return cur.methods[name]
            for base in cur.bases:
                base_qname = self._resolve_class_name(base, cur.module)
                if base_qname is not None:
                    stack.append(self.classes[base_qname])
        return None

    # -- lock analysis -----------------------------------------------------

    def resolve_lock_expr(
        self,
        expr: ast.expr,
        func: FunctionInfo,
    ) -> LockId | None:
        """The lock identity of a ``with``/``.acquire()`` context expr:
        ``self._lock``, ``<typed>.lock``, a local lock, or None."""
        cls = (
            self.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        env = self.function_env(func)
        attr = _self_attr(expr)
        if attr is not None and cls is not None:
            canonical = cls.canonical_lock(attr)
            if canonical is not None:
                return (cls.qname, canonical)
            return None
        if isinstance(expr, ast.Name):
            if env.get(expr.id) in (("lock",), ("condition",)):
                return (f"{func.module}:{func.name}", expr.id)
            return None
        if isinstance(expr, ast.Attribute):
            base_kinds = self._expr_kinds(expr.value, func.module, env, cls)
            for kind in base_kinds:
                if kind.startswith("class:"):
                    owner = self.classes.get(kind[len("class:"):])
                    if owner is not None:
                        canonical = owner.canonical_lock(expr.attr)
                        if canonical is not None:
                            return (owner.qname, canonical)
        return None

    def entry_locks(self, func: FunctionInfo) -> frozenset[LockId]:
        """Locks held when *func* is entered, per its contract:
        ``# requires-lock`` / ``*_locked`` naming, or ``__init__`` (the
        object is not yet shared, so its own locks are effectively held)."""
        cls = (
            self.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        if cls is None:
            return frozenset()
        if func.name == "__init__":
            return frozenset(
                (cls.qname, a) for a in cls.locks if a not in cls.lock_alias
            )
        attr = func.requires_lock
        if attr == "__default__":
            attr = cls.default_lock()
        if attr is not None:
            canonical = cls.canonical_lock(attr)
            if canonical is not None:
                return frozenset({(cls.qname, canonical)})
        return frozenset()

    def held_locks(self, node: ast.AST, func: FunctionInfo) -> frozenset[LockId]:
        """Locks lexically held at *node* inside *func*: the entry
        contract, enclosing ``with`` blocks, and ``.acquire()`` /
        ``.release()`` intervals earlier in the function body."""
        held = set(self.entry_locks(func))
        parents = self._parents[str(func.ctx.path)]
        cur: ast.AST | None = parents.parent(node)
        while cur is not None and cur is not func.node:
            if isinstance(cur, (ast.With, ast.AsyncWith)):
                for item in cur.items:
                    lock = self.resolve_lock_expr(item.context_expr, func)
                    if lock is not None:
                        held.add(lock)
            cur = parents.parent(cur)
        lineno = getattr(node, "lineno", 0)
        for lock, intervals in self._acquire_intervals(func).items():
            for start, end in intervals:
                if start < lineno <= end:
                    held.add(lock)
        return frozenset(held)

    def _acquire_intervals(
        self, func: FunctionInfo
    ) -> dict[LockId, list[tuple[int, int]]]:
        """``.acquire()`` → matching ``.release()`` line intervals (to end
        of function when no release follows, e.g. release in ``finally``
        is matched by line order, which is what we want lexically)."""
        acquires: dict[LockId, list[int]] = {}
        releases: dict[LockId, list[int]] = {}
        for node in ast.walk(func.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
            ):
                continue
            lock = self.resolve_lock_expr(node.func.value, func)
            if lock is None:
                continue
            table = acquires if node.func.attr == "acquire" else releases
            table.setdefault(lock, []).append(node.lineno)
        end_line = getattr(func.node, "end_lineno", 10**9) or 10**9
        out: dict[LockId, list[tuple[int, int]]] = {}
        for lock, starts in acquires.items():
            rel = sorted(releases.get(lock, []))
            for start in sorted(starts):
                end = next((r for r in rel if r >= start), end_line)
                out.setdefault(lock, []).append((start, end))
        return out

    def direct_acquisitions(
        self, func: FunctionInfo
    ) -> list[tuple[LockId, int]]:
        """Blocking acquisitions *func* performs itself: ``with`` blocks,
        blocking ``.acquire()`` calls, and ``# acquires:`` annotations."""
        out: list[tuple[LockId, int]] = []
        for node in ast.walk(func.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = self.resolve_lock_expr(item.context_expr, func)
                    if lock is not None:
                        out.append((lock, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
                and _is_blocking_acquire(node)
            ):
                lock = self.resolve_lock_expr(node.func.value, func)
                if lock is not None:
                    out.append((lock, node.lineno))
        cls = (
            self.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        for note in func.acquires_notes:
            lock = self._resolve_lock_note(note, func, cls)
            if lock is not None:
                out.append((lock, func.node.lineno))
        return out

    def _resolve_lock_note(
        self, note: str, func: FunctionInfo, cls: ClassInfo | None
    ) -> LockId | None:
        if "." in note:
            class_name, attr = note.rsplit(".", 1)
            qname = self._resolve_class_name(class_name, func.module)
            if qname is not None:
                canonical = self.classes[qname].canonical_lock(attr)
                if canonical is not None:
                    return (qname, canonical)
            return None
        if cls is not None:
            canonical = cls.canonical_lock(note)
            if canonical is not None:
                return (cls.qname, canonical)
        return None

    def transitive_acquisitions(
        self, func: FunctionInfo, follow_duck: bool = True
    ) -> dict[LockId, list[tuple[str, int]]]:
        """Locks *func* may acquire, directly or through calls; each maps
        to a witness chain ``[(caller qname, line), ...]`` ending at the
        function that takes the lock.  Fixpoint over the call graph."""
        if self._acquires is None:
            self._acquires = self._compute_acquisitions(follow_duck)
        return self._acquires.get(func.qname, {})

    def _compute_acquisitions(
        self, follow_duck: bool
    ) -> dict[str, dict[LockId, list[tuple[str, int]]]]:
        acq: dict[str, dict[LockId, list[tuple[str, int]]]] = {}
        for func in self.functions.values():
            acq[func.qname] = {
                lock: [(func.qname, line)]
                for lock, line in self.direct_acquisitions(func)
            }
        changed = True
        passes = 0
        while changed and passes < 20:
            changed = False
            passes += 1
            for func in self.functions.values():
                mine = acq[func.qname]
                for site in self.callsites(func):
                    if site.duck and not follow_duck:
                        continue
                    for target in site.targets:
                        # A call to a requires-lock function does not
                        # acquire its lock (the caller must already hold
                        # it); but locks the callee takes beyond its
                        # contract do propagate.
                        entry = self.entry_locks(target)
                        for lock, chain in acq.get(target.qname, {}).items():
                            if lock in entry or lock in mine:
                                continue
                            mine[lock] = [
                                (func.qname, site.node.lineno)
                            ] + chain
                            changed = True
        return acq

    # -- convenience -------------------------------------------------------

    def parent_map(self, ctx: FileContext) -> ParentMap:
        return self._parents[str(ctx.path)]

    def functions_in_scope(self, scopes: tuple[str, ...]) -> list[FunctionInfo]:
        return [
            f for f in sorted(self.functions.values(), key=lambda f: f.qname)
            if f.ctx.in_scope(scopes)
        ]

    def guarded_attr_accesses(
        self, func: FunctionInfo
    ) -> Iterator[tuple[str, str, ast.AST]]:
        """``(attr, lock_attr, node)`` for every guarded ``self.X`` touch
        in *func* (per its own class's ``# guarded-by:`` declarations)."""
        cls = (
            self.classes.get(func.class_qname)
            if func.class_qname is not None
            else None
        )
        if cls is None or not cls.guarded:
            return
        for node in ast.walk(func.node):
            attr = _self_attr(node)
            if attr is not None and attr in cls.guarded:
                yield attr, cls.guarded[attr], node


# -- module-level helpers -----------------------------------------------------


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guarded_lock(ctx: FileContext, lineno: int) -> str | None:
    m = _GUARDED_BY_RE.search(ctx.line_text(lineno))
    if m:
        return m.group(1)
    above = ctx.line_text(lineno - 1).strip()
    if above.startswith("#"):
        m = _GUARDED_BY_RE.search(above)
        if m:
            return m.group(1)
    return None


def _condition_wrapped_lock(value: ast.expr) -> str | None:
    """``threading.Condition(self._lock)`` → ``"_lock"``."""
    if isinstance(value, ast.Call) and value.args:
        return _self_attr(value.args[0])
    return None


def _bounded_queue_args(call: ast.Call) -> bool:
    """Whether a Queue construction declares a nonzero maxsize."""
    candidates: list[ast.expr] = list(call.args[:1])
    candidates.extend(
        kw.value for kw in call.keywords if kw.arg == "maxsize"
    )
    for expr in candidates:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value > 0
        return True  # non-constant maxsize: assume bounded
    return False


def _is_blocking_acquire(call: ast.Call) -> bool:
    """``.acquire()`` is blocking unless ``blocking=False`` (or a literal
    ``False`` first positional) is passed."""
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and first.value is False:
            return False
    for kw in call.keywords:
        if kw.arg == "blocking":
            value = kw.value
            return not (
                isinstance(value, ast.Constant) and value.value is False
            )
    return True


def build_project(contexts: Iterable[FileContext]) -> Project:
    """The :class:`Project` for one lint run's file set."""
    return Project(list(contexts))
