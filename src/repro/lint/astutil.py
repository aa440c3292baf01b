"""Shared AST helpers: name resolution and guard analysis.

The rules here are syntactic, not type-checked — precision comes from
resolving *imports* (so ``from time import time as now; now()`` is still
caught) and from a conservative notion of "guarded" (an ancestor ``if`` /
ternary / short-circuit ``and`` whose test provably checks the obs-enabled
flag or ``x is not None``).  False negatives are possible by design;
false positives are what the fixture tests pin down.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.model import ParentMap


def collect_imports(tree: ast.Module) -> dict[str, str]:
    """Local name → dotted origin for every top-level import.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import time as now`` → ``{"now": "time.time"}``.
    Relative imports resolve to their bare module tail (enough for the
    determinism rules, which only chase absolute stdlib origins).
    """
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origins[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                origins[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return origins


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def resolved_call_target(call: ast.Call, origins: dict[str, str]) -> str | None:
    """The call target's dotted origin, imports resolved.

    ``time.time()`` with ``import time`` → ``"time.time"``;
    ``now()`` with ``from time import time as now`` → ``"time.time"``;
    an unresolvable target (method on a local object) → its syntactic
    dotted form, or ``None``.
    """
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    head, _, tail = dotted.partition(".")
    origin = origins.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{tail}" if tail else origin


def _expr_matches(expr: ast.AST, text: str) -> bool:
    try:
        return ast.unparse(expr) == text
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        return False


def test_checks_enabled(test: ast.AST, proxies: frozenset[str]) -> bool:
    """Whether *test* (an ``if``/ternary condition) checks the obs-enabled
    flag: an ``<x>.enabled`` attribute, a call to ``enabled()`` /
    ``_obs_enabled()``, or a local proxy name bound from one of those
    (``tracing = tracer.enabled``)."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id in proxies:
            return True
        if isinstance(node, ast.Call):
            target = dotted_name(node.func)
            if target is not None and target.split(".")[-1] in (
                "enabled",
                "_obs_enabled",
            ):
                return True
    return False


def test_checks_not_none(test: ast.AST, receiver_text: str) -> bool:
    """Whether *test* contains ``<receiver> is not None`` (or a bare
    truthiness check of the receiver) for the given receiver expression
    text (``ledger``, ``self.ledger``, ``trace.ledger`` …)."""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            if (
                isinstance(node.ops[0], ast.IsNot)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None
                and _expr_matches(node.left, receiver_text)
            ):
                return True
        if isinstance(node, (ast.Name, ast.Attribute)) and _expr_matches(
            node, receiver_text
        ):
            # Bare truthiness (``if ledger and ...``) — only counts when
            # the receiver is the whole test or a BoolOp operand, not an
            # arbitrary subexpression like a call argument.
            parent_ok = isinstance(test, (ast.Name, ast.Attribute)) or any(
                isinstance(op, ast.BoolOp) and node in op.values
                for op in ast.walk(test)
            )
            if parent_ok:
                return True
    return False


def guard_tests(node: ast.AST, parents: ParentMap) -> Iterator[ast.AST]:
    """Every conditional test that dominates *node*:

    * an ancestor ``if`` statement when the node sits in its ``body``;
    * an ancestor ternary when the node sits in its true branch;
    * the earlier operands of an ancestor short-circuit ``and``.
    """
    child: ast.AST = node
    for parent in parents.ancestors(node):
        if isinstance(parent, ast.If) and _contains(parent.body, child):
            yield parent.test
        elif isinstance(parent, ast.IfExp) and parent.body is child:
            yield parent.test
        elif isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.And):
            try:
                idx = parent.values.index(child)
            except ValueError:
                idx = -1
            for earlier in parent.values[: max(idx, 0)]:
                yield earlier
        elif isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Guards don't cross function (or lambda) boundaries: the
            # body may run after the guard's truth has changed.
            return
        child = parent


def _contains(stmts: list[ast.stmt], node: ast.AST) -> bool:
    for stmt in stmts:
        if stmt is node:
            return True
        for sub in ast.walk(stmt):
            if sub is node:
                return True
    return False


def enabled_proxies(tree: ast.AST) -> frozenset[str]:
    """Names bound from an ``.enabled`` read (``tracing = tracer.enabled``)
    anywhere in *tree* — treated as guard-equivalent in conditions."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                        names.add(target.id)
                        break
    return frozenset(names)

