"""Rule base class and registry.

A rule is a named check scoped to the packages where its invariant holds.
``check(ctx)`` sees one :class:`~repro.lint.model.FileContext` at a time
and yields :class:`~repro.lint.model.Finding`s with ``suppressed=False``;
the runner applies inline suppressions afterwards so rules never need to
know about them.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable, Iterator

from repro.lint.model import FileContext, Finding

_RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")


class Rule:
    """One registered lint rule.

    Parameters
    ----------
    rule_id:
        Kebab-case identifier used in output, ``--rule`` filters and
        suppression comments.
    family:
        Rule family (``determinism``, ``stdlib-only``, ``obs-discipline``,
        ``lock-discipline``, ``api-hygiene``) — groups related rules in
        ``--list-rules`` and the JSON report.
    description:
        One-line statement of the invariant the rule enforces.
    scopes:
        Dotted module prefixes the rule applies to (empty = everywhere
        under the linted tree).
    check:
        ``FileContext -> Iterable[Finding]``.
    """

    def __init__(
        self,
        rule_id: str,
        family: str,
        description: str,
        scopes: tuple[str, ...],
        check: Callable[[FileContext], Iterable[Finding]],
    ) -> None:
        if not _RULE_ID_RE.match(rule_id):
            raise ValueError(f"rule id {rule_id!r} is not kebab-case")
        self.id = rule_id
        self.family = family
        self.description = description
        self.scopes = scopes
        self._check = check

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_scope(self.scopes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check(ctx)

    def finding(self, ctx: FileContext, node: Any, message: str) -> Finding:
        """Convenience constructor stamping this rule's id and *node*'s
        location onto a :class:`Finding`."""
        return Finding(
            rule=self.id,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Rule({self.id!r}, scopes={self.scopes!r})"


_REGISTRY: dict[str, Rule] = {}


def register(
    rule_id: str,
    family: str,
    description: str,
    scopes: tuple[str, ...] = (),
) -> Callable[[Callable[[FileContext], Iterable[Finding]]], Rule]:
    """Decorator registering a check function as a :class:`Rule`.

    The decorated name rebinds to the :class:`Rule` instance, so rule
    modules can cross-reference each other's scopes if needed.
    """

    def wrap(check: Callable[[FileContext], Iterable[Finding]]) -> Rule:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        rule = Rule(rule_id, family, description, scopes, check)
        _REGISTRY[rule_id] = rule
        return rule

    return wrap


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by (family, id)."""
    return sorted(_REGISTRY.values(), key=lambda r: (r.family, r.id))


def get_rule(rule_id: str) -> Rule:
    """The rule registered under *rule_id* (KeyError with the known ids)."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}") from None
