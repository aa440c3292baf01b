"""`repro.lint` — AST-based enforcement of the repo's standing invariants.

Four PRs of machinery (plan cache, service daemon, obs layer, incremental
kernel) rest on contracts that differential tests exercise but nothing
*enforces* at the source level: byte-identical determinism of mappings, a
stdlib-only service/obs layer, <2%-overhead-when-off observability, and
lock-guarded shared state in :mod:`repro.service`.  This package makes
those contracts statically checked — ``python -m repro.lint src`` walks
the tree, applies every registered rule inside its scoped packages, and
exits non-zero on any unsuppressed finding.

Rule families (see DESIGN.md §12 for the invariant ↔ PR mapping):

* **determinism** — no wall-clock reads, no global RNG, no iteration over
  bare sets in `repro/core`, `repro/sim`, `repro/baselines`,
  `repro/workload`.  One stray ``time.time()`` or unseeded ``random``
  call silently corrupts every table the paper reproduction produces.
* **stdlib-only** — an import whitelist for ``src/repro`` (stdlib +
  declared deps), with a stricter no-third-party tier for the
  service/obs/perf layer whose deploy story is "copy the tree, run it".
* **obs-discipline** — every :mod:`repro.obs` log/span/ledger call site
  inside `repro/core` and `repro/sim` must sit behind an enabled-guard,
  preserving the <2% disabled-path budget.
* **lock-discipline** — attributes declared shared via ``# guarded-by:
  <lock>`` may only be touched inside ``with self.<lock>:`` (or a method
  that documents holding it) — a lightweight static race detector for
  the service's dispatcher/worker/handler threads.  Lock *order*, and
  whether a ``*_locked`` method's caller really holds its lock, are
  checked at run time instead: the test suite's lock witness
  (``tests/lock_witness.py``, DESIGN.md §12.4) watches every lock the
  service takes.
* **hygiene** — no mutable default arguments, no bare ``except:``, no
  ``assert`` for runtime validation anywhere in ``src/repro``.

Suppressions are inline and must carry a justification::

    foo = risky()  # repro-lint: disable=no-assert -- validated upstream

A suppression without the ``-- reason`` tail is itself a finding, so the
CI gate fails on unjustified opt-outs by construction.
"""

from repro.lint.model import FileContext, Finding, Suppression
from repro.lint.registry import Rule, all_rules, get_rule, register
from repro.lint.runner import (
    LintReport,
    SCHEMA,
    lint_file,
    lint_paths,
    render_json,
    render_sarif,
    render_text,
)

# Importing the rule modules registers every built-in rule.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "SCHEMA",
    "Suppression",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
]
