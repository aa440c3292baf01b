"""File walking, rule dispatch, suppression handling, and report output."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.model import FileContext, Finding, module_path_for
from repro.lint.registry import Rule, all_rules, get_rule

#: JSON report schema identifier (versioned like the perf schemas).
SCHEMA = "repro.lint/1"

#: Pseudo-rule id for suppressions missing the mandatory justification.
UNJUSTIFIED = "suppression-needs-justification"


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.unsuppressed:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under *paths* (files pass through; directories
    are walked recursively, skipping caches), sorted for determinism."""
    out: set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                out.add(path)
        elif path.is_dir():
            for sub in path.rglob("*.py"):
                if "__pycache__" in sub.parts:
                    continue
                out.add(sub)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out)


def _apply_suppression(ctx: FileContext, finding: Finding) -> Finding:
    """The finding, marked suppressed when a matching (justified) inline
    suppression covers its line."""
    sup = ctx.suppression_for(finding.rule, finding.line)
    if sup is None:
        return finding
    return Finding(
        rule=finding.rule,
        path=finding.path,
        line=finding.line,
        col=finding.col,
        message=finding.message,
        suppressed=sup.reason is not None,
        justification=sup.reason,
    )


def _unjustified_findings(ctx: FileContext) -> list[Finding]:
    """A suppression must carry ``-- justification``; one without it is a
    finding at the comment's own line (never maskable by itself)."""
    return [
        Finding(
            rule=UNJUSTIFIED,
            path=str(ctx.path),
            line=sup.line,
            col=0,
            message=(
                "suppression comment lacks a justification; write "
                "'# repro-lint: disable=<rule> -- <why this is safe>'"
            ),
        )
        for sup in ctx.suppressions
        if sup.reason is None
    ]


def lint_file(
    path: Path,
    rules: list[Rule] | None = None,
    module: str | None = None,
) -> list[Finding]:
    """Lint one file; returns every finding (suppressed ones flagged).

    *module* overrides the inferred dotted module path (tests use this to
    pin fixture files to arbitrary scopes).
    """
    source = path.read_text(encoding="utf-8")
    ctx = FileContext(
        path, source, module if module is not None else module_path_for(path)
    )
    findings: list[Finding] = []
    for rule in rules if rules is not None else all_rules():
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            findings.append(_apply_suppression(ctx, finding))
    findings.extend(_unjustified_findings(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(
    paths: list[str | Path],
    rule_ids: list[str] | None = None,
    modules: dict[Path, str] | None = None,
) -> LintReport:
    """Lint every Python file under *paths* with the selected rules.

    *modules* overrides inferred dotted module paths per file (tests use
    this to pin fixtures to arbitrary scopes).
    """
    selected = (
        [get_rule(rid) for rid in rule_ids] if rule_ids else all_rules()
    )
    report = LintReport(rules_run=tuple(r.id for r in selected))
    for path in iter_python_files([Path(p) for p in paths]):
        module = (modules or {}).get(path)
        report.findings.extend(lint_file(path, selected, module))
        report.files_checked += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def render_text(report: LintReport, verbose: bool = False) -> str:
    """Human-readable report (one finding per line, clickable locations)."""
    lines: list[str] = []
    for f in report.unsuppressed:
        lines.append(f"{f.path}:{f.line}:{f.col + 1}: [{f.rule}] {f.message}")
    if verbose:
        for f in report.suppressed:
            lines.append(
                f"{f.path}:{f.line}:{f.col + 1}: [{f.rule}] suppressed "
                f"({f.justification})"
            )
    n_bad = len(report.unsuppressed)
    lines.append(
        f"{report.files_checked} file(s) checked, "
        f"{n_bad} finding(s), {len(report.suppressed)} suppressed"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The machine-readable report (schema ``repro.lint/1``)."""
    doc = {
        "schema": SCHEMA,
        "ok": report.ok,
        "files_checked": report.files_checked,
        "rules_run": list(report.rules_run),
        "counts": report.counts_by_rule(),
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_sarif(report: LintReport, base_dir: Path | None = None) -> str:
    """SARIF 2.1.0 output, so CI can annotate PRs via ``upload-sarif``.

    Unsuppressed findings are ``error`` level; justified suppressions are
    emitted with an ``inSource`` suppression object so viewers show them
    struck through rather than hiding the history.  URIs are relative to
    *base_dir* (default: the current directory) when possible.
    """
    base = (base_dir or Path.cwd()).resolve()

    def uri(path: str) -> str:
        p = Path(path).resolve()
        try:
            return p.relative_to(base).as_posix()
        except ValueError:
            return p.as_posix()

    rule_ids = sorted(
        set(report.rules_run)
        | {f.rule for f in report.findings}
    )
    try:
        descriptions = {r.id: r.description for r in all_rules()}
    except Exception:  # pragma: no cover - registry always importable
        descriptions = {}
    results = []
    for f in report.findings:
        result: dict[str, object] = {
            "ruleId": f.rule,
            "level": "none" if f.suppressed else "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": uri(f.path)},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        if f.suppressed:
            result["suppressions"] = [
                {
                    "kind": "inSource",
                    "justification": f.justification or "",
                }
            ]
        results.append(result)
    doc = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rid,
                                "shortDescription": {
                                    "text": descriptions.get(rid, rid)
                                },
                            }
                            for rid in rule_ids
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
