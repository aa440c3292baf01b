"""Command-line entry point: ``python -m repro.lint [paths] [options]``.

Exit status is 0 when no unsuppressed findings remain, 1 otherwise —
suitable for CI.  ``--format json`` emits the versioned ``repro.lint/1``
report consumed by the static-analysis CI job.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint import (
    all_rules,
    get_rule,
    lint_paths,
    render_json,
    render_sarif,
    render_text,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-specific static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE-ID",
        help="run only this rule (repeatable); default: all registered rules",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with their family and scopes, then exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also show justified (suppressed) findings in text output",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scopes = ", ".join(rule.scopes) if rule.scopes else "everywhere"
            print(f"{rule.id:32s} [{rule.family}] ({scopes})")
            print(f"    {rule.description}")
        return 0

    if args.rule:
        try:
            for rule_id in args.rule:
                get_rule(rule_id)
        except KeyError as exc:
            print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
            return 2

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"repro-lint: no such path: {path}", file=sys.stderr)
            return 2

    report = lint_paths(paths, rule_ids=args.rule)
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report), end="")
    else:
        print(render_text(report, verbose=args.verbose))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
