"""Tests for the repro.lint static-analysis framework.

Golden fixtures live under ``tests/lint_fixtures/repro/...`` — the
``repro`` path component makes :func:`repro.lint.model.module_path_for`
infer the right dotted module, so rule scoping behaves exactly as it does
on ``src/repro``.  Fixture files are parsed, never imported, so they may
freely contain banned imports and deliberate bugs.
"""

from __future__ import annotations

import json
import tomllib
from pathlib import Path

import pytest

from repro.lint import (
    SCHEMA,
    all_rules,
    get_rule,
    lint_file,
    lint_paths,
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.__main__ import main as lint_main
from repro.lint.model import FileContext, module_path_for
from repro.lint.runner import UNJUSTIFIED

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def findings_for(name: str, rule: str | None = None):
    """Unsuppressed findings for one fixture file (optionally one rule)."""
    found = lint_file(FIXTURES / "repro" / name)
    found = [f for f in found if not f.suppressed]
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


# -- rule registry ------------------------------------------------------------


def test_all_rule_families_are_registered():
    families = {r.family for r in all_rules()}
    assert families == {
        "determinism",
        "stdlib-only",
        "obs-discipline",
        "lock-discipline",
        "api-hygiene",
    }
    assert len(all_rules()) == 12


def test_every_rule_fires_on_the_fixtures():
    """Each registered rule has a seeded violation in the fixture tree,
    so none of them can go blind unnoticed."""
    fired = {f.rule for f in lint_paths([FIXTURES]).findings}
    assert {r.id for r in all_rules()} <= fired


def test_get_rule_unknown_lists_known_ids():
    with pytest.raises(KeyError, match="no-wall-clock"):
        get_rule("definitely-not-a-rule")


def test_rule_ids_are_kebab_case():
    from repro.lint.registry import _RULE_ID_RE

    for rule in all_rules():
        assert _RULE_ID_RE.match(rule.id), rule.id


# -- determinism --------------------------------------------------------------


def test_no_wall_clock_positive():
    lines = {f.line for f in findings_for("core/bad_determinism.py", "no-wall-clock")}
    assert lines == {12, 13, 14}  # time.time, datetime.now, uuid4


def test_no_global_random_positive():
    found = findings_for("core/bad_determinism.py", "no-global-random")
    assert len(found) == 3  # the import, random.random(), np.random.rand()


def test_no_set_iteration_positive():
    found = findings_for("core/bad_determinism.py", "no-set-iteration")
    assert len(found) == 2  # for-loop over display, listcomp over set()


def test_determinism_negative():
    assert findings_for("core/good_determinism.py") == []


def test_determinism_rules_respect_scope():
    # Same calls, module outside the determinism scopes: no findings.
    assert findings_for("analysis/out_of_scope.py") == []


def test_scope_matches_at_package_boundary():
    path = FIXTURES / "repro" / "core" / "bad_determinism.py"
    ctx = FileContext(path, path.read_text(), "repro.coreutils.thing")
    assert not ctx.in_scope(("repro.core",))
    assert ctx.in_scope(("repro.coreutils",))
    assert ctx.in_scope(())  # empty scopes = everywhere


def test_module_override_disables_scoped_rules():
    path = FIXTURES / "repro" / "core" / "bad_determinism.py"
    found = lint_file(path, module="somewhere.else")
    assert [f for f in found if f.rule.startswith("no-")] == []


# -- stdlib-only --------------------------------------------------------------


def test_import_rules_positive():
    by_rule = {}
    for f in findings_for("service/bad_imports.py"):
        by_rule.setdefault(f.rule, []).append(f.line)
    # pandas: undeclared anywhere; numpy: declared but banned in the layer.
    assert by_rule["import-whitelist"] == [6]
    assert sorted(by_rule["stdlib-only-layer"]) == [5, 6]


def test_src_layer_modules_are_in_stdlib_scope():
    rule = get_rule("stdlib-only-layer")
    for module in ("repro.service.jobs", "repro.obs.log", "repro.lint.runner"):
        ctx = FileContext(Path("x.py"), "", module)
        assert ctx.in_scope(rule.scopes)
    assert not FileContext(Path("x.py"), "", "repro.core.slrh").in_scope(rule.scopes)


# -- obs-discipline -----------------------------------------------------------


def test_obs_rules_positive():
    rules = sorted(f.rule for f in findings_for("core/bad_obs.py"))
    assert rules == [
        "obs-guarded-ledger",
        "obs-guarded-ledger",
        "obs-guarded-log",
        "obs-guarded-span",
    ]


def test_obs_guard_idioms_negative():
    # Every blessed guard idiom from the real code: zero findings.
    assert findings_for("core/good_obs.py") == []


# -- lock-discipline ----------------------------------------------------------


def test_lock_rule_positive_and_negative():
    found = findings_for("service/bad_locks.py", "lock-guarded-attr")
    assert {f.line for f in found} == {25, 26, 30}
    # with-block, *_locked naming, requires-lock annotation, unannotated
    # attribute: all clean (no findings on those methods' lines).


# -- api-hygiene --------------------------------------------------------------


def test_hygiene_rules_positive():
    by_rule = {}
    for f in findings_for("core/bad_hygiene.py"):
        by_rule.setdefault(f.rule, 0)
        by_rule[f.rule] += 1
    assert by_rule == {
        "no-mutable-default": 2,
        "no-bare-except": 1,
        "no-assert": 1,
    }


# -- suppressions -------------------------------------------------------------


def test_justified_suppressions_mask_but_are_reported():
    found = lint_file(FIXTURES / "repro" / "core" / "suppressed.py")
    suppressed = [f for f in found if f.suppressed]
    assert len(suppressed) == 2  # same-line assert + standalone set-iteration
    assert all(f.justification for f in suppressed)
    assert {f.rule for f in suppressed} == {"no-assert", "no-set-iteration"}


def test_unjustified_suppression_does_not_mask():
    found = lint_file(FIXTURES / "repro" / "core" / "suppressed.py")
    unsuppressed = [f for f in found if not f.suppressed]
    rules = sorted(f.rule for f in unsuppressed)
    # The assert finding survives AND the bad comment is its own finding.
    assert rules == sorted(["no-assert", UNJUSTIFIED])
    bad_comment = [f for f in unsuppressed if f.rule == UNJUSTIFIED][0]
    justified_lines = {f.line for f in found if f.suppressed}
    assert bad_comment.line not in justified_lines


def test_unjustified_marker_is_not_itself_suppressible():
    source = (
        "import random  "
        "# repro-lint: disable=no-global-random,suppression-needs-justification\n"
    )
    path = FIXTURES / "repro" / "core" / "bad_determinism.py"  # reuse module path
    ctx_path = path.parent / "_inline_.py"
    try:
        ctx_path.write_text(source)
        found = lint_file(ctx_path)
        assert any(f.rule == UNJUSTIFIED and not f.suppressed for f in found)
    finally:
        ctx_path.unlink()


# -- report output ------------------------------------------------------------


def test_json_report_schema():
    report = lint_paths([FIXTURES])
    doc = json.loads(render_json(report))
    assert doc["schema"] == SCHEMA
    assert doc["ok"] is False
    assert doc["files_checked"] == report.files_checked
    assert set(doc["counts"]) <= {r.id for r in all_rules()} | {UNJUSTIFIED}
    for finding in doc["findings"]:
        assert {"rule", "path", "line", "col", "message", "suppressed"} <= set(finding)
        if finding["suppressed"]:
            assert finding["justification"]


def test_sarif_output_is_valid_and_carries_suppressions():
    report = lint_paths([FIXTURES / "repro" / "core" / "suppressed.py"])
    doc = json.loads(render_sarif(report, base_dir=REPO))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"no-assert", "no-set-iteration", UNJUSTIFIED} <= rule_ids
    results = run["results"]
    assert {r["level"] for r in results} == {"error", "none"}
    suppressed = [r for r in results if r.get("suppressions")]
    assert len(suppressed) == 2
    for result in suppressed:
        assert result["level"] == "none"
        assert result["suppressions"][0]["kind"] == "inSource"
        assert result["suppressions"][0]["justification"]
    for result in results:
        loc = result["locations"][0]["physicalLocation"]
        uri = loc["artifactLocation"]["uri"]
        assert uri == "tests/lint_fixtures/repro/core/suppressed.py"
        assert loc["region"]["startLine"] >= 1


def test_cli_sarif_format(capsys):
    rc = lint_main(
        ["--format", "sarif", str(FIXTURES / "repro" / "core" / "suppressed.py")]
    )
    assert rc == 1  # the unjustified suppression leaves findings standing
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert len(doc["runs"][0]["results"]) == 4


def test_text_report_locations_are_clickable():
    report = lint_paths([FIXTURES / "repro" / "core" / "bad_hygiene.py"])
    text = render_text(report)
    assert "bad_hygiene.py:13:" in text  # path:line:col prefix
    assert "[no-bare-except]" in text
    assert text.splitlines()[-1].startswith("1 file(s) checked")


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_codes(capsys):
    assert lint_main([str(FIXTURES)]) == 1  # fixtures seeded with violations
    assert lint_main([str(FIXTURES / "repro" / "core" / "good_obs.py")]) == 0
    assert lint_main(["--list-rules"]) == 0
    assert lint_main(["--rule", "not-a-rule", str(FIXTURES)]) == 2
    assert lint_main(["no/such/path"]) == 2
    capsys.readouterr()


def test_cli_rule_filter(capsys):
    rc = lint_main(
        ["--rule", "no-assert", "--format", "json",
         str(FIXTURES / "repro" / "core" / "bad_determinism.py")]
    )
    assert rc == 0  # no asserts in that fixture
    doc = json.loads(capsys.readouterr().out)
    assert doc["rules_run"] == ["no-assert"]
    assert doc["findings"] == []


# -- the repo itself ----------------------------------------------------------


def test_repo_lints_clean():
    """src/repro passes every rule — the PR's own acceptance criterion."""
    report = lint_paths([REPO / "src"])
    assert report.files_checked > 50
    assert report.unsuppressed == [], render_text(report)


def test_module_path_inference():
    assert module_path_for(Path("src/repro/core/slrh.py")) == "repro.core.slrh"
    assert module_path_for(Path("src/repro/obs/__init__.py")) == "repro.obs"
    assert module_path_for(Path("scripts/tool.py")) == "tool"


# -- mypy ratchet -------------------------------------------------------------


def test_mypy_ratchet_matches_pyproject():
    """tools/mypy_ratchet.txt mirrors the permissive override module list."""
    config = tomllib.loads((REPO / "pyproject.toml").read_text())
    overrides = config["tool"]["mypy"]["overrides"]
    permissive = [
        o for o in overrides if o.get("disallow_untyped_defs") is False
    ]
    assert len(permissive) == 1
    ratchet_lines = [
        line.strip()
        for line in (REPO / "tools" / "mypy_ratchet.txt").read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    assert sorted(ratchet_lines) == sorted(permissive[0]["module"])


def test_mypy_strict_set_covers_mapping_packages():
    config = tomllib.loads((REPO / "pyproject.toml").read_text())
    overrides = config["tool"]["mypy"]["overrides"]
    strict = [o for o in overrides if o.get("disallow_untyped_defs") is True]
    assert len(strict) == 1
    assert set(strict[0]["module"]) == {
        "repro.core.*",
        "repro.grid.*",
        "repro.workload.*",
        "repro.heuristics",
        # promoted with the whole-program lint work (PR 10): the
        # concurrency layer and the analyzer that checks it.
        "repro.lint.*",
        "repro.service.*",
        "repro.session.*",
    }


def test_strict_packages_have_fully_annotated_defs():
    """mypy is CI-only (not installed in the dev container), so enforce
    the disallow_untyped_defs contract for the promoted packages by AST:
    every function in repro.lint / repro.service / repro.session has a
    return annotation and annotations on all non-self/cls parameters."""
    import ast

    missing: list[str] = []
    for pkg in ("lint", "service", "session"):
        for path in sorted((REPO / "src" / "repro" / pkg).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                args = node.args
                params = (
                    args.posonlyargs + args.args + args.kwonlyargs
                )
                unannotated = [
                    a.arg
                    for a in params
                    if a.annotation is None and a.arg not in ("self", "cls")
                ]
                for star in (args.vararg, args.kwarg):
                    if star is not None and star.annotation is None:
                        unannotated.append(f"*{star.arg}")
                if unannotated or node.returns is None:
                    missing.append(
                        f"{path.relative_to(REPO)}:{node.lineno} "
                        f"{node.name} (params={unannotated}, "
                        f"returns={'ok' if node.returns else 'missing'})"
                    )
    assert missing == [], "\n".join(missing)
