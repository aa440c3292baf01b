"""Self-test of the benchmark: every workload at small |T|, in seconds.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

Checks that each workload prints every end-to-end metric with its unit,
that the traced run emits every per-layer metric ``BENCHMARK.json``
names, and that a corrupted expected digest is reported as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SMALL = ["--tasks", "32", "--seconds", "1", "--seed", "1"]


def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    result = run_bench("--workload", workload, "--trace", "0", *SMALL)
    assert_metrics(result, CONFIG["end_to_end"])
    assert result["attempted"] >= 100  # ten samples beyond p90
    assert result["failed"] == 0 and result["correct"] is True
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload: str) -> None:
    result = run_bench("--workload", workload, "--trace", "1", *SMALL)
    assert_metrics(result, CONFIG["per_layer"])
    assert result["failed"] == 0
    assert result["metrics"]["trace.ops"]["value"] > 0


def test_corrupted_digest_is_a_failed_op(monkeypatch, capsys) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import paper_batch
    import run

    n_ops = paper_batch.n_ops_for(1)
    first = "/".join(paper_batch.op_sequence(paper_batch.generate(32, 1, n_ops), 1)[0])
    table = json.loads(paper_batch.DIGESTS.read_text())
    table["32:1"][first] = "0" * 64
    corrupted = ROOT / ".perfbench" / "selftest-digests.json"
    corrupted.parent.mkdir(exist_ok=True)
    corrupted.write_text(json.dumps(table))
    monkeypatch.setattr(paper_batch, "DIGESTS", corrupted)
    assert run.main(["--workload", "paper-batch", "--trace", "0", *SMALL]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["attempted"] == n_ops
