"""CLI report generator (`python -m repro.experiments`)."""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.__main__ import build_report, main
from repro.heuristics import HEURISTIC_NAMES
from repro.experiments.scale import SMOKE_SCALE


def test_build_report_tables_only():
    text = build_report(SMOKE_SCALE, ["tables"])
    assert "Table 1" in text
    assert "Table 4" in text
    assert "Figure 2" not in text


def test_build_report_fig2():
    text = build_report(SMOKE_SCALE, ["fig2"])
    assert "Figure 2" in text


def test_main_writes_out(tmp_path):
    out = tmp_path / "report.txt"
    rc = main(["--scale", "smoke", "--only", "tables", "--out", str(out)])
    assert rc == 0
    assert "Table 1" in out.read_text()


def test_main_rejects_unknown_scale():
    with pytest.raises(SystemExit):
        main(["--scale", "galactic"])


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--scale", "smoke",
         "--only", "tables"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "Table 1" in proc.stdout


def test_jobs_auto_flag_resolves_to_cpu_count(monkeypatch, tmp_path):
    # main() writes REPRO_JOBS into os.environ.  setenv (unlike delenv on
    # an absent variable) records an undo, so the value cannot leak into
    # later tests and fan their weight searches out over a process pool.
    monkeypatch.setenv("REPRO_JOBS", "1")
    rc = main(["--scale", "smoke", "--only", "fig2", "--jobs", "auto",
               "--perf-out", "-", "--out", str(tmp_path / "r.txt")])
    assert rc == 0
    # The flag is resolved once and pinned for downstream workers.
    assert os.environ["REPRO_JOBS"] == str(os.cpu_count() or 1)


def test_jobs_flag_rejects_garbage():
    with pytest.raises(SystemExit):
        main(["--scale", "smoke", "--only", "fig2", "--jobs", "many"])


def test_out_creates_missing_parents(tmp_path):
    out = tmp_path / "deep" / "nested" / "report.txt"
    rc = main(["--scale", "smoke", "--only", "tables", "--out", str(out),
               "--perf-out", str(tmp_path / "also" / "missing" / "perf.json")])
    assert rc == 0
    assert "Table 1" in out.read_text()
    assert (tmp_path / "also" / "missing" / "perf.json").exists()


class TestMapSubcommand:
    def test_generate_to_stdout_is_canonical(self, capsysbinary):
        rc = main(["map", "--generate", "8", "--seed", "1"])
        assert rc == 0
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["kind"] == "mapping"
        assert doc["scenario"] == "gen8-seed1"

    def test_scenario_file_to_out_file(self, tmp_path, small_scenario):
        from repro.io.serialization import save_scenario

        src = tmp_path / "scenario.json"
        save_scenario(small_scenario, src)
        out = tmp_path / "new" / "dirs" / "mapping.json"
        rc = main(["map", "--scenario", str(src), "--heuristic", "minmin",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "mapping"
        assert doc["scenario"] == small_scenario.name

    def test_ndjson_output(self, capsysbinary):
        rc = main(["map", "--generate", "8", "--seed", "1", "--ndjson"])
        assert rc == 0
        lines = capsysbinary.readouterr().out.splitlines()
        head, footer = json.loads(lines[0]), json.loads(lines[-1])
        assert head["record"] == "delta"
        assert (head["seq"], head["cycle"], head["event"]) == (0, 0, "close")
        assert head["n_new"] == len(lines) - 2
        assert footer["record"] == "footer"
        assert footer["n_assignments"] == head["n_new"]

    @pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
    def test_ndjson_is_a_session_closed_at_cycle_zero(
        self, capsysbinary, heuristic
    ):
        """``map --ndjson`` prints the lines a service session opened on
        the same scenario and closed at cycle 0 streams, and they decode
        to ``map``'s canonical bytes."""
        from repro.heuristics import generate_named_scenario
        from repro.io.serialization import canonical_mapping_bytes, scenario_to_dict
        from repro.service.worker import SessionHost, _ScenarioCache
        from repro.session import mapping_from_delta_ndjson

        argv = ["map", "--generate", "16", "--seed", "3", "--heuristic", heuristic]
        assert main(argv + ["--ndjson"]) == 0
        streamed = capsysbinary.readouterr().out
        assert main(argv) == 0
        canonical = capsysbinary.readouterr().out

        doc = scenario_to_dict(generate_named_scenario(16, 3))
        host = SessionHost(_ScenarioCache(1))
        host.open("sess-1", "sha256:gen16", doc, {"heuristic": heuristic})
        reply = host.apply("sess-1", [{"event": "close", "cycle": 0}])
        assert reply["closed"] and not reply["errors"]
        assert b"".join(reply["lines"]) == streamed

        scenario = generate_named_scenario(16, 3)
        decoded = mapping_from_delta_ndjson(streamed.splitlines(), scenario)
        assert canonical_mapping_bytes(decoded) == canonical

    def test_unknown_heuristic_exits(self):
        with pytest.raises(SystemExit):
            main(["map", "--generate", "8", "--heuristic", "olb"])

    def test_weights_on_baseline_exits(self):
        with pytest.raises(SystemExit):
            main(["map", "--generate", "8", "--heuristic", "greedy",
                  "--alpha", "0.5"])

    @pytest.mark.parametrize("before", [None, "columnar"])
    def test_kernel_flag_leaves_environment_as_found(
        self, monkeypatch, capsysbinary, before
    ):
        # setenv first so monkeypatch restores the variable even if main()
        # leaks it; then put it in the state under test.
        monkeypatch.setenv("REPRO_KERNEL", "columnar")
        if before is None:
            monkeypatch.delenv("REPRO_KERNEL")
        rc = main(["map", "--generate", "8", "--seed", "1", "--kernel", "rebuild"])
        assert rc == 0
        assert os.environ.get("REPRO_KERNEL") == before
        with pytest.raises(SystemExit):
            main(["map", "--generate", "8", "--heuristic", "olb",
                  "--kernel", "rebuild"])
        assert os.environ.get("REPRO_KERNEL") == before
