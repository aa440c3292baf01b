"""The shared heuristic registry (:mod:`repro.heuristics`) — the single
dispatch point behind the batch CLI, the §VII factories and the service."""

from __future__ import annotations

import pytest

from repro.baselines.greedy import GreedyScheduler
from repro.baselines.maxmax import MaxMaxScheduler
from repro.baselines.minmin import MinMinScheduler
from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SLRH2, SLRH3
from repro.experiments.comparison import make_factory
from repro.heuristics import (
    HEURISTIC_NAMES,
    WEIGHTED_HEURISTICS,
    display_name,
    generate_named_scenario,
    make_scheduler,
    normalize_heuristic,
    run_heuristic,
)


class TestNormalization:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("slrh1", "slrh1"),
            ("SLRH-1", "slrh1"),
            ("slrh_2", "slrh2"),
            ("SLRH-3", "slrh3"),
            ("Max-Max", "maxmax"),
            ("MAXMAX", "maxmax"),
            ("Min-Min", "minmin"),
            ("Greedy", "greedy"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert normalize_heuristic(alias) == canonical

    def test_unknown_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown heuristic"):
            normalize_heuristic("olb9000")

    def test_display_names(self):
        assert display_name("slrh1") == "SLRH-1"
        assert display_name("maxmax") == "Max-Max"
        assert display_name("Greedy") == "Greedy"

    def test_registry_covers_issue_names(self):
        assert set(HEURISTIC_NAMES) == {
            "slrh1", "slrh2", "slrh3", "maxmax", "minmin", "greedy"
        }
        assert set(WEIGHTED_HEURISTICS) == {"slrh1", "slrh2", "slrh3", "maxmax"}


class TestMakeScheduler:
    def test_builds_expected_classes(self):
        w = Weights.from_alpha_beta(0.4, 0.3)
        assert isinstance(make_scheduler("slrh1", w), SLRH1)
        assert isinstance(make_scheduler("slrh2", w), SLRH2)
        assert isinstance(make_scheduler("slrh3", w), SLRH3)
        assert isinstance(make_scheduler("maxmax", w), MaxMaxScheduler)
        assert isinstance(make_scheduler("minmin"), MinMinScheduler)
        assert isinstance(make_scheduler("greedy"), GreedyScheduler)

    def test_weights_reach_the_config(self):
        w = Weights.from_alpha_beta(0.7, 0.1)
        assert make_scheduler("slrh1", w).config.weights == w
        assert make_scheduler("maxmax", w).config.weights == w

    def test_weightless_baselines_reject_weights(self):
        with pytest.raises(ValueError, match="does not take objective weights"):
            make_scheduler("greedy", Weights.from_alpha_beta(0.5, 0.2))


class TestRunHeuristic:
    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_every_heuristic_maps(self, tiny_scenario, name):
        result = run_heuristic(name, tiny_scenario)
        assert result.schedule.n_mapped > 0
        assert result.heuristic == display_name(name)

    def test_alpha_beta_forwarded(self, tiny_scenario):
        result = run_heuristic("slrh1", tiny_scenario, alpha=0.6, beta=0.1)
        assert result.weights.alpha == 0.6
        assert result.weights.beta == 0.1

    def test_weights_rejected_for_baselines(self, tiny_scenario):
        with pytest.raises(ValueError):
            run_heuristic("minmin", tiny_scenario, alpha=0.5)

    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_every_map_keeps_the_same_record(self, name):
        """One end-of-map bookkeeping for every heuristic: a trace record
        per commit, and one counted run whose ticks match the trace."""
        result = run_heuristic(name, generate_named_scenario(48, 7))
        n_mapped = result.schedule.n_mapped
        trace = result.trace
        assert len(trace.records) == n_mapped
        assert result.perf["map.runs"] == 1
        assert result.perf["commit.count"] == n_mapped
        assert result.perf["tick.count"] == trace.ticks > 0


class TestComparisonFactoryIntegration:
    def test_factory_dispatches_through_registry(self):
        w = Weights.from_alpha_beta(0.5, 0.2)
        assert isinstance(make_factory("SLRH-1")(w), SLRH1)
        assert isinstance(make_factory("Max-Max")(w), MaxMaxScheduler)

    def test_factory_rejects_unweighted_and_unknown(self):
        with pytest.raises(KeyError):
            make_factory("Greedy")  # nothing to weight-search
        with pytest.raises(KeyError):
            make_factory("nope")


class TestGenerateNamedScenario:
    def test_deterministic_and_named(self):
        a = generate_named_scenario(16, 3)
        b = generate_named_scenario(16, 3)
        assert a.name == b.name == "gen16-seed3"
        assert (a.etc == b.etc).all()
        assert a.dag.edges() == b.dag.edges()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            generate_named_scenario(0, 1)
