"""Microbenchmarks — single-mapping throughput of each heuristic.

Unlike the figure benches (full studies run once), these measure one
``map()`` call with proper repetition so pytest-benchmark statistics are
meaningful.  They are the reduced-scale analogue of Figure 6's absolute
numbers.
"""

import pytest

from repro.baselines.greedy import GreedyScheduler
from repro.baselines.maxmax import MaxMaxConfig, MaxMaxScheduler
from repro.baselines.minmin import MinMinScheduler
from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SLRH2, SLRH3, SlrhConfig

WEIGHTS = Weights.from_alpha_beta(0.5, 0.2)


@pytest.fixture(scope="module")
def scenario(scale):
    return scale.suite().scenario(0, 0, "A")


@pytest.mark.parametrize("cls", [SLRH1, SLRH2, SLRH3], ids=lambda c: c.name)
def test_slrh_variant_throughput(benchmark, scenario, cls):
    scheduler = cls(SlrhConfig(weights=WEIGHTS))
    result = benchmark(scheduler.map, scenario)
    assert result.schedule.n_mapped > 0


def test_maxmax_throughput(benchmark, scenario):
    scheduler = MaxMaxScheduler(MaxMaxConfig(weights=WEIGHTS))
    result = benchmark(scheduler.map, scenario)
    assert result.schedule.n_mapped > 0


def test_minmin_throughput(benchmark, scenario):
    result = benchmark(MinMinScheduler().map, scenario)
    assert result.schedule.n_mapped > 0


def test_greedy_throughput(benchmark, scenario):
    result = benchmark(GreedyScheduler().map, scenario)
    assert result.complete


def test_upper_bound_throughput(benchmark, scenario):
    from repro.bounds.upper_bound import upper_bound

    result = benchmark(upper_bound, scenario)
    assert result.t100_bound > 0
