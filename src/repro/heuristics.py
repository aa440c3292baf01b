"""The single heuristic registry shared by every dispatch surface.

Before the serving layer existed, each driver hard-coded its own
name → scheduler table (:mod:`repro.experiments.comparison` had one, the
examples another).  This module is now the *only* place that mapping
lives: the batch CLI (``python -m repro.experiments map``), the §VII
weight-search factories and the :mod:`repro.service` daemon all dispatch
through :func:`make_scheduler`, so a scenario mapped through any surface
runs byte-identical code — the property the service's differential
determinism test enforces.

Canonical names are lowercase and dash-free (``slrh1`` … ``greedy``);
:func:`normalize_heuristic` also accepts the report-style display names
(``SLRH-1``, ``Max-Max`` …) used throughout EXPERIMENTS.md.

The weighted heuristics (the SLRH family and Max-Max) take the paper's
(α, β) objective weights; the classic minimum-completion-time baselines
(Min-Min, Greedy) ignore them by construction.

Every registered scheduler satisfies the :class:`Heuristic` protocol and
runs on the shared :class:`repro.core.kernel.SchedulingKernel`: the
clock-driven SLRH family supplies a :class:`~repro.core.kernel.TickPolicy`
("how many commits per machine per tick, and what happens to the pool
between commits") to the kernel's tick loop, while the static baselines
(Max-Max, Min-Min, Greedy) supply a selection rule to its clockless round
loop — one core under every heuristic.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.baselines.greedy import GreedyScheduler
from repro.baselines.maxmax import MaxMaxConfig, MaxMaxScheduler
from repro.baselines.minmin import MinMinScheduler
from repro.core.objective import Weights
from repro.core.slrh import SLRH1, SLRH2, SLRH3, MappingResult, SlrhConfig
from repro.obs.spans import Tracer
from repro.workload.scenario import Scenario


@runtime_checkable
class Heuristic(Protocol):
    """What every registered scheduler looks like to a dispatch surface.

    A heuristic carries a report-style display ``name`` and maps one
    :class:`~repro.workload.scenario.Scenario` to a
    :class:`~repro.core.slrh.MappingResult`.  The SLRH family's ``map``
    accepts further keyword arguments (partial schedules, segment bounds,
    tracers, a persistent kernel — see :meth:`SlrhScheduler.map
    <repro.core.slrh.SlrhScheduler.map>`); callers that dispatch across the
    whole registry use only this shared surface.
    """

    name: str

    def map(self, scenario: Scenario) -> MappingResult: ...

#: Default objective weights (README quickstart values) used when a caller
#: names a weighted heuristic without supplying (α, β).
DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.2


def _slrh(cls: type) -> Callable[..., Heuristic]:
    def build(weights: Weights, ledger: bool = False) -> Heuristic:
        return cls(SlrhConfig(weights=weights, ledger=ledger))

    return build


def _maxmax(weights: Weights, ledger: bool = False) -> MaxMaxScheduler:
    if ledger:
        raise ValueError("the decision ledger is only supported by the SLRH family")
    return MaxMaxScheduler(MaxMaxConfig(weights=weights))


#: canonical name → display name, weights-aware constructor (or None for
#: the weight-free baselines, constructed via _UNWEIGHTED).
_WEIGHTED: dict[str, tuple[str, Callable[[Weights], object]]] = {
    "slrh1": ("SLRH-1", _slrh(SLRH1)),
    "slrh2": ("SLRH-2", _slrh(SLRH2)),
    "slrh3": ("SLRH-3", _slrh(SLRH3)),
    "maxmax": ("Max-Max", _maxmax),
}

_UNWEIGHTED: dict[str, tuple[str, Callable[[], object]]] = {
    "minmin": ("Min-Min", MinMinScheduler),
    "greedy": ("Greedy", GreedyScheduler),
}

#: Every heuristic name the registry dispatches, in report order.
HEURISTIC_NAMES: tuple[str, ...] = tuple(_WEIGHTED) + tuple(_UNWEIGHTED)

#: Canonical names of the heuristics whose objective uses (α, β).
WEIGHTED_HEURISTICS: tuple[str, ...] = tuple(_WEIGHTED)

#: Canonical names of the clock-driven SLRH variants — the heuristics that
#: support the decision ledger and span tracing (:mod:`repro.obs`).
SLRH_FAMILY: tuple[str, ...] = ("slrh1", "slrh2", "slrh3")

_ALIASES: dict[str, str] = {}
for canonical, (display, _) in {**_WEIGHTED, **_UNWEIGHTED}.items():
    _ALIASES[canonical] = canonical
    _ALIASES[display.lower().replace("-", "")] = canonical


def normalize_heuristic(name: str) -> str:
    """Canonical registry name for *name* (accepts display-name aliases).

    Raises :class:`KeyError` for unknown heuristics.
    """
    key = str(name).strip().lower().replace("-", "").replace("_", "")
    try:
        return _ALIASES[key]
    except KeyError:
        raise KeyError(
            f"unknown heuristic {name!r}; expected one of {', '.join(HEURISTIC_NAMES)}"
        ) from None


def display_name(name: str) -> str:
    """Report-style display name (``SLRH-1``, ``Max-Max`` …) for *name*."""
    canonical = normalize_heuristic(name)
    table = _WEIGHTED if canonical in _WEIGHTED else _UNWEIGHTED
    return table[canonical][0]


def resolve_weights(
    name: str, alpha: float | None = None, beta: float | None = None
) -> Weights | None:
    """The objective weights heuristic *name* runs with, or None for a
    weight-free baseline.

    A missing α or β takes its default (:data:`DEFAULT_ALPHA`,
    :data:`DEFAULT_BETA`).  Raises :class:`ValueError` for weights on a
    weight-free baseline and for a point off the simplex (negative, NaN,
    or α + β > 1), and :class:`KeyError` for an unknown heuristic.
    """
    canonical = normalize_heuristic(name)
    if canonical not in _WEIGHTED:
        if alpha is not None or beta is not None:
            raise ValueError(
                f"heuristic {canonical!r} does not take objective weights"
            )
        return None
    return Weights.from_alpha_beta(
        DEFAULT_ALPHA if alpha is None else float(alpha),
        DEFAULT_BETA if beta is None else float(beta),
    )


def make_scheduler(
    name: str, weights: Weights | None = None, ledger: bool = False
) -> Heuristic:
    """Build the scheduler registered under *name*.

    *weights* applies to the weighted heuristics (SLRH family, Max-Max)
    and defaults to ``Weights.from_alpha_beta(0.5, 0.2)``; the weight-free
    baselines (Min-Min, Greedy) reject explicit weights rather than
    silently ignoring them.  *ledger* turns the decision ledger on
    (:mod:`repro.obs.ledger`; SLRH family only — other heuristics raise).
    """
    canonical = normalize_heuristic(name)
    if canonical in _WEIGHTED:
        if weights is None:
            weights = Weights.from_alpha_beta(DEFAULT_ALPHA, DEFAULT_BETA)
        return _WEIGHTED[canonical][1](weights, ledger=ledger)
    if weights is not None:
        raise ValueError(f"heuristic {canonical!r} does not take objective weights")
    if ledger:
        raise ValueError("the decision ledger is only supported by the SLRH family")
    return _UNWEIGHTED[canonical][1]()


def run_heuristic(
    name: str,
    scenario: Scenario,
    alpha: float | None = None,
    beta: float | None = None,
    *,
    ledger: bool = False,
    tracer: "Tracer | None" = None,
) -> MappingResult:
    """Map *scenario* with the heuristic registered under *name*.

    (α, β) are checked and defaulted by :func:`resolve_weights`.

    *ledger* records candidate rejections on the result's trace and
    *tracer* (a :class:`repro.obs.spans.Tracer`) records the span tree;
    both require an SLRH-family heuristic (:data:`SLRH_FAMILY`) and both
    leave the mapping bytes untouched — they only add observability.
    """
    canonical = normalize_heuristic(name)
    if tracer is not None and canonical not in SLRH_FAMILY:
        raise ValueError("span tracing is only supported by the SLRH family")
    weights = resolve_weights(canonical, alpha, beta)
    scheduler = make_scheduler(canonical, weights, ledger=ledger)
    if canonical in SLRH_FAMILY:
        return scheduler.map(scenario, tracer=tracer)
    return scheduler.map(scenario)


def generate_named_scenario(n_tasks: int, seed: int) -> Scenario:
    """The shared ``(n_tasks, seed)`` → scenario constructor.

    Both the batch CLI's ``map --generate`` path and the service's
    ``POST /v1/scenarios {"generate": ...}`` path build scenarios here, so
    "same scenario + seed" means the same :class:`Scenario` on every
    surface: a paper-proportionally-shrunk instance (τ and batteries scaled
    by ``n_tasks/1024``) named ``gen<n>-seed<seed>``.
    """
    from repro.workload.scenario import (
        generate_scenario,
        paper_scaled_grid,
        paper_scaled_spec,
    )

    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    return generate_scenario(
        paper_scaled_spec(int(n_tasks)),
        grid=paper_scaled_grid(int(n_tasks)),
        seed=int(seed),
        name=f"gen{int(n_tasks)}-seed{int(seed)}",
    )
