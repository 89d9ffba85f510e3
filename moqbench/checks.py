"""Independent output checks, and the percentile the metrics use.

The checks use the benchmark's own numpy code and committed reference
data, never the optimizer's pruning or selection code, and run outside
every timed section. Each returns a list of human-readable problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_frontiers.json")

#: Relative slack for comparing weighted sums computed in different
#: summation orders (the cost vectors themselves compare bit for bit).
REL_TOL = 1e-9


def load_expected() -> dict[str, list[list[float]]]:
    """Exact 3-objective EXA frontiers keyed by ``q<N>``.

    Made once with the scalar reference enumeration; see
    ``make_expected.py``.
    """
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["frontiers"]


def dominated_pairs(costs: np.ndarray) -> int:
    """Number of (a, b) pairs in which vector a dominates vector b."""
    le = (costs[:, None, :] <= costs[None, :, :]).all(axis=2)
    lt = (costs[:, None, :] < costs[None, :, :]).any(axis=2)
    return int((le & lt).sum())


def weighted(costs, weights) -> np.ndarray:
    return np.asarray(costs, dtype=float) @ np.asarray(weights, dtype=float)


_FLAGS = ("timed_out", "deadline_hit", "degraded")


@dataclass(frozen=True)
class Outcome:
    """What the checks need from one answer, in-process or over the wire."""

    label: str  # "q<N>/<variant>"; the query part names the test case
    alpha: float
    weights: tuple[float, ...]
    #: Chosen plan cost of each query block, main block first. A
    #: multi-block query (q2, q21) optimizes its blocks one by one and
    #: reports the main block's frontier, so per-block costs are what
    #: the frontier and the alpha guarantee speak about.
    blocks: tuple[tuple[float, ...], ...]
    frontier: tuple[tuple[float, ...], ...]
    plans_considered: int
    problems: tuple[str, ...]  # flags set on the answer, missing plans

    @property
    def query(self) -> str:
        return self.label.split("/", 1)[0]

    @classmethod
    def of_result(cls, label: str, result) -> "Outcome":
        blocks = [b.plan_cost for b in result.block_results] or [result.plan_cost]
        return cls._make(
            label, result.alpha, result.preferences.weights, blocks,
            result.frontier_costs, result.plans_considered,
            {name: getattr(result, name) for name in _FLAGS},
        )

    @classmethod
    def of_wire(cls, label: str, payload: dict) -> "Outcome":
        """From a ``result_to_dict`` payload as the server sent it.

        The wire carries the main block's plan tree (whose root cost is
        the main block's cost) but not the other blocks' plans.
        """
        metrics = payload["metrics"]
        plan = payload["plan"]
        main = None if plan is None else [plan["cost"][name] for name in payload["objectives"]]
        return cls._make(
            label, payload["alpha"], payload["weights"], [main],
            payload["frontier"], metrics["plans_considered"],
            {name: metrics.get(name, False) for name in _FLAGS},
        )

    @classmethod
    def _make(cls, label, alpha, weights, blocks, frontier, candidates, flags) -> "Outcome":
        problems = [f"{label}: result flagged {name}" for name in _FLAGS if flags[name]]
        if any(cost is None for cost in blocks):
            problems.append(f"{label}: no plan chosen")
            blocks = []
        return cls(
            label=label,
            alpha=1.0 if alpha is None else float(alpha),
            weights=tuple(weights),
            blocks=tuple(tuple(cost) for cost in blocks),
            frontier=tuple(tuple(cost) for cost in frontier),
            plans_considered=candidates,
            problems=tuple(problems),
        )


def check_exa(outcome: Outcome, expected) -> list[str]:
    """EXA: non-dominated frontier equal to the reference, optimal choice."""
    if outcome.problems:
        return list(outcome.problems)
    label, problems = outcome.label, []
    costs = np.asarray(outcome.frontier, dtype=float)
    if costs.ndim != 2 or len(costs) == 0:
        return [f"{label}: empty frontier"]
    pairs = dominated_pairs(costs)
    if pairs:
        problems.append(f"{label}: {pairs} dominated pairs in the frontier")
    reference = expected[outcome.query]
    if sorted(outcome.frontier) != sorted(map(tuple, reference)):
        problems.append(
            f"{label}: frontier ({len(outcome.frontier)} plans) differs from "
            f"the reference ({len(reference)} plans)"
        )
    best = float(weighted(outcome.frontier, outcome.weights).min())
    chosen = float(weighted(outcome.blocks[:1], outcome.weights)[0])
    if chosen > best * (1.0 + REL_TOL):
        problems.append(f"{label}: chosen plan costs {chosen!r}, frontier minimum {best!r}")
    return problems


def check_against_optimum(outcome: Outcome, expected) -> tuple[float, list[str]]:
    """W-Cost of the main block against the exact optimum; must be <= alpha."""
    if outcome.problems:
        return math.nan, list(outcome.problems)
    best = float(weighted(expected[outcome.query], outcome.weights).min())
    ratio = float(weighted(outcome.blocks[:1], outcome.weights)[0]) / best
    if ratio > outcome.alpha * (1.0 + REL_TOL):
        return ratio, [f"{outcome.label}: W-Cost {ratio!r} exceeds alpha {outcome.alpha!r}"]
    return ratio, []


def wcost_ratios(outcomes: list[Outcome]) -> tuple[list[float], list[list[str]]]:
    """The paper's W-Cost of each answer, and its problems.

    A test case is one block of a query under one weight vector; its
    best weighted cost is the minimum over every answer any variant
    gave. The best found costs at least the true optimum, so a ratio
    above the answer's alpha violates the approximation guarantee. An
    answer's ratio is its worst block's.
    """
    best: dict[tuple, float] = {}
    for outcome in outcomes:
        for block, cost in enumerate(weighted_blocks(outcome)):
            key = (outcome.query, outcome.weights, block)
            best[key] = min(best.get(key, math.inf), cost)
    ratios, problems = [], []
    for outcome in outcomes:
        if outcome.problems:
            ratios.append(math.nan)
            problems.append(list(outcome.problems))
            continue
        ratio = max(
            cost / best[(outcome.query, outcome.weights, block)]
            for block, cost in enumerate(weighted_blocks(outcome))
        )
        ratios.append(ratio)
        problems.append(
            [f"{outcome.label}: W-Cost {ratio!r} exceeds alpha {outcome.alpha!r}"]
            if ratio > outcome.alpha * (1.0 + REL_TOL) else []
        )
    return ratios, problems


def weighted_blocks(outcome: Outcome) -> list[float]:
    return [float(c) for c in weighted(outcome.blocks, outcome.weights)] if outcome.blocks else []


def check_repeats(outcomes: list[Outcome]) -> list[str]:
    """Exact counters must repeat across runs of the same request."""
    seen: dict[tuple, tuple[int, int]] = {}
    problems = []
    for outcome in outcomes:
        key = (outcome.label, outcome.weights, outcome.alpha)
        counters = (outcome.plans_considered, len(outcome.frontier))
        if seen.setdefault(key, counters) != counters:
            problems.append(
                f"{outcome.label}: (candidates, frontier plans) {counters} "
                f"!= {seen[key]} on an earlier run of the same request"
            )
    return problems


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (an order statistic, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]
