"""Regenerate ``expected_frontiers.json``: exact EXA frontiers, scalar path.

The frontiers are computed with the scalar reference enumeration
(``vectorized_enumeration=False``), an implementation independent of
the batched hot path the benchmark times. An exact Pareto frontier does
not depend on the weights, so one unit-weight run per query covers
every seed. Run from the repository root::

    PYTHONPATH=src python3 moqbench/make_expected.py
"""

from __future__ import annotations

import dataclasses
import json

from repro import OptimizationRequest, OptimizerService, Preferences, tpch_query, tpch_schema

from checks import EXPECTED_PATH
from inputs import CONFIG, EXA_QUERIES, OBJECTIVES_3, SERVE_EXA_QUERIES, SERVE_RTA_QUERIES


def main() -> None:
    config = dataclasses.replace(CONFIG, vectorized_enumeration=False)
    service = OptimizerService(tpch_schema(), config, backend="inline", cache_size=0)
    preferences = Preferences.from_maps(
        objectives=OBJECTIVES_3, weights={o: 1.0 for o in OBJECTIVES_3}
    )
    frontiers = {}
    for query in sorted(set(EXA_QUERIES + SERVE_EXA_QUERIES + SERVE_RTA_QUERIES)):
        result = service.submit(OptimizationRequest(
            query=tpch_query(query), preferences=preferences, algorithm="exa",
        ))
        if result.timed_out or result.deadline_hit or result.degraded:
            raise SystemExit(f"q{query}: reference run did not complete")
        frontiers[f"q{query}"] = sorted(list(cost) for cost in result.frontier_costs)
        print(f"q{query}: {len(result.frontier)} plans", flush=True)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({
            "objectives": [o.name.lower() for o in OBJECTIVES_3],
            "config": "FAST_CONFIG, vectorized_enumeration=False, no timeout",
            "frontiers": frontiers,
        }, handle)
        handle.write("\n")


if __name__ == "__main__":
    main()
