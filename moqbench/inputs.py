"""Seeded benchmark inputs, built only from the optimizer's stable public API.

Every input is a pure function of the workload seed (and, for the open
loop, of the run length): the same seed always yields the same requests,
weights, precisions and arrival times, in any process. Per-item random
streams are seeded with strings (``random.Random`` hashes them with
SHA-512), so nothing depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro import (
    ALL_OBJECTIVES,
    FAST_CONFIG,
    Objective,
    OptimizationRequest,
    Preferences,
    tpch_query,
)
from repro.plans.serialize import request_to_dict

#: The optimizer configuration of every workload: DOP 1-2, sampling
#: 1%/5%, and no timeout or deadline.
CONFIG = FAST_CONFIG

#: The three objectives of the exact-frontier and serving workloads.
OBJECTIVES_3 = (
    Objective.TOTAL_TIME,
    Objective.BUFFER_FOOTPRINT,
    Objective.TUPLE_LOSS,
)

EXA_QUERIES = (2, 5, 7, 9, 8)
RTA_QUERIES = (2, 5, 7, 9, 10, 21)
RTA_VARIANTS = (("rta", 1.5), ("rta", 2.0), ("ira", 1.5))
SERVE_RTA_QUERIES = (2, 3, 10, 21)
SERVE_EXA_QUERIES = (3, 10, 21)

#: Serving mix: one fresh request in every block of FRESH_EVERY arrivals
#: (the rest repeat a hot pool of HOT_POOL requests: 90% cache hits),
#: and one EXA request in every EXA_EVERY fresh ones (5%). Stratified
#: rather than drawn independently, so that every window of the run
#: carries the same mix: capacity over a few seconds otherwise swings
#: by a third with the local share of cheap hits.
FRESH_EVERY = 10
HOT_POOL = 8
EXA_EVERY = 20

#: Serving RTA requests use the strict pruning closure: three objectives
#: are not closed under the cost model's recursive dependencies, and
#: only strict mode makes the alpha guarantee (which the checks test)
#: hold for them.
STRICT = True

#: Nominal open-loop arrival rate (requests/s): about 25% of the
#: 220-300 req/s the saturation phase measured on the unmodified code
#: (one worker, 2-CPU x86-64 virtual machine). Nearer 70%, the median
#: latency swung threefold between runs of one seed as the machine's
#: speed drifted. With OPEN_SHARE of a 30 s run it gives 1080 latency
#: samples, so 10 lie beyond p99.
SERVE_RATE = 60.0
#: Share of ``--seconds`` spent in the open loop; the rest (12 s of a
#: 30 s run) saturates. Capacity over a few seconds follows the
#: machine's short-term speed, hence the long saturation window.
OPEN_SHARE = 0.6

#: Request that makes a fresh service or server ready (fills lazy state
#: and starts the worker pool); never part of a measured mix.
WARMUP_QUERY = 3


@dataclass(frozen=True)
class Case:
    """One distinct request of a mix, with a stable label."""

    label: str
    request: OptimizationRequest


def _weights(rng: random.Random, objectives) -> dict:
    # Log-uniform in [0.1, 10]: every objective matters, none dominates
    # by construction.
    return {o: 10.0 ** rng.uniform(-1.0, 1.0) for o in objectives}


def _request(query, objectives, weights, algorithm, alpha, strict=False) -> OptimizationRequest:
    return OptimizationRequest(
        query=tpch_query(query),
        preferences=Preferences.from_maps(objectives=objectives, weights=weights),
        algorithm=algorithm,
        alpha=alpha,
        strict=strict,
    )


def warmup_request() -> OptimizationRequest:
    weights = {o: 1.0 for o in OBJECTIVES_3}
    return _request(WARMUP_QUERY, OBJECTIVES_3, weights, "rta", 1.5)


def exa_cases(seed: int) -> list[Case]:
    """EXA on five TPC-H queries over three objectives; seeded weights."""
    rng = random.Random(f"exa-frontier:{seed}")
    return [
        Case(f"q{q}/exa", _request(q, OBJECTIVES_3, _weights(rng, OBJECTIVES_3), "exa", 1.0))
        for q in EXA_QUERIES
    ]


def rta_cases(seed: int) -> list[Case]:
    """RTA(1.5), RTA(2), IRA(1.5) over all nine objectives (paper Fig. 9/10).

    One weight vector per query, shared by its three variants, so the
    variants of a query form one test case for the W-Cost comparison.
    """
    rng = random.Random(f"rta-many-objectives:{seed}")
    cases = []
    for q in RTA_QUERIES:
        weights = _weights(rng, ALL_OBJECTIVES)
        for algorithm, alpha in RTA_VARIANTS:
            cases.append(Case(
                f"q{q}/{algorithm}{alpha:g}",
                _request(q, ALL_OBJECTIVES, weights, algorithm, alpha),
            ))
    return cases


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeItem:
    """One request of the serving mix, pre-encoded for the wire."""

    kind: str  # "hot", "rta" or "exa"
    query: int
    request: OptimizationRequest
    body: bytes

    @property
    def label(self) -> str:
        return f"q{self.query}/{self.kind}"


def encode(request: OptimizationRequest) -> bytes:
    return json.dumps(request_to_dict(request)).encode("utf-8")


def _serve_request(kind: str, query: int, rng: random.Random) -> ServeItem:
    if kind == "exa":
        request = _request(query, OBJECTIVES_3, _weights(rng, OBJECTIVES_3), "exa", 1.0)
    else:
        alpha = rng.uniform(1.2, 2.0)
        request = _request(query, OBJECTIVES_3, _weights(rng, OBJECTIVES_3), "rta", alpha, STRICT)
    return ServeItem(kind, query, request, encode(request))


def hot_pool(seed: int) -> list[ServeItem]:
    rng = random.Random(f"serve-open-loop:{seed}:hot")
    return [
        _serve_request("hot", SERVE_RTA_QUERIES[slot % len(SERVE_RTA_QUERIES)], rng)
        for slot in range(HOT_POOL)
    ]


def serve_item(seed: int, phase: str, index: int, hot: list[ServeItem]) -> ServeItem:
    """Request ``index`` of a phase: a hot repeat or a fresh, unique one.

    The shape of the traffic (hot or fresh, which hot slot, which query
    and algorithm) is drawn from a stream that ignores the seed, so
    every seed offers the same load; the seed draws the content: the
    hot pool, and each fresh request's weights and alpha.
    """
    block, position = divmod(index, FRESH_EVERY)
    shape = random.Random(f"serve-open-loop:shape:{phase}:{block}")
    if position != shape.randrange(FRESH_EVERY):
        return hot[random.Random(f"serve-open-loop:hot:{phase}:{index}").randrange(len(hot))]
    if block % EXA_EVERY == EXA_EVERY - 1:
        kind = "exa"
        query = SERVE_EXA_QUERIES[block // EXA_EVERY % len(SERVE_EXA_QUERIES)]
    else:
        # Shift the rotation each EXA cycle so EXA displaces each query in turn.
        kind = "rta"
        query = SERVE_RTA_QUERIES[(block + block // EXA_EVERY) % len(SERVE_RTA_QUERIES)]
    return _serve_request(kind, query, random.Random(f"serve-open-loop:{seed}:{phase}:{index}"))


def open_loop_schedule(seconds: float) -> list[float]:
    """Poisson arrival offsets (s) at :data:`SERVE_RATE` for the open loop.

    A Poisson process conditioned on its count: ``rate x horizon``
    arrivals placed uniformly at random in the window. Like the traffic
    shape it ignores the seed, so every seed sees the same bursts.
    """
    rng = random.Random("serve-open-loop:arrivals")
    horizon = seconds * OPEN_SHARE
    return sorted(rng.uniform(0.0, horizon) for _ in range(round(SERVE_RATE * horizon)))


def open_loop_items(seed: int, seconds: float) -> tuple[list[float], list[ServeItem]]:
    hot = hot_pool(seed)
    schedule = open_loop_schedule(seconds)
    return schedule, [serve_item(seed, "open", i, hot) for i in range(len(schedule))]
