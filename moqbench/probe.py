"""Set-up probe: start cold, make one in-process service ready, exit.

Prints ``ready`` once the service has answered the warm-up request; the
parent times the interval from spawn to that line, so it covers the
interpreter start, imports, schema and service construction and the
first (warm-up) optimization.
"""

from __future__ import annotations

from repro import OptimizerService, tpch_schema

from inputs import CONFIG, warmup_request


def main() -> None:
    service = OptimizerService(tpch_schema(), CONFIG, backend="inline", cache_size=0)
    service.submit(warmup_request())
    print("ready", flush=True)


if __name__ == "__main__":
    main()
