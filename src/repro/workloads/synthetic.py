"""Open-loop synthetic arrival patterns for component stress tests.

The IOR workload is closed-loop (each process waits for its read).  For
isolating a single resource — e.g. "how deep does the migration queue get
at a given interrupt rate?" — an open-loop Poisson stream is the right
probe; these helpers generate one.
"""

from __future__ import annotations

import math
import typing as t

from ..des import Environment
from ..errors import ConfigError
from ..rng import Pcg64Stream

__all__ = ["poisson_strip_arrivals"]


def poisson_strip_arrivals(
    env: Environment,
    rate: float,
    count: int,
    handler: t.Callable[[int], t.Any],
    rng: Pcg64Stream,
) -> t.Generator:
    """Fire ``handler(i)`` for ``count`` arrivals at Poisson ``rate``/s.

    If ``handler`` returns a generator it is spawned as its own process,
    so slow handlers do not throttle the arrival stream (open loop).
    """
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate}")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    for i in range(count):
        # Inverse-CDF exponential draw; 1 - u is in (0, 1], so log is finite.
        gap = -math.log(1.0 - rng.random()) / rate
        yield env.timeout(gap)
        result = handler(i)
        if result is not None and hasattr(result, "send"):
            env.process(result)
