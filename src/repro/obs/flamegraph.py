"""Collapsed-stack flamegraph emitter.

:func:`profile_collapsed` wraps one call (``Simulation(config).run``, say)
in a :class:`StackSampler`: a daemon thread that snapshots the calling
thread's Python stack via :data:`sys._current_frames` at a fixed cadence.
Samples collapse to Brendan Gregg's folded format — one
``frame;frame;frame count`` line per unique stack — consumable directly
by ``flamegraph.pl`` or https://www.speedscope.app.

This is *profiling* tooling: it measures wall-clock behaviour of the
simulator itself and is deliberately outside the determinism guarantees
of :mod:`repro.obs.spans` (sampling depends on host scheduling).  No
``sais-repro`` command runs it.
"""

from __future__ import annotations

import sys
import threading
import time
import typing as t

__all__ = [
    "StackSampler",
    "collapse_stacks",
    "folded_lines",
    "profile_collapsed",
]


def _frames_to_stack(frame: t.Any, strip_prefix: str = "") -> tuple[str, ...]:
    """Walk a frame's callers into a root-first tuple of ``module:func``."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        name = f"{code.co_filename}:{code.co_name}"
        if strip_prefix and name.startswith(strip_prefix):
            name = name[len(strip_prefix):]
        parts.append(name)
        frame = frame.f_back
    parts.reverse()
    return tuple(parts)


class StackSampler:
    """Samples one thread's Python stack on a background daemon thread."""

    def __init__(
        self,
        interval: float = 0.002,
        target_thread_id: int | None = None,
        strip_prefix: str = "",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.strip_prefix = strip_prefix
        self._target = (
            threading.get_ident() if target_thread_id is None else target_thread_id
        )
        self.samples: list[tuple[str, ...]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "StackSampler":
        self._thread = threading.Thread(
            target=self._run, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc: t.Any) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            if frame is not None:
                self.samples.append(_frames_to_stack(frame, self.strip_prefix))


def collapse_stacks(
    samples: t.Iterable[tuple[str, ...]],
) -> dict[str, int]:
    """Fold raw stack samples into ``{"a;b;c": count}``."""
    folded: dict[str, int] = {}
    for stack in samples:
        key = ";".join(stack)
        folded[key] = folded.get(key, 0) + 1
    return folded


def folded_lines(folded: dict[str, int]) -> list[str]:
    """Format a collapsed mapping as ``.folded`` lines.

    Sorted by descending count then stack text, so the output depends
    only on the sample multiset — never on insertion order.
    """
    return [
        f"{stack} {count}"
        for stack, count in sorted(
            folded.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]


def profile_collapsed(
    fn: t.Callable[[], t.Any],
    interval: float = 0.002,
    strip_prefix: str = "",
) -> tuple[t.Any, list[str]]:
    """Run ``fn`` under the sampler; return (result, folded-stack lines).

    Lines are ready to write to a ``.folded`` file for ``flamegraph.pl``
    or speedscope.
    """
    sampler = StackSampler(interval=interval, strip_prefix=strip_prefix)
    with sampler:
        result = fn()
    return result, folded_lines(collapse_stacks(sampler.samples))
