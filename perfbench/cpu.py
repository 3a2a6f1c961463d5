"""Choice of the CPU each pass of the benchmark runs on."""

from __future__ import annotations

import os
import statistics
import time


def _probe_loop() -> float:
    """Seconds a fixed pure-Python loop takes on the current CPU."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def pin_to_fastest_cpu(allowed: list[int]) -> int | None:
    """Pins this process to the CPU of ``allowed`` on which a fixed loop runs
    fastest now, and returns it (None when there is no choice to make).

    On a shared host each virtual CPU slows down on its own, by up to 1.8x,
    in phases of seconds to minutes, while another tenant contends for its
    physical core. The benchmark is single-threaded, so before each pass it
    moves to the CPU that is quick at that moment. The pass itself is timed
    as it runs; only where it runs is chosen.
    """
    if len(allowed) < 2:
        return None
    speed = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = statistics.median(_probe_loop() for _ in range(3))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best
