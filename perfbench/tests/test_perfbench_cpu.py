"""Tests of the choice of CPU before each pass."""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import cpu  # noqa: E402
from perfbench.cpu import pin_to_fastest_cpu  # noqa: E402

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform"
)


@pytest.fixture
def keep_affinity():
    before = os.sched_getaffinity(0)
    yield sorted(before)
    os.sched_setaffinity(0, before)


@needs_affinity
def test_one_allowed_cpu_leaves_affinity_alone(keep_affinity):
    before = os.sched_getaffinity(0)
    assert pin_to_fastest_cpu(keep_affinity[:1]) is None
    assert os.sched_getaffinity(0) == before


@needs_affinity
def test_pins_to_one_of_the_allowed_cpus(keep_affinity):
    best = pin_to_fastest_cpu(keep_affinity)
    if len(keep_affinity) < 2:
        assert best is None
    else:
        assert best in keep_affinity
        assert os.sched_getaffinity(0) == {best}


def test_pins_to_the_cpu_with_the_quickest_probe(monkeypatch):
    pinned = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(set(cpus)))
    times = iter([3.0, 3.0, 3.0, 1.0, 1.0, 9.0, 2.0, 2.0, 2.0])  # three probes per CPU
    monkeypatch.setattr(cpu, "_probe_loop", lambda: next(times))
    assert pin_to_fastest_cpu([0, 1, 2]) == 1  # medians 3.0, 1.0, 2.0
    assert pinned == [{0}, {1}, {2}, {1}]
