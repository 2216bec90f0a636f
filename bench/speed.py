"""Timings scaled to a fixed machine speed.

The benchmark runs on a few cores of a shared host, where the speed the
process gets swings by up to 2x from one second to the next and from one
minute to the next, with the load of other tenants; process CPU time swings
with it. A fixed pure-Python reference loop is therefore timed right before
and right after every timed operation, and every ``SAMPLE_S`` during it
from a timer signal, and the operation's wall time is scaled to a machine
on which the reference loop takes exactly ``REF_S``:

    scaled = (wall - time spent sampling) * REF_S / mean(reference times)

The reference loop is the benchmark's own code and never calls skygraph,
so a change to skygraph moves a scaled time as it would move the wall time
on a machine of steady speed; only the host's swings cancel out. Wall times
(less the sampling) are kept too and printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import Callable, TypeVar

T = TypeVar("T")

clock = time.perf_counter

REF_ROUNDS = 1500
# The reference loop takes about this long on the host the benchmark was
# written on (a 2-vCPU cloud VM, CPython 3.11), so scaled times read close
# to wall times there.
REF_S = 0.002
# Interval of the reference samples taken while an operation runs; they
# cost a few percent of the wall time, which is taken off again.
SAMPLE_S = 0.05


class _Item:
    __slots__ = ("key", "links")

    def __init__(self, key: str) -> None:
        self.key = key
        self.links: list[int] = []


def reference_loop(rounds: int = REF_ROUNDS) -> int:
    """Fixed interpreter work of the kind skygraph does: string keys, dict
    lookups, small objects and list appends."""
    index: dict[str, _Item] = {}
    for i in range(rounds):
        key = f"n{i % 211}-{i % 7}"
        item = index.get(key)
        if item is None:
            item = index[key] = _Item(key)
        item.links.append(i)
    return sum(len(item.links) for item in index.values())


def reference_s() -> float:
    """Wall time of one reference loop. The cyclic garbage collector is off
    meanwhile, so the time does not depend on how much skygraph holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = clock()
        reference_loop()
        return clock() - began
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Times operations in wall seconds and in seconds at reference speed.

    Consecutive operations share the reference loop between them. With
    `sample` false no timer signal is used and only the references before
    and after an operation count, for runs whose own spans must not
    include the sampling.
    """

    _active = False  # one sampling timer per process

    def __init__(self, sample: bool = True) -> None:
        self._sample = sample
        self._before: float | None = None

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """(result of `fn`, scaled seconds, wall seconds)."""
        references = [self._before if self._before is not None else reference_s()]
        sampled = 0.0
        sampling = False

        def sample(signum, frame) -> None:
            nonlocal sampled, sampling
            if sampling:  # the host stalled a sample past the next tick
                return
            sampling = True
            began = clock()
            references.append(reference_s())
            sampled += clock() - began
            sampling = False

        if self._sample:
            if Stopwatch._active:
                raise RuntimeError("stopwatches that sample cannot nest")
            Stopwatch._active = True
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        began = clock()
        try:
            result = fn()
        finally:
            wall = clock() - began
            if self._sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                Stopwatch._active = False
        wall -= sampled
        self._before = reference_s()
        references.append(self._before)
        return result, wall * REF_S * len(references) / sum(references), wall

    def pause(self) -> None:
        """Forget the last reference: the next operation takes a fresh one,
        for when untimed work comes between operations."""
        self._before = None
