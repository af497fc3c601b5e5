"""A range of independent work items in two contiguous halves, on two threads.

`flow.flow_sequence` (frame pairs), `cpda.conv3d_same` (output frames) and
`metrics.evaluate` (mask frames) each hand their items to `in_halves`. The
calling thread works through the first half while one worker thread works
through the second; each caller gates the split on its input's sizes, and
`split_point` adds the one condition they share, that the process may run
on two CPUs or more. Each item is computed the same way on either thread,
so the results are the same bits on one CPU or two.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_point(count: int, threaded: bool) -> int:
    """Where `in_halves` splits range(count): (count + 1) // 2 when `threaded`
    and the process may run on two CPUs or more, else count (no split)."""
    return (count + 1) // 2 if threaded and usable_cpus() >= 2 else count


def in_halves(work: Callable[[int, int], None], split: int, count: int) -> None:
    """work(0, split) on the calling thread and, when split < count,
    work(split, count) on one worker thread, started first.

    The worker runs in a copy of the caller's context, so it sees the
    caller's context variables; numpy's `np.errstate` is one, and a plain
    pool thread would run under numpy's default error handling instead.
    The worker is joined before this returns or raises. An error in either
    half is raised, the first half's if both fail.
    """
    if split >= count:
        work(0, count)
        return
    with ThreadPoolExecutor(max_workers=1) as pool:  # joins the worker on exit
        second = pool.submit(contextvars.copy_context().run, work, split, count)
        work(0, split)
    second.result()  # the second half's error, once the first half has none
