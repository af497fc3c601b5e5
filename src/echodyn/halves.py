"""A range of independent work items in two contiguous halves, on two threads.

`flow.flow_sequence` (frame pairs), `cpda.conv3d_same` (output frames) and
`metrics.evaluate` (mask frames) each hand their items to `in_halves`,
with a gate on their input's sizes. The calling thread works through the
first half while one worker thread works through the second. All three
follow one rule: each half writes only its own items' slots of a result
allocated before the split, and reads only inputs that nobody writes. Each
item is computed the same way on either thread, so the results do not
depend on the split.
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


def in_halves(work: Callable[[int, int], None], count: int, threaded: bool) -> None:
    """work(first, stop) over range(count): whole on the calling thread or,
    when `threaded`, count >= 2 and the process may run on two CPUs or more,
    split at (count + 1) // 2, work(split, count) on one worker thread,
    started first, and work(0, split) on the calling thread.

    The worker runs in a copy of the caller's context, so it sees the
    caller's context variables; numpy's `np.errstate` is one, and a plain
    pool thread would run under numpy's default error handling instead.
    The worker is joined before this returns or raises. An error in either
    half is raised, the first half's if both fail.
    """
    split = (count + 1) // 2
    if not (threaded and split < count and usable_cpus() >= 2):
        work(0, count)
        return
    with ThreadPoolExecutor(max_workers=1) as pool:  # joins the worker on exit
        second = pool.submit(contextvars.copy_context().run, work, split, count)
        work(0, split)
    second.result()  # the second half's error, once the first half has none
