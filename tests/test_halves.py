from __future__ import annotations

import contextvars
import threading

import pytest

from echodyn.halves import in_halves

from conftest import allow_cpus

_TAG = contextvars.ContextVar("tag", default="unset")


@pytest.mark.parametrize("count,threaded,cpus,split", [
    (7, True, {0, 1}, 4), (8, True, {0, 1}, 4), (1, True, {0, 1}, 1), (0, True, {0, 1}, 0),
    (7, False, {0, 1}, 7), (7, True, {0}, 7)])
def test_in_halves_splits_at_half_on_two_cpus(monkeypatch, count, threaded, cpus, split):
    allow_cpus(monkeypatch, cpus)
    ranges = []
    in_halves(lambda first, stop: ranges.append((first, stop)), count, threaded)
    assert sorted(ranges) == ([(0, split), (split, count)] if split < count else [(0, count)])


def test_each_half_runs_once_the_second_on_a_worker_in_the_callers_context(monkeypatch):
    allow_cpus(monkeypatch, {0, 1})
    ranges = {}

    def work(first, stop):
        ranges[(first, stop)] = (threading.get_ident(), _TAG.get())

    before = threading.active_count()
    token = _TAG.set("caller")
    try:
        in_halves(work, 5, True)
    finally:
        _TAG.reset(token)
    assert threading.active_count() == before
    me = threading.get_ident()
    assert ranges[(0, 3)] == (me, "caller")
    assert ranges[(3, 5)][0] != me and ranges[(3, 5)][1] == "caller"
    ranges.clear()
    in_halves(work, 5, False)
    assert ranges == {(0, 5): (me, "unset")}


@pytest.mark.parametrize("failing,raised", [({0}, "half 0"), ({3}, "half 3"),
                                            ({0, 3}, "half 0")])
def test_the_first_halfs_error_wins_and_the_worker_is_joined(monkeypatch, failing, raised):
    allow_cpus(monkeypatch, {0, 1})
    finished = []
    second_started = threading.Event()

    def work(first, stop):
        if first:
            second_started.set()
        else:  # the first half fails only once the second is under way
            assert second_started.wait(timeout=10)
        if first in failing:
            raise ValueError(f"half {first}")
        finished.append(first)

    before = threading.active_count()
    with pytest.raises(ValueError, match=raised):
        in_halves(work, 6, True)
    assert threading.active_count() == before
    assert sorted(finished) == sorted({0, 3} - failing)
