"""The forked workers behind --jobs: results in item order, a shared queue
of claims that hold one item each up to 1,024 items and several past that,
heaviest items first, and a dying item that costs only itself, in a claim of
one item or of several. Each test forks at most 3 workers at a time."""

from __future__ import annotations

import errno
import os
import select
import signal
import time

import pytest

from soldefect import workers
from soldefect.workers import map_forked

from conftest import no_child_left


def _failed(item, why):
    return ("failed", item, why)


def test_results_keep_item_order_through_claims_of_many_items():
    # 20,000 items travel in 1,000 claims of 20 (the queue holds at most
    # 1,024 claims, PIPE_BUF // 4 on Linux)
    items = list(range(20_000))
    assert map_forked(lambda x: 3 * x, items, 3, items, _failed) \
        == [3 * x for x in items]
    assert no_child_left()


def test_items_are_taken_heaviest_first():
    # one worker takes the queue in order: by weight, ties in item order
    started = map_forked(lambda item: time.perf_counter_ns(), list("abcde"), 1,
                         [3, 9, 1, 9, 5], _failed)
    assert sorted("abcde", key=lambda c: started["abcde".index(c)]) \
        == ["b", "d", "e", "a", "c"]


def test_an_item_that_kills_its_worker_costs_only_itself():
    # the item is tried once more alone; the other items complete, whether
    # they were queued before or after it
    def exit_on_seven(x):
        if x == 7:
            os._exit(3)
        return x

    results = map_forked(exit_on_seven, list(range(60)), 2, [1] * 60, _failed)
    assert results[7] == ("failed", 7, "exited with status 3")
    assert results[:7] + results[8:] == [x for x in range(60) if x != 7]
    assert no_child_left()


def test_an_exception_in_a_worker_fails_its_item(capfd):
    def raise_on_two(x):
        if x == 2:
            raise ValueError("two")
        return x

    results = map_forked(raise_on_two, [0, 1, 2, 3], 2, [1, 1, 1, 1], _failed)
    assert results == [0, 1, ("failed", 2, "exited with status 1"), 3]
    # once in the queue's worker and once alone
    assert capfd.readouterr().err.count("soldefect: worker: ValueError: two") == 2
    assert no_child_left()


def _wait(item):
    select.select([], [], [], 0.05)  # not time.sleep, which is patched
    return item


def _record_drain_sleeps(monkeypatch) -> list[bool]:
    """Patch the parent's drain sleep; for each sleep, note whether every
    item that had no result yet was held by a child at the time."""
    sleeps, poll = [], workers._Run._poll

    def recorded(run):
        before = len(sleeps)
        exited = poll(run)
        if len(sleeps) > before:
            sleeps[before:] = [run.received + len(run.children) >= len(run.items)]
        return exited

    monkeypatch.setattr(workers._Run, "_poll", recorded)
    monkeypatch.setattr(workers.time, "sleep", lambda s: sleeps.append(None))
    return sleeps


def test_no_drain_sleep_once_every_remaining_item_is_in_flight(monkeypatch):
    # two items for two workers: both are taken at once, so the parent
    # never sleeps; six: it sleeps while the queue still holds items, and
    # never once every item left is in a child
    sleeps = _record_drain_sleeps(monkeypatch)
    assert map_forked(_wait, [0, 1], 2, [1, 1], _failed) == [0, 1]
    assert sleeps == []
    items = list(range(6))
    assert map_forked(_wait, items, 2, [1] * 6, _failed) == items
    assert sleeps and not any(sleeps)
    assert no_child_left()


def _slow_after_a_death(x):
    if x == 0:
        os._exit(3)
    select.select([], [], [], 0.1)
    return x


def _record_starts(monkeypatch) -> list:
    """Patch the parent's fork of a child; note the position each child was
    given, None for a child of the shared queue."""
    starts, start = [], workers._Run._start

    def recorded(run, position):
        starts.append(position)
        return start(run, position)

    monkeypatch.setattr(workers._Run, "_start", recorded)
    return starts


def test_a_worker_that_dies_while_items_wait_is_replaced(monkeypatch):
    # the heaviest item kills its worker at once, while five items of 0.1 s
    # each wait: a third child takes the queue's dead worker's place
    starts = _record_starts(monkeypatch)
    results = map_forked(_slow_after_a_death, list(range(6)), 2,
                         [9, 1, 1, 1, 1, 1], _failed)
    assert results == [("failed", 0, "exited with status 3"), 1, 2, 3, 4, 5]
    assert starts == [None, None, None, 0]
    assert no_child_left()


def test_a_death_inside_a_claim_of_several_items_costs_only_its_item(
        monkeypatch):
    # 3,000 items travel in claims of 3: [0, 1, 2], [3, 4, 5], ... Item 4
    # kills its worker after 3 is sent, so 5 is lost with it; both are
    # retried alone, and only 4 fails. The queue still holds claims, so the
    # dead worker is replaced once.
    def exit_on_four(x):
        if x == 4:
            os._exit(3)
        return x

    starts = _record_starts(monkeypatch)
    items = list(range(3000))
    results = map_forked(exit_on_four, items, 2, [1] * 3000, _failed)
    assert results[4] == ("failed", 4, "exited with status 3")
    assert results[:4] + results[5:] == [x for x in items if x != 4]
    assert starts == [None, None, None, 4, 5]
    assert no_child_left()


def test_a_worker_that_takes_the_last_claim_and_dies_is_replaced_once(
        monkeypatch):
    # the lightest item kills the worker that takes it, from an empty queue:
    # its replacement reads EOF and exits 0, and is not replaced in turn
    def exit_on_two(x):
        if x == 2:
            os._exit(3)
        return x

    starts = _record_starts(monkeypatch)
    results = map_forked(exit_on_two, [0, 1, 2], 2, [3, 2, 1], _failed)
    assert results == [0, 1, ("failed", 2, "exited with status 3")]
    assert starts == [None, None, None, 2]
    assert no_child_left()


def test_more_lone_retries_than_workers(monkeypatch):
    # each item kills its worker by a signal that has no name in
    # signal.Signals: the three are retried alone, two at a time
    number = signal.SIGRTMIN + 1

    def killed(x):
        os.kill(os.getpid(), number)

    starts = _record_starts(monkeypatch)
    results = map_forked(killed, [0, 1, 2], 2, [1, 1, 1], _failed)
    assert results == [("failed", x, f"was killed by signal {number}")
                       for x in range(3)]
    assert starts[-3:] == [0, 1, 2]
    assert no_child_left()


def test_a_result_larger_than_a_pipe_arrives_in_pieces():
    # the parent reads at most 64 KiB at a time, so each 200 KB result
    # comes in pieces
    big = [bytes([x]) * 200_000 for x in range(4)]
    assert map_forked(big.__getitem__, list(range(4)), 2, [1] * 4, _failed) == big
    assert no_child_left()


def test_a_fork_that_fails_closes_its_pipe_and_leaves_no_child(monkeypatch):
    fork, forks = os.fork, []

    def second_fork_fails():
        if forks:
            raise OSError(errno.EAGAIN, "no more processes")
        forks.append(None)
        return fork()

    open_fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(OSError, match="no more processes"):
        map_forked(_wait, [0, 1, 2], 2, [1, 1, 1], _failed)
    assert set(os.listdir("/proc/self/fd")) == open_fds
    assert no_child_left()
