"""The forked workers behind --jobs: results in item order, a shared queue
larger than a pipe, heaviest items first, and a dying item that costs only
itself. Each test forks at most 3 workers at a time."""

from __future__ import annotations

import os
import time

from soldefect.workers import map_forked

from conftest import no_child_left


def _failed(item, why):
    return ("failed", item, why)


def test_results_keep_item_order_through_a_queue_larger_than_a_pipe():
    # 20,000 positions take 80,000 bytes, more than the 64 KiB a pipe holds,
    # so the parent feeds the queue as the workers drain it
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
