"""Row or column blocks of one 2D stage, run on every core.

numpy's FFT and elementwise loops release the GIL, so the blocks of a
2048^2 stage run in parallel: on the calling thread and on a pool of one
thread per further CPU in this process's affinity mask, made on first use,
with no setting.  The caller takes blocks too because each pool thread's
malloc arena keeps the temporaries it freed: the caller's share reuses its
own heap, which keeps peak RSS near that of one thread.  A block writes
only its own slice and reduces nothing, so a stage's output does not depend
on the worker count; reductions stay with the caller.  A block must not
call `map_blocks` itself.
"""
from __future__ import annotations

import functools
import os
import threading

_pool_lock = threading.Lock()


def workers() -> int:
    """Threads a stage runs on: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


@functools.cache
def _pool(k: int):
    from concurrent.futures import ThreadPoolExecutor  # off the CLI import path
    return ThreadPoolExecutor(k, thread_name_prefix="sswm-block")


def map_blocks(fn, n: int, budget: int) -> None:
    """fn(block) for consecutive slices that tile range(n), each at most
    budget // workers() long, so the slices in flight hold at most `budget`
    lines.  Each of the workers() threads takes the next block until none is
    left.  Returns once every thread is done; an exception raised in a block
    ends that thread's share and reaches the caller unchanged."""
    k = workers()
    step = max(1, budget // k)
    todo = iter([slice(start, min(start + step, n)) for start in range(0, n, step)])
    todo_lock = threading.Lock()

    def drain():
        while True:
            with todo_lock:
                block = next(todo, None)
            if block is None:
                return
            fn(block)

    if k == 1 or step >= n:
        drain()
        return
    with _pool_lock:
        pool = _pool(k - 1)
    futures = [pool.submit(drain) for _ in range(k - 1)]
    try:
        drain()
    finally:
        for future in futures:
            future.exception()  # wait for all, so no block outlives the call
    for future in futures:
        future.result()
