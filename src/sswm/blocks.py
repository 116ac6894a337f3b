"""The package's block sizes and its 2D stages run in blocks on every core.

numpy's FFT and elementwise loops release the GIL, so the blocks of a
2048^2 stage run in parallel: on the calling thread and on a pool of one
thread per further CPU in this process's affinity mask, made on first use,
with no setting.  A block writes only its own slice and reduces nothing, so
a stage's output does not depend on the worker count; reductions stay with
the caller, serially over `row_blocks`, and add in numpy's own orders
(`pairwise_sum`, `ordered_sum`), so a blocked sum equals the whole-grid one.
A block must not call `map_blocks` itself.

Scratch that a block reuses is made by the calling thread and handed out by
`map_blocks`: the j-th thread gets scratch[j] with every block it runs, and
no other thread gets it.  Temporaries a block makes for itself (the Phi
fill's |z| and series mask, pocketfft's work buffers, the closed-form fill's
ordering mask) are made in the thread that runs it, and a pool thread's
malloc arena may keep them for the rest of the process.
"""
from __future__ import annotations

import functools
import os
import threading

import numpy as np

#: Rows per block of a serial pass over an n x n grid, read at call time: a
#: block-sized temporary is 1 MB of floats at n = 2048.
ROWS = 64

#: numpy's pairwise sum: a leaf of up to PAIRWISE_LEAF floats is summed in
#: PAIRWISE_LANES accumulators r[i % lanes].  `PHI_BLOCK_ROWS` is the sampler's.
PAIRWISE_LEAF, PAIRWISE_LANES = 128, 8

_pool_lock = threading.Lock()


def workers() -> int:
    """Threads a stage runs on: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


@functools.cache
def _pool(k: int):
    from concurrent.futures import ThreadPoolExecutor  # off the CLI import path
    return ThreadPoolExecutor(k, thread_name_prefix="sswm-block")


def row_blocks(n: int) -> list[slice]:
    """Slices of ROWS rows, the last one shorter, that tile range(n) in order."""
    return [slice(start, min(start + ROWS, n)) for start in range(0, n, ROWS)]


def map_blocks(fn, n: int, budget: int, scratch=None) -> None:
    """fn(block) for consecutive slices that tile range(n), each at most
    budget // k long, so the slices in flight hold at most `budget` lines.
    Each of k threads takes the next block until none is left: k is
    workers(), or len(scratch) if given, and then the j-th thread, the
    caller being the 0th, runs fn(block, scratch[j]).  Returns once every
    thread is done; an exception raised in a block ends that thread's share
    and reaches the caller unchanged."""
    k = workers() if scratch is None else len(scratch)
    step = max(1, budget // k)
    todo = iter([slice(start, min(start + step, n)) for start in range(0, n, step)])
    todo_lock = threading.Lock()

    def drain(j):
        own = () if scratch is None else (scratch[j],)
        while True:
            with todo_lock:
                block = next(todo, None)
            if block is None:
                return
            fn(block, *own)

    if k == 1 or step >= n:
        drain(0)
        return
    with _pool_lock:
        pool = _pool(k - 1)
    futures = [pool.submit(drain, j) for j in range(1, k)]
    try:
        drain(0)
    finally:
        for future in futures:
            future.exception()  # wait for all, so no block outlives the call
    for future in futures:
        future.result()


def pairwise_sum(x: np.ndarray):
    """x[0] + x[1] + ... in numpy's pairwise halving tree: neighbours added
    level by level, an odd count carrying its last entry up a level.  numpy
    sums a contiguous run of up to PAIRWISE_LEAF floats in PAIRWISE_LANES
    accumulators, added in this tree, and halves a longer run at a multiple
    of the lanes, so 2^k leaves summed this way give its `sum` of the run."""
    while len(x) > 1:
        x = np.concatenate((x[:-1:2] + x[1::2], x[len(x) & ~1:]))
    return x[0]


def ordered_sum(rows: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """carry + rows[0] + rows[1] + ..., one row after another: numpy's
    `sum(axis=0)` of a C-contiguous grid, carried from a block of its rows
    to the next (the first carry is zeros).  rows[0] is overwritten."""
    rows[0] += carry
    return rows.sum(axis=0)
