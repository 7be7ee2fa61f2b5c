"""Independent block computations, split between the process and one forked child.

`map_blocks` is `[compute(item) for item in items]`. When splitting can
pay, the process forks once: the child computes the later half of the
items, pickles its results into a pipe and leaves by `os._exit`, while the
parent computes the first half, so a call uses two CPUs and returns the
same results as the loop. No process outlives the call: the parent kills
and reaps the child on every way out. If the child fails or dies, the
parent computes the child's share itself, which raises the loop's error
where the failure was the computation's; if no child can be made, the
parent runs the loop.

A call splits only when it can see that the split pays: at least
`minimum` items, at least two CPUs in the affinity set, and no thread in
the process but the caller. A process with other threads (a threaded BLAS,
a thread pool) never forks, since a child would inherit locks that those
threads hold. Setting the BLAS thread count to 1 (`OPENBLAS_NUM_THREADS=1`
and the like) before numpy loads is what leaves numpy single-threaded.
"""

from __future__ import annotations

import os
import pickle
import signal

# one entry per thread of this process
_TASKS = "/proc/self/task"


def _split_pays(n_items: int, minimum: int) -> bool:
    """Whether `map_blocks` forks: enough items, two CPUs, one thread."""
    if n_items < minimum or not hasattr(os, "sched_getaffinity"):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir(_TASKS)) == 1
    except OSError:
        return False


def map_blocks(compute, items, minimum: int) -> list:
    """`[compute(item) for item in items]`, the later half in a forked child when it pays."""
    items = list(items)
    if not _split_pays(len(items), minimum):
        return [compute(item) for item in items]
    cut = (len(items) + 1) // 2
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no memory or process slot for a child: the loop
        os.close(read)
        os.close(write)
        return [compute(item) for item in items]
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pickle.dump([compute(item) for item in items[cut:]], pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    try:
        with open(read, "rb") as pipe:
            results = [compute(item) for item in items[:cut]]
            try:
                results += pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                results += [compute(item) for item in items[cut:]]
    finally:
        # the child has sent its share, or it is no longer wanted
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return results
