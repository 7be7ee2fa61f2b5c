"""The forked split of knn_fill's and fit_forests' block loops against the serial loop."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from imputebench import forest, imputers, split
from imputebench.forest import TreeConfig, fit_forest, fit_forests, predict_forest
from imputebench.imputers import column_stats, knn_fill

from conftest import make_rng, mixed_schema
from forest_reference import trees
from test_knn_kernel import _grid

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def forks(monkeypatch):
    """Every call splits that has two items; returns the list of forks made."""
    made = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        made.append(pid)
        return pid

    monkeypatch.setattr(split, "_split_pays", lambda n_items, minimum: n_items >= 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    return made


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _hold_out(n_train, n_target):
    """knn_fill arguments for a hold-out call with missing training and target cells."""
    schema = mixed_schema(4, 3)
    train = _grid(schema, n_train, make_rng(7), 0.25)
    target = _grid(schema, n_target, make_rng(8), 0.3)
    return train, target, 3, schema, column_stats(train, schema)


@pytest.mark.parametrize("selfimpute", [False, True])
def test_split_knn_fill_equals_the_serial_loop(monkeypatch, forks, selfimpute):
    train, target, k, schema, stats = _hold_out(90, 60)
    args = (train, train if selfimpute else target, k, schema, stats)
    monkeypatch.setattr(imputers, "_KNN_BLOCK", 90 * 7)  # 7 target rows a block
    with monkeypatch.context() as serial:
        serial.setattr(split, "_split_pays", lambda n_items, minimum: False)
        expected = knn_fill(*args)
    assert not forks
    got = knn_fill(*args)
    assert len(forks) == 1
    for a, b in zip(got[:2], expected[:2]):
        assert a.tobytes() == b.tobytes()
    assert got[2] == expected[2]
    _no_children()


def _assert_same_trees(got, expected):
    """Tree by tree, the same root and the same bytes and dtypes in each block's arrays."""
    for (tree, root), (want, want_root) in zip(trees(got), trees(expected), strict=True):
        assert root == want_root
        for name, array in vars(want).items():
            assert getattr(tree, name).dtype == array.dtype, name
            assert getattr(tree, name).tobytes() == array.tobytes(), name


@pytest.mark.parametrize("task", [forest.REGRESSION, forest.CLASSIFICATION])
@pytest.mark.parametrize("bounded", [True, False])  # depth 6, or unbounded as predict_cv's
def test_split_forest_equals_the_serial_loop(monkeypatch, forks, task, bounded):
    rng = make_rng(3)
    X = np.round(rng.random((40, 5)), 1)
    y = (X[:, 0] + rng.random(40) > 1).astype(float) if task == forest.CLASSIFICATION else rng.random(40)
    config = TreeConfig(task=task, max_depth=6 if bounded else None)
    # 40 rows x 2 candidates x 3 trees a block: 4 blocks of 11 trees
    monkeypatch.setattr(forest, "_FOREST_BLOCK", 40 * 2 * 3)
    with monkeypatch.context() as serial:
        serial.setattr(split, "_split_pays", lambda n_items, minimum: False)
        expected = fit_forest(X, y, config, n_trees=11, seed=5)
    assert not forks
    got = fit_forest(X, y, config, n_trees=11, seed=5)
    assert len(forks) == 1
    _assert_same_trees(got, expected)
    assert predict_forest(got, X).tobytes() == predict_forest(expected, X).tobytes()
    _no_children()


@pytest.mark.parametrize("task", [forest.REGRESSION, forest.CLASSIFICATION])
def test_split_shared_pass_equals_the_serial_loop(monkeypatch, forks, task):
    rng = make_rng(4)
    problems = []
    for n, seed in ((30, 1), (40, 2), (25, 3)):
        X = np.round(rng.random((n, 5)), 1)
        y = (X[:, 0] + rng.random(n) > 1).astype(float) if task == forest.CLASSIFICATION else rng.random(n)
        problems.append((X, y, seed))
    config = TreeConfig(task=task, max_depth=6)
    # 240 elements a block: trees of 50, 60 and 80 elements, so blocks
    # straddle the 25- and 30-row and the 30- and 40-row forests
    monkeypatch.setattr(forest, "_FOREST_BLOCK", 240)
    with monkeypatch.context() as serial:
        serial.setattr(split, "_split_pays", lambda n_items, minimum: False)
        expected = fit_forests(problems, config, n_trees=5)
    assert not forks
    got = fit_forests(problems, config, n_trees=5)
    assert len(forks) == 1
    for model, want, (X, _, _) in zip(got, expected, problems):
        _assert_same_trees(model, want)
        assert predict_forest(model, X).tobytes() == predict_forest(want, X).tobytes()
    _no_children()


def test_a_failing_child_share_raises_the_serial_error(forks):
    parent = os.getpid()
    computed = []

    def compute(item):
        computed.append((os.getpid() == parent, item))
        if item == 4:
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match="item 4"):
        [compute(item) for item in range(6)]
    computed.clear()
    with pytest.raises(ValueError, match="item 4"):
        split.map_blocks(compute, range(6), 2)
    assert len(forks) == 1
    # the parent ran its own share, then the child's after the child failed
    assert computed == [(True, 0), (True, 1), (True, 2), (True, 3), (True, 4)]
    _no_children()


def test_a_failing_child_share_in_knn_fill_raises_the_serial_error(monkeypatch, forks):
    train, target, k, schema, stats = _hold_out(90, 60)
    monkeypatch.setattr(imputers, "_KNN_BLOCK", 90 * 7)
    last_row = np.flatnonzero(np.isnan(target).any(axis=1))[-1]
    nearest = imputers._nearest_in_block

    def failing(bounds, train_norm, obs_train, target_norm, holes, rows, k):
        if last_row in rows:
            raise ValueError(f"block holding row {last_row}")
        return nearest(bounds, train_norm, obs_train, target_norm, holes, rows, k)

    monkeypatch.setattr(imputers, "_nearest_in_block", failing)
    with pytest.raises(ValueError, match=f"block holding row {last_row}"):
        knn_fill(train, target, k, schema, stats)
    assert len(forks) == 1
    _no_children()


def test_a_child_that_dies_is_replaced_by_the_parent(forks):
    parent = os.getpid()

    def compute(item):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return item * item

    assert split.map_blocks(compute, range(5), 2) == [0, 1, 4, 9, 16]
    assert len(forks) == 1
    _no_children()


def test_a_failing_parent_share_leaves_no_child(forks):
    parent = os.getpid()

    def compute(item):
        if os.getpid() != parent:
            time.sleep(60)  # a child the parent must not wait for
        if item == 0:
            raise ValueError("the parent's share")
        return item

    start = time.perf_counter()
    with pytest.raises(ValueError, match="the parent's share"):
        split.map_blocks(compute, range(4), 2)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    _no_children()


def test_a_failed_fork_runs_the_loop(monkeypatch, forks):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    open_fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert split.map_blocks(lambda item: item + 1, range(5), 2) == [1, 2, 3, 4, 5]
    if open_fds is not None:  # the pipe is closed again
        assert sorted(os.listdir("/proc/self/fd")) == open_fds


@pytest.fixture
def no_fork(monkeypatch, tmp_path):
    """Two CPUs and one thread as the selection sees them, and an os.fork that fails the test."""
    tasks = tmp_path / "task"
    tasks.mkdir()
    (tasks / "1").touch()
    monkeypatch.setattr(split, "_TASKS", str(tasks))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def fail():
        pytest.fail("os.fork called on a call that should stay serial")

    monkeypatch.setattr(os, "fork", fail)
    return monkeypatch


def _split_sized_calls(monkeypatch):
    """A knn_fill call with about 20 target-row blocks and a fit_forest call with 4 tree blocks."""
    monkeypatch.setattr(imputers, "_KNN_BLOCK", 64 * 4)  # 4 target rows a block
    monkeypatch.setattr(forest, "_FOREST_BLOCK", 40 * 2 * 3)  # 3 trees a block
    rng = make_rng(4)
    X, y = rng.random((40, 5)), rng.random(40)
    config = TreeConfig(max_depth=3)
    return [
        lambda: knn_fill(*_hold_out(64, 100)),
        lambda: fit_forest(X, y, config, n_trees=11),
    ]


def test_the_conditions_alone_make_a_call_split(no_fork):
    # the control for the serial tests below: with two CPUs, one thread
    # and enough blocks each call reaches os.fork
    for call in _split_sized_calls(no_fork):
        with pytest.raises(pytest.fail.Exception, match="os.fork called"):
            call()


def test_one_cpu_keeps_the_call_serial(no_fork):
    no_fork.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for call in _split_sized_calls(no_fork):
        call()


def test_a_second_thread_keeps_the_call_serial(no_fork):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    no_fork.setattr(split, "_TASKS", "/proc/self/task")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        for call in _split_sized_calls(no_fork):
            call()
    finally:
        stop.set()
        thread.join()


def test_few_blocks_keep_the_call_serial(no_fork):
    # the 800 x 800 self-imputation calls of the deep methods: 10 blocks
    schema = mixed_schema(8, 6)
    values = _grid(schema, 800, make_rng(41), 0.2)
    knn_fill(values, values, 5, schema, column_stats(values, schema))
    # a 16-tree forest on 120 rows: one block
    rng = make_rng(5)
    config = TreeConfig(max_depth=12)
    fit_forest(rng.random((120, 14)), rng.random(120), config, n_trees=16)


def test_the_selection_in_a_single_threaded_interpreter():
    # with every BLAS pool at one thread the process has one thread, so
    # the CPUs in its affinity set decide
    env = {**os.environ, "PYTHONPATH": SRC}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = (
        "import os; from imputebench import split; "
        "print(split._split_pays(16, 16), split._split_pays(15, 16), len(os.sched_getaffinity(0)))"
    )
    if not hasattr(os, "sched_getaffinity") or not os.path.isdir("/proc/self/task"):
        pytest.skip("no affinity set or /proc/self/task on this platform")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [str(int(out[2]) >= 2), "False", out[2]]
