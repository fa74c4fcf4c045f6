"""A group is cut into tiles, which its threads march, each a contiguous
run of them: no bit depends on the thread count, and no thread outlives
its group.

The thread count follows the CPUs the process may run on
(``harness._cpus``); the tests patch that helper, not the host.
"""

import dataclasses
import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from reflectedsde import brownian, cli, cover, harness
from test_harness import _arrays, _recording_blocks, _recording_tiles

TRIG_1D = {"name": "trig", "params": {"offset": [[0.5]], "amplitude": [[0.2]],
                                      "frequency": [1.0], "drift_matrix": [[-0.3]]}}
TRIG_2D = {"name": "trig", "params": {"offset": [[0.6, 0.1], [0.1, 0.6]],
                                      "amplitude": [[0.3, 0.1], [0.1, 0.3]],
                                      "frequency": [1.0, 2.0],
                                      "drift_matrix": [[-0.5, 0.0], [0.0, -0.5]]}}
# d = 2, m = 3: the numpy march, so one thread at every CPU count.
TRIG_2X3 = {"name": "trig", "params": {"offset": [[0.5, 0.1, -0.1], [0.0, 0.4, 0.2]],
                                       "amplitude": [[0.2, 0.1, 0.1], [0.1, 0.2, 0.1]],
                                       "frequency": [1.0, -1.5],
                                       "drift_matrix": [[-0.5, 0.1], [0.0, -0.5]]}}
ANNULUS = {"name": "annulus", "params": {"r1": 0.5, "r2": 1.0, "dim": 2}}
# 259 paths: four threads at most, and 259 splits evenly into none of 2, 3, 4.
STUDY = {"T": 1.0, "levels": [3, 4], "M": 259, "fine_margin": 3, "substeps_per_knot": 4,
         "p_list": [2], "seed": 31}
CONFIGS = {
    "interval": dict(STUDY, domain={"name": "interval", "params": {"a": -1.0, "b": 1.0}},
                     coefficients=TRIG_1D, x0=[0.0]),
    "annulus": dict(STUDY, domain=ANNULUS, coefficients=TRIG_2D, x0=[0.75, 0.0]),
    "trig_2x3": dict(STUDY, domain=ANNULUS, coefficients=TRIG_2X3, x0=[0.75, 0.0]),
}


def _study(name, **changes):
    config = dict(CONFIGS[name])
    config.update(changes)
    return cli.ExperimentConfig.from_dict(config).validate()


def _counting_threads(monkeypatch, cpus):
    """Patch the CPU count to ``cpus`` and record each group's thread count."""
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    counts, layout = [], harness._layout

    def recording(*args):
        threads, tiles, block_bytes = layout(*args)
        counts.append(threads)
        return threads, tiles, block_bytes

    monkeypatch.setattr(harness, "_layout", recording)
    return counts


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stats_and_converge_bytes_do_not_depend_on_the_cpu_count(
    name, monkeypatch, tmp_path, capsys
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS[name]))
    covered = name != "trig_2x3" and brownian._native() is not None
    runs = []
    for cpus in (1, 2, 3, 4):
        with monkeypatch.context() as patch:
            counts = _counting_threads(patch, cpus)
            stats = harness.run_coupling_stats(_study(name))
            assert cli.main(["converge", "--config", str(path)]) == 0
            runs.append((_arrays(stats), capsys.readouterr().out))
        assert counts == [cpus if covered else 1] * 2
    for arrays, report in runs[1:]:
        for expected, got in zip(runs[0][0], arrays):
            np.testing.assert_array_equal(expected, got)
        assert report == runs[0][1]


@pytest.mark.parametrize("reference", [False, True])
def test_holder_table_bytes_do_not_depend_on_the_cpu_count(reference, monkeypatch):
    tables, threads = [], []
    for cpus in (1, 3):
        with monkeypatch.context() as patch:
            counts = _counting_threads(patch, cpus)
            report = harness.holder_report(
                _study("annulus", levels=[4]), [2, 4], grid_level=4, reference=reference
            )
            tables.append(json.dumps(report.to_json_dict()) + report.to_csv_string())
            threads += counts
    assert tables[0] == tables[1]
    assert threads == [1, 3 if brownian._native() is not None else 1]


def test_each_forked_worker_marches_its_share_of_the_cpus(monkeypatch, tmp_path):
    # Two workers on four CPUs: each forked group runs on two threads.  The
    # counts are written to a file, since the groups run in other processes.
    monkeypatch.setattr(harness, "_cpus", lambda: 4)
    log, layout = tmp_path / "threads.log", harness._layout

    def recording(*args):
        n, tiles, block_bytes = layout(*args)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {n}\n")
        return n, tiles, block_bytes

    monkeypatch.setattr(harness, "_layout", recording)
    parallel = harness.run_coupling_stats(_study("interval", workers=2))
    entries = [line.split() for line in log.read_text().splitlines()]
    covered = brownian._native() is not None
    assert sorted(n for _, n in entries) == ["2" if covered else "1"] * 2
    assert str(os.getpid()) not in {pid for pid, _ in entries}
    serial = harness.run_coupling_stats(_study("interval"))
    for expected, got in zip(_arrays(serial), _arrays(parallel)):
        np.testing.assert_array_equal(expected, got)


def test_each_forked_worker_marches_one_balanced_group(monkeypatch, tmp_path):
    # Under a budget of 100 paths' arrays (17 knots at level 4), two workers
    # still cut the 259-path study into two groups, of 129 and 130 paths,
    # one per worker.  Each group's pid and width are written to a file,
    # since the groups run in other processes, and each group holds its
    # worker long enough for the other worker to take the other group.
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 100 * 17 * 8)
    log, chunk_stats = tmp_path / "groups.log", harness._chunk_stats

    def recording(study, plan, indices):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(indices)}\n")
        time.sleep(0.2)
        return chunk_stats(study, plan, indices)

    monkeypatch.setattr(harness, "_chunk_stats", recording)
    parallel = harness.run_coupling_stats(_study("interval", workers=2))
    entries = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(width) for _, width in entries) == [129, 130]
    pids = {pid for pid, _ in entries}
    assert len(pids) == 2 and str(os.getpid()) not in pids
    monkeypatch.setattr(harness, "_chunk_stats", chunk_stats)
    serial = harness.run_coupling_stats(_study("interval"))
    for expected, got in zip(_arrays(serial), _arrays(parallel)):
        np.testing.assert_array_equal(expected, got)


def test_the_pool_forks_one_worker_per_group(monkeypatch, tmp_path):
    # Four workers on a two-path study make two groups of one path, and a
    # forking pool starts all its workers at once: it must start two.  Each
    # worker adopts the march once, in its own process, and writes its pid
    # to a file.
    log, adopt = tmp_path / "adopted.log", harness._adopt_march

    def recording(march):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        adopt(march)

    monkeypatch.setattr(harness, "_adopt_march", recording)
    stats = harness.run_coupling_stats(_study("interval", M=2, workers=4))
    pids = log.read_text().split()
    assert len(pids) == len(set(pids)) == 2 and str(os.getpid()) not in pids
    assert stats.sup_dist.shape == (2, 2)


def test_the_numpy_backend_marches_on_one_thread(monkeypatch):
    # Without the library both marches hold the GIL, so threads could only
    # take turns; and the numpy march's cost is per call, so its tiles are
    # as wide as their path arrays fit in the budget: here all 259 paths.
    monkeypatch.setattr(brownian, "_native", lambda: None)
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 259 * 17 * 8)
    counts = _counting_threads(monkeypatch, 4)
    tiles = _recording_tiles(monkeypatch)
    stats = harness.run_coupling_stats(_study("interval"))
    assert counts == [1] and tiles == [259] and stats.sup_dist.shape == (259, 2)


def test_threads_keep_at_least_one_tile_of_paths(monkeypatch, native):
    # A group has one thread per CPU of its process's share, but no more
    # than runs of _TILE_ROWS paths.
    monkeypatch.setattr(harness, "_cpus", lambda: 8)
    study = _study("interval")
    plan = harness._plan(study, 4, ())

    def threads(study, rows):
        return harness._layout(study, plan, range(rows))[0]

    assert [threads(study, rows) for rows in (1, 63, 64, 127, 128, 259, 600)] == [
        1, 1, 1, 1, 2, 4, 8]
    assert threads(dataclasses.replace(study, workers=3), 600) == 2
    assert threads(dataclasses.replace(study, workers=9), 600) == 1
    # A study of four paths has four groups at most, whatever its workers.
    assert threads(dataclasses.replace(study, M=4, workers=9), 600) == 2


def _tile_runner(monkeypatch, covered=True):
    """``_in_tiles`` over a group of 384 path indices: on three threads by
    the native rule, as three CPUs allow, where a thread's share, 9000
    bytes, holds the path arrays of 64 paths at level 4 (136 bytes each),
    so the group is cut into six tiles of 64 paths, two per thread, each
    with a block buffer of 4500 bytes, half the share, as that is less than
    64 paths' other arrays; without ``covered``, on one thread by the numpy
    rule, in two tiles of 192 paths whose path arrays fit the budget."""
    monkeypatch.setattr(harness, "_cpus", lambda: 3)
    monkeypatch.setattr(cover, "native_march", lambda domain, coeffs: () if covered else None)
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 27000)
    study = _study("interval")
    plan = harness._plan(study, 4, ())
    return lambda march, out: harness._in_tiles(study, plan, range(8, 392), march, out)


def test_tiles_write_their_rows_in_path_order_with_a_share_of_the_budget(monkeypatch):
    run = _tile_runner(monkeypatch)
    seen = []

    def march(indices, rows, block_bytes):
        seen.append((indices, block_bytes, threading.current_thread()))
        rows[0][:] = np.arange(indices.start, indices.stop)
        rows[1][:] = block_bytes

    out = (np.zeros(384, int), np.zeros((384, 2)))
    first, second = run(march, out)
    assert first is out[0] and second is out[1]
    np.testing.assert_array_equal(first, np.arange(8, 392))
    assert second.shape == (384, 2) and np.all(second == 4500)
    assert sorted((indices.start, indices.stop) for indices, _, _ in seen) == [
        (8, 72), (72, 136), (136, 200), (200, 264), (264, 328), (328, 392)]
    # The first run of tiles stays on the caller's thread, the others run
    # on their own, each run's tiles in path order.
    threads = {indices.start: thread for indices, _, thread in seen}
    assert threads[8] is threads[72] is threading.main_thread()
    assert threads[136] is threads[200] and threads[264] is threads[328]
    assert len({threads[136], threads[264], threading.main_thread()}) == 3
    assert [indices.start for indices, _, thread in seen if thread is threads[136]] == [136, 200]


@pytest.mark.parametrize("covered", [True, False])
def test_tiles_write_every_row_of_the_groups_arrays_once_in_path_order(covered, monkeypatch):
    # Each tile's rows are views of its rows of the group's arrays: every
    # row is written once, with its own path's index, and each thread
    # writes its tiles in path order; by the native rule on three threads,
    # and by the numpy rule on one.
    run = _tile_runner(monkeypatch, covered)
    seen = []

    def march(indices, rows, block_bytes):
        assert all(np.shares_memory(row, array) for row, array in zip(rows, out))
        written, paths = rows
        assert len(written) == len(paths) == len(indices)
        written += 1
        paths[:] = indices
        seen.append((threading.current_thread(), indices.start))

    out = (np.zeros(384, int), np.full(384, -1))
    assert run(march, out) is out
    assert np.all(out[0] == 1)
    np.testing.assert_array_equal(out[1], np.arange(8, 392))
    assert len(seen) == (6 if covered else 2)
    threads = {thread for thread, _ in seen}
    assert len(threads) == (3 if covered else 1)
    for thread in threads:
        starts = [start for t, start in seen if t is thread]
        assert starts == sorted(starts)


@pytest.mark.parametrize("succeeds", [8, 136])
def test_a_failed_tile_raises_the_lowest_index_error_after_all_are_joined(
    succeeds, monkeypatch
):
    # The tiles at 8 and 72 run on the caller's thread, those at 136 and
    # 200 on a thread of their own, and those at 264 and 328 on a third.
    # Every tile but one fails, so each thread stops at its first failure,
    # and the one tile that succeeds ends last.
    run = _tile_runner(monkeypatch)
    before = threading.active_count()
    finished = []

    def march(indices, rows, max_bytes):
        if indices.start == succeeds:
            time.sleep(0.05)
            finished.append(indices.start)
            rows[0][:] = 0.0
            return
        raise RuntimeError(f"tile at {indices.start} failed")

    with pytest.raises(RuntimeError, match=f"tile at {8 if succeeds != 8 else 72} failed"):
        run(march, (np.empty(384),))
    assert finished == [succeeds]
    assert threading.active_count() == before


def test_each_thread_runs_under_the_callers_numpy_error_handling(monkeypatch):
    # A thread starts with numpy's default handling, so each thread sets the
    # caller's for its tiles: an invalid operation raises in the first tile
    # of every thread, as it would in one march on the caller's thread.
    run = _tile_runner(monkeypatch)
    seen = []

    def march(indices, rows, max_bytes):
        seen.append(np.geterr()["invalid"])
        rows[0][:] = np.sqrt(np.full(len(indices), -1.0))

    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            run(march, (np.zeros(384),))
    assert seen == ["raise"] * 3
    seen.clear()
    with np.errstate(invalid="ignore"):
        (out,) = run(march, (np.zeros(384),))
    assert seen == ["ignore"] * 6 and np.all(np.isnan(out))


def test_the_library_is_loaded_on_the_calling_thread_before_any_tile(monkeypatch):
    # functools.cache has no lock: two threads loading the library at once
    # could both build it, so the caller loads it first.
    native, first = brownian._native, []

    def recording():
        if not first:
            first.append(threading.current_thread())
        return native()

    monkeypatch.setattr(brownian, "_native", recording)
    monkeypatch.setattr(harness, "_cpus", lambda: 4)
    harness.run_coupling_stats(_study("interval"))
    assert first == [threading.main_thread()]


def test_more_threads_than_cores_under_a_short_switch_interval_keep_the_bits(monkeypatch):
    # Eight threads of the annulus study on the host's cores, with the GIL
    # passed between the threads and numpy as often as it can be: the
    # library's thread-local scratch, the shared study objects and each
    # tile's one block buffer, refined again for every block, must give
    # every thread the bits of one march.
    study = _study("annulus", M=520)
    expected = _arrays(harness.run_coupling_stats(study))
    counts = _counting_threads(monkeypatch, 8)
    # A budget of twice the study's path array (520 paths x 17 knots x
    # m = 2): eight threads, as many as runs of 64 paths, each marching two
    # tiles, of 32 and 33 paths, since a tile holds at most _TILE_ROWS
    # paths.  Each tile's reference refines four blocks of four coarse
    # intervals (33 knots per path) through one buffer, in half of a
    # thread's share, less than 64 paths' other arrays.  One thread of one
    # tile without the library, refined in the whole budget: four blocks of
    # four coarse intervals (33 knots per path).
    budget = 2 * 520 * 17 * 2 * 8
    monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
    blocks = _recording_blocks(monkeypatch)
    results = []
    engine = threading.Thread(
        target=lambda: results.append(_arrays(harness.run_coupling_stats(study))))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        engine.start()
        engine.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not engine.is_alive()
    native = brownian._native() is not None
    assert counts == [8 if native else 1]
    tiles = [[4, 33 * width * 2 * 8] for width in (32, 33)] * 8
    assert sorted(blocks) == sorted(tiles if native else [[4, 33 * 520 * 2 * 8]])
    for want, got in zip(expected, results[0]):
        np.testing.assert_array_equal(want, got)
