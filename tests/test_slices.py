"""A group is marched in slices, one thread per slice: no bit depends on
the slice count, and no slice outlives its group.

The slice count follows the CPUs the process may run on
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

from reflectedsde import brownian, cli, harness
from test_harness import _arrays, _recording_blocks, _recording_tiles

TRIG_1D = {"name": "trig", "params": {"offset": [[0.5]], "amplitude": [[0.2]],
                                      "frequency": [1.0], "drift_matrix": [[-0.3]]}}
TRIG_2D = {"name": "trig", "params": {"offset": [[0.6, 0.1], [0.1, 0.6]],
                                      "amplitude": [[0.3, 0.1], [0.1, 0.3]],
                                      "frequency": [1.0, 2.0],
                                      "drift_matrix": [[-0.5, 0.0], [0.0, -0.5]]}}
# d = 2, m = 3: the numpy march, so one slice at every CPU count.
TRIG_2X3 = {"name": "trig", "params": {"offset": [[0.5, 0.1, -0.1], [0.0, 0.4, 0.2]],
                                       "amplitude": [[0.2, 0.1, 0.1], [0.1, 0.2, 0.1]],
                                       "frequency": [1.0, -1.5],
                                       "drift_matrix": [[-0.5, 0.1], [0.0, -0.5]]}}
ANNULUS = {"name": "annulus", "params": {"r1": 0.5, "r2": 1.0, "dim": 2}}
# 259 paths: four slices at most, and 259 splits evenly into none of 2, 3, 4.
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


def _counting_slices(monkeypatch, cpus):
    """Patch the CPU count to ``cpus`` and record each group's slice count."""
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)
    counts, count = [], harness._slice_count

    def recording(study, rows):
        counts.append(count(study, rows))
        return counts[-1]

    monkeypatch.setattr(harness, "_slice_count", recording)
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
            counts = _counting_slices(patch, cpus)
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
    tables, slices = [], []
    for cpus in (1, 3):
        with monkeypatch.context() as patch:
            counts = _counting_slices(patch, cpus)
            report = harness.holder_report(
                _study("annulus", levels=[4]), [2, 4], grid_level=4, reference=reference
            )
            tables.append(json.dumps(report.to_json_dict()) + report.to_csv_string())
            slices += counts
    assert tables[0] == tables[1]
    assert slices == [1, 3 if brownian._native() is not None else 1]


def test_each_forked_worker_marches_its_share_of_the_cpus(monkeypatch, tmp_path):
    # Two workers on four CPUs: each forked group runs two slices.  The
    # counts are written to a file, since the groups run in other processes.
    monkeypatch.setattr(harness, "_cpus", lambda: 4)
    log, count = tmp_path / "slices.log", harness._slice_count

    def recording(study, rows):
        n = count(study, rows)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {n}\n")
        return n

    monkeypatch.setattr(harness, "_slice_count", recording)
    parallel = harness.run_coupling_stats(_study("interval", workers=2))
    entries = [line.split() for line in log.read_text().splitlines()]
    covered = brownian._native() is not None
    assert sorted(n for _, n in entries) == ["2" if covered else "1"] * 2
    assert str(os.getpid()) not in {pid for pid, _ in entries}
    serial = harness.run_coupling_stats(_study("interval"))
    for expected, got in zip(_arrays(serial), _arrays(parallel)):
        np.testing.assert_array_equal(expected, got)


def test_the_numpy_backend_marches_one_slice(monkeypatch):
    # Without the library both marches hold the GIL, so slices could only
    # take turns; and the numpy march's cost is per call, so the slice is
    # one tile, however small the budget.
    monkeypatch.setattr(brownian, "_native", lambda: None)
    monkeypatch.setattr(harness, "_CHUNK_BYTES", 259 * 17 * 8)
    counts = _counting_slices(monkeypatch, 4)
    tiles = _recording_tiles(monkeypatch)
    stats = harness.run_coupling_stats(_study("interval"))
    assert counts == [1] and tiles == [259] and stats.sup_dist.shape == (259, 2)


def test_slices_keep_at_least_one_tile_of_paths(monkeypatch, native):
    monkeypatch.setattr(harness, "_cpus", lambda: 8)
    study = _study("interval")
    assert [harness._slice_count(study, rows) for rows in (1, 63, 64, 127, 128, 259, 600)] == [
        1, 1, 1, 1, 2, 4, 8]
    assert harness._slice_count(dataclasses.replace(study, workers=3), 600) == 2
    assert harness._slice_count(dataclasses.replace(study, workers=9), 600) == 1


def _slice_runner(monkeypatch, cpus=3):
    """``_in_slices`` over three slices of 192 paths, whatever the backend."""
    monkeypatch.setattr(harness, "_slice_count", lambda study, rows: cpus)
    study = _study("interval")
    return lambda march: harness._in_slices(study, range(8, 200), march)


def test_slices_are_joined_in_path_order_with_a_share_of_the_budget(monkeypatch):
    run = _slice_runner(monkeypatch)
    seen = []

    def march(indices, max_bytes):
        seen.append((indices, max_bytes, threading.current_thread()))
        return np.arange(indices.start, indices.stop), np.full((len(indices), 2), max_bytes)

    first, second = run(march)
    np.testing.assert_array_equal(first, np.arange(8, 200))
    assert second.shape == (192, 2) and np.all(second == harness._CHUNK_BYTES // 3)
    assert sorted((indices.start, indices.stop) for indices, _, _ in seen) == [
        (8, 72), (72, 136), (136, 200)]
    # The first slice runs on the caller's thread, the others on their own.
    threads = {indices.start: thread for indices, _, thread in seen}
    assert threads[8] is threading.main_thread()
    assert len({threads[72], threads[136], threading.main_thread()}) == 3


@pytest.mark.parametrize("succeeds", [8, 136])
def test_a_failed_slice_raises_the_lowest_index_error_after_all_are_joined(
    succeeds, monkeypatch
):
    # The slice at 8 runs on the caller's thread, those at 72 and 136 on
    # their own.  The one slice that succeeds ends last.
    run = _slice_runner(monkeypatch)
    before = threading.active_count()
    finished = []

    def march(indices, max_bytes):
        if indices.start == succeeds:
            time.sleep(0.05)
            finished.append(indices.start)
            return (np.zeros(len(indices)),)
        raise RuntimeError(f"slice at {indices.start} failed")

    with pytest.raises(RuntimeError, match=f"slice at {8 if succeeds != 8 else 72} failed"):
        run(march)
    assert finished == [succeeds]
    assert threading.active_count() == before


def test_each_slice_runs_under_the_callers_numpy_error_handling(monkeypatch):
    # A thread starts with numpy's default handling, so each slice sets the
    # caller's inside it: an invalid operation raises in every slice, as it
    # would in one march on the caller's thread.
    run = _slice_runner(monkeypatch)
    seen = []

    def march(indices, max_bytes):
        seen.append(np.geterr()["invalid"])
        return (np.sqrt(np.full(len(indices), -1.0)),)

    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            run(march)
    assert seen == ["raise"] * 3
    seen.clear()
    with np.errstate(invalid="ignore"):
        (out,) = run(march)
    assert seen == ["ignore"] * 3 and np.all(np.isnan(out))


def test_the_library_is_loaded_on_the_calling_thread_before_any_slice(monkeypatch):
    # functools.cache has no lock: two slices loading the library at once
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


def test_more_slices_than_cores_under_a_short_switch_interval_keep_the_bits(monkeypatch):
    # Eight slices of the annulus study on the host's cores, with the GIL
    # passed between the slices and numpy as often as it can be: the
    # library's thread-local scratch, the shared study objects and each
    # slice's one block buffer, refined again for every block, must give
    # every slice the bits of one march.
    study = _study("annulus", M=520)
    expected = _arrays(harness.run_coupling_stats(study))
    counts = _counting_slices(monkeypatch, 8)
    # A budget of twice the group's path array (520 paths x 17 knots x
    # m = 2) keeps one group of eight slices of 65 paths.  Each slice
    # marches two tiles, of 32 and 33 paths, and each tile's reference four
    # blocks of four coarse intervals (33 knots per path) through one
    # buffer, in half the slice's share.  One slice of one tile without the
    # library, refined in the whole budget: four blocks of four coarse
    # intervals (33 knots per path).
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
