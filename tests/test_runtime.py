"""Worker-pool sizing, checked against a stand-in pool."""

import numpy as np

from footprint_lab import codes, linalg, runtime
from footprint_lab.gf import make_field


class _FakePool:
    def __init__(self, requests, processes):
        requests.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


class _FakeContext:
    def __init__(self):
        self.requests = []
        self.methods = []

    def Pool(self, processes):
        return _FakePool(self.requests, processes)


def _patch(monkeypatch, cpus, start_methods=("fork", "spawn", "forkserver")):
    ctx = _FakeContext()

    def get_context(method):
        ctx.methods.append(method)
        return ctx
    monkeypatch.setattr(runtime.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(runtime.multiprocessing, "get_all_start_methods",
                        lambda: list(start_methods))
    monkeypatch.setattr(runtime.multiprocessing, "get_context", get_context)
    return ctx


def test_pool_capped_at_cpu_count(monkeypatch):
    ctx = _patch(monkeypatch, 3)
    chunks = runtime.split_chunks(list(range(50)), 1000)
    assert len(chunks) == 50
    out = runtime.run_chunks(sum, chunks, 1000)
    assert ctx.requests == [3]
    assert ctx.methods == ["fork"]
    assert out == list(range(50))


def test_pool_capped_at_chunk_count(monkeypatch):
    ctx = _patch(monkeypatch, 8)
    assert runtime.run_chunks(len, [[1], [2, 3]], 4) == [1, 2]
    assert ctx.requests == [2]


def test_single_cpu_runs_in_process(monkeypatch):
    ctx = _patch(monkeypatch, 1)
    assert runtime.run_chunks(len, [[1], [2, 3]], 4) == [1, 2]
    assert ctx.requests == []


def test_spawn_when_fork_is_unavailable(monkeypatch):
    ctx = _patch(monkeypatch, 4, start_methods=("spawn",))
    assert runtime.run_chunks(len, [[1], [2, 3]], 2) == [1, 2]
    assert ctx.methods == ["spawn"]
    assert ctx.requests == [2]


def _scan_instance():
    """q, evaluation matrix and r of a scan whose two pivot-pattern chunks
    both hold work, the priced work of the smaller chunk, and bounds of -1
    for every pattern, at which the scan lists each pattern's maximum."""
    q, r = 3, 2
    mat = codes.build_prm(2, 2, q).generator
    k, n = mat.shape
    patterns = linalg.pivot_patterns(k, r)
    work = [sum(linalg.pattern_size(patterns[i], k, q) for i in ids) * n
            for ids in runtime.split_chunks(list(range(len(patterns))), 2)]
    assert len(work) == 2 and min(work) > 0
    return q, mat, r, min(work), [-1] * len(patterns)


def test_small_scan_requests_no_pool(monkeypatch):
    q, mat, r, spare, bounds = _scan_instance()
    want = linalg.scan_max_zero_columns(linalg.RowTable(make_field(q), mat), r, 1, bounds)
    assert spare <= linalg.POOL_MIN_WORK
    ctx = _patch(monkeypatch, 2)
    linalg.scan_max_zero_columns(linalg.RowTable(make_field(q), mat), r, 2, bounds)
    assert ctx.requests == []
    # the pool starts once the smaller chunk's work exceeds the constant
    monkeypatch.setattr(linalg, "POOL_MIN_WORK", spare)
    linalg.scan_max_zero_columns(linalg.RowTable(make_field(q), mat), r, 2, bounds)
    assert ctx.requests == []
    monkeypatch.setattr(linalg, "POOL_MIN_WORK", spare - 1)
    got = linalg.scan_max_zero_columns(linalg.RowTable(make_field(q), mat), r, 2, bounds)
    assert ctx.requests == [2]
    assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2:] == want[2:]
    assert [i for i, _ in want[3]] == list(range(len(bounds)))


def test_real_pool_matches_one_worker(monkeypatch):
    q, mat, r, _, bounds = _scan_instance()
    want = linalg.scan_max_zero_columns(linalg.RowTable(make_field(q), mat), r, 1, bounds)
    requested = []

    def spy(fn, chunk_args, workers):
        requested.append(workers)
        return runtime.run_chunks(fn, chunk_args, workers)
    monkeypatch.setattr(linalg, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(linalg, "run_chunks", spy)
    monkeypatch.setattr(runtime.os, "cpu_count", lambda: 2)
    count, witness, enumerated, maxima = linalg.scan_max_zero_columns(linalg.RowTable(make_field(q), mat), r, 2, bounds)
    assert requested == [2]
    assert count == want[0] and np.array_equal(witness, want[1])
    assert (enumerated, maxima) == want[2:]
    # both chunks reach the maximum, so the merge has to keep the first
    first, second = runtime.split_chunks([top for _, top in maxima], 2)
    assert max(first) == max(second) == count
