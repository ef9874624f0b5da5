"""Worker-pool sizing, checked against a stand-in pool."""

from footprint_lab import runtime


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
