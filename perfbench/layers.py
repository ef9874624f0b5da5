"""Per-layer tracing of one footprint-lab command, from outside the package.

Tracer.install() replaces every public function of the traced modules,
wherever a module (or the package, or the verify SUITES table) binds it,
with a wrapper that records a span (name, start, end, parent, process) in
memory.  Nothing under src/ changes.  A layer's self time is its spans'
duration minus the part covered by child spans of the same process.

runtime.run_chunks gets one more shim: the chunk function it is handed is
replaced by a picklable functools.partial(_timed_chunk, fn), so every chunk
reports its busy seconds, its kernel work and, from a pool worker, the spans
it recorded there.  Those spans are merged into the parent's list, so a
layer's self time sums over processes, and run_chunks' own time in a pool
call is the parent's wait for its workers.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import os
from time import perf_counter

PACKAGE = "footprint_lab"
MODULES = ("cli", "verify", "varieties", "codes", "linalg", "runtime",
           "monomials", "formulas", "polys", "gf")

# Called up to millions of times per command with bodies of a microsecond
# or less: a span would cost more than the call, so these are only counted
# and their time stays with the caller.  matmul is the table-lookup product
# inside the kernel and inside count_common_zeros; its time belongs to them.
COUNT_ONLY = frozenset({"monomials.divides", "formulas.binom", "linalg.matmul"})

KERNEL = "linalg.zero_column_counts"
POOL = "runtime.run_chunks"
SCAN = "linalg.scan_max_zero_columns"

# Layer self times of the command's own process must add up to its wall
# time within this share; a larger gap means time went unmeasured.
ACCOUNTING_TOLERANCE = 0.03

# The fork pool's workers inherit the tracer by memory, not by pickling, so
# the chunk shim finds it here.  Only a process that called install() sets it.
_ACTIVE: Tracer | None = None

PoolCall = collections.namedtuple("PoolCall", "wall processes busy work")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        # (name, start, end, parent index, pid); pid 0 is this process.
        # An open span holds None until it ends.
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: collections.Counter = collections.Counter()
        self.kernel = {"subspaces": 0, "lookups": 0, "bytes": 0}
        self.pools: list[PoolCall] = []
        self.chunk_names: set[str] = set()
        self.suites: dict[str, str] = {}  # span name -> suite key

    # -- wrappers -------------------------------------------------------

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        if name == KERNEL:
            fn = self._kernel_counts(fn)
        elif name == POOL:
            fn = self._pool_shim(fn)
        if inspect.isgeneratorfunction(fn):
            return self._gen_spans(name, fn)
        return self._spans(name, fn)

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spans(self, name, fn):
        spans, stack, calls = self.spans, self.stack, self.calls

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent, 0)
                stack.pop()
        return spanned

    def _gen_spans(self, name, fn):
        """One span per resumption, so the consumer's work between items
        is not charged to the generator."""
        spans, stack, calls = self.spans, self.stack, self.calls
        items = name + ".items"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans[idx] = (name, start, perf_counter(), parent, 0)
                    stack.pop()
                calls[items] += 1
                yield item
        return spanned

    def _kernel_counts(self, fn):
        """Work through the kernel, and its table lookups and uint8
        intermediate bytes computed from the block and matrix shapes."""
        kernel = self.kernel

        @functools.wraps(fn)
        def counted(field, blocks, mat, *rest, **kwargs):
            out = fn(field, blocks, mat, *rest, **kwargs)
            subspaces = math.prod(blocks.shape[:-2])
            r, k = blocks.shape[-2:]
            n = mat.shape[1]
            kernel["subspaces"] += subspaces
            # one mul and one add table lookup per term of B @ mat
            kernel["lookups"] += 2 * subspaces * r * k * n
            # two (B, r, n) intermediates per term index, plus the zero mask
            kernel["bytes"] += subspaces * r * n * (2 * k + 1)
            return out
        return counted

    def _pool_shim(self, fn):
        @functools.wraps(fn)
        def run_chunks(chunk_fn, chunk_args, workers, *rest, **kwargs):
            self.chunk_names.add(_span_name(chunk_fn))
            start = perf_counter()
            packed = fn(functools.partial(_timed_chunk, chunk_fn), chunk_args, workers,
                        *rest, **kwargs)
            wall = perf_counter() - start
            results, busy, work = [], collections.Counter(), []
            for result, secs, pid, chunk_work, worker_trace in packed:
                results.append(result)
                busy[pid] += secs
                work.append(chunk_work)
                if worker_trace is not None:
                    self._merge(pid, *worker_trace)
            processes = max(1, min(workers, len(chunk_args)))
            self.pools.append(PoolCall(wall, processes, dict(busy), work))
            return results
        return run_chunks

    def _merge(self, pid, mark, spans, calls, kernel):
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent >= mark:
                parent = base + parent - mark
            self.spans.append((name, start, end, parent, pid))
        self.calls.update(calls)
        for key, value in kernel.items():
            self.kernel[key] += value

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of MODULES in every namespace of the
        package that binds them."""
        global _ACTIVE
        _ACTIVE = self
        package = importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_info"):
                    wrapped[id(value)] = self.wrap(f"{short}.{attr}", value)
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    setattr(namespace, attr, wrapped[id(value)])
        suites = modules["verify"].SUITES
        for key, fn in list(suites.items()):
            self.suites[_span_name(fn)] = key
            suites[key] = wrapped.get(id(fn), fn)

    # -- results --------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        """Per span: duration, and duration minus same-process children."""
        spans = self.spans
        durations = [end - start for _, start, end, _, _ in spans]
        own = list(durations)
        for (_, _, _, parent, pid), dur in zip(spans, durations):
            if parent >= 0 and spans[parent][4] == pid:
                own[parent] -= dur
        return durations, own

    def layer_metrics(self, wall: float) -> tuple[dict, dict]:
        """Per-layer metrics of one traced command that took wall seconds,
        and the accounting check of its spans against that wall time."""
        durations, own = self.self_times()
        self_s = collections.Counter()
        module_self = collections.Counter()
        inclusive = collections.Counter()
        main_self = 0.0
        for (name, _, _, _, pid), dur, mine in zip(self.spans, durations, own):
            self_s[name] += mine
            module_self[name.split(".", 1)[0]] += mine
            if pid == 0:
                inclusive[name] += dur
                main_self += mine
        calls = self.calls
        module_calls = collections.Counter()
        for name, count in calls.items():
            if not name.endswith(".items"):
                module_calls[name.split(".", 1)[0]] += count

        kernel_s = self_s[KERNEL]
        out = {
            "linalg.zero_column_counts.self_s": kernel_s,
            "linalg.kernel_subspaces_per_s": _ratio(self.kernel["subspaces"], kernel_s),
            "linalg.kernel_lookups": self.kernel["lookups"],
            "linalg.kernel_bytes": self.kernel["bytes"],
            "linalg.rref_batches.self_s": self_s["linalg.rref_batches"],
            "linalg.rref_batches.blocks": calls["linalg.rref_batches.items"],
            # the scan's own loop: the entry point plus the chunk bodies
            "linalg.scan.self_s": self_s[SCAN] + sum(self_s[c] for c in self.chunk_names),
        }
        for fn in ("linalg.eval_matrix", "linalg.row_reduce", "monomials.footprint",
                   "codes.ghw_exhaustive", "varieties.count_common_zeros"):
            out[f"{fn}.calls"] = calls[fn]
            out[f"{fn}.self_s"] = self_s[fn]
        out["monomials.divides.calls"] = calls["monomials.divides"]
        for fn in ("varieties.brute_force_max_footprint", "codes.check_duality",
                   "codes.build_prm", "varieties.construct_witness"):
            out[f"{fn}.self_s"] = self_s[fn]
        out["gf.make_field.calls"] = calls["gf.make_field"]
        out["gf.make_field.self_s"] = self_s["gf.make_field"]
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
        out["formulas.calls"] = module_calls["formulas"]
        out["polys.calls"] = module_calls["polys"]
        for name, key in sorted(self.suites.items(), key=lambda item: item[1]):
            out[f"verify.suite_s.{key}"] = inclusive[name]
        out.update(self._pool_metrics())

        unattributed = _ratio(wall - main_self, wall)
        negative = sum(1 for mine in own if mine < -1e-6)
        out["trace.unattributed_frac"] = unattributed
        check = {"spans": len(self.spans), "negative_self": negative,
                 "unattributed_frac": unattributed,
                 "ok": abs(unattributed) <= ACCOUNTING_TOLERANCE and negative == 0}
        return out, check

    def _pool_metrics(self) -> dict:
        wall = busy_max = busy_min = overhead = 0.0
        work_max = work_mean = 0.0
        for call in self.pools:
            per_process = sorted(call.busy.values(), reverse=True)
            per_process += [0.0] * (call.processes - len(per_process))
            wall += call.wall
            busy_max += per_process[0]
            busy_min += per_process[-1]
            overhead += call.wall - per_process[0]
            if call.work:
                work_max += max(call.work)
                work_mean += sum(call.work) / len(call.work)
        return {
            "runtime.run_chunks.wall_s": wall,
            "runtime.worker_busy_max_s": busy_max,
            "runtime.worker_busy_min_s": busy_min,
            "runtime.pool_overhead_s": overhead,
            # the slowest chunk's work against the mean chunk's, summed over
            # pool calls: 1.0 is a perfect split
            "runtime.chunk_imbalance": _ratio(work_max, work_mean),
        }

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, "pid": pid}
                for name, start, end, parent, pid in self.spans]


def _timed_chunk(fn, args):
    """Run one chunk under a span; return its result, busy seconds, pid,
    kernel subspaces and, in a pool worker, what it traced there."""
    tracer = _ACTIVE
    mark = len(tracer.spans)
    calls = collections.Counter(tracer.calls)
    kernel = dict(tracer.kernel)
    start = perf_counter()
    result = tracer._spans(_span_name(fn), fn)(args)
    busy = perf_counter() - start
    work = tracer.kernel["subspaces"] - kernel["subspaces"]
    pid = os.getpid()
    if pid == tracer.pid:
        return result, busy, 0, work, None
    calls = tracer.calls - calls
    kernel = {key: tracer.kernel[key] - kernel[key] for key in kernel}
    return result, busy, pid, work, (mark, tracer.spans[mark:], dict(calls), kernel)
