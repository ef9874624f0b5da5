"""Budgeting and worker-pool plumbing for the exhaustive searches.

The budget is an upper bound on (subspaces or subsets examined) x (points
or monomials touched per examination).  Runs whose estimate exceeds it are
refused up front with BudgetExceeded rather than started.
"""

from __future__ import annotations

import multiprocessing
import os

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "FOOTPRINT_LAB_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None or raw == "":
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {raw!r}")
    return value


def charge_budget(estimated: int, budget: int | None, what: str) -> None:
    limit = default_budget() if budget is None else budget
    if estimated > limit:
        raise BudgetExceeded(
            f"{what}: estimated cost {estimated} exceeds budget {limit}",
            estimated=estimated, budget=limit)


def split_chunks(items: list, workers: int) -> list[list]:
    """Near-equal contiguous slices, one per worker, empties dropped."""
    workers = max(1, workers)
    n = len(items)
    bounds = [n * w // workers for w in range(workers + 1)]
    return [items[bounds[w]:bounds[w + 1]] for w in range(workers) if bounds[w] < bounds[w + 1]]


def run_chunks(fn, chunk_args: list, workers: int) -> list:
    """Apply fn to each args tuple, in-process or via a process pool.

    Results come back in submission order, so a merge that walks the
    contiguous chunks of split_chunks in that order sees them in the
    canonical order and does not depend on the worker count.  The
    pool never has more processes than chunks or CPUs.  Workers are forked
    where the platform offers fork and spawned otherwise, so fn must be a
    module-level function and its arguments picklable.
    """
    processes = min(workers, len(chunk_args), os.cpu_count() or 1)
    if processes <= 1:
        return [fn(args) for args in chunk_args]
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)
    with ctx.Pool(processes=processes) as pool:
        return pool.map(fn, chunk_args)
