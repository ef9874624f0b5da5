"""Tests of the benchmark itself, on tiny instances of every command kind.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import record_golden  # noqa: E402
import run  # noqa: E402
from footprint_lab import formulas, linalg, monomials, runtime  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# One tiny instance of each command kind.
TINY = (
    run._search("er", 2, 1, 1, 1, 2, "--workers", "1"),
    run._search("affine", 2, 1, 1, 1, 2, "--workers", "1"),
    run._search("ghw", 3, 1, 1, 1, 2, "--workers", "1"),
    run._search("footprint", 3, 1, 1, 1, 2),
    run.Instance(("verify", "--suite", "macaulay", "--workers", "1")),
)
# A pool scan whose pivot-pattern split is uneven.
TINY_POOL = run._search("er", 3, 2, 1, 2, 3, "--workers", "2")


@pytest.fixture(scope="module")
def golden():
    return {inst.key: record_golden.record(inst) for inst in (*TINY, TINY_POOL)}


def _names(section):
    return {m["name"] for m in SPEC[section]}


def test_gaussian_binomial_matches_library():
    for q in (2, 3, 4, 5, 7):
        for n in range(7):
            for k in range(n + 1):
                assert run.gaussian_binomial(n, k, q) == formulas.gaussian_binomial(n, k, q)


def test_basis_sizes_match_library():
    for inst in (inst for pool in run.WORKLOADS.values() for inst in pool):
        if inst.k is None:
            continue
        q, d, m = inst.option("--q"), inst.option("--d"), inst.option("--m")
        basis = (formulas.bounded_tuples(m, q - 1, d, "at_most") if inst.argv[1] == "affine"
                 else monomials.reduced_monomials(m, q, d))
        assert len(basis) == inst.k, inst.key


def test_golden_covers_every_instance_with_its_work():
    recorded = run.load_golden()
    pools = [inst for pool in run.WORKLOADS.values() for inst in pool]
    assert set(recorded) == {inst.key for inst in pools}
    for inst in pools:
        entry = recorded[inst.key]
        assert entry["exit_code"] == 0
        if "subspaces_enumerated" in entry["report"]:
            assert entry["report"]["subspaces_enumerated"] == inst.expected_work(entry["report"])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_on_every_command_kind(golden):
    metrics, tally, _ = run.end_to_end(TINY, seed=0, seconds=0.0, golden=golden)
    assert tally.failures == []
    assert tally.attempted == len(TINY)
    assert set(metrics) == _names("end_to_end")
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("inst", TINY, ids=lambda inst: inst.argv[1])
def test_per_layer_metrics_on_every_command_kind(golden, inst):
    metrics, tally, notes = run.per_layer((inst,), 0, 0.0, golden, "test", usable_cpus=2)
    assert tally.failures == []
    assert set(metrics) == _names("per_layer")
    assert any(note.startswith("trace accounting: ok") for note in notes)
    assert abs(metrics["trace.unattributed_frac"]) <= 0.03


def test_failures_are_counted_against_the_golden_copy(golden):
    inst = TINY[0]
    wrong = copy.deepcopy(golden)
    wrong[inst.key]["report"]["value"] += 1
    _, tally, _ = run.end_to_end((inst,), 0, 0.0, wrong)
    assert tally.attempted == 1
    assert len(tally.failures) == 1


def test_chunk_imbalance_matches_the_split(golden):
    k, r, q = TINY_POOL.k, TINY_POOL.option("--r"), TINY_POOL.option("--q")
    patterns = linalg.pivot_patterns(k, r)
    chunks = runtime.split_chunks(list(range(len(patterns))), 2)
    work = [sum(linalg.pattern_size(patterns[i], k, q) for i in ids) for ids in chunks]
    expected = max(work) / (sum(work) / len(work))
    assert expected > 1.0
    metrics, tally, _ = run.per_layer((TINY_POOL,), 0, 0.0, golden,
                                      "test", usable_cpus=2)
    assert tally.failures == []
    assert metrics["runtime.chunk_imbalance"] == pytest.approx(expected)
    assert metrics["linalg.zero_column_counts.self_s"] > 0  # merged from the workers


def test_one_command_prints_every_metric_by_name():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-default",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, unit in {**units, "failed_frac": "ratio"}.items():
        assert any(line.startswith(f"metric {name} = ") and line.split()[4] == unit
                   for line in lines), name
        if name in units:
            assert result["metrics"][name]["unit"] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-f4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
