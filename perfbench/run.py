"""footprint-lab benchmark: the public CLI on four fixed workloads.

    python3 perfbench/run.py --workload scan-f4 --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; footprint_lab is imported from src/.
Every sample is one CLI command (cli.main(argv)) in a fresh interpreter, so
each pays the package import and the cold lru_caches as a CLI user does.
Samples run one at a time from this process (a closed loop with one client).
Every output is compared with its golden copy in golden.json, recorded with
record_golden.py.

--trace 0 measures the end-to-end metrics.  Each run covers the whole pool
of its workload, round after round in an order the seed shuffles, until
--seconds have passed; per-instance medians are averaged, so runs with
different seeds measure the same mix.

--trace 1 measures the per-layer metrics on the instance the seed picks:
layers.Tracer wraps the public functions of every module from outside src/,
untraced and traced samples alternate, and a third sample with the other
worker count gives the pool's scaling.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the run
record and the metrics by name with their units.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"
SAMPLE_TIMEOUT_S = 120

# Keys of a report that may differ between runs: the CLI's determinism
# contract excludes the wall clock and run statistics.
VOLATILE_KEYS = ("elapsed", "stats")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, computed here so that
    the work count does not depend on the code being measured."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@dataclass(frozen=True)
class Instance:
    argv: tuple[str, ...]
    k: int | None = None  # basis size of the search; None for verify

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def option(self, flag: str) -> int:
        return int(self.argv[self.argv.index(flag) + 1])

    def expected_work(self, golden_report: dict) -> int:
        """Subspaces for er/affine/ghw, subsets for footprint, checks for verify."""
        if self.argv[0] == "verify":
            return sum(suite["cases"] for suite in golden_report["suites"])
        r, q = self.option("--r"), self.option("--q")
        if self.argv[1] == "footprint":
            return math.comb(self.k, r)
        return gaussian_binomial(self.k, r, q)

    def with_workers(self, workers: int) -> Instance:
        argv = list(self.argv)
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = str(workers)
        else:
            argv += ["--workers", str(workers)]
        return Instance(tuple(argv), self.k)


def _search(kind: str, q: int, d: int, m: int, r: int, k: int, *extra: str) -> Instance:
    return Instance(("search", kind, "--q", str(q), "--d", str(d), "--m", str(m),
                     "--r", str(r), *extra), k)


# The pool of instances of each workload; BENCHMARK.json says why each
# workload is there.  k is the dimension of the space the search walks: the
# reduced degree-d monomials for er/ghw and footprint, the affine basis for
# affine.
WORKLOADS = {
    "scan-f4": tuple(_search(kind, 4, 2, 2, 3, 6, "--workers", "1")
                     for kind in ("er", "ghw", "affine")),
    "scan-f5": tuple(_search(kind, 5, 2, 2, 2, 6, "--workers", "2")
                     for kind in ("er", "ghw", "affine")),
    "verify-default": (Instance(("verify", "--workers", "1")),),
    "footprint-scan": (_search("footprint", 5, 3, 3, 4, 20),
                       _search("footprint", 4, 3, 3, 4, 20),
                       _search("footprint", 5, 4, 3, 3, 35)),
}


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def load_golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("FOOTPRINT_LAB_")}
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def preflight() -> str:
    """Import footprint_lab once, unmeasured, so that bytecode is cached
    before the first sample; return the numpy version.  Raise when the
    package cannot be imported from this checkout."""
    if not (ROOT / "src" / "footprint_lab" / "__init__.py").is_file():
        raise RuntimeError(f"no footprint_lab package under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-c", "import footprint_lab, numpy; print(numpy.__version__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import footprint_lab: {proc.stderr.strip()}")
    return proc.stdout.strip()


def run_sample(instance: Instance, spans_path: Path | None = None) -> dict:
    """One command in a fresh interpreter; the record sample.py prints, or
    an error record when the interpreter died."""
    cmd = [sys.executable, str(HERE / "sample.py")]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    cmd += ["--", *instance.argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {SAMPLE_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"error": f"sample exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def check(sample: dict, expected: dict) -> str | None:
    """Why the sample's output differs from the expected golden record, or
    None when it matches."""
    if sample.get("error"):
        return sample["error"]
    if sample["exit_code"] != expected["exit_code"]:
        return f"exit code {sample['exit_code']} != {expected['exit_code']}"
    try:
        report = json.loads(sample["stdout"])
    except json.JSONDecodeError:
        return "output is not JSON"
    for key in VOLATILE_KEYS:
        report.pop(key, None)
    if report != expected["report"]:
        return "report differs from the golden copy"
    return None


class Tally:
    """Commands attempted, and why each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, instance: Instance, expected: dict,
            spans_path: Path | None = None) -> dict:
        sample = run_sample(instance, spans_path)
        self.attempted += 1
        reason = check(sample, expected)
        if reason is not None:
            self.failures.append(f"{instance.key}: {reason}")
        return sample


def end_to_end(pool: tuple[Instance, ...], seed: int, seconds: float, golden: dict):
    """End-to-end metrics of the whole pool, with the tally and run notes."""
    rng = random.Random(seed)
    tally = Tally()
    samples: dict[Instance, list[dict]] = {inst: [] for inst in pool}
    start = time.perf_counter()
    done = False
    while not done:
        for inst in rng.sample(pool, len(pool)):
            sample = tally.run(inst, golden[inst.key])
            if "decide_s" in sample:
                samples[inst].append(sample)
            done = time.perf_counter() - start >= seconds and all(samples.values())
            if done:
                break
    if not all(samples.values()):
        raise RuntimeError("an instance produced no timed sample: "
                           + "; ".join(tally.failures[:3]))
    medians = {inst: statistics.median(s["decide_s"] for s in got)
               for inst, got in samples.items()}
    work = sum(inst.expected_work(golden[inst.key]["report"]) for inst in pool)
    every = [s for got in samples.values() for s in got]
    metrics = {
        "decide_s": statistics.fmean(medians.values()),
        "work_per_s": work / sum(medians.values()),
        "setup_s": statistics.median(s["setup_s"] for s in every),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in every),
    }
    notes = [f"instance: {inst.key}  samples={len(samples[inst])}  "
             f"median_decide_s={medians[inst]:.4f}" for inst in pool]
    notes.append(f"tail percentile: none; a run of {len(every)} samples has too few "
                 "to leave ten beyond one")
    return metrics, tally, notes


def per_layer(pool: tuple[Instance, ...], seed: int, seconds: float, golden: dict,
              workload_name: str, usable_cpus: int):
    """Per-layer metrics of the instance the seed picks, with the tally and
    run notes."""
    rng = random.Random(seed)
    inst = rng.choice(pool)
    workers = inst.option("--workers") if "--workers" in inst.argv else 1
    other = inst.with_workers(2 if workers == 1 else 1)
    expected = golden[inst.key]
    scaling = usable_cpus >= 2
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans_{workload_name}_seed{seed}.json"
    plain, traced, layers, alone = [], [], [], []
    checks = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        sample = tally.run(inst, expected)
        if "decide_s" in sample:
            plain.append(sample["decide_s"])
        sample = tally.run(inst, expected, spans_path)
        if "layers" in sample:
            traced.append(sample["decide_s"])
            layers.append(sample["layers"])
            checks.append(sample["accounting"])
        if scaling:
            # the worker count must not change the report either
            sample = tally.run(other, expected)
            if "decide_s" in sample:
                alone.append(sample["decide_s"])
    if not (plain and traced and (alone or not scaling)):
        raise RuntimeError("no timed sample: " + "; ".join(tally.failures[:3]))
    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    notes = [f"instance: {inst.key}  traced samples={len(traced)}  "
             f"untraced samples={len(plain)}"]
    if scaling:
        t1, t2 = ((statistics.median(plain), statistics.median(alone)) if workers == 1
                  else (statistics.median(alone), statistics.median(plain)))
        metrics["runtime.scaling_eff"] = t1 / (2 * t2)
        notes.append(f"scaling: t(workers=1)={t1:.4f} s  t(workers=2)={t2:.4f} s")
    else:
        notes.append(f"scaling: omitted, {usable_cpus} usable core(s)")
    worst = max(checks, key=lambda c: abs(c["unattributed_frac"]))
    notes.append(f"trace accounting: {'ok' if all(c['ok'] for c in checks) else 'FLAGGED'}  "
                 f"worst unattributed_frac={worst['unattributed_frac']:.6f}  "
                 f"negative self times={max(c['negative_self'] for c in checks)}  "
                 f"spans={worst['spans']} (written to {spans_path.relative_to(ROOT)})")
    if not all(c["ok"] for c in checks):
        print("warning: layer self times do not add up to the command's wall time; "
              "a layer went unmeasured", file=sys.stderr)
    return metrics, tally, notes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = os.getloadavg()[0]
    affinity = sorted(os.sched_getaffinity(0))
    try:
        units = metric_units()
        numpy_version = preflight()
        golden = load_golden()
        pool = WORKLOADS[args.workload]
        missing = [inst.key for inst in pool if inst.key not in golden]
        if missing:
            raise RuntimeError(f"no golden copy of {missing}")
        if args.trace:
            metrics, tally, notes = per_layer(pool, args.seed, args.seconds, golden,
                                              args.workload, len(affinity))
        else:
            metrics, tally, notes = end_to_end(pool, args.seed, args.seconds, golden)
    except (RuntimeError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1

    print(f"run: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}  closed loop, one client")
    print(f"machine: cpus={os.cpu_count()} affinity={affinity} cpu_model={cpu_model()!r} "
          f"python={platform.python_version()} numpy={numpy_version}")
    print(f"load1: start={load_start:.2f} end={os.getloadavg()[0]:.2f}")
    for note in notes:
        print(note)
    failed = len(tally.failures)
    for reason in tally.failures[:5]:
        print(f"failure: {reason}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric failed_frac = {failed / tally.attempted:.6g} ratio "
          f"({failed} of {tally.attempted} commands)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
