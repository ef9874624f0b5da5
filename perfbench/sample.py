"""Run one footprint-lab CLI command in this fresh interpreter and print
one JSON line about it.

    python3 perfbench/sample.py [--trace SPANS.json] -- search er --q 4 ...

The line holds the import time of footprint_lab (numpy included), the wall
time of cli.main(argv), its exit code and captured standard output, the
peak RSS of this process and of its pool children, and, with --trace, the
per-layer metrics of layers.Tracer (the spans go to SPANS.json).
footprint_lab must be importable, e.g. with PYTHONPATH=src.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(args: list[str]) -> int:
    spans_path = None
    if args[:1] == ["--trace"]:
        spans_path, args = args[1], args[2:]
    if args[:1] != ["--"]:
        print(__doc__, file=sys.stderr)
        return 2
    argv = args[1:]

    start = time.perf_counter()
    from footprint_lab import cli
    setup_s = time.perf_counter() - start

    tracer = None
    if spans_path:
        import layers
        tracer = layers.Tracer()
        tracer.install()

    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    except Exception as exc:  # the command raised: report it as a failure
        code, error = None, f"{type(exc).__name__}: {exc}"
    decide_s = time.perf_counter() - start

    record = {"setup_s": setup_s, "decide_s": decide_s, "exit_code": code,
              "stdout": out.getvalue(), "error": error, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        record["layers"], record["accounting"] = tracer.layer_metrics(decide_s)
        with open(spans_path, "w") as handle:
            json.dump(tracer.span_records(), handle)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
