"""Command line front end.

Three commands: `tables` prints the per-rank bound table for one (q, d, m),
`search` runs one exhaustive computation and compares it against the
matching closed form, `verify` runs the named check suites.

Exit codes: 0 success (and all checks passed), 1 a verification failed or
an exhaustive value contradicts a settled formula, 2 invalid input, a
refused budget or an unwritable --output.  JSON reports are deterministic
except for `elapsed` and verify's `stats` (seconds per suite); the worker
count never changes the payload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import codes, formulas, monomials, varieties
from .errors import BudgetExceeded, CapExceeded, NotPrimePower
from .gf import make_field
from .verify import VerifyConfig, resolve_suites, run_suites

_FORMATS = ("json", "csv", "pretty")


def _field_size(text: str) -> int:
    """A field size the package supports: a prime power up to the cap."""
    try:
        q = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"field size {text!r} is not an integer") from None
    try:
        make_field(q)
    except (NotPrimePower, CapExceeded) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return q


def _field_sizes(text: str) -> tuple[int, ...]:
    return tuple(_field_size(part) for part in text.split(","))


def _suites(text: str) -> list[str]:
    try:
        return resolve_suites(text.split(","))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="footprint-lab",
        description="Extremal zero counts of systems of forms over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    tab = sub.add_parser("tables", help="per-rank bound table for one (q, d, m)")
    tab.add_argument("--q", type=_field_size, required=True)
    tab.add_argument("--d", type=_positive_int, required=True)
    tab.add_argument("--m", type=_positive_int, required=True)
    _output_flags(tab)

    sea = sub.add_parser("search", help="one exhaustive computation vs. its formula")
    sea.add_argument("kind", choices=("er", "affine", "footprint", "ghw"))
    sea.add_argument("--q", type=_field_size, required=True)
    sea.add_argument("--d", type=_nonnegative_int, required=True)
    sea.add_argument("--m", type=_nonnegative_int, required=True)
    sea.add_argument("--r", type=_positive_int, required=True)
    sea.add_argument("--e", type=_nonnegative_int, default=None,
                     help="footprint degree (footprint only; default: stable degree)")
    sea.add_argument("--mode", choices=("reduced", "all"), default=None,
                     help="monomial basis for the er scan (er only; default: reduced)")
    sea.add_argument("--budget", type=_positive_int, default=None)
    sea.add_argument("--workers", type=_positive_int, default=1)
    _output_flags(sea)

    ver = sub.add_parser("verify", help="run named verification suites")
    ver.add_argument("--suite", type=_suites, default="all",
                     help="comma-separated suite names, or all")
    ver.add_argument("--q", type=_field_sizes, default=None,
                     help="comma-separated field sizes, e.g. 2,3")
    ver.add_argument("--m-max", type=_positive_int, default=None)
    ver.add_argument("--d-max", type=_positive_int, default=None)
    ver.add_argument("--l", type=_positive_int, default=None, help="hypercube level")
    ver.add_argument("--quick", action="store_true",
                     help="pin the stock acceptance grids, ignoring grid flags")
    ver.add_argument("--budget", type=_positive_int, default=None)
    ver.add_argument("--workers", type=_positive_int, default=1)
    _output_flags(ver)
    return parser


def _output_flags(sub) -> None:
    sub.add_argument("--format", choices=_FORMATS, default="json")
    sub.add_argument("--output", default=None, help="write the report to a file")


def _cmd_tables(args) -> tuple[dict, int]:
    q, d, m = args.q, args.d, args.m
    if d > q:
        raise ValueError(f"tables need 1 <= d <= q; got d = {d}, q = {q}")
    top = formulas.binom(m + d, d)
    # at d = q the footprint ceiling fails and the affine pool lacks every x_i^q
    affine_top = len(formulas.bounded_tuples(m, q - 1, d, "at_most"))
    rows = []
    for r in range(1, top + 1):
        value, status = formulas.conjectured_max_points(r, d, m, q)
        i, j = formulas.rank_split(r, d, m)
        rows.append({
            "r": r,
            "H_r": formulas.affine_max_points(r, d, m, q) if r <= affine_top else None,
            "K_r": formulas.projective_upper_bound(r, d, m, q) if d < q else None,
            "e_r_value": value,
            "status": status,
            "macaulay_tuple": list(formulas.macaulay_tuple(top - r, d)),
            "i": i,
            "j": j,
        })
    return {"schema": 1, "command": "tables", "q": q, "d": d, "m": m, "rows": rows}, 0


def _cmd_search(args) -> tuple[dict, int]:
    start = time.perf_counter()
    q, d, m, r = args.q, args.d, args.m, args.r
    for flag, value, kind in (("--e", args.e, "footprint"), ("--mode", args.mode, "er")):
        if value is not None and args.kind != kind:
            raise ValueError(f"{flag} applies to search {kind} only, not {args.kind}")
    report = {"schema": 1, "command": "search", "kind": args.kind,
              "q": q, "d": d, "m": m, "r": r}
    if args.kind == "er":
        mode = args.mode or "reduced"
        res = varieties.brute_force_max_points(
            r, d, m, q, mode=mode, budget=args.budget, workers=args.workers)
        # only for d <= q does the reduced basis span every degree-d form, so
        # above q the scan misses the forms vanishing on all of P^m; the
        # closed forms start at d = 1
        settled = mode == "reduced" and 1 <= d <= q
        predicted, status = formulas.conjectured_max_points(r, d, m, q) if settled \
            else (None, None)
        formula = {"known": formulas.known_max_points(r, d, m, q) if settled else None,
                   "predicted": predicted, "status": status}
        report["mode"] = mode
        witness = [p.to_json() for p in res.witness]
    elif args.kind == "affine":
        res = varieties.brute_force_affine_max_points(
            r, d, m, q, budget=args.budget, workers=args.workers)
        formula = {"known": formulas.affine_max_points(r, d, m, q)}
        witness = [p.to_json() for p in res.witness]
    elif args.kind == "footprint":
        stable = monomials.stable_degree(d, m, q)
        e = stable if args.e is None else args.e
        res = varieties.brute_force_max_footprint(r, d, m, q, e, budget=args.budget)
        formula = {"known": formulas.projective_upper_bound(r, d, m, q)
                   if e >= stable and d < q else None}
        report["e"] = e
        witness = [monomials.format_monomial(mon) for mon in res.witness]
    else:  # ghw
        prm = codes.build_prm(d, m, q)
        res = codes.ghw_exhaustive(prm, r, budget=args.budget, workers=args.workers)
        points = formulas.known_max_points(r, d, m, q) if d < q else None
        formula = {"known": None if points is None else prm.n - points,
                   "lower_bound": formulas.ghw_lower_bound(r, d, m, q) if d < q else None}
        witness = [[int(c) for c in row] for row in res.rows]
    value = res.value
    matches = None if formula["known"] is None else value == formula["known"]
    if formula.get("lower_bound") is not None and value < formula["lower_bound"]:
        matches = False
    report.update({"value": value, "matches_formula": matches, "formula": formula,
                   "witness": witness, "subspaces_enumerated": res.enumerated,
                   "elapsed": round(time.perf_counter() - start, 6)})
    return report, 1 if matches is False else 0


def _cmd_verify(args) -> tuple[dict, int]:
    start = time.perf_counter()
    cfg = VerifyConfig(qs=args.q, m_max=args.m_max, d_max=args.d_max,
                       level=args.l, quick=args.quick,
                       budget=args.budget, workers=args.workers)
    reports = run_suites(args.suite, cfg)
    suites = [{"suite": rep.suite, "passed": rep.passed, "cases": rep.cases,
               "checks": [dataclasses.asdict(c) for c in rep.checks]}
              for rep in reports]
    passed = all(s["passed"] for s in suites)
    report = {"schema": 1, "command": "verify", "passed": passed, "suites": suites,
              "elapsed": round(time.perf_counter() - start, 6),
              "stats": {"suite_s": {rep.suite: round(rep.seconds, 6) for rep in reports}}}
    return report, 0 if passed else 1


def _render_csv(report: dict) -> str:
    import csv as _csv
    import io
    buf = io.StringIO()
    writer = _csv.writer(buf)
    if report["command"] == "tables":
        writer.writerow(report["rows"][0].keys())
        for row in report["rows"]:
            writer.writerow([" ".join(map(str, v)) if isinstance(v, list) else v
                             for v in row.values()])
    elif report["command"] == "verify":
        writer.writerow(["suite", "check", "passed", "cases", "note"])
        for suite in report["suites"]:
            for check in suite["checks"]:
                writer.writerow([suite["suite"], check["name"],
                                 check["passed"], check["cases"], check["note"] or ""])
    else:
        writer.writerow(["key", "value"])
        for key, value in report.items():
            if key in ("witness", "formula"):
                value = json.dumps(value, sort_keys=True)
            writer.writerow([key, value])
    return buf.getvalue()


def _render_pretty(report: dict) -> str:
    lines = []
    if report["command"] == "tables":
        lines.append(f"q = {report['q']}  d = {report['d']}  m = {report['m']}")
        header = f"{'r':>4} {'H_r':>6} {'K_r':>6} {'e_r':>6}  {'status':<11} "\
                 f"{'macaulay':<14} {'i':>3} {'j':>3}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in report["rows"]:
            mac = "(" + ", ".join(str(x) for x in row["macaulay_tuple"]) + ")"
            h_r, k_r = ("-" if row[key] is None else row[key] for key in ("H_r", "K_r"))
            lines.append(f"{row['r']:>4} {h_r:>6} {k_r:>6} "
                         f"{row['e_r_value']:>6}  {row['status']:<11} {mac:<14} "
                         f"{row['i']:>3} {row['j']:>3}")
    elif report["command"] == "verify":
        for suite in report["suites"]:
            flag = "PASS" if suite["passed"] else "FAIL"
            lines.append(f"[{flag}] {suite['suite']} ({suite['cases']} cases)")
            for check in suite["checks"]:
                mark = "ok " if check["passed"] else "FAIL"
                note = f"  [{check['note']}]" if check["note"] else ""
                lines.append(f"    {mark} {check['name']} ({check['cases']}){note}")
                if check["counterexample"]:
                    lines.append(f"         counterexample: {check['counterexample']}")
        lines.append("all suites passed" if report["passed"] else "FAILURES present")
    else:
        for key, value in report.items():
            if key == "witness":
                lines.append("witness:")
                for item in value:
                    lines.append(f"    {item}")
            else:
                lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_pretty(report)


_COMMANDS = {"tables": _cmd_tables, "search": _cmd_search, "verify": _cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    text = render(report, args.format)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
