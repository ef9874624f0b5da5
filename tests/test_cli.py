"""Command line behavior: payloads, formats, exit codes, determinism."""

import csv
import json
import time

import pytest

from footprint_lab import cli, verify
from footprint_lab import formulas as fo


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _without(text: str, *keys: str) -> dict:
    """A JSON report with the keys outside the determinism contract dropped."""
    return {key: value for key, value in json.loads(text).items() if key not in keys}


def test_tables_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--q", "3", "--d", "2", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert [row["e_r_value"] for row in data["rows"]] == [7, 5, 4, 2, 1, 0]
    assert [row["H_r"] for row in data["rows"]] == [6, 4, 3, 2, 1, 0]
    assert [row["K_r"] for row in data["rows"]] == [8, 5, 4, 2, 1, 0]
    assert all(row["status"] == "proven" for row in data["rows"])
    assert data["rows"][0]["macaulay_tuple"] == [1, 1]
    assert (data["rows"][2]["i"], data["rows"][2]["j"]) == (1, 0)


def test_tables_rejects_large_degree(capsys):
    code, out, err = run_cli(capsys, "tables", "--q", "3", "--d", "4", "--m", "2")
    assert code == 2
    assert out == ""
    assert "d <= q" in err


def test_tables_degree_q(capsys):
    """At d = q the footprint ceiling fails and the affine tuples run out
    before the ranks do: those cells are null, and e_r is a lower bound."""
    code, out, _ = run_cli(capsys, "tables", "--q", "3", "--d", "3", "--m", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    assert [row["r"] for row in rows if row["H_r"] is None] == [9, 10]
    assert all(row["K_r"] is None for row in rows)
    assert all(row["status"] == "conjectural" for row in rows)
    assert rows[0]["e_r_value"] == 10
    code, out, _ = run_cli(capsys, "tables", "--q", "3", "--d", "3", "--m", "2",
                           "--format", "pretty")
    assert code == 0
    body = out.strip().split("\n")[3:]
    assert len(body) == 10
    assert body[0].split()[:4] == ["1", "7", "-", "10"]
    assert body[8].split()[:4] == ["9", "-", "-", "1"]


def test_tables_rejects_bad_m(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["tables", "--q", "3", "--d", "2", "--m", "0"])
    assert info.value.code == 2
    assert "argument --m: must be >= 1, got 0" in capsys.readouterr().err


def test_tables_csv_and_pretty(capsys):
    code, out, _ = run_cli(capsys, "tables", "--q", "3", "--d", "1", "--m", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("r,H_r,K_r,e_r_value,status")
    assert len(lines) == 4
    code, out, _ = run_cli(capsys, "tables", "--q", "3", "--d", "1", "--m", "2",
                           "--format", "pretty")
    assert code == 0
    assert "status" in out


def test_search_er(capsys):
    code, out, _ = run_cli(capsys, "search", "er", "--q", "3", "--d", "2",
                           "--m", "2", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 7
    assert data["matches_formula"] is True
    assert data["formula"]["status"] == "proven"
    assert data["subspaces_enumerated"] == 364
    assert len(data["witness"]) == 1
    assert "workers" not in data


def test_search_affine(capsys):
    code, out, _ = run_cli(capsys, "search", "affine", "--q", "3", "--d", "2",
                           "--m", "2", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 4
    assert data["matches_formula"] is True


def test_search_footprint(capsys):
    code, out, _ = run_cli(capsys, "search", "footprint", "--q", "3", "--d", "2",
                           "--m", "2", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["e"] == 6
    assert data["value"] == 8
    assert data["witness"] == ["x0^2"]
    assert data["matches_formula"] is True
    # below the stable degree there is no formula to match
    code, out, _ = run_cli(capsys, "search", "footprint", "--q", "3", "--d", "2",
                           "--m", "2", "--r", "1", "--e", "3")
    data = json.loads(out)
    assert data["matches_formula"] is None


def test_search_footprint_negative_degree_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["search", "footprint", "--q", "3", "--d", "2", "--m", "2",
                  "--r", "2", "--e", "-1"])
    assert info.value.code == 2
    assert "--e: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("kind, flag", [("er", "--e 5"), ("affine", "--e 5"), ("ghw", "--e 5"),
                                        ("affine", "--mode all"), ("footprint", "--mode all"),
                                        ("ghw", "--mode reduced")])
def test_search_flag_of_another_kind_exit_2(capsys, kind, flag):
    """--e belongs to search footprint and --mode to search er; any other
    kind refuses them with one line instead of ignoring them."""
    code, out, err = run_cli(capsys, "search", kind, "--q", "3", "--d", "2", "--m", "2",
                             "--r", "1", *flag.split())
    assert code == 2
    assert out == ""
    name, kind_of = flag.split()[0], "footprint" if flag.startswith("--e") else "er"
    assert err == f"invalid input: {name} applies to search {kind_of} only, not {kind}\n"


def test_search_er_mode_defaults_to_reduced(capsys):
    argv = ["search", "er", "--q", "3", "--d", "2", "--m", "2", "--r", "1"]
    reports = [json.loads(run_cli(capsys, *argv, *extra)[1])
               for extra in ((), ("--mode", "reduced"), ("--mode", "all"))]
    assert [rep["mode"] for rep in reports] == ["reduced", "reduced", "all"]
    assert reports[0]["value"] == reports[1]["value"] == 7
    assert reports[2]["formula"] == {"known": None, "predicted": None, "status": None}


@pytest.mark.parametrize("kind", ["er", "affine", "footprint", "ghw"])
@pytest.mark.parametrize("flag", ["--d", "--m"])
def test_search_negative_degree_or_dimension_exit_2(capsys, kind, flag):
    argv = {"--q": "3", "--d": "2", "--m": "1", "--r": "1", flag: "-1"}
    with pytest.raises(SystemExit) as info:
        cli.main(["search", kind, *(item for pair in argv.items() for item in pair)])
    assert info.value.code == 2
    assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err


def test_search_footprint_degree_at_least_q(capsys):
    # K_r is the footprint ceiling only for d < q; at d >= q it is not a
    # prediction, so the scan has nothing to match (here 12 exceeds K_2 = 10)
    code, out, _ = run_cli(capsys, "search", "footprint", "--q", "2", "--d", "2",
                           "--m", "3", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 12
    assert data["formula"]["known"] is None
    assert data["matches_formula"] is None


def test_search_ghw(capsys):
    code, out, _ = run_cli(capsys, "search", "ghw", "--q", "3", "--d", "2",
                           "--m", "1", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2
    assert data["formula"]["lower_bound"] == 2
    assert data["matches_formula"] is True


def test_search_er_above_q_has_no_known_formula(capsys):
    # for d > q the reduced basis leaves out the forms vanishing on all of
    # P^1(F_3), so the reduced scan is not the all-forms maximum e_r
    code, out, _ = run_cli(capsys, "search", "er", "--q", "3", "--d", "4",
                           "--m", "1", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2
    assert data["formula"] == {"known": None, "predicted": None, "status": None}
    assert data["matches_formula"] is None


def test_search_er_degree_zero_has_no_formula(capsys):
    # degree-0 forms are constants: no common zero, and no closed form applies
    code, out, _ = run_cli(capsys, "search", "er", "--q", "3", "--d", "0",
                           "--m", "2", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 0
    assert data["formula"] == {"known": None, "predicted": None, "status": None}
    assert data["matches_formula"] is None


def test_ghw_below_lower_bound_exits_1(capsys, monkeypatch):
    # with no settled weight, the lower bound alone decides the comparison
    monkeypatch.setattr(cli.formulas, "known_max_points", lambda *a, **k: None)
    monkeypatch.setattr(cli.formulas, "ghw_lower_bound", lambda *a, **k: 999)
    code, out, _ = run_cli(capsys, "search", "ghw", "--q", "3", "--d", "2",
                           "--m", "1", "--r", "1")
    assert code == 1
    data = json.loads(out)
    assert data["formula"] == {"known": None, "lower_bound": 999}
    assert data["matches_formula"] is False


_SEARCH_KEYS = ["schema", "command", "kind", "q", "d", "m", "r", "value", "matches_formula",
                "formula", "witness", "subspaces_enumerated", "elapsed"]


@pytest.mark.parametrize("kind, extra", [("er", "mode"), ("affine", None),
                                         ("footprint", "e"), ("ghw", None)])
@pytest.mark.parametrize("fmt", ["csv", "pretty"])
def test_search_formats(capsys, kind, extra, fmt):
    argv = ["search", kind, "--q", "3", "--d", "2", "--m", "2", "--r", "2"]
    report = json.loads(run_cli(capsys, *argv)[1])
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    keys = list(_SEARCH_KEYS)
    if extra:
        keys.insert(keys.index("value"), extra)
    if fmt == "csv":
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["key", "value"]
        assert [row[0] for row in rows[1:]] == keys
        cells = dict(rows[1:])
        assert json.loads(cells["witness"]) == report["witness"]
        assert json.loads(cells["formula"]) == report["formula"]
    else:
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines if not line.startswith("    ")] == keys
        at = lines.index("witness:") + 1
        assert report["witness"]
        assert lines[at:at + len(report["witness"])] == [
            f"    {item}" for item in report["witness"]]
        assert lines[at + len(report["witness"])].startswith("subspaces_enumerated: ")


def test_search_rank_error(capsys):
    code, _, err = run_cli(capsys, "search", "er", "--q", "3", "--d", "2",
                           "--m", "2", "--r", "9")
    assert code == 2
    assert "outside" in err


def test_budget_flag_refusal(capsys):
    code, _, err = run_cli(capsys, "search", "er", "--q", "3", "--d", "2",
                           "--m", "2", "--r", "2", "--budget", "10")
    assert code == 2
    assert "refused" in err


@pytest.mark.parametrize("value", ["10", "abc"])
def test_environment_does_not_change_a_search(capsys, monkeypatch, value):
    """A command's flags are its whole input: no environment variable
    lowers the budget or fails the run."""
    argv = ("search", "er", "--q", "3", "--d", "2", "--m", "2", "--r", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("FOOTPRINT_LAB_BUDGET", value)
    code_env, out_env, _ = run_cli(capsys, *argv)
    assert code_env == 0
    assert _without(out_env, "elapsed") == _without(out, "elapsed")


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ("search", "er", "--q", "3", "--d", "2", "--m", "2", "--r", "1"),
    ("verify", "--suite", "macaulay"),
])
def test_budget_flag_below_one_exit_2(capsys, argv, value):
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--budget", value])
    assert info.value.code == 2
    assert f"--budget: must be >= 1, got {value}" in capsys.readouterr().err


def test_search_worker_determinism(capsys, tmp_path):
    a, b = tmp_path / "w1.json", tmp_path / "w3.json"
    assert run_cli(capsys, "search", "er", "--q", "3", "--d", "2", "--m", "2",
                   "--r", "2", "--workers", "1", "--output", str(a))[0] == 0
    assert run_cli(capsys, "search", "er", "--q", "3", "--d", "2", "--m", "2",
                   "--r", "2", "--workers", "3", "--output", str(b))[0] == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("elapsed"), db.pop("elapsed")
    assert json.dumps(da) == json.dumps(db)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "wei")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["suites"][0]["suite"] == "wei"
    assert all(check["passed"] for check in data["suites"][0]["checks"])


def test_verify_grid_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "reduction",
                           "--q", "2,3", "--m-max", "1", "--d-max", "4")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("suite, flag, value", [
    ("wei", "--l", "0"),
    ("wei", "--l", "-1"),
    ("expander", "--m-max", "0"),
    ("specialization", "--d-max", "0"),
])
def test_verify_grid_flag_below_one_exit_2(capsys, suite, flag, value):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", suite, flag, value])
    assert info.value.code == 2
    assert f"{flag}: must be >= 1, got {value}" in capsys.readouterr().err


def test_verify_wei_stops_at_cube_top(capsys):
    # d = 3 lies above the level-2 cube top 2 at q = 2; q = 3 still reaches it
    code, out, _ = run_cli(capsys, "verify", "--suite", "wei", "--q", "2,3",
                           "--m-max", "1", "--d-max", "3", "--l", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_subset_walk_refused_over_budget(capsys):
    # the degree-2 slice of the level-3 cube over F_3 has 10 members: 2^10
    # subsets times 2 * 27 cube targets exceed the budget before any is walked
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "wei", "--q", "3", "--l", "3",
                             "--d-max", "3", "--budget", "1000")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "wei subset walk: estimated cost 55296 exceeds budget 1000" in err


def test_verify_subset_walks_priced_before_any_walk(capsys, monkeypatch):
    # the degree <= 3 pool (17 members) is refused before the cheaper
    # degree <= 2 pools of the same suite are walked
    calls = []
    footprint = verify.monomials.hypercube_footprint
    monkeypatch.setattr(verify.monomials, "hypercube_footprint",
                        lambda *a, **k: calls.append(a) or footprint(*a, **k))
    code, out, err = run_cli(capsys, "verify", "--suite", "wei", "--q", "3", "--l", "3",
                             "--d-max", "3", "--budget", "1000000")
    assert code == 2
    assert out == ""
    assert "wei subset walk: estimated cost 7077888 exceeds budget 1000000" in err
    assert calls == []


@pytest.mark.parametrize("suite", ["footprint-decomposition", "specialization", "expander",
                                   "clements-lindstrom", "wei", "affinecomb"])
def test_verify_subset_walks_charge_the_budget(capsys, suite):
    code, _, err = run_cli(capsys, "verify", "--suite", suite, "--budget", "1")
    assert code == 2
    assert f"refused: {suite} subset walk" in err


def test_verify_reduction_charges_the_budget(capsys):
    # the default grid's cubes price at 18382 evaluations, refused before any is built
    code, out, err = run_cli(capsys, "verify", "--suite", "reduction", "--budget", "1")
    assert code == 2
    assert out == ""
    assert "refused: reduction cube evaluation: estimated cost 18382 exceeds budget 1" in err
    code, out, _ = run_cli(capsys, "verify", "--suite", "reduction", "--budget", "18382")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_codes_charges_the_budget(capsys, monkeypatch):
    # the default grid's 36 generators price at 43944 evaluations, refused before any is built
    built = []
    build_prm = verify.codes.build_prm
    monkeypatch.setattr(verify.codes, "build_prm",
                        lambda *a, **k: built.append(a) or build_prm(*a, **k))
    code, out, err = run_cli(capsys, "verify", "--suite", "codes", "--budget", "1")
    assert code == 2
    assert out == ""
    assert "refused: codes generator evaluation: estimated cost 43944 exceeds budget 1" in err
    assert built == []
    code, out, _ = run_cli(capsys, "verify", "--suite", "codes", "--budget", "43944")
    assert code == 0 and json.loads(out)["passed"] is True
    assert built  # the spy does see the suite's generators


def test_verify_macaulay_charges_the_budget(capsys, monkeypatch):
    # the default grid's rank loops price at 8935, refused before any formula is evaluated
    calls = []
    for name in ("affine_max_points", "affine_max_points_macaulay", "conjectured_max_points",
                 "conjectured_max_points_macaulay", "macaulay_tuple"):
        fn = getattr(verify.formulas, name)
        monkeypatch.setattr(verify.formulas, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    code, out, err = run_cli(capsys, "verify", "--suite", "macaulay", "--budget", "1")
    assert code == 2
    assert out == ""
    assert "refused: macaulay rank evaluation: estimated cost 8935 exceeds budget 1" in err
    assert calls == []
    code, out, _ = run_cli(capsys, "verify", "--suite", "macaulay", "--budget", "8935")
    assert code == 0 and json.loads(out)["passed"] is True
    assert calls  # the spies do see the suite's formulas


def assert_unknown_suite_exits_2(capsys, suites):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", suites])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "'nonsense'" in err and "macaulay" in err


def test_verify_unknown_suite_exits_2(capsys):
    assert_unknown_suite_exits_2(capsys, "nonsense")


def test_verify_unknown_suite_in_list_exits_2(capsys):
    assert_unknown_suite_exits_2(capsys, "wei,nonsense")


def test_verify_suite_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "wei,macaulay")
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == ["wei", "macaulay"]


def test_verify_repeated_field_size_runs_once(capsys):
    """--q drops repeats, keeping the first mention, as --suite does."""
    code, once, _ = run_cli(capsys, "verify", "--suite", "macaulay", "--q", "3")
    assert code == 0
    code, twice, _ = run_cli(capsys, "verify", "--suite", "macaulay", "--q", "3,3")
    assert code == 0
    assert _without(twice, "elapsed", "stats") == _without(once, "elapsed", "stats")


_SEARCH_ARGV = ["search", "er", "--q", "3", "--d", "2", "--m", "1", "--r", "1", "--budget", "1000"]
_TABLES_ARGV = ["tables", "--q", "3", "--d", "2", "--m", "1"]


@pytest.mark.parametrize("argv, flag", [
    pytest.param(_SEARCH_ARGV, "--budget", id="--budget"),
    pytest.param(_SEARCH_ARGV, "--d", id="--d"),
    pytest.param(_SEARCH_ARGV, "--r", id="--r"),
    pytest.param(_TABLES_ARGV, "--d", id="tables--d"),
    pytest.param(_TABLES_ARGV, "--m", id="tables--m"),
])
def test_non_integer_flag_exit_2(capsys, argv, flag):
    argv = list(argv)
    argv[argv.index(flag) + 1] = "x"
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be an integer, got 'x'" in err
    assert "_positive_int" not in err and "_nonnegative_int" not in err


@pytest.mark.parametrize("command", [
    ["search", "er", "--q", "3", "--d", "2", "--m", "2", "--r", "1"],
    ["verify", "--suite", "wei"],
])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exit_2(capsys, command, workers):
    with pytest.raises(SystemExit) as info:
        cli.main(command + ["--workers", workers])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["tables", "--d", "2", "--m", "1"],
    ["search", "footprint", "--d", "2", "--m", "1", "--r", "1"],
    ["verify", "--suite", "wei"],
])
@pytest.mark.parametrize("q, message", [
    ("6", "6 is not a prime power"),
    ("128", "q = 128 exceeds the cap of 64"),
])
def test_field_size_rejected(capsys, command, q, message):
    with pytest.raises(SystemExit) as info:
        cli.main(command + ["--q", q])
    assert info.value.code == 2
    assert f"argument --q: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("q, message", [
    ("1", "1 is not a prime power"),
    ("1,x", "1 is not a prime power"),
    ("3,x", "field size 'x' is not an integer"),
    ("2,9,12", "12 is not a prime power"),
])
def test_verify_field_size_list_rejected(capsys, q, message):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "wei", "--q", q])
    assert info.value.code == 2
    assert f"argument --q: {message}" in capsys.readouterr().err


def test_verify_pretty_and_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "affinecomb",
                           "--format", "pretty")
    assert code == 0
    assert "[PASS] affinecomb" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "affinecomb",
                           "--format", "csv")
    assert code == 0
    assert out.startswith("suite,check,passed,cases")


def test_verify_pretty_prints_the_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(verify.formulas, "affine_max_points_macaulay", lambda *args: -1)
    code, out, _ = run_cli(capsys, "verify", "--suite", "macaulay", "--q", "3",
                           "--m-max", "1", "--format", "pretty")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("    FAIL affine maximum agrees with its Macaulay form (7)")
    assert lines[at + 1] == "         counterexample: {'q': 3, 'm': 1, 'd': 1, 'r': 0}"
    assert lines[0] == "[FAIL] macaulay (479 cases)"
    assert lines[-1] == "FAILURES present"


def test_verify_worker_determinism(capsys, tmp_path):
    a, b = tmp_path / "v1.json", tmp_path / "v2.json"
    for workers, path in (("1", a), ("2", b)):
        assert run_cli(capsys, "verify", "--suite", "sandwich,codes,duality",
                       "--workers", workers, "--output", str(path))[0] == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    for data in (da, db):
        data.pop("elapsed")
        assert list(data.pop("stats")["suite_s"]) == ["sandwich", "codes", "duality"]
    assert json.dumps(da) == json.dumps(db)


def test_output_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "tables", "--q", "4", "--d", "2", "--m", "1",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert len(data["rows"]) == fo.binom(3, 2)


def test_output_unwritable_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "tables", "--q", "3", "--d", "2", "--m", "2",
                             "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot write {target}:")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_proven_mismatch_exits_1(capsys, monkeypatch):
    # force a wrong settled value to confirm the failure path is wired
    monkeypatch.setattr(cli.formulas, "known_max_points", lambda *a, **k: 999)
    code, out, _ = run_cli(capsys, "search", "er", "--q", "3", "--d", "1",
                           "--m", "1", "--r", "1")
    assert code == 1
    assert json.loads(out)["matches_formula"] is False
