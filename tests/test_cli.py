"""End-to-end tests of the command-line surface and its exit codes."""

import json
import os
import subprocess
import sys

import pytest

import sumbins
from sumbins import __version__, cli
from sumbins.core import (
    Pair,
    ProblemInstance,
    Subset,
    instance_to_json,
    load_instance,
    verify,
)
from sumbins.dpbins import ResourceLimitError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_instance(path, instance):
    path.write_text(instance_to_json(instance))
    return str(path)


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    code, out = run(capsys, "--version")
    assert code == 0
    assert f"sumbins {__version__}" in out


def test_missing_command_is_usage_error(capsys):
    assert cli.main([]) == 3
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["curve", "--kind", "rep_quantum", "--bogus"]) == 3
    capsys.readouterr()


def test_module_entry_point():
    # the child imports the same sumbins as this process, installed or not
    src = os.path.dirname(os.path.dirname(sumbins.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sumbins", "curve", "--kind", "rep_classical",
         "--step", "0.25"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "l,gamma"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

VARIANT_SIZES = {
    "subset_sum": 10,
    "equal_sums": 10,
    "shifted_sums": 10,
    "two_subset_sum": 8,
    "modular_subset_sum": 10,
    "pigeonhole_equal": 10,
    "pigeonhole_modular": 10,
}


@pytest.mark.parametrize("variant", sorted(VARIANT_SIZES))
def test_gen_then_solve_round_trip(tmp_path, capsys, variant):
    path = str(tmp_path / f"{variant}.json")
    code, _ = run(capsys, "gen", "--variant", variant, "--n",
                  str(VARIANT_SIZES[variant]), "--seed", "1", "--out", path)
    assert code == 0
    instance = load_instance(path)  # parses and validates
    assert instance.variant == variant
    assert instance.meta["seed"] == "1"
    assert instance.meta["version"] == __version__
    code, _ = run(capsys, "solve", path, "--seed", "2", "--budget-repeats", "2")
    if variant.startswith("pigeonhole"):
        assert code == 0  # totality: always found
    else:
        assert code in (0, 1, 2)


def test_gen_planted_equal_sums_sidecar_verifies(tmp_path, capsys):
    path = str(tmp_path / "planted.json")
    code, _ = run(capsys, "gen", "--variant", "equal_sums", "--n", "16",
                  "--bits", "20", "--plant-ratio", "0.5", "--seed", "9",
                  "--out", path)
    assert code == 0
    instance = load_instance(path)
    sidecar = json.loads((tmp_path / "planted.json.witness.json").read_text())
    assert sidecar["variant"] == "equal_sums"
    assert sidecar["seed"] == 9
    w = sidecar["witness"]
    assert w["kind"] == "pair"
    pair = Pair(Subset.of(w["s1"]), Subset.of(w["s2"]))
    assert verify(instance, pair)
    # full round trip: the planted instance is solvable via rep
    code, _ = run(capsys, "solve", path, "--algo", "rep", "--seed", "5")
    assert code == 0


def test_gen_planted_subset_sum_sidecar_verifies(tmp_path, capsys):
    path = str(tmp_path / "planted_ss.json")
    code, _ = run(capsys, "gen", "--variant", "subset_sum", "--n", "12",
                  "--plant-ratio", "0.5", "--seed", "3", "--out", path)
    assert code == 0
    instance = load_instance(path)
    w = json.loads((tmp_path / "planted_ss.json.witness.json").read_text())["witness"]
    assert w["kind"] == "subset"
    assert verify(instance, Subset.of(w["indices"]))


def test_gen_plant_requires_out(capsys):
    code, _ = run(capsys, "gen", "--variant", "subset_sum", "--n", "8",
                  "--plant-ratio", "0.5")
    assert code == 3


def test_gen_pigeonhole_rejects_plant(tmp_path, capsys):
    code, _ = run(capsys, "gen", "--variant", "pigeonhole_equal", "--n", "8",
                  "--plant-ratio", "0.5", "--out", str(tmp_path / "x.json"))
    assert code == 3


def test_gen_pigeonhole_infeasible_n(tmp_path, capsys):
    code, _ = run(capsys, "gen", "--variant", "pigeonhole_equal", "--n", "1",
                  "--out", str(tmp_path / "x.json"))
    assert code == 3


def test_oversized_pigeonhole_instance_rejected(tmp_path, capsys):
    # items summing to >= 2^n - 1 break the pigeonhole guarantee and must
    # not load
    raw = json.dumps({"variant": "pigeonhole_equal", "items": ["7", "7", "7"]})
    path = tmp_path / "bad.json"
    path.write_text(raw)
    with pytest.raises(ValueError):
        load_instance(str(path))
    code, _ = run(capsys, "solve", str(path))
    assert code == 3


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_exit_found_and_payload(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "gen", "--variant", "subset_sum", "--n", "12",
        "--plant-ratio", "0.5", "--seed", "3", "--out", path)
    code, out = run(capsys, "solve", path, "--seed", "7", "--format", "json",
                    "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert payload["seed"] == 7
    assert payload["version"] == __version__
    assert payload["witness"]["kind"] == "subset"
    assert isinstance(payload["trace"], dict)
    assert payload["elapsed_ms"] >= 0
    instance = load_instance(path)
    assert verify(instance, Subset.of(payload["witness"]["indices"]))


def test_solve_exit_not_found(tmp_path, capsys):
    inst = ProblemInstance("subset_sum", [2, 4, 8], target=5)
    path = write_instance(tmp_path / "no.json", inst)
    code, _ = run(capsys, "solve", path, "--algo", "brute")
    assert code == 1
    code, _ = run(capsys, "solve", path, "--algo", "rep")
    assert code == 1  # the target bin was fully enumerated


def test_solve_exit_inconclusive(tmp_path, capsys):
    # distinct powers of two admit no equal-sum pair; at n = 34 the
    # exhaustive pass's pair states pass the default memory cap, so the
    # randomized phases can only give up. The time cap merely shortens the
    # search: found is impossible and not-found unreachable, so the verdict
    # is stable.
    inst = ProblemInstance("equal_sums", [1 << i for i in range(34)])
    path = write_instance(tmp_path / "inc.json", inst)
    code, out = run(capsys, "solve", path, "--budget-repeats", "2",
                    "--budget-samples", "64", "--time-cap-ms", "300",
                    "--format", "json")
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"


def test_solve_rep_one_item(tmp_path, capsys):
    # a valid one-item instance is no solver fault (exit 4): no pair differs by 1
    path = write_instance(tmp_path / "one.json", ProblemInstance("shifted_sums", (2,), shift=1))
    code, _ = run(capsys, "solve", path, "--algo", "rep", "--ratio", "0.5")
    assert code == 2


def test_solve_brute_above_cap_is_resource_error(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    run(capsys, "gen", "--variant", "subset_sum", "--n", "25", "--seed", "1",
        "--out", path)
    code, _ = run(capsys, "solve", path, "--algo", "brute")
    assert code == 4


def test_solve_missing_file(capsys):
    code, _ = run(capsys, "solve", "/nonexistent/instance.json")
    assert code == 4


def test_solve_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("this is not json {")
    code, _ = run(capsys, "solve", str(path))
    assert code == 3


def test_solver_fault_is_runtime_failure(tmp_path, capsys, monkeypatch):
    # the instance is valid, so whatever escapes the solver is a program
    # fault (4), never a usage error (3)
    path = write_instance(tmp_path / "i.json", ProblemInstance("subset_sum", (3, 5, 7), target=12))
    for exc in (IndexError, ValueError, KeyError, TypeError):
        def boom(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr(cli, "solve_instance", boom)
        code, _ = run(capsys, "solve", path)
        assert code == 4


def test_solve_bad_ratio_is_usage_error(tmp_path, capsys):
    path = write_instance(tmp_path / "i.json", ProblemInstance("equal_sums", (1, 2, 3)))
    for bad in ("nan", "inf", "0", "1.5"):
        code, _ = run(capsys, "solve", path, "--algo", "rep", "--ratio", bad)
        assert code == 3


def test_solve_has_no_prefilter_flag(tmp_path, capsys):
    path = write_instance(tmp_path / "i.json", ProblemInstance("equal_sums", (1, 2, 3)))
    code, _ = run(capsys, "solve", path, "--no-prefilter")
    assert code == 3


def test_solve_csv_format(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "gen", "--variant", "subset_sum", "--n", "10",
        "--plant-ratio", "0.5", "--seed", "4", "--out", path)
    code, out = run(capsys, "solve", path, "--seed", "7", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# sumbins {__version__} seed=7"
    assert lines[1] == "status,algorithm,elapsed_ms,witness"
    assert lines[2].startswith("found,")


def test_solve_human_format(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "gen", "--variant", "subset_sum", "--n", "10",
        "--plant-ratio", "0.5", "--seed", "4", "--out", path)
    code, out = run(capsys, "solve", path, "--seed", "7")
    assert code == 0
    assert "status: found" in out
    assert "seed: 7" in out
    assert f"version: {__version__}" in out


def test_solve_deterministic_given_seed(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "gen", "--variant", "equal_sums", "--n", "14",
        "--plant-ratio", "0.5", "--seed", "6", "--out", path)
    outs = []
    for _ in range(2):
        code, out = run(capsys, "solve", path, "--seed", "11",
                        "--format", "json")
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["witness"] == outs[1]["witness"]
    assert outs[0]["status"] == outs[1]["status"]
    assert outs[0]["algorithm"] == outs[1]["algorithm"]


def test_solve_out_writes_file(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    run(capsys, "gen", "--variant", "subset_sum", "--n", "10", "--seed", "2",
        "--out", path)
    result = tmp_path / "result.json"
    code, out = run(capsys, "solve", path, "--format", "json", "--out",
                    str(result))
    assert code in (0, 1, 2)
    assert out == ""
    assert "status" in json.loads(result.read_text())


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def _format_choices():
    """{subcommand: the --format choices it accepts}, from the parser."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return {
        name: action.choices
        for name, parser in sub.choices.items()
        for action in parser._actions
        if action.dest == "format"
    }


FORMAT_ARGV = {
    "solve": ["--budget-repeats", "2"],  # the instance path goes first
    "unrank": ["--items", "1,2,3", "--p", "3", "--k", "0", "--index", "2"],
    "stats": ["--check", "split", "--params", '{"n": 9, "ratio": 0.667}', "--trials", "50"],
}


@pytest.mark.parametrize("fmt", ["human", "json", "csv", "xml"])
@pytest.mark.parametrize("command", sorted(_format_choices()))
def test_every_format_carries_seed_and_version(tmp_path, capsys, command, fmt):
    argv = [command, *FORMAT_ARGV[command], "--seed", "13", "--format", fmt]
    if command == "solve":
        argv.insert(1, write_instance(tmp_path / "i.json", ProblemInstance("equal_sums", (1, 2, 3))))
    code, out = run(capsys, *argv)
    if fmt not in _format_choices()[command]:
        assert code == 3
        return
    assert code == 0
    if fmt == "csv":
        assert out.startswith(f"# sumbins {__version__} seed=13\n")
    elif fmt == "json":
        payload = json.loads(out)
        assert (payload["seed"], payload["version"]) == (13, __version__)
    else:
        assert out.splitlines()[-2:] == ["seed: 13", f"version: {__version__}"]


# ---------------------------------------------------------------------------
# unrank
# ---------------------------------------------------------------------------


def test_unrank_worked_example(capsys):
    code, out = run(capsys, "unrank", "--items", "1,2,3", "--p", "3",
                    "--k", "0", "--index", "2")
    assert code == 0
    assert "bin 0 (mod 3) holds 4 subsets" in out
    assert "2: {1, 2}" in out


def test_unrank_json_and_count(capsys):
    code, out = run(capsys, "unrank", "--items", "1,2,3", "--p", "3",
                    "--k", "0", "--index", "2", "--count", "3",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bin_size"] == 4
    assert payload["subsets"] == [[1, 2], [3], [1, 2, 3]]


def test_unrank_csv(capsys):
    code, out = run(capsys, "unrank", "--items", "1,2,3", "--p", "3",
                    "--k", "0", "--index", "2", "--format", "csv",
                    "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# sumbins {__version__} seed=5"
    assert lines[1] == "index,indices"
    assert lines[2] == "2,1 2"


def test_unrank_index_window(capsys):
    code, _ = run(capsys, "unrank", "--items", "1,2,3", "--p", "3",
                  "--k", "0", "--index", "5")
    assert code == 3
    code, _ = run(capsys, "unrank", "--items", "1,2,3", "--p", "3",
                  "--k", "3", "--index", "1")
    assert code == 3


def test_unrank_items_xor_instance(tmp_path, capsys):
    code, _ = run(capsys, "unrank", "--p", "3", "--k", "0", "--index", "1")
    assert code == 3
    path = str(tmp_path / "inst.json")
    run(capsys, "gen", "--variant", "subset_sum", "--n", "6", "--seed", "2",
        "--out", path)
    code, _ = run(capsys, "unrank", "--items", "1,2", "--instance", path,
                  "--p", "3", "--k", "0", "--index", "1")
    assert code == 3
    code, out = run(capsys, "unrank", "--instance", path, "--p", "5",
                    "--k", "0", "--index", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["subsets"][0] == []


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, _ = run(capsys, "bench", "--sizes", "8,10", "--algos", "mitm,rep",
                  "--reps", "2", "--seed", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == f"# sumbins {__version__} seed=3"
    assert lines[1] == "n,algo,median_ms,found_rate,log2_slope"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    assert [r[:2] for r in rows] == [
        ["8", "mitm"], ["10", "mitm"], ["8", "rep"], ["10", "rep"]
    ]
    for r in rows:
        assert len(r) == 5
        assert float(r[2]) >= 0.0
        assert 0.0 <= float(r[3]) <= 1.0
    # the slope column starts empty for each algo block
    assert rows[0][4] == "" and rows[2][4] == ""
    assert rows[1][4] != "" and rows[3][4] != ""


def test_bench_single_rep_flagged(tmp_path, capsys):
    out_path = tmp_path / "bench1.csv"
    code, _ = run(capsys, "bench", "--sizes", "8", "--algos", "mitm",
                  "--reps", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1].startswith("# warning: reps=1")
    assert lines[2] == "n,algo,median_ms,found_rate,log2_slope"


def test_bench_resource_limit_rows_marked(tmp_path, capsys, monkeypatch):
    def explode(variant, algo, n, rep, seed):
        raise ResourceLimitError("table too large")

    monkeypatch.setattr(cli, "_bench_one", explode)
    out_path = tmp_path / "bench_rl.csv"
    code, _ = run(capsys, "bench", "--sizes", "8,10", "--algos", "mitm",
                  "--reps", "2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[2] == "8,mitm,,,resource-limit"
    assert lines[3] == "10,mitm,,,resource-limit"


def test_bench_pigeonhole_variant(tmp_path, capsys):
    out_path = tmp_path / "bench_ph.csv"
    code, _ = run(capsys, "bench", "--variant", "pigeonhole_equal",
                  "--sizes", "8:10", "--reps", "2", "--out", str(out_path))
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[2:]]
    assert [r[0] for r in rows] == ["8", "9", "10"]
    assert all(r[1] == "pigeonhole" for r in rows)
    assert all(r[3] == "1.000" for r in rows)  # totality


def test_bench_usage_errors(capsys):
    assert cli.main(["bench", "--sizes", "8:4"]) == 3
    capsys.readouterr()
    assert cli.main(["bench", "--sizes", "8", "--reps", "0"]) == 3
    capsys.readouterr()
    assert cli.main(["bench", "--sizes", "8", "--algos", "qaoa"]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def test_curve_full_grid(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _ = run(capsys, "curve", "--kind", "shifted_quantum", "--seed", "2",
                  "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == f"# sumbins {__version__} seed=2"
    assert lines[1] == "l,gamma"
    rows = [(float(a), float(b)) for a, b in
            (line.split(",") for line in lines[2:])]
    assert len(rows) == 999
    peak_l, peak_g = max(rows, key=lambda r: r[1])
    assert abs(peak_l - 0.809) < 5e-3
    assert abs(peak_g - 0.504) < 1e-3


def test_curve_unknown_kind(capsys):
    assert cli.main(["curve", "--kind", "nope"]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_suite_json(capsys):
    code, out = run(capsys, "stats", "--trials", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["reports"]) == 8
    assert payload["seed"] == 0
    assert payload["version"] == __version__


def test_stats_suite_human(capsys):
    code, out = run(capsys, "stats", "--trials", "100")
    assert code == 0
    assert out.count("PASS") == 8
    assert "all_passed: True" in out


def test_stats_single_check_birthday(capsys):
    code, out = run(capsys, "stats", "--check", "birthday", "--params",
                    '{"n_left": 100, "n_right": 1000, "pairs": 10, "draws": 30}',
                    "--trials", "240", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["name"] == "birthday_sim"
    assert payload["report"]["passed"] is True


def test_stats_single_check_split_human(capsys):
    code, out = run(capsys, "stats", "--check", "split", "--params",
                    '{"n": 9, "ratio": 0.667}', "--trials", "300")
    assert code == 0
    assert out.startswith("PASS split_check")


def test_stats_check_params_errors(capsys):
    # missing required parameter -> usage error
    assert cli.main(["stats", "--check", "birthday", "--params", "{}"]) == 3
    capsys.readouterr()
    # malformed JSON -> usage error
    assert cli.main(["stats", "--check", "split", "--params", "{nope"]) == 3
    capsys.readouterr()
    assert cli.main(["stats", "--check", "split", "--params", '["list"]']) == 3
    capsys.readouterr()
