"""Tests of the benchmark's own parts. Run with: python3 -m pytest bench/tests"""

import json
import random
import re
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import tracing
import truth
import workloads
from sumbins import cli, dpbins, oracles, solvers  # noqa: F401  (cli.main is a traced layer)
from sumbins.core import Pair, ProblemInstance, Subset
from sumbins.solvers import SolveOutcome, SolveStatus


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_times_of_nested_spans():
    rec = tracing.Recorder(clock=_ticking_clock())
    inner = rec.wrap("inner", lambda: None)

    def middle():
        inner()
        inner()

    middle = rec.wrap("middle", middle)

    def outer():
        middle()
        inner()

    rec.wrap("outer", outer)()
    spans = rec.spans()
    # outer [0, 9] holds middle [1, 6] (inner [2, 3], inner [4, 5]) and inner [7, 8]
    assert [spans.names[i] for i in spans.name] == ["outer", "middle", "inner", "inner", "inner"]
    assert spans.parent.tolist() == [-1, 0, 1, 1, 0]
    assert tracing.self_times(spans).tolist() == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert tracing.self_times(spans).sum() == spans.end[0] - spans.start[0]


def test_subset_renumbers_parents():
    rec = tracing.Recorder(clock=_ticking_clock())
    leaf = rec.wrap("leaf", lambda: None)
    root = rec.wrap("root", lambda: leaf())
    for solve_id in (0, 1):
        rec.solve_id = solve_id
        root()
    spans = rec.spans()
    second = spans.subset(spans.solve == 1)
    assert second.parent.tolist() == [-1, 0]
    assert tracing.self_times(second).tolist() == [2.0, 1.0]


def test_layer_metrics_sum_self_time_and_work_per_layer():
    rec = tracing.Recorder(clock=_ticking_clock())
    table = rec.wrap("dpbins.build_table", lambda: None)
    table_work = rec.wrap("dpbins.build_table", lambda: None)
    root = rec.wrap(tracing.ROOT, lambda: (table(), table_work()))
    root()
    spans = rec.spans()
    spans.work[:] = [0.0, 6.0, 4.0]
    got = tracing.layer_metrics(spans)
    assert got["dpbins.build_table.calls"] == 2
    assert got["dpbins.build_table.self_ms"] == 2000.0
    assert got["dpbins.build_table.cells"] == 10.0
    assert got["dpbins.build_table.cells_per_s"] == 5.0
    assert got["solvers.solve_instance.self_ms"] == 3000.0
    assert got["pigeonhole.count_b.calls"] == 0


def test_missing_layer_is_reported_not_raised():
    gone = tracing.Layer("dpbins.gone", "sumbins.dpbins", "_no_such_primitive")
    method_gone = tracing.Layer("pigeonhole.gone", "sumbins.pigeonhole", "_ModularContext.no_such")
    keep = tracing.Layer("dpbins.build_table", "sumbins.dpbins", "build_table")
    rec = tracing.Recorder()
    original = dpbins.build_table
    with rec.installed((gone, method_gone, keep)):
        assert solvers.build_table is dpbins.build_table is not original
        solvers.build_table((1, 2, 3), 5)
    assert rec.missing == ["dpbins.gone", "pigeonhole.gone"]
    assert solvers.build_table is original and dpbins.build_table is original
    metrics = tracing.layer_metrics(rec.spans(), missing=("dpbins.build_table",))
    assert not any(name.startswith("dpbins.build_table") for name in metrics)


def test_traced_solve_nests_layers_under_the_root():
    rec = tracing.Recorder()
    instance = ProblemInstance("equal_sums", (3, 5, 8, 13, 21, 7))
    with rec.installed():
        out = solvers.solve_instance(instance, seed=1)
    assert out.found
    spans = rec.spans()
    assert not rec.missing
    assert spans.names[spans.name[0]] == tracing.ROOT and spans.parent[0] == -1
    assert (spans.parent[1:] >= 0).all()
    names = {spans.names[i] for i in spans.name}
    assert {"solvers.dispatch", "core.verify", "costmodel"} <= names
    assert tracing.self_times(spans).sum() == pytest.approx(spans.end[0] - spans.start[0])


@pytest.mark.parametrize(
    "samples, pct",
    [(19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
     (200, 95), (999, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, pct):
    assert run.tail_percentile(samples) == pct


def test_min_solves_is_the_smallest_run_with_a_p90():
    assert run.tail_percentile(run.MIN_SOLVES) == 90
    assert run.tail_percentile(run.MIN_SOLVES - 1) < 90
    rng = random.Random(4)
    values = [rng.random() for _ in range(run.MIN_SOLVES)]
    assert run.percentile(values, 90) == statistics.quantiles(values, n=10)[8]
    assert run.percentile(values, 50) == statistics.median(values)


def _tiny_setup():
    tiny = workloads.Workload(
        "tiny",
        (
            workloads.InstanceClass("equal", "equal_sums", 8, 24, workloads.PLANTED, 0.5),
            workloads.InstanceClass("subset", "subset_sum", 8, 16, workloads.PLANTED, 0.5),
        ),
        rounds=1,
        trace_rounds=1,
    )
    cases = workloads.make_cases(tiny, 3)
    return run.Setup(tiny, cases, [truth.ground_truth(c) for c in cases], 0.0, [])


def _audit_with(s, solve):
    return run.audit(s, [(i, *run.solve_case(solve, c)) for i, c in enumerate(s.cases)])[0]


def test_check_counts_a_stubbed_solvers_wrong_answers():
    s = _tiny_setup()
    assert _audit_with(s, solvers.solve_instance) == []

    def wrong_not_found(instance, seed, algo):
        return SolveOutcome(SolveStatus.NOT_FOUND, None, seed, 0.0)

    assert _audit_with(s, wrong_not_found) == [
        ("equal#0", "not_found, but the planted ground truth is found"),
        ("subset#0", "not_found, but the planted ground truth is found"),
    ]

    def bad_witness(instance, seed, algo):
        witness = Pair(Subset.of([1]), Subset.of([2])) if instance.variant == "equal_sums" else Subset.of([])
        return SolveOutcome(SolveStatus.FOUND, witness, seed, 0.0)

    assert _audit_with(s, bad_witness) == [
        ("equal#0", "witness fails core.verify"),
        ("subset#0", "witness fails core.verify"),
    ]

    def inconclusive(instance, seed, algo):
        return SolveOutcome(SolveStatus.INCONCLUSIVE, None, seed, 0.0)

    assert {r for _k, r in _audit_with(s, inconclusive)} == {"inconclusive"}

    def raises(instance, seed, algo):
        raise RuntimeError("boom")

    assert {r for _k, r in _audit_with(s, raises)} == {"raised RuntimeError: boom"}


def test_audit_fails_a_verdict_that_changes_between_solves():
    s = _tiny_setup()
    solved = [(0, *run.solve_case(solvers.solve_instance, s.cases[0]))]
    solved.append((0, "not_found", None, None))
    failures, first = run.audit(s, solved)
    assert first == {0: "found"}
    assert [k for k, _r in failures] == ["equal#0"]


def test_own_mitm_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 11)
        items = [rng.randrange(1, 1 << rng.choice((4, 70))) for _ in range(n)]
        target = rng.randrange(0, sum(items) + 1)
        brute = oracles.brute_solve(ProblemInstance("subset_sum", items, target=target))
        mask = truth.mitm_subset_sum(items, target)
        assert (mask is not None) == brute.solvable
        if mask is not None:
            assert sum(a for i, a in enumerate(items) if mask >> i & 1) == target
        q = rng.randrange(2, 1 << 8)
        r = rng.randrange(q)
        brute = oracles.brute_solve(ProblemInstance("modular_subset_sum", items, target=r, modulus=q))
        mask = truth.mitm_subset_sum(items, r, q)
        assert (mask is not None) == brute.solvable
        if mask is not None:
            assert sum(a for i, a in enumerate(items) if mask >> i & 1) % q == r


def test_pools_are_deterministic_and_mixed_as_declared():
    for w in workloads.WORKLOADS.values():
        a = [c.identity() for c in workloads.make_cases(w, 5)]
        assert a == [c.identity() for c in workloads.make_cases(w, 5)]
        assert a != [c.identity() for c in workloads.make_cases(w, 6)]
        cases = workloads.make_cases(w, 5)
        assert len(cases) == w.rounds * w.round_size()
        for cls in w.classes:
            assert sum(c.cls is cls for c in cases) == w.rounds * cls.weight


def test_modular_pigeonhole_instances_skip_the_direct_table():
    for c in workloads.make_cases(workloads.WORKLOADS["pigeonhole_subset"], 2):
        inst = c.instance
        if inst.variant == "pigeonhole_modular":
            assert 1 << (inst.n - 1) <= inst.modulus < 1 << inst.n
            assert inst.modulus >> ((inst.n + 1) // 2) > 8 * inst.n + 4


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.expected_metrics(1)
    better = {m: b for m, _u, b, *_ in tracing.LAYER_METRICS}
    for m in doc["per_layer"]:
        assert m["better"] == better.get(m["name"], "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dispatch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
