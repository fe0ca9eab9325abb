#!/usr/bin/env python3
"""Closed-loop solve benchmark for sumbins.

    python3 bench/run.py --workload dispatch --seed 1 --seconds 50 --trace 0

One client in one process and one thread: each call of
``sumbins.solvers.solve_instance`` (the function behind ``sumbins solve``)
starts after the previous one returns. The seed decides the pool of
instances (workloads.py), and every answer is checked against a ground
truth that does not come from the solver under test (truth.py).

``--trace 0`` solves whole rounds of the pool until at least ``--seconds``
have passed, every pool instance has been solved and at least MIN_SOLVES
solves are timed, then reports the end-to-end metrics. ``--trace 1``
solves the whole pool once untraced, then its first ``trace_rounds`` rounds
again with a span around every layer call (tracing.py), and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
``record {...}``, holds everything else: seed, instance mix, machine,
verdict digest and failures. The record, and the spans of a traced run, are
also written to bench/out/. Exit code 2 means no result could be produced.

The benchmark's own tests: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("dispatch", "pigeonhole_subset")

END_TO_END = (
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("solves_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (percentile, d): the top 1/d of the samples lies beyond the percentile.
TAIL_LADDER = ((50, 2), (75, 4), (90, 10), (95, 20), (99, 100), (99.9, 1000))
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it
MIN_SOLVES = 100  # the smallest run whose tail percentile reaches p90
SETUP_REPEATS = 3  # setup_s is the median over this many fresh processes
CLI_CASES = 4  # pool instances that also go through cli.main


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def tail_percentile(samples: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    best = None
    for pct, d in TAIL_LADDER:
        if samples >= TAIL_BEYOND * d:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """The ladder percentile ``pct`` of ``values`` (statistics.quantiles cut)."""
    d = dict(TAIL_LADDER)[pct]
    return statistics.quantiles(values, n=d)[d - 2]


def load_program():
    """Import sumbins from this checkout's src/, never from anywhere else."""
    init = SRC / "sumbins" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no sumbins package at {init}")
    sys.path.insert(0, str(SRC))
    import sumbins

    if Path(sumbins.__file__).resolve() != init.resolve():
        raise BenchError(f"imported sumbins from {sumbins.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    workload: object
    cases: list
    truths: list
    seconds: float
    failures: list


def solve_case(solve, case) -> tuple[str | None, object, str | None]:
    """(status, witness, error) of one solve."""
    try:
        out = solve(case.instance, seed=case.solver_seed, algo=case.algo)
    except Exception as exc:  # a solver fault is a failed solve, not a crash
        return None, None, f"{type(exc).__name__}: {exc}"
    return out.status.value, out.witness, None


def setup(workload_name: str, seed: int) -> Setup:
    """Import, generate the pool, settle its ground truth, and warm up.

    The warm-up solves the first pool case of each (variant, algo) once.
    """
    t0 = time.perf_counter()
    load_program()
    import truth
    import workloads
    from sumbins import solvers

    workload = workloads.WORKLOADS[workload_name]
    cases = workloads.make_cases(workload, seed)
    known = {}
    for case in cases:
        if case.instance_key not in known:
            known[case.instance_key] = truth.ground_truth(case)
    truths = [known[c.instance_key] for c in cases]
    first = {}
    for i, case in enumerate(cases):
        first.setdefault((case.instance.variant, case.algo), i)
    failures = []
    for i in first.values():
        reason = truth.check(cases[i], truths[i], *solve_case(solvers.solve_instance, cases[i]))
        if reason:
            failures.append((f"warm-up {cases[i].key}", reason))
    return Setup(workload, cases, truths, time.perf_counter() - t0, failures)


def pool_digest(cases) -> str:
    return hashlib.sha256("\n".join(c.identity() for c in cases).encode()).hexdigest()


def fresh_setup_seconds(workload_name: str, seed: int, digest: str) -> float:
    """Set-up time of the same workload and seed in a new interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up in a fresh process timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up in a fresh process failed: {proc.stderr.strip()[-400:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if doc["pool"] != digest:
        raise BenchError("the same seed generated a different pool in a fresh process")
    return doc["setup_s"]


# ---------------------------------------------------------------------------
# Checking and reporting
# ---------------------------------------------------------------------------


def audit(s: Setup, solved) -> tuple[list, dict]:
    """Failures among ``solved`` (index, status, witness, error) tuples, and
    the first verdict of each pool case.

    Besides :func:`truth.check`, a case whose verdict differs from its
    first solve fails: solves are deterministic for a given seed.
    """
    import truth

    failures, first = [], {}
    for i, status, witness, error in solved:
        case = s.cases[i]
        reason = truth.check(case, s.truths[i], status, witness, error)
        verdict = status if error is None else "error"
        if reason is None and first.get(i, verdict) != verdict:
            reason = f"verdict {verdict} differs from the first solve's {first[i]}"
        first.setdefault(i, verdict)
        if reason:
            failures.append((case.key, reason))
    return failures, first


def verdict_digest(cases, first: dict) -> str:
    """Hash over (instance, verdict) of every pool case, in pool order."""
    h = hashlib.sha256()
    for i, case in enumerate(cases):
        h.update(f"{case.identity()}={first.get(i)}\n".encode())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def machine() -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "sumbins").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def benchmark_whys() -> dict:
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {w["name"]: w["why"] for w in doc.get("workloads", [])}


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def run_end_to_end(s: Setup, seconds: float) -> tuple[dict, list, dict]:
    from sumbins import solvers

    solve = solvers.solve_instance
    cases, per_round = s.cases, s.workload.round_size()
    times, solved = [], []
    start = time.perf_counter()
    while True:
        for _ in range(per_round):
            i = len(solved) % len(cases)
            t0 = time.perf_counter()
            result = solve_case(solve, cases[i])
            times.append(time.perf_counter() - t0)
            solved.append((i, *result))
        if (len(solved) >= max(len(cases), MIN_SOLVES)
                and time.perf_counter() - start >= seconds):
            break
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail = tail_percentile(len(times))
    by_class: dict[str, list[float]] = {}
    for (i, *_), t in zip(solved, times):
        by_class.setdefault(cases[i].cls.name, []).append(t)
    metrics = {
        "solve_ms_p50": statistics.median(times) * 1000.0,
        "solve_ms_p90": percentile(times, 90) * 1000.0,
        "solves_per_s": len(times) / wall,
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "solves": len(times),
        "wall_s": wall,
        "tail": {"percentile": tail, "ms": percentile(times, tail) * 1000.0, "samples": len(times)},
        "class_ms_p50": {name: statistics.median(ts) * 1000.0 for name, ts in by_class.items()},
    }
    return metrics, solved, extra


def cli_overhead_ms(rec, s: Setup, failures: list) -> float | None:
    """Median time of ``sumbins solve --format json --trace`` in process,
    minus its solve_instance child span, over the first CLI_CASES cases."""
    import tracing
    from sumbins import cli
    from sumbins.core import instance_to_json

    OUT.mkdir(exist_ok=True)
    n = len(s.cases)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for k, case in enumerate(s.cases[:CLI_CASES]):
            path = Path(tmp) / f"case{k}.json"
            path.write_text(instance_to_json(case.instance))
            argv = ["solve", str(path), "--format", "json", "--trace",
                    "--algo", case.algo, "--seed", str(case.solver_seed)]
            rec.solve_id = n + k
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(argv)
            try:
                status = json.loads(buf.getvalue())["status"]
            except (ValueError, KeyError):
                status = None
            if status != s.truths[k].status:
                failures.append((f"cli {case.key}", f"sumbins solve printed status {status!r}"))
    spans = rec.spans()
    if tracing.CLI not in spans.names:
        return None
    duration = spans.end - spans.start
    cli_id, root_id = spans.names.index(tracing.CLI), spans.names.index(tracing.ROOT)
    overheads = []
    for idx in map(int, (spans.name == cli_id).nonzero()[0]):
        child = (spans.parent == idx) & (spans.name == root_id)
        overheads.append(float(duration[idx] - duration[child].sum()))
    return statistics.median(overheads) * 1000.0 if overheads else None


def run_traced(s: Setup, workload_name: str) -> tuple[dict, list, dict, list]:
    import numpy as np
    import tracing
    import truth
    from sumbins import cli, oracles, solvers  # noqa: F401  (cli must be loaded before wrapping)

    cases = s.cases
    traced = s.workload.trace_rounds * s.workload.round_size()
    start = time.perf_counter()
    solved = [(i, *solve_case(solvers.solve_instance, c)) for i, c in enumerate(cases[:traced])]
    untraced_wall = time.perf_counter() - start
    solved += [(i, *solve_case(solvers.solve_instance, cases[i])) for i in range(traced, len(cases))]

    failures = []
    rec = tracing.Recorder()
    with rec.installed():
        solve = solvers.solve_instance
        start = time.perf_counter()
        for i, case in enumerate(cases[:traced]):
            rec.solve_id = i
            solved.append((i, *solve_case(solve, case)))
        traced_wall = time.perf_counter() - start
        cli_ms = cli_overhead_ms(rec, s, failures) if tracing.CLI not in rec.missing else None

    oracle_s = []
    for case in cases[:traced]:
        if case.instance.variant == "pigeonhole_modular":
            t0 = time.perf_counter()
            pair = oracles.pigeonhole_mitm_check(case.instance.items, case.instance.modulus)
            oracle_s.append(time.perf_counter() - t0)
            if not truth.verify(case.instance, pair):
                failures.append((case.key, "pigeonhole_mitm_check pair fails core.verify"))

    spans = rec.spans()
    OUT.mkdir(exist_ok=True)
    spans.save(OUT / f"spans-{workload_name}.npz")
    pool = spans.subset(spans.solve < len(cases))
    metrics = tracing.layer_metrics(pool, rec.missing)
    metrics["oracles.pigeonhole_mitm_check.ms_p50"] = statistics.median(oracle_s) * 1000.0 if oracle_s else 0.0
    if cli_ms is not None:
        metrics["cli.solve_overhead_ms"] = cli_ms
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0

    # Self times partition the root spans: they must add up to them.
    own = tracing.self_times(pool)
    roots = pool.parent == -1
    root_total = float((pool.end - pool.start)[roots].sum())
    self_sum_frac = float(own.sum()) / root_total
    if abs(self_sum_frac - 1.0) > 1e-6 or not np.all(pool.name[roots] == pool.names.index(tracing.ROOT)):
        failures.append(("trace", f"self times sum to {self_sum_frac:.9f} of the root spans"))
    found = sum(1 for _i, status, _w, _e in solved[len(cases):] if status == truth.FOUND)
    if "core.verify.calls" in metrics and metrics["core.verify.calls"] < found:
        failures.append(("trace", f"core.verify ran {metrics['core.verify.calls']} times for {found} FOUND"))
    extra = {
        "solves": len(solved),
        "traced_solves": traced,
        "spans": len(spans),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "self_sum_frac": self_sum_frac,
    }
    return metrics, solved, extra, failures


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def expected_metrics(trace: int) -> list[tuple[str, str]]:
    if not trace:
        return list(END_TO_END)
    import tracing

    return [(m, unit) for m, unit, *_ in tracing.LAYER_METRICS] + [
        ("oracles.pigeonhole_mitm_check.ms_p50", "ms"),
        ("cli.solve_overhead_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)

    try:
        s = setup(args.workload, args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": s.seconds, "pool": pool_digest(s.cases)}))
            return 0
        if args.trace:
            metrics, solved, extra, failures = run_traced(s, args.workload)
        else:
            metrics, solved, extra = run_end_to_end(s, args.seconds)
            failures = []
            samples = [s.seconds] + [
                fresh_setup_seconds(args.workload, args.seed, pool_digest(s.cases))
                for _ in range(SETUP_REPEATS - 1)
            ]
            metrics["setup_s"] = statistics.median(samples)
            extra["setup_s_samples"] = samples
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checked, first = audit(s, solved)
    failures = s.failures + checked + failures
    for key, reason in failures:
        print(f"FAIL {key}: {reason}", file=sys.stderr)
    units = dict(expected_metrics(args.trace))
    missing = [name for name in units if name not in metrics]
    record = {
        "workload": args.workload,
        "why": benchmark_whys().get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mix": [c.describe() for c in s.workload.classes],
        "pool_rounds": s.workload.rounds,
        "pool_size": len(s.cases),
        "pool_digest": pool_digest(s.cases),
        "machine": machine(),
        "verdict_digest": verdict_digest(s.cases, first),
        "verdicts": {v: sum(1 for x in first.values() if x == v) for v in sorted(set(first.values()), key=str)},
        "failed_frac": len(checked) / len(solved),
        "failures": [{"case": k, "reason": r} for k, r in failures],
        "missing_metrics": missing,
        **extra,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": not failures,
        "attempted": len(solved),
        "failed": len(checked),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
