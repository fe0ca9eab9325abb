"""Release acceptance suite: seven end-to-end gates, one test function each.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per gate.
Every gate fixes its own random seeds, checks against an independent
brute-force oracle where one exists, and asserts its own wall-clock budget,
so a green run certifies both correctness and affordability on one desktop
core. The budgets are deliberately generous; typical runtimes are far lower.
"""

from __future__ import annotations

import csv
import random
import time
from math import log2

import pytest

from sumbins.core import (
    Pair,
    ProblemInstance,
    Subset,
    reduce_two_subset_to_shifted,
    verify,
)
from sumbins.dpbins import build_table, enumerate_bin
from sumbins.oracles import (
    brute_bin_masks,
    brute_solve,
    pigeonhole_mitm_check,
)
from sumbins.pigeonhole import solve_pigeonhole_equal, solve_pigeonhole_modular
from sumbins.rng import derive_seed
from sumbins.solvers import (
    SolverBudget,
    SolveStatus,
    solve_instance,
    solve_modular_subset_sum_mitm,
    solve_shifted_exhaustive,
    solve_subset_sum_mitm,
    solve_subset_sum_rep,
)
from sumbins import cli, costmodel
from sumbins.statslab import run_default_suite

_DEFINITIVE = (SolveStatus.FOUND, SolveStatus.NOT_FOUND)


def _elapsed_under(t0: float, budget_s: float) -> float:
    elapsed = time.monotonic() - t0
    assert elapsed < budget_s, f"budget exceeded: {elapsed:.1f}s >= {budget_s}s"
    return elapsed


def _ls_slope(points: list[tuple[float, float]]) -> float:
    xbar = sum(x for x, _ in points) / len(points)
    ybar = sum(y for _, y in points) / len(points)
    num = sum((x - xbar) * (y - ybar) for x, y in points)
    den = sum((x - xbar) ** 2 for x, _ in points)
    return num / den


def _random_items(rng: random.Random, n: int, hi: int) -> list[int]:
    return [rng.randint(1, hi) for _ in range(n)]


def _planted_mask_sum(rng: random.Random, items: list[int]) -> int:
    mask = rng.getrandbits(len(items))
    return sum(a for i, a in enumerate(items) if mask >> i & 1)


# ---------------------------------------------------------------------------
# Gate 1: indexed bin access agrees with brute enumeration
# ---------------------------------------------------------------------------


def test_acceptance_1_unranking_matches_brute_bins():
    """500 random (items, p) configurations, n <= 16, p <= 64, every bin.

    For each bin the full unranked sequence must equal the brute-force
    enumeration exactly, element by element, in order.
    """
    t0 = time.monotonic()
    rng = random.Random(0xACC1)
    configs = 0
    bins_checked = 0
    subsets_checked = 0
    while configs < 500:
        n = rng.randint(1, 16)
        p = rng.randint(1, 64)
        bits = rng.choice((4, max(2, n), 2 * n))
        items = _random_items(rng, n, 1 << bits)
        table = build_table(items, p)
        for k in range(p):
            got = [s.mask() for s in enumerate_bin(table, k)]
            want = [int(m) for m in brute_bin_masks(items, p, k)]
            assert got == want, f"bin mismatch: items={items} p={p} k={k}"
            bins_checked += 1
            subsets_checked += len(want)
        configs += 1
    elapsed = _elapsed_under(t0, 120.0)
    print(
        f"\ngate 1: {configs} configs, {bins_checked} bins, "
        f"{subsets_checked} subsets, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Gate 2: solvers agree with brute force on every variant
# ---------------------------------------------------------------------------


def _gen_instance(rng: random.Random, variant: str) -> ProblemInstance:
    n = rng.randint(1, 14)
    items = _random_items(rng, n, 1 << (2 * n))
    total = sum(items)
    plant = rng.random() < 0.5
    if variant == "subset_sum":
        target = _planted_mask_sum(rng, items) if plant else rng.randint(0, total)
        return ProblemInstance(variant, tuple(items), target=target)
    if variant == "modular_subset_sum":
        q = rng.randint(1, 1 << n)
        target = _planted_mask_sum(rng, items) % q if plant else rng.randrange(q)
        return ProblemInstance(variant, tuple(items), target=target, modulus=q)
    if variant == "equal_sums":
        if plant and n >= 2:
            # Duplicate one item so {i} and {j} collide.
            j = rng.randrange(n - 1)
            items[n - 1] = items[j]
        return ProblemInstance(variant, tuple(items))
    if variant == "shifted_sums":
        if plant:
            mask_a = rng.getrandbits(n)
            mask_b = rng.getrandbits(n) & ~mask_a
            va = sum(a for i, a in enumerate(items) if mask_a >> i & 1)
            vb = sum(a for i, a in enumerate(items) if mask_b >> i & 1)
            shift = abs(va - vb)
            if shift >= total:
                shift = rng.randrange(total)
        else:
            shift = rng.randrange(total)
        return ProblemInstance(variant, tuple(items), shift=shift)
    if variant == "two_subset_sum":
        target = 0
        if plant:
            target = sum(a * rng.randint(0, 2) for a in items)
        if not 0 < target < 2 * total:
            target = rng.randint(1, 2 * total - 1)
        return ProblemInstance(variant, tuple(items), target=target)
    raise AssertionError(variant)


def _baseline_outcomes(inst: ProblemInstance, seed: int):
    """Per-variant baseline solvers, independent of the dispatcher's routing."""
    budget = SolverBudget(repeat_cap=2)
    if inst.variant == "subset_sum":
        return [
            solve_subset_sum_mitm(inst.items, inst.target),
            solve_subset_sum_rep(inst.items, inst.target, seed, budget),
        ]
    if inst.variant == "modular_subset_sum":
        return [solve_modular_subset_sum_mitm(inst.items, inst.target, inst.modulus)]
    if inst.variant == "equal_sums":
        return [solve_shifted_exhaustive(inst.items, 0)]
    if inst.variant == "shifted_sums":
        return [solve_shifted_exhaustive(inst.items, inst.shift)]
    if inst.variant == "two_subset_sum":
        # The reduction composed with the complete pair search, bypassing the
        # phased driver entirely.
        red = reduce_two_subset_to_shifted(inst.items, inst.target)
        if red.all_ones:
            out = solve_shifted_exhaustive(inst.items, 0)
            lifted = red.lift(Pair(Subset.of(()), Subset.of(())))
            return [(SolveStatus.FOUND, lifted)]
        out = solve_shifted_exhaustive(inst.items, red.shifted.shift)
        witness = red.lift(out.witness) if out.found else None
        return [(out.status, witness)]
    raise AssertionError(inst.variant)


def test_acceptance_2_solver_oracle_equivalence():
    """1000 random instances per variant, n <= 14, items <= 2^(2n).

    The dispatcher and the per-variant baseline solvers must agree with the
    brute-force oracle on solvability, with every returned witness verifying.
    """
    t0 = time.monotonic()
    variants = (
        "subset_sum",
        "modular_subset_sum",
        "equal_sums",
        "shifted_sums",
        "two_subset_sum",
    )
    solvable_counts = {v: 0 for v in variants}
    for variant in variants:
        rng = random.Random(derive_seed(0xACC2, "gen", variant))
        for trial in range(1000):
            inst = _gen_instance(rng, variant)
            truth = brute_solve(inst)
            seed = derive_seed(0xACC2, "solve", variant, trial)
            out = solve_instance(inst, seed=seed, budget=SolverBudget(repeat_cap=2))
            assert out.status in _DEFINITIVE, f"{variant} #{trial}: {out.status}"
            assert out.found == truth.solvable, (
                f"{variant} #{trial}: dispatcher {out.status.value}, "
                f"oracle solvable={truth.solvable}, inst={inst}"
            )
            if out.found:
                assert verify(inst, out.witness), f"{variant} #{trial}: bad witness"
            for base in _baseline_outcomes(inst, seed):
                if isinstance(base, tuple):
                    status, witness = base
                else:
                    status, witness = base.status, base.witness
                assert status in _DEFINITIVE
                assert (status == SolveStatus.FOUND) == truth.solvable, (
                    f"{variant} #{trial}: baseline {status.value}, "
                    f"oracle solvable={truth.solvable}, inst={inst}"
                )
                if witness is not None:
                    assert verify(inst, witness), f"{variant} #{trial}: bad baseline witness"
            solvable_counts[variant] += int(truth.solvable)
    elapsed = _elapsed_under(t0, 600.0)
    rates = ", ".join(f"{v}={c / 1000:.2f}" for v, c in solvable_counts.items())
    print(f"\ngate 2: 5000 instances, solvable rates {rates}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Gate 3: pigeonhole solvers are total on their promise domains
# ---------------------------------------------------------------------------


def _check_equal_pair(items: list[int], pair: Pair) -> None:
    inst = ProblemInstance("pigeonhole_equal", tuple(items))
    assert verify(inst, pair), f"invalid equal-sums pair for {items}"


def _check_modular_pair(items: list[int], q: int, pair: Pair) -> None:
    inst = ProblemInstance("pigeonhole_modular", tuple(items), modulus=q)
    assert verify(inst, pair), f"invalid mod-{q} pair for {items}"


def _equal_boundary_sets(n: int) -> list[list[int]]:
    """Valid input families hugging the sum < 2^n - 1 promise boundary."""
    sets = [[1] * n, [(2**n - 2 - (n - 1))] + [1] * (n - 1)]
    x = (2**n - 2) // n
    if x >= 1:
        sets.append([x] * n)
    stair = list(range(1, n + 1))
    if sum(stair) < 2**n - 1:
        sets.append(stair)
    return sets


def _random_equal_items(rng: random.Random, n: int) -> list[int]:
    """Random composition of a valid total into n positive parts."""
    total = rng.randint(n, 2**n - 2)
    cuts = sorted(rng.sample(range(1, total), n - 1)) if n > 1 else []
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return parts


def test_acceptance_3_pigeonhole_totality():
    """Dense small-n sweeps plus 500 random valid instances with n <= 20.

    Both guaranteed-collision solvers must always return a verified pair;
    the modular solver is cross-checked against the meet-in-the-middle
    collision finder on the same inputs.
    """
    t0 = time.monotonic()
    rng = random.Random(0xACC3)
    equal_solved = 0
    mod_solved = 0

    # Dense equal-sums sweep: boundary families plus random compositions.
    for n in range(2, 13):
        for items in _equal_boundary_sets(n):
            _check_equal_pair(items, solve_pigeonhole_equal(items).witness)
            equal_solved += 1
        for _ in range(40):
            items = _random_equal_items(rng, n)
            _check_equal_pair(items, solve_pigeonhole_equal(items).witness)
            equal_solved += 1

    # Dense modular sweep: every modulus at small n, boundary plus sampled
    # moduli after that. Moduli straddle the small-q/dichotomy routing split.
    for n in range(2, 13):
        if n <= 8:
            qs = list(range(1, 2**n))
        else:
            qs = [1, 2, 3, 2**n - 1, 2 ** ((n + 1) // 2), 8 * n + 4, 8 * n + 5]
            qs += [rng.randint(1, 2**n - 1) for _ in range(25)]
            qs = sorted({q for q in qs if 1 <= q <= 2**n - 1})
        items_pool = [
            _random_items(rng, n, 1 << (2 * n)),
            [1] * n,
        ]
        for q in qs:
            items = items_pool[q % len(items_pool)]
            pair = solve_pigeonhole_modular(items, q).witness
            _check_modular_pair(items, q, pair)
            _check_modular_pair(items, q, pigeonhole_mitm_check(items, q))
            mod_solved += 1

    # 500 random valid instances up to n = 20, split across the two solvers.
    for _ in range(250):
        n = rng.randint(2, 20)
        items = _random_equal_items(rng, n)
        _check_equal_pair(items, solve_pigeonhole_equal(items).witness)
        equal_solved += 1
    for _ in range(250):
        n = rng.randint(2, 20)
        items = _random_items(rng, n, 1 << (2 * n))
        q = rng.randint(1, 2**n - 1)
        pair = solve_pigeonhole_modular(items, q).witness
        _check_modular_pair(items, q, pair)
        _check_modular_pair(items, q, pigeonhole_mitm_check(items, q))
        mod_solved += 1

    elapsed = _elapsed_under(t0, 600.0)
    print(f"\ngate 3: {equal_solved} equal + {mod_solved} modular instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Gate 4: cost-model landmarks
# ---------------------------------------------------------------------------


def test_acceptance_4_cost_model_landmarks():
    """Worst-case exponents and crossover ratios at their pinned tolerances."""
    t0 = time.monotonic()
    cx = costmodel.crossovers()

    ell_q, gamma_q = costmodel.worst_case_quantum_shifted()
    assert abs(gamma_q - 0.504) <= 1e-3, gamma_q
    assert abs(ell_q - 0.809) <= 5e-3, ell_q
    assert abs(cx["quantum_l1"] - 0.190) <= 1e-3, cx["quantum_l1"]
    assert abs(cx["quantum_l2"] - 0.809) <= 1e-3, cx["quantum_l2"]

    ell_c, gamma_c = costmodel.worst_case_classical_shifted()
    assert abs(gamma_c - 0.773) <= 1e-3, gamma_c
    assert abs(cx["classical_l1"] - 0.227) <= 1e-3, cx["classical_l1"]
    assert abs(cx["classical_l2"] - 0.773) <= 1e-3, cx["classical_l2"]
    assert abs(ell_c - cx["classical_l2"]) <= 1e-9, (ell_c, cx)

    assert abs(cx["equal_min_l1"] - 0.273) <= 1e-3, cx["equal_min_l1"]
    assert abs(cx["equal_min_l2"] - 0.809) <= 1e-3, cx["equal_min_l2"]

    elapsed = _elapsed_under(t0, 10.0)
    print(f"\ngate 4: 9 landmarks pinned, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Gate 5: measured runtime slopes at desk scale
# ---------------------------------------------------------------------------


def _bench_medians(tmp_path, variant: str, name: str) -> dict[str, list[tuple[int, float]]]:
    out = tmp_path / name
    code = cli.main(
        ["bench", "--variant", variant, "--sizes", "24:36:2", "--reps", "5",
         "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    series: dict[str, list[tuple[int, float]]] = {}
    with open(out, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in rows:
            assert row["median_ms"], f"resource limit hit in {row}"
            series.setdefault(row["algo"], []).append(
                (int(row["n"]), float(row["median_ms"]))
            )
    return series


def test_acceptance_5_bench_scaling_slopes(tmp_path):
    """Median-time slopes for n in 24..36 sit in the 2^(n/2) window.

    Both complete-search solvers and the guaranteed-collision solver must
    show log2(median ms) growing at 0.5 +- 0.1 per unit of n. The headline
    asymptotic exponents live in gate 4's calculator landmarks; wall-clock
    curves at desk sizes can only witness the square-root-of-search-space
    shape, which is what this gate pins.
    """
    t0 = time.monotonic()
    series = _bench_medians(tmp_path, "subset_sum", "bench_subset.csv")
    series.update(_bench_medians(tmp_path, "pigeonhole_equal", "bench_pigeon.csv"))
    assert set(series) == {"mitm", "rep", "pigeonhole"}
    slopes = {}
    for algo, pts in series.items():
        assert len(pts) == 7, pts
        slopes[algo] = _ls_slope([(n, log2(ms)) for n, ms in pts])
    for algo, slope in slopes.items():
        assert 0.4 <= slope <= 0.6, f"{algo}: slope {slope:.3f} outside 0.5 +- 0.1"
    elapsed = _elapsed_under(t0, 1800.0)
    detail = ", ".join(f"{a}={s:.3f}" for a, s in sorted(slopes.items()))
    print(f"\ngate 5: slopes {detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Gate 6: statistics lab
# ---------------------------------------------------------------------------


def test_acceptance_6_statistics_suite():
    """The default battery passes every check with >= 200 trials per check.

    The bound check is an exhaustive grid rather than a Monte-Carlo run, so
    its trials field counts grid points; every sampled check must report at
    least 200 trials. All instance sizes in the battery are n <= 16.
    """
    t0 = time.monotonic()
    reports = run_default_suite(seed=0, trials=240)
    assert len(reports) == 8
    names = [r.name for r in reports]
    for r in reports:
        assert r.passed, f"{r.name}: estimate={r.estimate} bound={r.bound}"
        if r.name != "binomial_bounds_check":
            assert r.trials >= 200, f"{r.name}: only {r.trials} trials"
    # Six distinct check kinds are all present in the battery.
    kinds = {n.rsplit("_check", 1)[0].rsplit("_sim", 1)[0] for n in names}
    assert len(kinds) >= 6, names
    elapsed = _elapsed_under(t0, 900.0)
    print(f"\ngate 6: {len(reports)} reports all passed, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Gate 7: coefficient-vector solving through the pair reduction
# ---------------------------------------------------------------------------


def test_acceptance_7_two_subset_roundtrip():
    """500 random coefficient-target instances, n <= 12, exact round trip.

    Each instance runs through the reduction-and-dispatch path; solvability
    must match the brute-force scan of {0,1,2}^n, and every returned
    coefficient vector must hit the target exactly.
    """
    t0 = time.monotonic()
    rng = random.Random(0xACC7)
    found = 0
    for trial in range(500):
        n = rng.randint(1, 12)
        items = _random_items(rng, n, 1 << (2 * n))
        total = sum(items)
        target = 0
        if rng.random() < 0.5:
            target = sum(a * rng.randint(0, 2) for a in items)
        if not 0 < target < 2 * total:
            target = rng.randint(1, 2 * total - 1)
        inst = ProblemInstance("two_subset_sum", tuple(items), target=target)
        truth = brute_solve(inst)
        out = solve_instance(inst, seed=derive_seed(0xACC7, trial))
        assert out.status in _DEFINITIVE, f"#{trial}: {out.status}"
        assert out.found == truth.solvable, f"#{trial}: {inst}"
        if out.found:
            e = out.witness
            assert len(e) == n
            assert all(c in (0, 1, 2) for c in e), e
            assert sum(a * c for a, c in zip(items, e)) == target
            found += 1
    elapsed = _elapsed_under(t0, 300.0)
    print(f"\ngate 7: 500 instances, {found} solvable, {elapsed:.1f}s")
