"""Solver verdicts, witnesses, budgets, and the dispatcher contract."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumbins.solvers as solvers
from sumbins.core import Pair, ProblemInstance, Subset, subset_sum, verify
from sumbins.dpbins import ResourceLimitError
from sumbins.oracles import brute_solve
from sumbins.solvers import (
    SolverBudget,
    SolveStatus,
    solve_equal_sums,
    solve_instance,
    solve_modular_subset_sum_mitm,
    solve_shifted,
    solve_shifted_exhaustive,
    solve_shifted_mitm,
    solve_shifted_rep,
    solve_subset_sum_mitm,
    solve_subset_sum_rep,
    solve_two_subset_sum,
)


def S(*indices):
    return Subset.of(indices)


class TestBudget:
    def test_sample_cap_default(self):
        b = SolverBudget()
        assert b.resolved_sample_cap(8) == 16
        assert b.resolved_sample_cap(9) == 23  # ceil(2^4.5)
        assert b.resolved_sample_cap(10) == 32

    def test_repeat_cap_default(self):
        assert SolverBudget().resolved_repeat_cap(10) == 40
        assert SolverBudget(repeat_cap=2).resolved_repeat_cap(10) == 2


class TestSubsetSumMitm:
    def test_found(self):
        out = solve_subset_sum_mitm((3, 5, 7), 12)
        assert out.status is SolveStatus.FOUND
        assert out.witness == S(2, 3)

    def test_zero_target_empty_set(self):
        out = solve_subset_sum_mitm((3, 5, 7), 0)
        assert out.found and out.witness == S()

    def test_not_found(self):
        out = solve_subset_sum_mitm((2, 4), 5)
        assert out.status is SolveStatus.NOT_FOUND

    def test_verdicts_match_brute(self):
        rng = random.Random(1)
        for _ in range(80):
            n = rng.randrange(1, 12)
            items = [rng.randrange(1, 1 << 10) for _ in range(n)]
            m = rng.randrange(0, sum(items) + 1)
            inst = ProblemInstance("subset_sum", items, target=m)
            want = brute_solve(inst).solvable
            out = solve_subset_sum_mitm(items, m)
            assert out.found == want
            if want:
                assert verify(inst, out.witness)


class TestSubsetSumRep:
    def test_full_set_target(self):
        out = solve_subset_sum_rep((3, 5, 7), 15, seed=0)
        assert out.found and out.witness == S(1, 2, 3)

    def test_found(self):
        out = solve_subset_sum_rep((3, 5, 7), 12, seed=0)
        assert out.found and out.witness == S(2, 3)

    def test_not_found_is_definitive(self):
        # the target bin holds every solution, so a full enumeration of it
        # with no hit is a proof of absence
        out = solve_subset_sum_rep((2, 4, 8), 5, seed=0)
        assert out.status is SolveStatus.NOT_FOUND

    def test_agrees_with_mitm(self):
        rng = random.Random(2)
        for trial in range(60):
            n = rng.randrange(1, 13)
            items = [rng.randrange(1, 1 << (2 * n)) for _ in range(n)]
            m = rng.choice(
                [rng.randrange(0, sum(items) + 1), sum(rng.sample(items, max(1, n // 2)))]
            )
            a = solve_subset_sum_mitm(items, m)
            b = solve_subset_sum_rep(items, m, seed=trial)
            assert a.found == b.found
            if b.found:
                assert subset_sum(items, b.witness) == m

    def test_deterministic_per_seed(self):
        items = (31, 47, 55, 81, 93, 102, 217, 344)
        a = solve_subset_sum_rep(items, 283, seed=5)
        b = solve_subset_sum_rep(items, 283, seed=5)
        assert a.status == b.status and a.witness == b.witness

    def test_more_than_64_items(self):
        items = tuple(range(1, 71))
        inst = ProblemInstance("subset_sum", items, target=1000)
        out = solve_instance(inst, algo="rep")
        assert out.found and verify(inst, out.witness)
        # 2484 needs every item but the first: sampling misses, and a prime
        # table of 2^35 bins is out of reach, so the cap ends the search
        inst = ProblemInstance("subset_sum", items, target=2484)
        out = solve_instance(inst, algo="rep", budget=SolverBudget(time_cap_ms=200.0))
        assert out.status is SolveStatus.INCONCLUSIVE

    def test_trace_records_prime_draws(self):
        # unsolvable, so sampling misses and at least one prime is drawn
        out = solve_subset_sum_rep((2, 4, 8), 5, seed=1)
        assert out.trace["algorithm"] == "subset-sum-rep"
        assert out.trace["draws"]
        d = out.trace["draws"][0]
        assert "p" in d and "k" in d


class TestModularMitm:
    def test_matches_brute(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randrange(1, 12)
            items = [rng.randrange(1, 1 << 12) for _ in range(n)]
            q = rng.randrange(2, 1 << 10)
            target = rng.randrange(q)
            inst = ProblemInstance(
                "modular_subset_sum", items, target=target, modulus=q
            )
            out = solve_modular_subset_sum_mitm(items, target, q)
            assert out.found == brute_solve(inst).solvable
            if out.found:
                assert verify(inst, out.witness)


class TestShiftedMitm:
    def test_equal_sums_hand_case(self):
        out = solve_shifted_mitm((1, 2, 3), 0, ratio=1.0, seed=0)
        assert out.found
        assert {out.witness.s1, out.witness.s2} == {S(3), S(1, 2)}

    def test_miss_is_inconclusive_without_exhaustive(self):
        # no solution at all, single random split cannot prove absence
        out = solve_shifted_mitm((1, 2, 4, 8), 0, ratio=0.5, seed=0)
        assert out.status is SolveStatus.INCONCLUSIVE

    def test_exhaustive_flag_gives_not_found(self):
        out = solve_shifted_mitm((1, 2, 4, 8), 0, ratio=0.5, seed=0, exhaustive=True)
        assert out.status is SolveStatus.NOT_FOUND

    def test_finds_planted_ratio(self):
        # items with a planted solution of known total size
        items = (5, 6, 7, 8, 9, 11, 12, 13)
        # {5,6,7} vs {9,  9}? use brute force to pick the true ratio
        res = brute_solve(
            ProblemInstance("equal_sums", items), with_ratios=True
        )
        assert res.solvable
        t = len(res.max_pair.s1) + len(res.max_pair.s2)
        out = solve_shifted_mitm(items, 0, ratio=t / len(items), seed=4)
        assert out.found
        assert verify(ProblemInstance("equal_sums", items), out.witness)


class TestShiftedRep:
    def test_found_small(self):
        inst = ProblemInstance("shifted_sums", (1, 2, 4), shift=1)
        out = solve_shifted_rep((1, 2, 4), 1, ratio=2 / 3, seed=0)
        assert out.found
        assert verify(inst, out.witness)

    def test_never_claims_not_found(self):
        out = solve_shifted_rep((1, 2, 4, 8), 0, ratio=0.5, seed=0)
        assert out.status is SolveStatus.INCONCLUSIVE

    def test_distinctness_respected_at_zero_shift(self):
        # every returned pair must have S1 != S2 even though s = 0
        items = (4, 9, 13, 17, 21, 30)
        out = solve_shifted_rep(items, 0, ratio=0.5, seed=8)
        if out.found:
            assert out.witness.s1 != out.witness.s2

    def test_heavy_ratio_uses_small_bins(self):
        # ratio above 1/2 switches the residue domain to about 2^(n-t)
        items = (3, 141, 77, 2, 75, 6, 72, 142)
        out = solve_shifted_rep(items, 0, ratio=0.75, seed=3)
        assert out.trace["prime_bits"] == 2  # n - t = 8 - 6
        light = solve_shifted_rep(items, 0, ratio=0.25, seed=3)
        assert light.trace["prime_bits"] == 4  # ceil(n / 2)


class TestShiftedExhaustive:
    def test_complete_not_found(self):
        out = solve_shifted_exhaustive((1, 2, 4, 8), 0)
        assert out.status is SolveStatus.NOT_FOUND

    def test_finds_perfect_partition(self):
        out = solve_shifted_exhaustive((2, 3, 5), 0)
        assert out.found
        assert {out.witness.s1, out.witness.s2} == {S(3), S(1, 2)}

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            solve_shifted_exhaustive(tuple(range(1, 26)), 0)


class TestShiftedDispatcher:
    def test_found_simple(self):
        out = solve_shifted((1, 2, 3), 0, seed=0)
        assert out.found

    def test_powers_of_two_not_found(self):
        out = solve_shifted((1, 2, 4, 8, 16), 0, seed=0)
        assert out.status is SolveStatus.NOT_FOUND

    def test_verdicts_match_brute(self):
        rng = random.Random(6)
        budget = SolverBudget(repeat_cap=2)
        for trial in range(50):
            n = rng.randrange(2, 11)
            items = [rng.randrange(1, 1 << n) for _ in range(n)]
            s = rng.choice([0, rng.randrange(0, sum(items))])
            inst = (
                ProblemInstance("equal_sums", items)
                if s == 0
                else ProblemInstance("shifted_sums", items, shift=s)
            )
            want = brute_solve(inst).solvable
            out = solve_shifted(items, s, seed=trial, budget=budget)
            if want:
                assert out.found
                assert verify(inst, out.witness)
            else:
                assert out.status is SolveStatus.NOT_FOUND

    def test_skips_exhaustive_above_cap(self, monkeypatch):
        monkeypatch.setattr(solvers, "_EXHAUSTIVE_CAP_N", 3)
        out = solve_shifted((1, 2, 4, 8), 0, seed=0, budget=SolverBudget(repeat_cap=1))
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace.get("exhaustive_skipped")

    def test_phase_trace(self):
        out = solve_shifted((1, 2, 4, 8), 0, seed=0, budget=SolverBudget(repeat_cap=1))
        assert out.trace["algorithm"] == "shifted-dispatch"
        assert out.trace["phases"]


class TestEqualSums:
    def test_wrapper(self):
        out = solve_equal_sums((1, 2, 3), seed=0)
        assert out.found
        inst = ProblemInstance("equal_sums", (1, 2, 3))
        assert verify(inst, out.witness)


class TestTwoSubsetSum:
    def test_round_trip_against_brute(self):
        rng = random.Random(8)
        budget = SolverBudget(repeat_cap=2)
        for trial in range(40):
            n = rng.randrange(2, 10)
            items = [rng.randrange(1, 1 << n) for _ in range(n)]
            total = sum(items)
            m = rng.randrange(1, 2 * total)
            inst = ProblemInstance("two_subset_sum", items, target=m)
            want = brute_solve(inst).solvable
            out = solve_two_subset_sum(items, m, seed=trial, budget=budget)
            assert out.found == want, (items, m)
            if want:
                assert verify(inst, out.witness)

    def test_all_ones_shortcut(self):
        out = solve_two_subset_sum((1, 2, 3), 6, seed=0)
        assert out.found and out.witness == (1, 1, 1)


class TestSolveInstance:
    def test_routes_and_verifies_every_variant(self):
        cases = [
            ProblemInstance("subset_sum", (3, 5, 7), target=12),
            ProblemInstance("equal_sums", (1, 2, 3)),
            ProblemInstance("shifted_sums", (1, 2, 4), shift=1),
            ProblemInstance("two_subset_sum", (1, 2, 3), target=8),
            ProblemInstance("pigeonhole_equal", (1, 2, 3)),
            ProblemInstance("pigeonhole_modular", (1, 2, 3), modulus=7),
            ProblemInstance("modular_subset_sum", (4, 9), target=4, modulus=5),
        ]
        for inst in cases:
            out = solve_instance(inst, seed=0)
            assert out.found
            assert verify(inst, out.witness)

    def test_brute_algo(self):
        inst = ProblemInstance("subset_sum", (3, 5, 7), target=12)
        out = solve_instance(inst, algo="brute")
        assert out.found and out.witness == S(2, 3)
        big = ProblemInstance("subset_sum", tuple(range(1, 31)), target=5)
        with pytest.raises(ResourceLimitError):
            solve_instance(big, algo="brute")

    def test_time_cap_inconclusive(self):
        # unsolvable at a size where enumeration cannot finish instantly
        rng = random.Random(10)
        items = tuple(rng.randrange(1 << 30, 1 << 40) for _ in range(28))
        inst = ProblemInstance("equal_sums", items)
        out = solve_instance(inst, seed=0, budget=SolverBudget(time_cap_ms=50.0))
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.elapsed_ms < 5000

    def test_pigeonhole_modular_honours_time_cap(self):
        rng = random.Random(24)
        n = 24
        items = tuple(rng.randrange(1, 1 << 48) for _ in range(n))
        q = rng.randrange((8 * n + 5) << 12, 1 << n)  # dichotomy route
        inst = ProblemInstance("pigeonhole_modular", items, modulus=q)
        t0 = time.perf_counter()
        out = solve_instance(inst, budget=SolverBudget(time_cap_ms=50.0))
        assert time.perf_counter() - t0 < 1.5
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace["timed_out"] is True

    def test_pigeonhole_memory_cap_forwarded(self):
        eq = ProblemInstance("pigeonhole_equal", tuple([1] * 20))
        mod = ProblemInstance("pigeonhole_modular", tuple(range(1, 21)), modulus=(1 << 20) - 1)
        for inst in (eq, mod):
            with pytest.raises(ResourceLimitError):
                solve_instance(inst, budget=SolverBudget(memory_cap_bytes=1024))

    def test_outcome_carries_seed(self):
        inst = ProblemInstance("subset_sum", (3, 5, 7), target=12)
        out = solve_instance(inst, seed=123)
        assert out.seed == 123

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dispatcher_matches_brute(self, data):
        n = data.draw(st.integers(2, 9))
        items = tuple(
            data.draw(st.integers(1, 1 << n)) for _ in range(n)
        )
        variant = data.draw(
            st.sampled_from(["subset_sum", "equal_sums", "shifted_sums"])
        )
        if variant == "subset_sum":
            inst = ProblemInstance(
                "subset_sum", items, target=data.draw(st.integers(0, sum(items)))
            )
        elif variant == "equal_sums":
            inst = ProblemInstance("equal_sums", items)
        else:
            inst = ProblemInstance(
                "shifted_sums", items, shift=data.draw(st.integers(0, sum(items) - 1))
            )
        want = brute_solve(inst).solvable
        out = solve_instance(inst, seed=7, budget=SolverBudget(repeat_cap=2))
        assert out.found == want
        if want:
            assert verify(inst, out.witness)
