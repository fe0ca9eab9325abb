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

    def test_memory_cap(self):
        items = tuple(range(1, 21))  # 2^10 eight-byte sums per half
        with pytest.raises(ResourceLimitError):
            solve_subset_sum_mitm(items, 50, SolverBudget(memory_cap_bytes=8 << 10))
        assert solve_subset_sum_mitm(items, 50, SolverBudget(memory_cap_bytes=1 << 20)).found


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

    def test_bad_witness_never_returned(self, monkeypatch):
        # wrong half sums make the join pair up the empty set for target 2
        monkeypatch.setattr(solvers, "_half_sums", lambda items, positions: [1] * (1 << len(positions)))
        with pytest.raises(RuntimeError):
            solve_modular_subset_sum_mitm((3, 5, 7), 2, 10)


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

    def test_refuses_rows_past_machine_words(self):
        # n = 63 table entries reach 2^63; refused before the prefilter runs
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            solve_shifted_rep(tuple(range(1, 64)), 0, ratio=0.6, seed=0)
        assert time.perf_counter() - t0 < 1.0


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


class TestWideItems:
    """Items at and past the 64-bit word: every verdict against brute force.

    The solvers hash sums mod 2^64, so a wrapped match is only a candidate;
    the built instances below hold matches that exist only mod 2^64.
    """

    @pytest.mark.parametrize("bits", [62, 64, 100, 200])
    def test_verdicts_match_brute(self, bits):
        rng = random.Random(bits)
        top = 1 << bits
        for trial in range(6):
            n = rng.randrange(2, 15)
            items = [rng.randrange(top // 2, top) for _ in range(n)]
            planted = sum(rng.sample(items, rng.randrange(0, n + 1)))
            for m in (planted, rng.randrange(0, sum(items) + 1)):
                inst = ProblemInstance("subset_sum", items, target=m)
                want = brute_solve(inst).solvable
                for out in (
                    solve_subset_sum_mitm(items, m),
                    solve_subset_sum_rep(items, m, seed=trial),
                    solve_instance(inst, seed=trial),
                ):
                    assert out.found == want
                    assert out.found or out.status is SolveStatus.NOT_FOUND
                    if want:
                        assert verify(inst, out.witness)
            q = rng.randrange(2, top)
            inst = ProblemInstance("modular_subset_sum", items, target=planted % q, modulus=q)
            out = solve_modular_subset_sum_mitm(items, planted % q, q)
            assert out.found and verify(inst, out.witness)

    @pytest.mark.parametrize("bits", [62, 64, 100, 200])
    def test_shifted_verdicts_match_brute(self, bits):
        rng = random.Random(bits + 1)
        top = 1 << bits
        budget = SolverBudget(repeat_cap=2)
        for trial in range(4):
            n = rng.randrange(3, 11)
            items = [rng.randrange(top // 2, top) for _ in range(n)]
            # plant a disjoint pair (S1, S2) with shift sum(S1) - sum(S2) >= 0
            perm = rng.sample(range(n), n)
            cut = rng.randrange(1, n)
            side1, side2 = perm[:cut], perm[cut:rng.randrange(cut, n + 1)]
            d = sum(items[i] for i in side1) - sum(items[i] for i in side2)
            for s in {abs(d), rng.randrange(0, sum(items))}:
                inst = ProblemInstance("shifted_sums", items, shift=s)
                want = brute_solve(inst).solvable
                out = solve_instance(inst, seed=trial, budget=budget)
                assert out.found == want
                assert out.found or out.status is SolveStatus.NOT_FOUND
                if want:
                    assert verify(inst, out.witness)
                size = len(side1) + len(side2) if s == abs(d) else n // 2
                rep = solve_shifted_rep(items, s, size / n, seed=trial, budget=budget)
                if rep.found:
                    assert want and verify(inst, rep.witness)
                else:
                    assert rep.status is SolveStatus.INCONCLUSIVE

    def test_subset_match_only_mod_word(self):
        # item 1 is 5 mod 2^64, and a multiple of every prime rep draws
        # (5 and 7 at n = 3) away from 5, so the sampler, the target bin
        # and the mitm join all meet it as a candidate for target 5
        for big in (2**64 + 5, 35 * 2**64 + 5):
            items = (big, 3, 7)
            assert not brute_solve(ProblemInstance("subset_sum", items, target=5)).solvable
            assert solve_subset_sum_mitm(items, 5).status is SolveStatus.NOT_FOUND
            for seed in range(20):
                assert solve_subset_sum_rep(items, 5, seed=seed).status is SolveStatus.NOT_FOUND

    def test_shifted_match_only_mod_word(self):
        # sum({1}) - sum({2}) is 7 mod 2^64 but 2^64 + 7 exactly; no pair
        # of these items differs by exactly 7
        items = (2**64 + 8, 1, 2)
        inst = ProblemInstance("shifted_sums", items, shift=7)
        assert not brute_solve(inst).solvable
        assert solve_instance(inst, seed=0).status is SolveStatus.NOT_FOUND
        for seed in range(20):
            out = solve_shifted_rep(items, 7, 2 / 3, seed=seed)
            assert out.status is SolveStatus.INCONCLUSIVE
