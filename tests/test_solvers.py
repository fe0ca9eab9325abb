"""Solver verdicts, witnesses, budgets, and the dispatcher contract."""

import math
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumbins.dpbins as dpbins
import sumbins.pigeonhole as pigeonhole
import sumbins.solvers as solvers
from sumbins.core import Pair, ProblemInstance, Subset, reduce_two_subset_to_shifted, subset_sum, verify
from sumbins.dpbins import ResourceLimitError, build_table, estimate_table_bytes
from sumbins.numtheory import is_probable_prime, random_prime, random_residue
from sumbins.oracles import brute_solve
from sumbins.rng import as_rng, derive_seed
from sumbins.solvers import (
    SolveOutcome,
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

    def test_time_cap_never_not_found(self):
        # even items, odd target: unsolvable, so only the expired cap ends it early
        rng = random.Random(24)
        items = [2 * rng.randrange(1, 1 << 47) for _ in range(24)]
        target = 2 * rng.randrange(1 << 50) + 1
        out = solve_subset_sum_mitm(items, target, SolverBudget(time_cap_ms=0))
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace["timed_out"] is True
        assert solve_subset_sum_mitm(items, target).status is SolveStatus.NOT_FOUND

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_witness_rule(self, data):
        n = data.draw(st.integers(1, 12))
        bits = data.draw(st.sampled_from([8, 62, 64, 200, "word multiples"]))
        if bits == "word multiples":  # every half sum is 0 mod 2^64
            items = tuple(data.draw(st.integers(1, 16)) << 64 for _ in range(n))
        else:
            items = tuple(data.draw(st.integers(1, (1 << bits) - 1)) for _ in range(n))
        chosen = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        planted = sum(a for a, c in zip(items, chosen) if c)
        target = data.draw(st.sampled_from([0, planted, data.draw(st.integers(0, sum(items)))]))

        out = solve_subset_sum_mitm(items, target)
        want, scanned = _ref_subset_mitm(items, target)
        assert out.status is (SolveStatus.FOUND if want is not None else SolveStatus.NOT_FOUND)
        assert (None if out.witness is None else sum(1 << (i - 1) for i in out.witness.indices)) == want
        assert out.trace["scanned"] == scanned


def _ref_subset_mitm(items, target):
    """(witness mask or None, second-half masks scanned) of the mitm rule:
    the first second-half mask in ascending order with an exact partner,
    then the lowest first-half mask."""
    h1 = len(items) - len(items) // 2
    value = [sum(a for i, a in enumerate(items) if mask >> i & 1) for mask in range(1 << len(items))]
    for mask2 in range(1 << (len(items) - h1)):
        for mask1 in range(1 << h1):
            if value[mask1] + value[mask2 << h1] == target:
                return mask1 | mask2 << h1, mask2 + 1
    return None, 1 << (len(items) - h1)


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

    def test_refuses_more_than_62_items_before_sampling(self):
        # The bin walk needs machine-word table rows, so n > 62 is refused
        # on entry; the sampler's default cap alone is 3.0e9 draws at n = 63.
        for n in (63, 70):
            inst = ProblemInstance("subset_sum", tuple(range(1, n + 1)), target=1000)
            t0 = time.perf_counter()
            with pytest.raises(ResourceLimitError):
                solve_subset_sum_rep(inst.items, inst.target)
            with pytest.raises(ResourceLimitError):
                solve_instance(inst, algo="rep")
            assert time.perf_counter() - t0 < 1.0

    @staticmethod
    def _bitwise_sampler(items, target, rng, count):
        """Reference sampler: the same mask words, their sums bit by bit."""
        n = len(items)
        gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
        tried = 0
        while tried < count:
            chunk = min(count - tried, 1 << 16)
            words = gen.integers(0, 1 << n, size=chunk, dtype=np.uint64)
            acc = np.zeros(chunk, dtype=np.uint64)
            for i, a in enumerate(items):
                acc += (words >> np.uint64(i) & np.uint64(1)) * np.uint64(a % (1 << 64))
            for off in np.flatnonzero(acc == np.uint64(target % (1 << 64))).tolist():
                mask = int(words[off])
                if sum(a for i, a in enumerate(items) if mask >> i & 1) == target:
                    return mask, tried + off + 1
            tried += chunk
        return None, tried

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 62])
    def test_byte_table_sampler_matches_bitwise(self, n):
        # a partial last byte, a full one, and the widest mask a solve samples
        rng = random.Random(n)
        items = [rng.randrange(1, 1 << 70) for _ in range(n)]
        count = 70_000  # a full chunk, then a short one
        # the sum of draw 66,537, in the short chunk (an earlier draw may
        # reach it first), and a sum no draw reaches
        gen = np.random.Generator(np.random.PCG64(random.Random(5).getrandbits(64)))
        for size in (1 << 16, count - (1 << 16)):
            words = gen.integers(0, 1 << n, size=size, dtype=np.uint64)
        mask = int(words[1000])
        never = solvers._Deadline(None)
        for target in (sum(a for i, a in enumerate(items) if mask >> i & 1), sum(items) + 1):
            want = self._bitwise_sampler(items, target, random.Random(5), count)
            assert solvers._sample_random_subsets(items, target, random.Random(5), count, never) == want
        assert want == (None, count)

    def test_trace_records_prime_draws(self):
        # unsolvable, so sampling misses and at least one prime is drawn
        out = solve_subset_sum_rep((2, 4, 8), 5, seed=1)
        assert out.trace["algorithm"] == "subset-sum-rep"
        assert out.trace["draws"]
        d = out.trace["draws"][0]
        assert "p" in d and "k" in d

    @staticmethod
    def _n24():
        rng = random.Random(24)
        items = [rng.randrange(1, 1 << 48) for _ in range(24)]
        return items, sum(rng.sample(items, 12))

    def test_draw_records_the_rows_it_builds(self):
        # a bin too small to split builds all n + 1 rows
        d = solve_subset_sum_rep((2, 4, 8), 5, seed=1).trace["draws"][0]
        assert set(d) == {"p", "k", "bin_size", "enumerated", "rows"} and d["rows"] == 4
        # at n = 24 a bin holds about 2^24 / p >= 2048 ranks: the walk's
        # split (m, L) leaves rows L .. n - m to build
        items, target = self._n24()
        for seed in range(4):
            for d in solve_subset_sum_rep(items, target, seed, SolverBudget(sample_cap=0)).trace["draws"]:
                m, L = dpbins._split_levels(24, 1, (1 << 24) // d["p"], d["p"])
                assert d["rows"] == 24 - m - L + 1 == 3

    def test_memory_cap_charges_the_band(self):
        items, target = self._n24()
        want = solve_subset_sum_rep(items, target, 3, SolverBudget(sample_cap=0))
        # the full table of every p in [2^12, 2^13] needs over 800 KB, a band
        # of three rows under 240 KB
        cap = 400_000
        out = solve_subset_sum_rep(items, target, 3, SolverBudget(sample_cap=0, memory_cap_bytes=cap))
        assert out.found and out.witness == want.witness and out.trace["draws"] == want.trace["draws"]
        assert all(estimate_table_bytes(24, d["p"]) > cap for d in out.trace["draws"])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                solve_subset_sum_rep(items, target, 3, SolverBudget(sample_cap=0, memory_cap_bytes=50_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000  # refused before a row or list is allocated


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
        monkeypatch.setattr(solvers, "_half_sums", lambda items, positions, deadline: [1] * (1 << len(positions)))
        with pytest.raises(RuntimeError):
            solve_modular_subset_sum_mitm((3, 5, 7), 2, 10)

    def test_time_cap_stops_the_half_sum_build(self):
        # n=38 builds 2^19 first-half sums; the deadline is checked between doublings
        rng = random.Random(38)
        items = [rng.randrange(1, 1 << 48) for _ in range(38)]
        t0 = time.perf_counter()
        out = solve_modular_subset_sum_mitm(items, 12345, (1 << 47) + 5, SolverBudget(time_cap_ms=1.0))
        assert time.perf_counter() - t0 < 0.02
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["reason"] == "timed_out"


class TestShiftedMitm:
    def test_equal_sums_hand_case(self):
        out = solve_shifted_mitm((1, 2, 3), 0, ratio=1.0, seed=0)
        assert out.found
        assert {out.witness.s1, out.witness.s2} == {S(3), S(1, 2)}

    def test_miss_is_inconclusive_without_exhaustive(self):
        # no solution at all, single random split cannot prove absence
        out = solve_shifted_mitm((1, 2, 4, 8), 0, ratio=0.5, seed=0)
        assert out.status is SolveStatus.INCONCLUSIVE

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

    def test_memory_cap(self):
        # t = 7 of 14: C(7,3) * 2^3 + C(7,4) * 2^4 = 840 pair states per split
        items = tuple(range(1, 15))
        small, large = SolverBudget(memory_cap_bytes=1024), SolverBudget(memory_cap_bytes=1 << 20)
        with pytest.raises(ResourceLimitError):
            solve_shifted_mitm(items, 0, 0.5, budget=small)
        assert solve_shifted_mitm(items, 0, 0.5, budget=large).found

    def test_time_cap(self):
        # no pair at all; t = 14 of 28 has 2 * C(14,7) * 2^7 states per split
        items = tuple(1 << i for i in range(28))
        budget = SolverBudget(time_cap_ms=5.0)
        t0 = time.perf_counter()
        out = solve_shifted_mitm(items, 0, 0.5, budget=budget)
        assert time.perf_counter() - t0 < 2.0
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace["timed_out"] is True

    def test_time_cap_inside_one_split(self):
        # t = 39 of 40: one split holds 11.5 M pair states, about 0.2 s to
        # build and sort, so the cap must stop the state build itself.
        t0 = time.perf_counter()
        out = solve_shifted_mitm(tuple(range(1, 41)), 0, 39 / 40, budget=SolverBudget(time_cap_ms=30.0))
        assert time.perf_counter() - t0 < 3 * 0.030 + 0.050
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["reason"] == "timed_out"


# Pure-Python pair-state generators, the reference for the numpy engine.


def _ref_pairs_of_total_size(items, positions, size):
    """Disjoint (S1, S2) with |S1| + |S2| = size: (mask1, mask2, sum diff)."""
    if size > len(positions):
        return
    for union in combinations(positions, size):
        masks = [0]
        vals = [0]
        for pos in union:
            masks += [m | 1 << pos for m in masks]
            vals += [v + items[pos] for v in vals]
        for m1, v1 in zip(masks, vals):
            yield m1, masks[-1] ^ m1, 2 * v1 - vals[-1]


def _ref_all_disjoint_pairs(items, positions):
    """All 3^len disjoint pairs as (mask1, mask2, sum diff, total size)."""
    entries = [(0, 0, 0, 0)]
    for pos in positions:
        bit = 1 << pos
        a = items[pos]
        entries = [
            e
            for m1, m2, d, sz in entries
            for e in ((m1, m2, d, sz), (m1 | bit, m2, d + a, sz + 1), (m1, m2 | bit, d - a, sz + 1))
        ]
    return entries


def _ref_exhaustive(items, shift):
    """Masks of the pair the dict join over all pair states returns, or None."""
    n = len(items)
    reps = {}
    for m1, m2, d, sz in _ref_all_disjoint_pairs(items, range(n // 2)):
        slot = reps.setdefault(d, [])
        if not slot or (len(slot) == 1 and slot[0] == (0, 0) and sz > 0):
            slot.append((m1, m2))
    for m1, m2, d, _ in _ref_all_disjoint_pairs(items, range(n // 2, n)):
        for g1, g2 in reps.get(shift - d, ()):
            if g1 | m1 != g2 | m2:
                return g1 | m1, g2 | m2
    return None


def _ref_shifted_mitm(items, shift, ratio, seed, repeats):
    """(masks of the pair or None, splits) of the sequential split search."""
    n = len(items)
    t = max(1, min(n, round(ratio * n)))
    rng = as_rng(seed, "shifted-mitm", t)
    for split in range(repeats):
        perm = rng.sample(range(n), n)
        left, right = sorted(perm[: n // 2]), sorted(perm[n // 2 :])
        first = {}
        for m1, m2, d in _ref_pairs_of_total_size(items, left, t // 2):
            first.setdefault(d, (m1, m2))
        for m1, m2, d in _ref_pairs_of_total_size(items, right, t - t // 2):
            got = first.get(shift - d)
            if got is not None:
                return (got[0] | m1, got[1] | m2), split + 1
    return None, repeats


def _masks(out):
    if out.witness is None:
        return None
    return tuple(sum(1 << (i - 1) for i in side.indices) for side in (out.witness.s1, out.witness.s2))


class TestPairStateEngine:
    """The numpy pair-state join against the pure-Python generators."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_same_pairs_as_generators(self, data):
        n = data.draw(st.integers(1, 12))
        bits = data.draw(st.sampled_from([8, 62, 64, 200]))
        items = tuple(data.draw(st.integers(1, (1 << bits) - 1)) for _ in range(n))
        digits = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        planted = abs(sum(a * (g == 1) - a * (g == 2) for a, g in zip(items, digits)))
        total = sum(items)  # a shifted_sums instance takes shifts below it
        shift = data.draw(st.sampled_from([0, planted % total, data.draw(st.integers(0, total - 1))]))
        repeats = data.draw(st.sampled_from([1, 5, 4 * n]))
        seed = data.draw(st.integers(0, 1000))
        inst = ProblemInstance("shifted_sums", items, shift=shift)

        out = solve_shifted_exhaustive(items, shift)
        want = _ref_exhaustive(items, shift)
        assert _masks(out) == want
        assert out.status is (SolveStatus.FOUND if want else SolveStatus.NOT_FOUND)
        outcomes = [out]
        for t in range(1, n + 1):
            out = solve_shifted_mitm(items, shift, t / n, seed, SolverBudget(repeat_cap=repeats))
            want, splits = _ref_shifted_mitm(items, shift, t / n, seed, repeats)
            assert _masks(out) == want
            assert out.status is (SolveStatus.FOUND if want else SolveStatus.INCONCLUSIVE)
            assert out.trace["splits"] == splits
            outcomes.append(out)
        for out in outcomes:
            if out.found:
                assert verify(inst, out.witness)

    def test_unsolvable_shift_zero_pass_sorts_and_decodes_nothing(self, monkeypatch):
        # Every shift-0 pass meets the empty-with-empty pair: right state 0
        # and its twin, left state 0. With distinct subset sums that match is
        # the only one, and it is dropped with no argsort and no decode.
        calls = []
        argsort, decoder = np.argsort, solvers._ternary_decoder
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append("argsort") or argsort(*a, **k))
        monkeypatch.setattr(solvers, "_ternary_decoder", lambda pos: lambda *a: calls.append(a) or decoder(pos)(*a))
        out = solve_shifted_exhaustive(tuple(1 << i for i in range(12)), 0)
        assert out.status is SolveStatus.NOT_FOUND and calls == []

    def test_twin_in_a_larger_group_is_skipped_at_confirmation(self, monkeypatch):
        # Left half (5, 5): the empty state 0 and ({1}, {2}), state 5, both
        # differ by 0, so at shift 0 right state 0 (empty) meets a group that
        # holds its twin and more. The twin is decoded and skipped, and the
        # next left state of the group makes the pair.
        decoded, decoder = [], solvers._ternary_decoder
        monkeypatch.setattr(
            solvers, "_ternary_decoder", lambda pos: lambda *a: decoded.append((pos, a)) or decoder(pos)(*a)
        )
        out = solve_shifted_exhaustive((5, 5, 1, 2), 0)
        assert (out.witness.s1.indices, out.witness.s2.indices) == ((1,), (2,))
        assert ([0, 1], (0,)) in decoded and ([2, 3], (0,)) in decoded


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

    def test_one_item(self):
        # t clamps to 1 > n // 2 = 0: the prime scale keeps one bit, not n - t = 0
        out = solve_shifted_rep((2,), 0, ratio=0.5, seed=0)
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["prime_bits"] == 1
        out = solve_shifted_rep((2,), 2, ratio=0.5, seed=0)
        assert out.found and (out.witness.s1.indices, out.witness.s2.indices) == ((1,), ())

    def test_refuses_rows_past_machine_words(self):
        # n = 63 table entries reach 2^63; refused before any table is built
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            solve_shifted_rep(tuple(range(1, 64)), 0, ratio=0.6, seed=0)
        assert time.perf_counter() - t0 < 1.0


# (items, shift, t, seed, s1, s2): solve_shifted_rep at ratio t/n with
# repeat_cap=4, recorded from the join that stable-sorted bin k2. Repeated item values give equal-sum groups
# of several bin-k2 ranks; a join that walks a group in sort order rather
# than rank order returns a different pair on 13 of these. Every third case
# mixes in 2^64 + x items, whose sums collide mod 2^64.
SHIFTED_REP_GOLDEN = [
    ((7, 1, 5, 8, 7, 5, 8, 6, 4, 3, 5), 0, 10, 0, (1, 2), (4,)),
    ((199879674711312843576, 199879674711312843576, 6, 6, 199879674711312843576), 0, 4, 2, (1,), (2,)),
    ((3, 6, 8, 2, 1, 8, 5, 4), 27, 4, 3, (1, 2, 3, 6, 7), (1,)),
    ((108178, 108178, 318032, 318032, 318032, 318032, 108178, 756251), 527886, 7, 4, (3, 4), (1,)),
    ((8, 5, 1, 1, 3, 8), 0, 4, 6, (2,), (3, 4, 5)),
    ((414003, 993909, 993909, 414003, 993909, 158177, 414003, 993909, 414003, 993909), 2394095, 4, 7, (1, 2, 4, 6, 7), ()),
    ((6, 5, 3, 3, 1, 6, 8, 2, 6, 1, 7, 3), 0, 10, 9, (1, 3, 4), (1, 2, 5)),
    ((1005492197983540430967, 18446744073709551652, 18446744073709551652, 1005492197983540430967, 30, 1005492197983540430967, 1005492197983540430967, 18446744073709551652, 18446744073709551652, 30, 30, 18446744073709551652), 18446744073709551682, 7, 11, (1, 2, 3, 4, 5, 6), (1, 2, 4, 6)),
    ((5, 6, 3, 7, 1, 6, 8, 5, 8, 4, 1, 3), 15, 6, 12, (1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4)),
    ((16, 308708693994440740530, 18446744073709551650, 308708693994440740530, 16, 16), 48, 3, 14, (1, 3, 5, 6), (3,)),
    ((1, 1, 3, 4, 1, 1, 3, 6), 2, 3, 15, (1, 2, 3, 4, 8), (1, 2, 3, 4, 5, 7)),
    ((503821, 492016, 503821, 492016, 503821, 298775, 298775, 503821, 492016, 298775), 802596, 5, 16, (1, 2, 3, 4, 6, 7, 9), (1, 2, 4, 6, 9)),
    ((907112889870583128987, 907112889870583128987, 907112889870583128987, 907112889870583128987, 24, 18446744073709551636, 18446744073709551636, 18446744073709551636, 24, 907112889870583128987, 24), 944006378018002232307, 4, 17, (1, 2, 5, 6, 7, 9, 11), (1, 5)),
    ((2, 8, 6, 4, 4, 8, 8), 0, 2, 18, (2, 3, 4, 6, 7), (2, 3, 5, 6, 7)),
    ((823040, 545749, 823040, 938907, 938907), 1484656, 4, 19, (2, 4), ()),
    ((18446744073709551633, 18446744073709551633, 7, 7, 18446744073709551633, 18446744073709551633, 18446744073709551633), 0, 3, 20, (1, 3), (2, 3)),
    ((7, 7, 5, 8, 4, 8, 3), 16, 2, 21, (1, 3, 5), ()),
    ((24764, 254403, 642869, 254403, 642869, 642869, 24764), 0, 3, 22, (1, 3), (1, 5)),
    ((2, 503720516552559106216, 2, 18446744073709551622, 503720516552559106216, 18446744073709551622, 2, 2, 18446744073709551622), 1025887777178827764050, 1, 23, (1, 2, 3, 4, 5, 6, 9), (1, 3, 4, 6, 7, 8)),
    ((3, 4, 3, 4, 3, 2, 3, 5, 1, 8, 8), 0, 8, 24, (2,), (4,)),
    ((805817, 805817, 971809, 884513, 971809, 805817, 971809, 805817, 971809, 884513, 971809), 6470679, 4, 25, (1, 2, 3, 4, 5, 6, 7, 8, 9, 11), (1, 2, 4)),
    ((18446744073709551630, 28, 18446744073709551630, 65375526274063874076, 65375526274063874076, 65375526274063874076, 65375526274063874076, 18446744073709551630), 233020066969610725516, 7, 26, (1, 2, 3, 4, 5, 6), ()),
    ((5, 5, 4, 2, 2, 5, 6, 5, 6, 7, 3, 4), 4, 1, 27, (1, 2, 3, 6, 7, 8, 9, 10, 11), (1, 2, 3, 4, 5, 6, 7, 9, 10)),
    ((572162, 572162, 778415, 778415, 778415, 572162), 1922739, 2, 28, (1, 2, 3, 4), (3,)),
    ((1, 4, 5, 1, 7, 7, 3, 2, 8), 2, 3, 30, (1, 2, 3, 5, 6, 7, 9), (1, 2, 3, 4, 5, 6, 9)),
    ((117859, 492389, 801088, 492389, 492389), 374530, 2, 31, (2, 3, 4), (1, 2, 3)),
    ((18446744073709551630, 10, 18446744073709551630, 1064346769094990221725, 18446744073709551630, 18446744073709551630), 1027453280947571118475, 1, 32, (1, 2, 3, 4), (1, 3, 5, 6)),
    ((4, 5, 8, 3, 6, 8, 8), 7, 5, 33, (2, 3), (5,)),
    ((614201, 614201, 29017, 29017, 614201, 29017, 29017, 29017, 614201, 884292), 3457164, 9, 34, (1, 2, 3, 4, 5, 6, 7, 9, 10), ()),
    ((22, 22, 334883090491208079602, 18446744073709551625, 334883090491208079602, 334883090491208079602, 22, 334883090491208079602, 22, 334883090491208079602), 1023096015547333790475, 8, 35, (1, 2, 3, 4, 5, 6), ()),
    ((697757, 697757, 697757, 980748, 697757, 647828), 0, 4, 37, (1, 2, 3), (1, 2, 5)),
    ((7, 7, 18446744073709551644, 818415579979861756858, 818415579979861756858, 18446744073709551644, 818415579979861756858, 7, 7, 7, 818415579979861756858), 2455246739939585270595, 3, 38, (1, 2, 3, 4, 5, 6, 7, 8), (3, 6)),
    ((5, 7, 1, 4, 4, 7, 1, 5), 29, 1, 39, (1, 2, 3, 4, 5, 6, 8), (4,)),
    ((607637, 607637, 920512, 549426, 549426, 549426, 607637, 607637, 920512, 920512, 549426, 920512), 6469276, 11, 40, (1, 2, 3, 4, 5, 6, 7, 8, 9, 11), ()),
    ((15, 1054527249063471682613, 1054527249063471682613, 15, 1054527249063471682613, 15, 15, 1054527249063471682613, 1054527249063471682613, 18446744073709551638, 18446744073709551638), 0, 6, 41, (1, 2, 3, 4, 5, 6, 8, 9, 10, 11), (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)),
    ((1, 5, 4, 4, 3, 2), 14, 5, 42, (1, 2, 3, 4), ()),
    ((7, 8, 5, 2, 5, 6, 1, 2, 8), 0, 5, 45, (1, 2, 4, 6), (1, 3, 5, 6)),
    ((28, 28, 672451536947643112235, 28, 28, 672451536947643112235, 18446744073709551621, 28, 672451536947643112235, 18446744073709551621), 2035801354916638888354, 1, 47, (1, 2, 3, 4, 6, 7, 9, 10), (1, 2, 7)),
    ((361057, 433317, 978660, 978660, 361057, 978660), 184286, 1, 49, (1, 3, 4), (1, 2, 3, 5)),
    ((293133767869060702386, 24, 24, 18446744073709551634, 293133767869060702386, 24, 18446744073709551634, 293133767869060702386, 293133767869060702386, 18446744073709551634, 18446744073709551634, 24), 293133767869060702386, 6, 50, (1, 2, 4, 5, 7, 8, 9, 10, 11), (1, 2, 4, 5, 7, 8, 10, 11)),
    ((3, 4, 4, 5, 7, 8, 6, 6), 23, 3, 51, (2, 3, 4, 5, 6, 7, 8), (2, 4, 6)),
    ((1097262066678418546519, 1097262066678418546519, 33, 1097262066678418546519, 33, 1097262066678418546519, 18446744073709551646, 18446744073709551646), 18446744073709551646, 6, 53, (1, 2, 7), (1, 2)),
    ((8, 5, 8, 8, 7, 4, 8), 11, 1, 54, (1, 2, 3, 4, 5, 6), (1, 2, 3, 4)),
    ((1035871, 205780, 996812, 1035871, 205780, 1035871), 1621123, 4, 55, (1, 3, 4, 6), (1, 2, 4, 5)),
    ((34, 641350127242236630303, 18446744073709551647, 18446744073709551647, 34), 0, 2, 56, (1, 3), (1, 4)),
    ((6, 1, 4, 6, 8), 15, 3, 57, (1, 2, 3, 5), (3,)),
    ((215718, 215718, 215718, 774180, 774180, 774180, 774180, 774180), 1979796, 4, 58, (1, 2, 4, 5), ()),
    ((30, 998636071563161731474, 18446744073709551622, 998636071563161731474, 998636071563161731474, 18446744073709551622, 30, 30), 0, 2, 59, (1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 7)),
    ((5, 3, 5, 4, 8, 8, 6, 1, 2), 13, 1, 60, (1, 2, 5), (2,)),
    ((583734, 583734, 583734, 227303, 190532, 583734, 583734, 583734, 190532, 583734, 583734, 583734), 1775835, 11, 61, (1, 2, 4, 5, 9), ()),
    ((359061299749591698157, 16, 18446744073709551621, 359061299749591698157, 18446744073709551621, 18446744073709551621, 18446744073709551621), 377508043823301249794, 5, 62, (1, 2, 3, 4), (1,)),
    ((8, 5, 5, 8, 2, 7, 2, 2, 4, 5, 2, 5), 41, 10, 63, (1, 2, 3, 4, 5, 6, 7, 9), ()),
    ((660833, 642766, 642766, 130916, 130916, 660833, 642766, 642766, 130916, 642766, 642766, 130916), 660833, 2, 64, (1, 2, 3, 4, 7), (2, 3, 4, 7)),
    ((5, 7, 4, 8, 5, 5), 30, 2, 66, (1, 2, 4, 5, 6), ()),
    ((803210, 803210, 803210, 428224, 803210, 803210), 2837854, 4, 67, (1, 2, 3, 4), ()),
    ((8, 8, 8, 287396088583954701317, 287396088583954701317, 8, 8, 287396088583954701317, 8, 18446744073709551649, 287396088583954701317, 287396088583954701317), 862188265751864103967, 6, 68, (1, 2, 4, 5, 8, 11), (4,)),
    ((2, 3, 2, 6, 6), 15, 4, 69, (1, 2, 3, 4, 5), (1, 3)),
    ((503552, 128147, 526533, 526533, 503552, 128147, 526533, 526533, 503552), 526533, 1, 73, (1, 2, 3, 4, 5), (1, 2, 3, 5)),
    ((18446744073709551637, 8, 18446744073709551637, 8, 8, 208616465124790383578), 8, 1, 74, (1, 2, 3), (1, 3)),
    ((7, 8, 1, 8, 6, 2, 6, 2, 5, 5, 8, 6), 50, 3, 75, (1, 2, 3, 4, 5, 7, 9, 10, 11, 12), (2, 6)),
    ((485761, 996342, 485761, 996342, 485761, 996342, 996342, 996342, 996342, 485761), 485761, 9, 76, (1, 3, 5), (1, 3)),
    ((18446744073709551637, 13, 13, 962793314781590780845, 962793314781590780845, 18446744073709551637, 18446744073709551637, 962793314781590780845, 962793314781590780845), 0, 8, 77, (1, 2), (1, 3)),
    ((2, 5, 5, 7, 1, 3, 7, 4), 24, 3, 78, (1, 2, 3, 4, 5, 6, 7, 8), (2, 3)),
    ((458756, 458756, 458756, 624801, 624801, 366490, 458756), 458756, 6, 79, (1, 4), (4,)),
    ((35, 35, 35, 1027633623293992968907, 35, 35, 18446744073709551642, 1027633623293992968907, 35), 18446744073709551607, 3, 80, (4, 7), (1, 4)),
    ((6, 7, 8, 1, 3, 3, 8, 1, 6, 5, 6, 4), 0, 9, 81, (2, 3, 4), (1, 2, 5)),
    ((1031195, 513695, 806770, 806770, 1031195, 513695, 806770), 1544890, 1, 82, (1, 2), ()),
    ((18446744073709551646, 43874142706551486091, 18446744073709551646, 18446744073709551646, 18446744073709551646, 6, 18446744073709551646, 18446744073709551646, 6, 18446744073709551646, 6, 6), 48359577661996272157, 3, 83, (1, 3, 4, 5, 6, 7, 9, 11), (2,)),
    ((1, 8, 1, 6, 4, 8, 8, 6, 3), 3, 8, 84, (1, 2), (4,)),
    ((735374, 644930, 735374, 735374, 644930, 644930, 859959, 735374), 3620567, 6, 85, (1, 2, 3, 4, 5, 6, 7), (1, 2)),
    ((18446744073709551652, 904112155291224601680, 904112155291224601680, 904112155291224601680, 904112155291224601680), 0, 4, 86, (1, 2), (1, 3)),
    ((4, 2, 5, 6, 6, 2, 6), 7, 4, 87, (1, 3), (2,)),
    ((1021023, 348975, 1021023, 348975, 348975, 1021023, 198718, 348975, 198718, 1021023, 1021023), 672048, 6, 88, (1, 3, 6, 10, 11), (1, 2, 3, 6, 10)),
    ((18446744073709551655, 18446744073709551655, 17, 17, 18446744073709551655, 17), 55340232221128654914, 2, 89, (1, 2, 5), (3, 4, 6)),
    ((2, 8, 5, 6, 8, 5, 5, 8), 17, 6, 90, (1, 2, 4, 5), (1, 3)),
    ((6, 2, 2, 6, 3, 3, 7, 2, 3, 1, 2, 6), 18, 10, 93, (1, 2, 3, 4, 5), (10,)),
    ((863784, 863784, 130149, 293700, 863784, 863784, 863784), 700233, 4, 94, (1, 2, 3), (1, 4)),
    ((6, 7, 4, 2, 6, 1, 1, 3, 7, 6), 13, 9, 96, (1, 2, 4), (4,)),
    ((845234, 449802, 1043489, 449802, 1043489, 449802, 449802, 1043489), 4875305, 3, 97, (1, 2, 3, 4, 5, 6, 8), (2,)),
    ((3, 3, 63054141881673153714, 63054141881673153714, 63054141881673153714, 18446744073709551653, 3, 18446744073709551653, 3, 18446744073709551653), 118394374102801808679, 8, 98, (1, 2, 3, 6, 8, 10), ()),
    ((7, 4, 3, 4, 4, 3, 2, 5, 7, 2, 8), 0, 4, 99, (1, 2, 3, 4, 6, 8), (1, 2, 3, 5, 6, 8)),
    ((481851, 997949, 477026, 997949, 477026, 477026, 997949), 477026, 4, 100, (2, 3), (2,)),
    ((775658305295698257550, 18446744073709551651, 775658305295698257550, 18446744073709551651, 23, 23, 775658305295698257550, 18446744073709551651), 1551316610591396515100, 4, 101, (1, 3, 7), (1,)),
    ((6, 3, 3, 7, 5, 7, 1), 20, 2, 102, (1, 2, 4, 6), (2,)),
    ((730305, 979589, 730305, 979589, 730305, 730305, 979589, 730305, 753766, 753766, 753766, 730305), 249284, 1, 103, (1, 2, 4, 9, 10), (1, 2, 3, 9, 10)),
    ((2, 1, 5, 6, 5, 3, 6, 3, 3, 2), 28, 3, 105, (1, 3, 4, 5, 6, 7, 8, 9, 10), (1, 3)),
    ((987825, 582376, 17578, 582376, 17578, 17578, 582376, 582376, 582376, 582376, 987825, 987825), 1182330, 6, 106, (1, 2, 3, 4, 5, 6, 11), (1, 3, 5, 11)),
    ((18446744073709551654, 28, 364566664938959303222, 18446744073709551654, 28, 28, 364566664938959303222, 18446744073709551654), 0, 6, 107, (3,), (7,)),
    ((2, 7, 5, 7, 4, 2, 5), 0, 2, 108, (1, 2), (1, 4)),
    ((471906, 240141, 240141, 240141, 471906, 481589, 481589, 471906, 471906), 712047, 3, 109, (1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 5, 6, 7)),
]


class TestShiftedRepGolden:
    def test_same_pairs_as_stable_sort_join(self):
        budget = SolverBudget(repeat_cap=4)
        got = []
        for items, shift, t, seed, _, _ in SHIFTED_REP_GOLDEN:
            out = solve_shifted_rep(items, shift, t / len(items), seed=seed, budget=budget)
            assert out.found
            got.append((out.witness.s1.indices, out.witness.s2.indices))
        assert got == [(s1, s2) for *_, s1, s2 in SHIFTED_REP_GOLDEN]


def _walked_sums(table, k, scan):
    """Sums mod 2^64 of ranks 1..scan of bin k, from one walk of that bin alone."""
    walk = dpbins._walk_bins(table, np.array([k]), np.array([scan]), 0, scan)
    return np.concatenate([sums for _, sums in walk] or [np.zeros(0, np.uint64)])


def _unrank_with_sum(table, k, rank):
    """The mask solvers._unrank_mask decodes for rank ``rank`` of bin k, and its exact item sum."""
    mask = solvers._unrank_mask(table, k, rank)
    return mask, sum(a for i, a in enumerate(table.items) if mask >> i & 1)


def _ref_rep_join(table, shift, k, k2, scan1, scan2):
    """One draw's bin join as solve_shifted_rep ran it draw by draw: first
    exact pair by bin-k rank, then bin-k2 rank. Each wrapped group's bin-k2
    ranks are unranked once, into exact value -> masks in rank order."""
    if not scan2:
        return None
    sums2 = _walked_sums(table, k2, scan2)
    order = np.argsort(sums2)
    sv = sums2[order]
    want = _walked_sums(table, k, scan1) - np.uint64(shift % (1 << 64))
    pos = np.searchsorted(sv, want)
    groups = {}  # (start, end) in sv -> its exact values
    for rank in np.flatnonzero(pos < sv.size).tolist():
        lo, hi = int(pos[rank]), int(np.searchsorted(sv, want[rank], "right"))
        if hi == lo or (k2 == k and hi - lo == 1 and order[lo] == rank):
            continue  # no partner but the rank itself
        if (lo, hi) not in groups:
            exact = groups[lo, hi] = {}
            for g in sorted(order[lo:hi].tolist()):
                other, other_value = _unrank_with_sum(table, k2, g + 1)
                exact.setdefault(other_value, []).append(other)
        mask, value = _unrank_with_sum(table, k, rank + 1)
        for other in groups[lo, hi].get(value - shift, ()):
            if other != mask:
                return mask, other
    return None


def _table_join(items, shift, table, k, k2, scan1, scan2):
    """One draw's table path wired as solve_shifted_rep wires it: both bins'
    walked keys (solvers._bin_pair_keys) into one pair-state join, with
    unrank decoders; the pair's (S1, S2) masks, or None."""
    never, shift_w = solvers._Deadline(None), np.uint64(shift % (1 << 64))
    key2, keys1 = solvers._bin_pair_keys(table, k, k2, scan1, scan2, never)
    hit = solvers._join_pair_states(
        items, shift, key2, (keys - shift_w for keys in keys1), min(scan1, scan2) if k2 == k else 0,
        lambda i: (0, solvers._unrank_mask(table, k2, i + 1)),
        lambda j: (solvers._unrank_mask(table, k, j + 1), 0), never,
    )
    return hit and (hit[1].s1.mask(), hit[1].s2.mask())


def _ref_shifted_rep(items, shift, ratio, seed, budget):
    """solve_shifted_rep one draw at a time, a table per draw: (status,
    masks, draw count, every draw's record)."""
    n = len(items)
    t = max(1, min(n - 1, round(ratio * n)))
    bn_bits, heavy = (max(1, n - t), 1 << t) if t > n // 2 else ((n + 1) // 2, solvers._ceil_half_pow(n))
    records = []
    for r in range(budget.resolved_repeat_cap(n)):
        p = random_prime(1 << bn_bits, 1 << (bn_bits + 1), derive_seed(seed, "shifted-rep-prime", t, r))
        k = random_residue(p, derive_seed(seed, "shifted-rep-residue", t, r))
        k2 = (k - shift) % p
        table = build_table(items, p)
        bins = [table.bin_size(k), table.bin_size(k2)]
        room = (budget.memory_cap_bytes - estimate_table_bytes(n, p)) // solvers._REP_ENTRY_BYTES
        scans = [min(bins[0], n * n * heavy), min(bins[1], n * n * heavy, room)]
        records.append({"p": p, "k": k, "bins": bins, "enumerated": scans})
        hit = _ref_rep_join(table, shift, k, k2, *scans)
        if hit:
            return SolveStatus.FOUND, hit, r + 1, records
    return SolveStatus.INCONCLUSIVE, None, len(records), records


class TestShiftedRepDraws:
    """The draw loop against the one-draw-at-a-time reference, which walks
    and joins each draw's bins with its own code."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_outcome_as_per_draw_loop(self, data):
        n = data.draw(st.integers(1, 16))
        bits = data.draw(st.sampled_from([8, 62, 64, 200, None]))
        if bits is None:
            items = tuple((2 * i + 2) << 64 for i in range(n))
        else:
            items = tuple(data.draw(st.integers(1, (1 << bits) - 1)) for _ in range(n))
        digits = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        planted = abs(sum(a * (g == 1) - a * (g == 2) for a, g in zip(items, digits)))
        total = sum(items)  # a shifted_sums instance takes shifts below it
        shift = data.draw(st.sampled_from([0, planted % total, data.draw(st.integers(0, total - 1))]))
        t = data.draw(st.integers(1, max(1, n - 1)))
        seed = data.draw(st.integers(0, 1000))
        # None is 4n draws
        budget = SolverBudget(repeat_cap=data.draw(st.sampled_from([1, 2, 3, 8, None])))
        status, masks, draw_count, records = _ref_shifted_rep(items, shift, t / n, seed, budget)
        out = solve_shifted_rep(items, shift, t / n, seed, budget)
        assert out.status is status
        assert _masks(out) == masks
        assert out.trace.get("draw_count") == draw_count
        assert out.trace["draws"] == records[: solvers._TRACE_DRAWS]
        assert out.trace["draws_dropped"] == max(0, len(records) - solvers._TRACE_DRAWS)
        if out.found:
            assert verify(ProblemInstance("shifted_sums", items, shift=shift), out.witness)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_outcome_under_small_walk_chunks(self, data):
        # Chunks of 1, 3 or 7 ranks: the chunk that holds bin k's first rank
        # usually straddles the end of bin k2 in the draw's one walk.
        n = data.draw(st.integers(2, 10))
        items = tuple(data.draw(st.integers(1, (1 << data.draw(st.sampled_from([4, 64]))) - 1)) for _ in range(n))
        total = sum(items)
        shift = data.draw(st.sampled_from([0, data.draw(st.integers(0, total - 1))]))
        t = data.draw(st.integers(1, n - 1))
        seed = data.draw(st.integers(0, 1000))
        budget = SolverBudget(repeat_cap=data.draw(st.integers(1, 4)))
        status, masks, draw_count, records = _ref_shifted_rep(items, shift, t / n, seed, budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dpbins, "_WALK_CHUNK", data.draw(st.sampled_from([1, 3, 7])))
            out = solve_shifted_rep(items, shift, t / n, seed, budget)
        assert (out.status, _masks(out), out.trace["draw_count"]) == (status, masks, draw_count)
        assert out.trace["draws"] == records

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_residue_list_and_table_agree(self, data):
        # The same draws read their bins from the residue list under the
        # default cap and from tables under a cap one byte below the list's,
        # where the memory room still covers every bin-k2 scan.
        n = data.draw(st.integers(6, 14))
        base = data.draw(st.sampled_from([0, 1 << 64]))  # 3n-bit items, or items of 2^64 and up
        items = tuple(base + data.draw(st.integers(1, (1 << 3 * n) - 1)) for _ in range(n))
        digits = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        planted = abs(sum(a * (g == 1) - a * (g == 2) for a, g in zip(items, digits)))
        shift = data.draw(st.sampled_from([0, planted]))
        t, seed = data.draw(st.integers(1, n - 1)), data.draw(st.integers(0, 1000))
        repeats = data.draw(st.sampled_from([1, 2, 8]))
        cap = ((solvers._LIST_ENTRY_BYTES + solvers._REP_ENTRY_BYTES) << n) - 1
        tables, build = [], solvers.build_table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "build_table", lambda *a: tables.append(a) or build(*a))
            listed = solve_shifted_rep(items, shift, t / n, seed, SolverBudget(repeat_cap=repeats))
            assert tables == []
            walked = solve_shifted_rep(items, shift, t / n, seed, SolverBudget(repeat_cap=repeats, memory_cap_bytes=cap))
            assert tables
        assert (walked.status, _masks(walked)) == (listed.status, _masks(listed))
        assert walked.trace["draws"] == listed.trace["draws"]
        assert walked.trace["draw_count"] == listed.trace["draw_count"]
        for d in walked.trace["draws"]:
            assert (cap - estimate_table_bytes(n, d["p"])) // solvers._REP_ENTRY_BYTES >= d["bins"][1]

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1 << 15])
    def test_same_bin_with_a_shorter_key_scan(self, chunk, monkeypatch):
        # k2 == k with scan2 < scan1, as when the memory room caps the key
        # scan: bin k is walked twice in one walk, keys first.
        monkeypatch.setattr(dpbins, "_WALK_CHUNK", chunk)
        rng = random.Random(9)
        found = 0
        for _ in range(20):
            items = tuple(rng.randrange(1, 30) for _ in range(8))
            p = rng.choice([3, 5, 7, 11])
            table, k = build_table(items, p), rng.randrange(p)
            scan1 = table.bin_size(k)
            for shift in (0, p * rng.randrange(1, 20)):
                for scan2 in (1, scan1 // 3, scan1 - 1):
                    want = _ref_rep_join(table, shift, k, k, scan1, scan2)
                    assert _table_join(items, shift, table, k, k, scan1, scan2) == want
                    found += want is not None
        assert found >= 20

    @pytest.mark.parametrize("n", [17, 18])
    @pytest.mark.parametrize("case", ["wide", "shift0", "room"])
    def test_same_outcome_either_side_of_the_list_size(self, n, case, monkeypatch):
        # n = 17 reads its bins from the residue list, n = 18 walks a table per
        # draw; a memory cap that caps the bin-k2 scans leaves no room for
        # the list, so it walks tables at n = 17 too.
        tables, build = [], solvers.build_table
        monkeypatch.setattr(solvers, "build_table", lambda *a: tables.append(a) or build(*a))
        rng = random.Random(n)
        budget = SolverBudget(repeat_cap=2 * n)
        if case == "wide":  # items of 2^64 and up, whose sums collide mod 2^64
            items = tuple((1 << 64) + rng.randrange(1, 1 << 20) for _ in range(n))
            shift, t = sum(items[:4]) - sum(items[4:6]), n // 2
        elif case == "shift0":  # k2 == k
            items, shift, t = tuple(rng.randrange(1, 1 << 16) for _ in range(n)), 0, n // 2
        else:
            items, shift, t = tuple(1 << i for i in range(n)), 0, n - 3  # no pair; p is 11 or 13
            cap = estimate_table_bytes(n, 13) + 1000 * solvers._REP_ENTRY_BYTES
            budget = SolverBudget(repeat_cap=8, memory_cap_bytes=cap)
        status, masks, draw_count, records = _ref_shifted_rep(items, shift, t / n, 0, budget)
        tables.clear()
        out = solve_shifted_rep(items, shift, t / n, 0, budget)
        assert (out.status, _masks(out), out.trace["draw_count"]) == (status, masks, draw_count)
        assert out.trace["draws"] == records[: solvers._TRACE_DRAWS]
        assert (tables == []) == (n == 17 and case != "room")
        if case == "room":
            assert any(d["enumerated"][1] < d["enumerated"][0] for d in records)
        else:
            assert out.found and verify(ProblemInstance("shifted_sums", items, shift=shift), out.witness)
        if case == "shift0":
            assert any((d["k"] - shift) % d["p"] == d["k"] for d in records)

    def test_list_path_builds_no_table_and_walks_no_bin(self, monkeypatch):
        # n=12, t=9 (primes 11 and 13), within the list's size: each counted
        # draw draws one prime and reads both bins from its residue list,
        # with no table, no walk and no unrank.
        calls = []
        for name in ("random_prime", "build_table", "_walk_bins", "_unrank_mask"):
            fn = getattr(solvers, name)
            monkeypatch.setattr(solvers, name, lambda *a, _n=name, _f=fn, **kw: calls.append(_n) or _f(*a, **kw))
        rng = random.Random(12)
        for seed in range(4):
            items = tuple(rng.randrange(1, 1 << 36) for _ in range(12))
            shift = seed % 2 * 12345
            status, masks, draw_count, records = _ref_shifted_rep(items, shift, 9 / 12, seed, SolverBudget())
            calls.clear()
            out = solve_shifted_rep(items, shift, 9 / 12, seed)
            assert out.status is status is SolveStatus.INCONCLUSIVE and out.trace["repeats_skipped"] > 0
            assert out.trace["draws"] == records[: solvers._TRACE_DRAWS]
            assert calls == ["random_prime"] * out.trace["draw_count"] == ["random_prime"] * draw_count

    def test_list_only_where_it_fits_the_memory_cap(self, monkeypatch):
        # At n=12 the list and a join over every subset take 80 B a subset,
        # 320 KiB, far above any table of p in [64, 128) (13 KiB). A cap
        # below the list walks tables, as every cap did before the list;
        # the results are the same either way.
        tables, build = [], solvers.build_table
        monkeypatch.setattr(solvers, "build_table", lambda *a: tables.append(a) or build(*a))
        items = tuple(1 << i for i in range(12))
        listed = (solvers._LIST_ENTRY_BYTES + solvers._REP_ENTRY_BYTES) << 12
        assert estimate_table_bytes(12, 127) < listed
        for cap, walked in ((listed, False), (listed - 1, True), (estimate_table_bytes(12, 127), True)):
            budget = SolverBudget(memory_cap_bytes=cap)
            status, _, draw_count, records = _ref_shifted_rep(items, 0, 0.5, 0, budget)
            tables.clear()
            out = solve_shifted_rep(items, 0, 0.5, 0, budget)
            assert (out.status, out.trace["draw_count"]) == (status, draw_count)
            assert out.trace["draws"] == records[: solvers._TRACE_DRAWS]
            assert bool(tables) is walked

    def test_one_walk_per_joined_draw(self, monkeypatch):
        # n=18, t=14: 72 draws over the bin pairs of the primes 17 to 31. Each
        # joined draw walks its two bins in one call; a repeat walks nothing.
        walks, walk = [], solvers._walk_bins
        monkeypatch.setattr(solvers, "_walk_bins", lambda *a, **kw: walks.append(a) or walk(*a, **kw))
        rng = random.Random(18)
        for seed in range(4):
            items = tuple(rng.randrange(1, 1 << 54) for _ in range(18))
            walks.clear()
            out = solve_shifted_rep(items, seed % 2 * 12345, 14 / 18, seed)
            assert out.status is SolveStatus.INCONCLUSIVE and out.trace["repeats_skipped"] > 0
            assert all(d["enumerated"][1] > 0 for d in out.trace["draws"])
            assert len(walks) == out.trace["draw_count"] - out.trace["repeats_skipped"]
            joined = {(d["p"], d["k"]): d for d in out.trace["draws"]}  # a repeat's record is its first's
            for (_, bins, scans, lo, hi), d in zip(walks, joined.values()):
                k, k2 = d["k"], (d["k"] - seed % 2 * 12345) % d["p"]
                if k2 == k and d["enumerated"][0] == d["enumerated"][1]:
                    assert bins.tolist() == [k] and scans.tolist() == [d["enumerated"][1]]
                else:
                    assert bins.tolist() == [k2, k] and scans.tolist() == d["enumerated"][::-1]
                assert (lo, hi) == (0, int(scans.sum()))

    def test_deciding_draw_after_earlier_misses(self, monkeypatch):
        # A deciding draw past the first follows draws that missed: the first
        # exact pair must still come from the earliest that has one, and no
        # prime is drawn past it.
        rng = random.Random(6)
        budget = SolverBudget()
        later = 0
        primes, prime = [], solvers.random_prime
        monkeypatch.setattr(solvers, "random_prime", lambda *a: primes.append(a) or prime(*a))
        for seed in range(40):
            n = rng.randrange(8, 13)
            items = tuple(rng.randrange(1, 1 << 20) for _ in range(n))
            shift = abs(sum(items[: n // 3]) - sum(items[n // 3 : n // 2]))
            want = _ref_shifted_rep(items, shift, 0.5, seed, budget)
            primes.clear()
            out = solve_shifted_rep(items, shift, 0.5, seed, budget)
            assert (out.status, _masks(out), out.trace["draw_count"]) == want[:3]
            assert len(primes) == out.trace["draw_count"]
            later += out.found and want[2] > 1
        assert later >= 3

    def test_shift_zero_self_matches_are_never_confirmed(self, monkeypatch):
        # Powers of two have distinct subset sums: at shift 0 each bin-k rank
        # meets only itself, and none of them reaches exact confirmation,
        # also when a shorter key scan puts bin k twice in one walk.
        items = tuple(1 << i for i in range(12))
        unranked = []
        monkeypatch.setattr(solvers, "_unrank_mask", lambda *a: unranked.append(a))
        for p, k in ((7, 3), (11, 0), (13, 12), (7, 5)):
            table = build_table(items, p)
            size = table.bin_size(k)
            for scan2 in (size, size // 2):
                assert _table_join(items, 0, table, k, k, size, scan2) is None
        assert unranked == []
        out = solve_shifted_rep(items, 0, 0.5, seed=2)
        assert out.status is SolveStatus.INCONCLUSIVE and unranked == []

    def test_wrapped_group_is_unranked_once(self):
        # Every subset sum of (2i + 2) * 2^64 is 0 mod 2^64, so at t=15 of 16
        # (p = 2 or 3) every bin-k rank meets the whole of bin k2, tens of
        # thousands of ranks. Confirming each rank against a table of the
        # group's exact values, built once, keeps the solve well under 3 s.
        items = tuple((2 * i + 2) << 64 for i in range(16))
        shift = sum(items[8:15]) - sum(items[:8])
        t0 = time.perf_counter()
        out = solve_shifted_rep(items, shift, 15 / 16, seed=0)
        assert time.perf_counter() - t0 < 3.0
        status, masks, draw_count, _ = _ref_shifted_rep(items, shift, 15 / 16, 0, SolverBudget())
        assert (out.status, _masks(out), out.trace["draw_count"]) == (status, masks, draw_count)
        assert out.found and verify(ProblemInstance("shifted_sums", items, shift=shift), out.witness)

    def test_trace_counts_dropped_draws(self):
        out = solve_shifted_rep(tuple(1 << i for i in range(16)), 0, 0.5, seed=3)
        trace = out.trace
        assert trace["draw_count"] == 64
        assert len(trace["draws"]) == solvers._TRACE_DRAWS
        assert trace["draws_dropped"] == 64 - solvers._TRACE_DRAWS
        sub = solve_subset_sum_rep((2, 4, 8), 5, seed=1)
        assert sub.trace["draws_dropped"] == 0

    def test_repeated_bin_pairs_are_walked_once(self):
        # n=12, t=9: the primes in [8, 16) are 11 and 13, so 48 draws share
        # 24 bin pairs; a repeat is not walked again but still counted.
        rng = random.Random(12)
        cases = [(tuple(1 << i for i in range(12)), 0, 0)]
        for seed in range(1, 6):
            items = tuple(rng.randrange(1, 1 << 40) for _ in range(12))
            cases.append((items, rng.choice([0, abs(items[0] + items[1] - items[2])]), seed))
        for items, shift, seed in cases:
            status, masks, draw_count, records = _ref_shifted_rep(items, shift, 9 / 12, seed, SolverBudget())
            out = solve_shifted_rep(items, shift, 9 / 12, seed)
            assert (out.status, _masks(out), out.trace["draw_count"]) == (status, masks, draw_count)
            assert out.trace["draws"] == records[: solvers._TRACE_DRAWS]
            if seed == 0:  # the powers of two: 48 draws, no pair
                assert draw_count == 48 and out.trace["repeats_skipped"] > 0

    def test_one_prime_per_draw_and_no_table_for_a_repeat(self, monkeypatch):
        # Classes t=9 and t=11 of an unsolvable n=12 dispatcher solve (primes
        # 11 and 13, then 2 and 3), under a cap below the residue list's bytes
        # but far above every table and bin, so each draw takes the table
        # path: each counted draw draws one prime, and only a draw whose
        # (p, k) no earlier draw joined builds a table.
        rng = random.Random(12)
        items = tuple(rng.randrange(1, 1 << 36) for _ in range(12))
        budget = SolverBudget(memory_cap_bytes=300_000)
        assert (solvers._LIST_ENTRY_BYTES + solvers._REP_ENTRY_BYTES) << 12 > budget.memory_cap_bytes
        cases = [(t, derive_seed(0, "dispatch", t)) for t in (9, 11)]
        refs = [_ref_shifted_rep(items, 0, t / 12, seed, budget) for t, seed in cases]
        calls = []
        prime, build = solvers.random_prime, solvers.build_table
        monkeypatch.setattr(solvers, "random_prime", lambda *a: calls.append("prime") or prime(*a))
        monkeypatch.setattr(solvers, "build_table", lambda *a: calls.append("table") or build(*a))
        for (t, seed), (skipped, primes), (status, _, draw_count, records) in zip(
            cases, ((29, {11, 13}), (43, {2, 3})), refs
        ):
            calls.clear()
            out = solve_shifted_rep(items, 0, t / 12, seed, budget)
            assert out.status is status is SolveStatus.INCONCLUSIVE
            assert calls.count("prime") == out.trace["draw_count"] == draw_count == 48
            assert calls.count("table") == out.trace["draw_count"] - out.trace["repeats_skipped"]
            assert out.trace["repeats_skipped"] == skipped
            assert out.trace["draws"] == records[: solvers._TRACE_DRAWS]
            assert {r["p"] for r in records} == primes

    @pytest.mark.parametrize("shift", [0, 123456789])
    def test_time_cap_at_n20(self, shift):
        rng = random.Random(20)
        items = [rng.randrange(1, 1 << 60) for _ in range(20)]
        t0 = time.perf_counter()
        out = solve_shifted_rep(items, shift, 15 / 20, seed=5, budget=SolverBudget(time_cap_ms=150.0))
        elapsed = time.perf_counter() - t0
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["timed_out"]
        assert elapsed < 0.3

    def test_tiny_memory_cap(self):
        items = tuple(1 << i for i in range(12))  # no pair at shift 0
        with pytest.raises(ResourceLimitError):
            solve_shifted_rep(items, 0, 0.5, seed=0, budget=SolverBudget(memory_cap_bytes=1000))
        # Room for any one table of p in [64, 128) and a few bin-k2 entries:
        # each draw's scan is capped by the room its table leaves.
        cap = estimate_table_bytes(12, 127) + 10 * solvers._REP_ENTRY_BYTES
        out = solve_shifted_rep(items, 0, 0.5, seed=0, budget=SolverBudget(memory_cap_bytes=cap))
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace["draw_count"] == 48
        room = [(cap - estimate_table_bytes(12, d["p"])) // solvers._REP_ENTRY_BYTES for d in out.trace["draws"]]
        assert [d["enumerated"][1] for d in out.trace["draws"]] == [
            min(d["bins"][1], r) for d, r in zip(out.trace["draws"], room)
        ]
        assert any(d["enumerated"][1] < d["bins"][1] for d in out.trace["draws"])


# (items, shift, None, None, s1, s2): solve_shifted_exhaustive pairs,
# recorded from the dict join over pure-Python pair generators. Small items repeat values, so several left
# states share a difference; every third case holds 2^64 + x items, whose
# differences collide mod 2^64.
SHIFTED_EXHAUSTIVE_GOLDEN = [
    ((3, 5, 4, 7, 5, 4, 8, 6, 7, 4), 0, None, None, (2,), (5,)),
    ((659210, 436806, 488513, 130216, 760550, 779621, 145717, 799866), 744589, None, None, (2, 5, 7, 8), (3, 4, 6)),
    ((36893488147419103236, 18446744073709551617, 18446744073709551617, 36893488147419103238, 36893488147419103234, 36893488147419103236), 0, None, None, (2,), (3,)),
    ((5, 7, 6, 6, 8), 1, None, None, (5,), (2,)),
    ((175621, 910768, 371076, 790102, 225804, 137945, 403994, 701659, 749498), 0, None, None, (3, 5, 7, 9), (2, 6, 8)),
    ((18446744073709551617, 36893488147419103236, 36893488147419103240, 18446744073709551617, 18446744073709551618, 18446744073709551624), 129127208515966861335, None, None, (1, 2, 3, 5, 6), ()),
    ((7, 6, 7, 7, 2, 2, 3, 6, 5, 3), 0, None, None, (3,), (4,)),
    ((403096, 921626, 191433), 191433, None, None, (3,), ()),
    ((18446744073709551621, 18446744073709551624, 36893488147419103239, 36893488147419103238, 18446744073709551617, 36893488147419103233, 36893488147419103233), 0, None, None, (6,), (7,)),
    ((1, 2, 2, 1, 2, 8, 1, 5, 5, 7, 1), 5, None, None, (3, 4, 5), ()),
    ((700554, 458695, 537647, 304890, 272102, 103151, 721041, 126036, 177095, 717045, 856289), 0, None, None, (10, 11), (2, 3, 4, 5)),
    ((36893488147419103233, 36893488147419103240, 36893488147419103235, 36893488147419103235, 18446744073709551619), 129127208515966861327, None, None, (1, 2, 4, 5), ()),
    ((6, 1, 4, 4, 1, 2, 5, 8, 6, 3, 2), 0, None, None, (3,), (4,)),
    ((364374, 961415, 665003), 1029377, None, None, (1, 3), ()),
    ((36893488147419103237, 36893488147419103238, 18446744073709551621, 18446744073709551623, 36893488147419103237, 18446744073709551620, 36893488147419103236, 18446744073709551621, 36893488147419103240, 18446744073709551619, 18446744073709551618), 0, None, None, (1,), (5,)),
    ((7, 7, 8), 8, None, None, (3,), ()),
]


class TestShiftedExhaustive:
    def test_complete_not_found(self):
        out = solve_shifted_exhaustive((1, 2, 4, 8), 0)
        assert out.status is SolveStatus.NOT_FOUND

    def test_finds_perfect_partition(self):
        out = solve_shifted_exhaustive((2, 3, 5), 0)
        assert out.found
        assert {out.witness.s1, out.witness.s2} == {S(3), S(1, 2)}

    def test_cap(self):
        # 2 * 3^17 states at 48 B each pass the default 8 GiB: refused before
        # anything is built
        with pytest.raises(ResourceLimitError):
            solve_shifted_exhaustive(tuple(range(1, 35)), 0)

    def test_powers_of_two_at_n25_not_found(self):
        out = solve_shifted_exhaustive(tuple(1 << i for i in range(25)), 0)
        assert out.status is SolveStatus.NOT_FOUND

    def test_memory_cap(self):
        items = tuple(range(1, 11))  # 2 * 3^5 pair states
        with pytest.raises(ResourceLimitError):
            solve_shifted_exhaustive(items, 0, SolverBudget(memory_cap_bytes=4096))
        assert solve_shifted_exhaustive(items, 0, SolverBudget(memory_cap_bytes=1 << 20)).found

    def test_time_cap_never_not_found(self):
        # unsolvable, so only an overrun could end it early: the cap expires
        # before the 3^12 left states are built and joined
        items = tuple(1 << i for i in range(24))
        t0 = time.perf_counter()
        out = solve_shifted_exhaustive(items, 0, SolverBudget(time_cap_ms=0.001))
        assert time.perf_counter() - t0 < 2.0
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace["timed_out"] is True
        assert solve_shifted_exhaustive(items, 0).status is SolveStatus.NOT_FOUND

    @pytest.mark.parametrize("n, states", [(3, 3 + 9), (4, 9 + 9)])
    def test_trace_counts_the_states_built(self, n, states):
        # 3^floor(n/2) left states and 3^ceil(n/2) right ones
        out = solve_shifted_exhaustive(tuple(1 << i for i in range(n)), 0)
        assert out.trace["pair_states"] == states

    def test_golden_pairs(self):
        got = []
        for items, shift, _, _, _, _ in SHIFTED_EXHAUSTIVE_GOLDEN:
            out = solve_shifted_exhaustive(items, shift)
            assert out.found
            got.append((out.witness.s1.indices, out.witness.s2.indices))
        assert got == [(s1, s2) for *_, s1, s2 in SHIFTED_EXHAUSTIVE_GOLDEN]


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

    def test_bad_sub_solver_pair_is_a_fault(self, monkeypatch):
        # a class solver that returns FOUND with a wrong pair is a program
        # fault: the sweep raises instead of moving on to the next class
        bad = Pair(S(1), S(2))  # 1 - 2 != 0

        def found(items, shift, ratio, seed, budget):
            return SolveOutcome(SolveStatus.FOUND, bad, seed, 0.0, {"algorithm": "stub"})

        monkeypatch.setattr(solvers, "solve_shifted_rep", found)
        monkeypatch.setattr(solvers, "solve_shifted_mitm", found)
        with pytest.raises(RuntimeError):
            solve_shifted((1, 2, 4, 8), 0, seed=0)

    def test_classes_past_the_memory_cap_are_skipped(self):
        # At n=48 the mitm classes t=47..38 each need more than the default
        # 8 GiB of pair states: they are skipped, and the first rep class
        # (t=37) runs until the time cap ends the solve.
        rng = random.Random(48)
        items = [rng.randrange(1, 1 << 144) for _ in range(48)]
        t0 = time.perf_counter()
        out = solve_shifted(items, 0, seed=1, budget=SolverBudget(time_cap_ms=300.0))
        assert time.perf_counter() - t0 < 1.0
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["reason"] == "timed_out"
        skipped = [p["t"] for p in out.trace["phases"] if p["status"] == "skipped"]
        assert skipped == list(range(47, 37, -1))
        assert out.trace["phases"][len(skipped)]["algorithm"] == "shifted-rep"

    def test_skips_exhaustive_above_cap(self):
        # 500 B holds phase 1's classes but not the exhaustive pass's 2 * 3^2 states
        budget = SolverBudget(repeat_cap=1, memory_cap_bytes=500)
        out = solve_shifted((1, 2, 4, 8), 0, seed=0, budget=budget)
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace.get("exhaustive_skipped")

    def test_phase_trace(self):
        out = solve_shifted((1, 2, 4, 8), 0, seed=0, budget=SolverBudget(repeat_cap=1))
        assert out.trace["algorithm"] == "shifted-dispatch"
        assert out.trace["phases"]

    def test_phase_times_and_reasons(self):
        out = solve_shifted((1, 2, 4, 8, 16), 0, seed=0, budget=SolverBudget(repeat_cap=1))
        assert [p["t"] for p in out.trace["phases"]] == [4, 3, 2, 1, "all"]
        assert all(p["elapsed_ms"] >= 0.0 for p in out.trace["phases"])
        assert "reason" not in out.trace
        late = solve_shifted((1, 2, 4, 8, 16), 0, seed=0, budget=SolverBudget(time_cap_ms=0.0))
        assert late.status is SolveStatus.INCONCLUSIVE
        assert late.trace["reason"] == "timed_out" and late.trace["timed_out"] is True
        big = solve_shifted((1, 2, 4, 8), 0, seed=0, budget=SolverBudget(repeat_cap=1, memory_cap_bytes=500))
        assert big.trace["reason"] == "exhaustive_skipped" and big.trace["exhaustive_skipped"] is True

    @staticmethod
    def _counting(calls, fn):
        # the way bench/tracing.py wraps a layer: any arguments, passed on
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            items, _, ratio = args[:3]
            calls.append((round(ratio * len(items)), args[4].repeat_cap, out))
            return out

        return wrapper

    @staticmethod
    def _refuse_exhaustive(monkeypatch):
        # the exhaustive pass refuses as it does when its pair states pass the cap
        def refuse(items, shift, budget=None):
            raise ResourceLimitError("stub")

        monkeypatch.setattr(solvers, "solve_shifted_exhaustive", refuse)

    def test_each_class_is_probed_then_swept_through_module_names(self, monkeypatch):
        # The probe is followed by the exhaustive pass, which settles the
        # solve; only a refused pass sends it on to the sweep. Both passes
        # call the class solvers through their module-level names, where
        # bench/tracing.py wraps them.
        calls = []
        for name in ("solve_shifted_rep", "solve_shifted_mitm"):
            monkeypatch.setattr(solvers, name, self._counting(calls, getattr(solvers, name)))
        items = tuple(1 << i for i in range(10))  # no pair
        classes = range(9, 0, -1)
        assert solve_shifted(items, 0, seed=0).status is SolveStatus.NOT_FOUND
        assert [c[:2] for c in calls] == [(t, 1) for t in classes]
        calls.clear()
        self._refuse_exhaustive(monkeypatch)
        out = solve_shifted(items, 0, seed=0)
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["reason"] == "exhaustive_skipped"
        assert [c[:2] for c in calls] == [(t, 1) for t in classes] + [(t, None) for t in classes]

    def test_probe_and_sweep_make_one_full_run_per_class(self, monkeypatch):
        # On an unsolvable instance whose exhaustive pass is refused, each
        # class's probe makes the first draw (or split) of a full run of its
        # solver, and its sweep is that run.
        monkeypatch.setattr(solvers, "_TRACE_DRAWS", 1000)
        self._refuse_exhaustive(monkeypatch)
        calls = []
        for name in ("solve_shifted_rep", "solve_shifted_mitm"):
            monkeypatch.setattr(solvers, name, self._counting(calls, getattr(solvers, name)))
        rng = random.Random(10)
        items = tuple(rng.randrange(1, 1 << 30) for _ in range(10))
        assert not brute_solve(ProblemInstance("equal_sums", items)).solvable
        out = solve_shifted(items, 0, seed=5)
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["reason"] == "exhaustive_skipped"
        probes, sweeps = calls[:9], calls[9:]
        assert len(sweeps) == 9
        for (t, _, probe), (t2, _, sweep) in zip(probes, sweeps):
            assert t == t2
            algorithm = probe.trace["algorithm"]
            fn = solve_shifted_rep if algorithm == "shifted-rep" else solve_shifted_mitm
            full = fn(items, 0, t / 10, derive_seed(5, "dispatch", t))  # unwrapped
            assert (sweep.status, _masks(sweep)) == (full.status, _masks(full))
            if algorithm == "shifted-rep":
                assert probe.trace["draw_count"] == 1
                assert probe.trace["draws"] == full.trace["draws"][:1]
                assert sweep.trace["draw_count"] == full.trace["draw_count"] == 40
                assert sweep.trace["draws"] == full.trace["draws"]
                assert sweep.trace["repeats_skipped"] == full.trace["repeats_skipped"]
            else:
                assert probe.trace["splits"] == 1
                assert sweep.trace["splits"] == full.trace["splits"] == 40

    def test_skipped_class_is_not_swept(self, monkeypatch):
        real = solvers.solve_shifted_mitm

        def refuse_t8(items, shift, ratio, seed, budget):
            if round(ratio * len(items)) == 8:
                raise ResourceLimitError("stub")
            return real(items, shift, ratio, seed, budget)

        monkeypatch.setattr(solvers, "solve_shifted_mitm", refuse_t8)
        items = tuple(1 << i for i in range(10))
        out = solve_shifted(items, 0, seed=0)
        assert out.status is SolveStatus.NOT_FOUND
        assert len(out.trace["phases"]) == 9 + 1  # probe, exhaustive
        self._refuse_exhaustive(monkeypatch)
        out = solve_shifted(items, 0, seed=0)
        assert out.status is SolveStatus.INCONCLUSIVE
        eights = [(p["pass"], p["status"]) for p in out.trace["phases"] if p["t"] == 8]
        assert eights == [("probe", "skipped")]
        assert len(out.trace["phases"]) == 9 + 8  # probe, sweep

    def test_unsolvable_n22_is_settled_under_a_500ms_cap(self):
        # The sweep alone would take seconds here; the exhaustive pass right
        # after the probe answers in about 0.1 s.
        rng = random.Random(22)
        items = [rng.randrange(1, 1 << 66) for _ in range(22)]
        out = solve_equal_sums(items, seed=0, budget=SolverBudget(time_cap_ms=500.0))
        assert out.status is SolveStatus.NOT_FOUND
        passes = [(p["pass"], p["t"]) for p in out.trace["phases"]]
        assert passes == [("probe", t) for t in range(21, 0, -1)] + [("exhaustive", "all")]

    def test_pass_refused_by_its_bytes_reaches_the_sweep(self):
        # n = 10: the pass needs 2 * 3^5 states of 48 B (23,328 B), more
        # than the cap; every class fits under it
        items = tuple(1 << i for i in range(10))
        out = solve_shifted(items, 0, seed=0, budget=SolverBudget(memory_cap_bytes=20_000))
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace["reason"] == "exhaustive_skipped" and out.trace["exhaustive_skipped"] is True
        passes = [(p["pass"], p["t"], p["status"]) for p in out.trace["phases"]]
        classes = range(9, 0, -1)
        assert passes == [("probe", t, "inconclusive") for t in classes] + [
            ("sweep", t, "inconclusive") for t in classes
        ]

    def test_phase_entry_keys(self, monkeypatch):
        keys = {"t", "pass", "algorithm", "status", "elapsed_ms"}
        found = solve_shifted((1, 2, 3), 0, seed=0)
        assert found.found and set(found.trace) == {"algorithm", "phases", "found_at_class", "found_in_pass"}
        assert all(set(p) == keys for p in found.trace["phases"])
        last = found.trace["phases"][-1]
        assert (last["t"], last["pass"]) == (found.trace["found_at_class"], found.trace["found_in_pass"])

        # the only pair, {1, 2, 4} against {7}, has total size n: no class holds it
        whole = solve_shifted((1, 2, 4, 7), 0, seed=0)
        assert whole.found and set(whole.trace) == {"algorithm", "phases", "found_at_class", "found_in_pass"}
        assert (whole.trace["found_at_class"], whole.trace["found_in_pass"]) == ("all", "exhaustive")
        assert all(set(p) == keys for p in whole.trace["phases"])
        passes = [(p["pass"], p["t"]) for p in whole.trace["phases"]]
        assert passes == [("probe", t) for t in (3, 2, 1)] + [("exhaustive", "all")]

        none = solve_shifted((1, 2, 4, 8, 16), 0, seed=0)
        assert none.status is SolveStatus.NOT_FOUND and set(none.trace) == {"algorithm", "phases"}
        assert all(set(p) == keys for p in none.trace["phases"])
        passes = [(p["pass"], p["t"]) for p in none.trace["phases"]]
        assert passes == [("probe", t) for t in (4, 3, 2, 1)] + [("exhaustive", "all")]

        with monkeypatch.context() as m:
            self._refuse_exhaustive(m)
            refused = solve_shifted((1, 2, 4, 8, 16), 0, seed=0)
        assert refused.status is SolveStatus.INCONCLUSIVE
        assert set(refused.trace) == {"algorithm", "phases", "exhaustive_skipped", "reason"}
        assert all(set(p) == keys for p in refused.trace["phases"])
        passes = [(p["pass"], p["t"]) for p in refused.trace["phases"]]
        assert passes == [("probe", t) for t in (4, 3, 2, 1)] + [("sweep", t) for t in (4, 3, 2, 1)]

        # every class call takes 30 ms, so a 100 ms cap ends the solve in the probe
        real = solvers.solve_shifted_mitm

        def slow(*args, **kwargs):
            time.sleep(0.03)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "solve_shifted_mitm", slow)
        monkeypatch.setattr(solvers, "solve_shifted_rep", slow)
        capped = solve_shifted((1, 2, 4, 8, 16, 32), 0, seed=0, budget=SolverBudget(time_cap_ms=100.0))
        assert capped.status is SolveStatus.INCONCLUSIVE
        assert set(capped.trace) == {"algorithm", "phases", "timed_out", "reason"}
        assert capped.trace["reason"] == "timed_out" and 0 < len(capped.trace["phases"]) < 5
        assert all(set(p) == keys and p["pass"] == "probe" for p in capped.trace["phases"])


class TestClassSolversOnGateFamilies:
    """shifted-rep and the single-class mitm, called directly on the instance
    families of gates 2 and 7, which reach them only through the dispatcher."""

    RATIOS = (0.25, 0.5, 0.75, 0.9)

    def _found(self, items, shift, inst, lift, seed) -> int:
        solvable = brute_solve(inst).solvable
        found = 0
        for ratio in self.RATIOS:
            for solve in (solve_shifted_rep, solve_shifted_mitm):
                out = solve(items, shift, ratio, seed, SolverBudget(repeat_cap=2))
                assert out.status in (SolveStatus.FOUND, SolveStatus.INCONCLUSIVE)
                if out.found:
                    assert solvable and verify(inst, lift(out.witness)), (items, shift, ratio)
                    found += 1
        return found

    def test_gate2_equal_and_shifted_families(self):
        # n <= 14, items <= 2^(2n), half of them with a planted pair
        rng = random.Random(0xACC2)
        found = 0
        for trial in range(150):
            n = rng.randint(2, 14)
            items = [rng.randint(1, 1 << (2 * n)) for _ in range(n)]
            plant = rng.random() < 0.5
            if trial % 2 == 0:
                if plant:
                    items[-1] = items[rng.randrange(n - 1)]
                shift, inst = 0, ProblemInstance("equal_sums", items)
            else:
                shift = rng.randrange(sum(items))
                if plant:
                    a = rng.getrandbits(n)
                    b = rng.getrandbits(n) & ~a
                    planted = abs(sum(x * ((a >> i & 1) - (b >> i & 1)) for i, x in enumerate(items)))
                    shift = planted if planted < sum(items) else shift
                inst = ProblemInstance("shifted_sums", items, shift=shift)
            found += self._found(items, shift, inst, lambda pair: pair, trial)
        assert found >= 200

    def test_gate7_two_subset_family(self):
        # n <= 12, items <= 2^(2n), half the targets planted, through the reduction
        rng = random.Random(0xACC7)
        found = 0
        for trial in range(150):
            n = rng.randint(2, 12)
            items = [rng.randint(1, 1 << (2 * n)) for _ in range(n)]
            total = sum(items)
            target = sum(a * rng.randint(0, 2) for a in items) if rng.random() < 0.5 else 0
            if not 0 < target < 2 * total:
                target = rng.randint(1, 2 * total - 1)
            red = reduce_two_subset_to_shifted(items, target)
            if red.all_ones:
                continue
            inst = ProblemInstance("two_subset_sum", items, target=target)
            found += self._found(items, red.shifted.shift, inst, red.lift, trial)
        assert found >= 150


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

    def test_unknown_algo_is_refused(self):
        # a misspelt name used to run the dispatcher silently
        inst = ProblemInstance("equal_sums", (1, 2, 3))
        for bad in ("exhaustiv", "", "AUTO"):
            with pytest.raises(ValueError, match="algo"):
                solve_instance(inst, algo=bad)
        assert all(solve_instance(inst, algo=algo).found for algo in solvers.ALGOS)

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


# n = 18 subset-rep draws primes in [2^9, 2^10); items and a target divisible
# by all of them put every subset in the target's bin, past the scan cap.
_ALL_PRIMES_18 = math.prod(p for p in range(1 << 9, 1 << 10) if is_probable_prime(p))
_NO_TIME = SolverBudget(time_cap_ms=0.0)


@pytest.mark.parametrize(
    "solve, reason",
    [
        (lambda: solve_subset_sum_mitm((2, 4, 6), 5, _NO_TIME), "timed_out"),
        (lambda: solve_modular_subset_sum_mitm((2, 4, 6, 8), 1, 100, _NO_TIME), "timed_out"),
        (lambda: solve_subset_sum_rep((2, 4, 6, 8), 5, 0, _NO_TIME), "timed_out"),
        (
            lambda: solve_subset_sum_rep((_ALL_PRIMES_18,) * 18, 19 * _ALL_PRIMES_18, 0, SolverBudget(repeat_cap=1)),
            "repeat_cap",
        ),
        (lambda: solve_shifted_mitm((1, 2, 4, 8), 0, 0.5, 0, _NO_TIME), "timed_out"),
        (lambda: solve_shifted_mitm((1, 2, 4, 8), 0, 0.5, 0, SolverBudget(repeat_cap=2)), "repeat_cap"),
        (lambda: solve_shifted_rep((1, 2, 4, 8), 0, 0.5, 0, _NO_TIME), "timed_out"),
        (lambda: solve_shifted_rep((1, 2, 4, 8), 0, 0.5, 0), "repeat_cap"),
        (lambda: solve_shifted_exhaustive(tuple(1 << i for i in range(12)), 0, _NO_TIME), "timed_out"),
        (lambda: solve_shifted((1, 2, 4, 8), 0, 0, _NO_TIME), "timed_out"),
        (lambda: solve_shifted((1, 2, 4, 8), 0, 0, SolverBudget(memory_cap_bytes=500)), "exhaustive_skipped"),
        (lambda: solve_two_subset_sum((2, 4, 8, 16), 5, 0, _NO_TIME), "timed_out"),
        (lambda: solve_two_subset_sum((2, 4, 8, 16), 5, 0, SolverBudget(memory_cap_bytes=500)), "exhaustive_skipped"),
        (lambda: solve_instance(ProblemInstance("pigeonhole_equal", (1,) * 20), 0, _NO_TIME), "timed_out"),
        (lambda: pigeonhole.solve_pigeonhole_equal((1,) * 20, _NO_TIME), "timed_out"),
        # residues 3i + 1 mod 2^16 - 1: no zero, and q1 = 255 takes the dichotomy
        (lambda: pigeonhole.solve_pigeonhole_modular([(1 << 32) + 3 * i for i in range(1, 17)], (1 << 16) - 1, _NO_TIME),
         "timed_out"),
    ],
    ids=[
        "subset-mitm", "modular-mitm", "subset-rep", "subset-rep-draws", "shifted-mitm", "shifted-mitm-splits",
        "shifted-rep", "shifted-rep-draws", "exhaustive", "shifted-dispatch", "shifted-dispatch-skipped",
        "two-subset", "two-subset-skipped", "pigeonhole", "pigeonhole-equal", "pigeonhole-modular",
    ],
)
def test_inconclusive_names_its_reason(solve, reason):
    out = solve()
    assert out.status is SolveStatus.INCONCLUSIVE
    assert out.trace["reason"] == reason and out.trace[reason] is True


# Every public solver at n = 40 under a 1 MiB memory cap: it refuses, or its
# tracemalloc peak stays under the cap plus the walk-chunk temporaries that
# no cap charges (the _REP_ENTRY_BYTES comment puts them near 3.5 MB; the
# dispatcher peaked at 5.05 MiB).
_GUARD_CAP = 1 << 20
_GUARD_SLACK = 6 << 20
_GUARD = SolverBudget(sample_cap=0, time_cap_ms=200.0, memory_cap_bytes=_GUARD_CAP)
_GUARD_RNG = random.Random(40)
_GUARD_ITEMS = tuple(_GUARD_RNG.randrange(1, 1 << 48) for _ in range(40))
_GUARD_SMALL = tuple(_GUARD_RNG.randrange(1, 1 << 34) for _ in range(40))  # sum below 2^40 - 1
_GUARD_T = _GUARD_RNG.randrange(sum(_GUARD_ITEMS))
_GUARD_SOLVES = {  # each takes the budget
    "solve_subset_sum_mitm": lambda b: solve_subset_sum_mitm(_GUARD_ITEMS, _GUARD_T, b),
    "solve_modular_subset_sum_mitm": lambda b: solve_modular_subset_sum_mitm(_GUARD_ITEMS, _GUARD_T, (1 << 47) + 5, b),
    "solve_subset_sum_rep": lambda b: solve_subset_sum_rep(_GUARD_ITEMS, _GUARD_T, 0, b),
    "solve_shifted_mitm": lambda b: solve_shifted_mitm(_GUARD_ITEMS, _GUARD_T, 0.5, 0, b),
    "solve_shifted_rep": lambda b: solve_shifted_rep(_GUARD_ITEMS, _GUARD_T, 0.5, 0, b),
    "solve_shifted_exhaustive": lambda b: solve_shifted_exhaustive(_GUARD_ITEMS, _GUARD_T, b),
    "solve_shifted": lambda b: solve_shifted(_GUARD_ITEMS, _GUARD_T, 0, b),
    "solve_equal_sums": lambda b: solve_equal_sums(_GUARD_ITEMS, 0, b),
    "solve_two_subset_sum": lambda b: solve_two_subset_sum(_GUARD_ITEMS, _GUARD_T, 0, b),
    "solve_pigeonhole_equal": lambda b: pigeonhole.solve_pigeonhole_equal(_GUARD_SMALL, b),
    "solve_pigeonhole_modular": lambda b: pigeonhole.solve_pigeonhole_modular(_GUARD_ITEMS, (1 << 40) - 1, b),
}


def test_guard_covers_every_public_solver():
    public = {name for mod in (solvers, pigeonhole) for name in mod.__all__ if name.startswith("solve_")}
    assert public - {"solve_instance"} == set(_GUARD_SOLVES)  # solve_instance routes to these


@pytest.mark.parametrize("name", sorted(_GUARD_SOLVES))
def test_every_solver_honours_memory_cap(name):
    tracemalloc.start()
    try:
        _GUARD_SOLVES[name](_GUARD)
    except ResourceLimitError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < _GUARD_CAP + _GUARD_SLACK, f"{name} peaked at {peak} bytes"


def _stopped_on_time(out) -> bool:
    """An outcome under an expired time cap: INCONCLUSIVE only with reason "timed_out"."""
    if not isinstance(out, SolveOutcome):
        return False
    return out.status is not SolveStatus.INCONCLUSIVE or out.trace["reason"] == "timed_out"


_SMALL_RNG = random.Random(16)
_SMALL_ITEMS = tuple(_SMALL_RNG.randrange(1, 1 << 48) for _ in range(16))
_GUARD_INSTANCES = {  # every variant at n = 16, where no solver refuses
    "subset_sum": ProblemInstance("subset_sum", _SMALL_ITEMS, target=sum(_SMALL_ITEMS) // 2 + 1),
    "modular_subset_sum": ProblemInstance("modular_subset_sum", _SMALL_ITEMS, target=7, modulus=(1 << 47) + 5),
    "equal_sums": ProblemInstance("equal_sums", _SMALL_ITEMS),
    "shifted_sums": ProblemInstance("shifted_sums", _SMALL_ITEMS, shift=12345),
    "two_subset_sum": ProblemInstance("two_subset_sum", _SMALL_ITEMS, target=12345),
    "pigeonhole_equal": ProblemInstance("pigeonhole_equal", tuple(range(1, 17))),
    "pigeonhole_modular": ProblemInstance("pigeonhole_modular", _SMALL_ITEMS, modulus=(1 << 16) - 1),
}


@pytest.mark.parametrize("name", sorted(_GUARD_SOLVES))
def test_every_solver_stops_on_time_one_way(name):
    # time_cap_ms=0 ends in an outcome or a refusal; dpbins._TimedOut never escapes
    try:
        out = _GUARD_SOLVES[name](replace(_GUARD, time_cap_ms=0.0))
    except ResourceLimitError:
        return
    assert _stopped_on_time(out), name


@pytest.mark.parametrize("variant", sorted(_GUARD_INSTANCES))
@pytest.mark.parametrize("budget", [SolverBudget(time_cap_ms=0.0), replace(_GUARD, time_cap_ms=0.0)], ids=["default", "guard"])
def test_solve_instance_stops_on_time_one_way(variant, budget):
    inst = _GUARD_INSTANCES[variant]
    assert inst.variant == variant
    try:
        out = solve_instance(inst, seed=3, budget=budget)
    except ResourceLimitError:
        return
    assert _stopped_on_time(out), variant


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

    def test_pair_states_match_only_mod_word(self):
        # every pair-state difference of the last two cases is 0 mod 2^64,
        # so every left state is a wrapped candidate for every right state
        cases = [
            ((2**64 + 8, 1, 2), 7),
            (tuple((2 * i + 2) << 64 for i in range(8)), 0),
            (tuple(1 << (64 + i) for i in range(8)), 0),
        ]
        for items, shift in cases:
            inst = ProblemInstance("shifted_sums", items, shift=shift)
            want = brute_solve(inst).solvable
            out = solve_shifted_exhaustive(items, shift)
            assert out.found == want
            assert out.found or out.status is SolveStatus.NOT_FOUND
            for t in range(1, len(items) + 1):
                out = solve_shifted_mitm(items, shift, t / len(items), seed=t)
                if out.found:
                    assert want and verify(inst, out.witness)
