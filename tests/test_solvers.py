"""Solver verdicts, witnesses, budgets, and the dispatcher contract."""

import random
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumbins.dpbins as dpbins
import sumbins.solvers as solvers
from sumbins.core import Pair, ProblemInstance, Subset, subset_sum, verify
from sumbins.dpbins import ResourceLimitError, build_table, estimate_table_bytes
from sumbins.numtheory import random_prime, random_residue
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


def _ref_rep_join(table, shift, k, k2, scan1, scan2):
    """One draw's bin join as solve_shifted_rep ran it draw by draw: first
    exact pair by bin-k rank, then bin-k2 rank."""
    if not scan2:
        return None
    sums2 = dpbins._bin_sums_batch(table, k2, 1, scan2)
    order = np.argsort(sums2)
    sv = sums2[order]
    want = dpbins._bin_sums_batch(table, k, 1, scan1) - np.uint64(shift % (1 << 64))
    pos = np.searchsorted(sv, want)
    for rank in np.flatnonzero(pos < sv.size).tolist():
        hi = np.searchsorted(sv, want[rank], "right")
        group = sorted(g for g in order[pos[rank]:hi].tolist() if not (k2 == k and g == rank))
        if not group:
            continue
        mask, value = solvers._unrank_mask(table, k, rank + 1)
        for g in group:
            other, other_value = solvers._unrank_mask(table, k2, g + 1)
            if other != mask and value - other_value == shift:
                return mask, other
    return None


def _ref_shifted_rep(items, shift, ratio, seed, budget):
    """solve_shifted_rep one draw at a time, a table per draw: (status,
    masks, draw count, every draw's record)."""
    n = len(items)
    t = max(1, min(n - 1, round(ratio * n)))
    bn_bits, heavy = (n - t, 1 << t) if t > n // 2 else ((n + 1) // 2, solvers._ceil_half_pow(n))
    records = []
    for r in range(budget.resolved_repeat_cap(n)):
        p = random_prime(1 << bn_bits, 1 << (bn_bits + 1), derive_seed(seed, "shifted-rep-prime", t, r))
        k = random_residue(p, derive_seed(seed, "shifted-rep-residue", t, r))
        k2 = (k - shift) % p
        table = build_table(items, p)
        bins = [table.bin_size(k), table.bin_size(k2)]
        scans = [min(b, n * n * heavy) for b in bins]
        records.append({"p": p, "k": k, "bins": bins, "enumerated": scans})
        hit = _ref_rep_join(table, shift, k, k2, *scans)
        if hit:
            return SolveStatus.FOUND, hit, r + 1, records
    return SolveStatus.INCONCLUSIVE, None, len(records), records


class TestShiftedRepBatches:
    """Batched draws against the one-draw-at-a-time reference."""

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
        # the first batch is one draw, each later one as many as fill a walk chunk; None is 4n draws
        budget = SolverBudget(repeat_cap=data.draw(st.sampled_from([1, 2, 3, 8, None])))
        if n == 1:  # no prime range below 2^0
            with pytest.raises(ValueError):
                solve_shifted_rep(items, shift, t / n, seed, budget)
            return
        status, masks, draw_count, records = _ref_shifted_rep(items, shift, t / n, seed, budget)
        out = solve_shifted_rep(items, shift, t / n, seed, budget)
        assert out.status is status
        assert _masks(out) == masks
        assert out.trace.get("draw_count") == draw_count
        assert out.trace["draws"] == records[: solvers._TRACE_DRAWS]
        assert out.trace["draws_dropped"] == max(0, len(records) - solvers._TRACE_DRAWS)
        if out.found:
            assert verify(ProblemInstance("shifted_sums", items, shift=shift), out.witness)

    def test_deciding_draw_inside_a_batch(self):
        # Draws 3, 5-7, 9-15, ... are not the first of their batch: the first
        # exact pair must still come from the earliest draw that has one.
        rng = random.Random(6)
        budget = SolverBudget()
        inside = 0
        for seed in range(40):
            n = rng.randrange(8, 13)
            items = tuple(rng.randrange(1, 1 << 20) for _ in range(n))
            shift = abs(sum(items[: n // 3]) - sum(items[n // 3 : n // 2]))
            want = _ref_shifted_rep(items, shift, 0.5, seed, budget)
            out = solve_shifted_rep(items, shift, 0.5, seed, budget)
            assert (out.status, _masks(out), out.trace["draw_count"]) == want[:3]
            inside += out.found and want[2] not in (1, 2, 4, 8, 16, 32)
        assert inside >= 3

    def test_match_across_draws_is_no_pair(self, monkeypatch):
        # Every subset sum is 0 mod 2^64, so with shift = -_TAG mod 2^64 the
        # key draw d wants from bin k2, d * _TAG - shift = (d + 1) * _TAG,
        # is the key of every bin-k2 rank of draw d + 1 and of none of its
        # own: the join rejects those matches before confirming any.
        items = tuple((2 * i + 2) << 64 for i in range(6))
        shift = (1 << 64) - int(solvers._TAG)
        table = build_table(items, 5)
        draws = []
        for k in range(5):
            k2 = (k - shift) % 5
            assert not dpbins._bin_sums_batch(table, k, 1, table.bin_size(k)).any()
            draws.append((0, k, k2, table.bin_size(k), table.bin_size(k2)))
        unranked = []
        with monkeypatch.context() as m:
            m.setattr(solvers, "_unrank_mask", lambda *a: unranked.append(a))
            assert solvers._shifted_rep_join(items, shift, [table], draws, solvers._Deadline(None)) == (None, False)
        assert unranked == []
        out = solve_shifted_rep(items, shift, 0.5, seed=1)
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["batches"] > 1

    def test_shift_zero_self_matches_are_never_confirmed(self, monkeypatch):
        # Powers of two have distinct subset sums: at shift 0 each bin-k rank
        # meets only itself, and none of them reaches exact confirmation.
        items = tuple(1 << i for i in range(12))
        tables = [build_table(items, p) for p in (7, 11, 13)]
        draws = [(i, k, k, tables[i].bin_size(k), tables[i].bin_size(k)) for i, k in ((0, 3), (1, 0), (2, 12), (0, 5))]
        unranked = []
        monkeypatch.setattr(solvers, "_unrank_mask", lambda *a: unranked.append(a))
        assert solvers._shifted_rep_join(items, 0, tables, draws, solvers._Deadline(None)) == (None, False)
        assert unranked == []
        out = solve_shifted_rep(items, 0, 0.5, seed=2)
        assert out.status is SolveStatus.INCONCLUSIVE and unranked == []

    def test_trace_counts_batches_tables_and_dropped_draws(self):
        out = solve_shifted_rep(tuple(1 << i for i in range(16)), 0, 0.5, seed=3)
        trace = out.trace
        assert trace["draw_count"] == 64
        assert len(trace["draws"]) == solvers._TRACE_DRAWS
        assert trace["draws_dropped"] == 64 - solvers._TRACE_DRAWS
        assert 1 < trace["batches"] < 64  # 1 + 63 draws
        assert trace["tables_built"] <= 64 and len({d["p"] for d in trace["draws"]}) <= trace["tables_built"]
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

    def test_lone_draw_walks_its_own_table(self):
        # A batch with one walked draw on its second table (the draws of the
        # first were repeats) must walk that table, not tables[0].
        rng = random.Random(31)
        items = tuple(rng.randrange(1 << 19, 1 << 20) for _ in range(3)) + tuple(
            rng.randrange(1, 1 << 18) for _ in range(7)
        )
        shift = sum(items[:3]) - sum(items[3:5])
        tables = [build_table(items, 5), build_table(items, 31)]
        k = sum(items[:3]) % 31
        draw = (1, k, (k - shift) % 31, tables[1].bin_size(k), tables[1].bin_size((k - shift) % 31))
        want = _ref_rep_join(tables[1], shift, *draw[1:])
        assert want is not None
        hit, timed_out = solvers._shifted_rep_join(items, shift, tables, [draw], solvers._Deadline(None))
        assert not timed_out and hit[0] == 0
        assert _masks(SolveOutcome(SolveStatus.FOUND, hit[1], 0, 0.0, {})) == want

    def test_small_bins_take_at_most_three_batches(self):
        # Powers of two have distinct sums: at n=15, p in [128, 256), every
        # bin holds under 256 ranks, and the class has no pair at shift 0.
        items = tuple(1 << i for i in range(15))
        for seed in range(4):
            out = solve_shifted_rep(items, 0, 0.5, seed)
            assert out.status is SolveStatus.INCONCLUSIVE and out.trace["draw_count"] == 60
            assert all(max(d["bins"]) < 256 for d in out.trace["draws"])
            assert out.trace["batches"] <= 3

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
        # Room for any one table of p in [64, 128) and a few bin-k2 entries,
        # but not for two tables: one draw per batch, its scan capped.
        cap = estimate_table_bytes(12, 127) + 10 * solvers._REP_ENTRY_BYTES
        out = solve_shifted_rep(items, 0, 0.5, seed=0, budget=SolverBudget(memory_cap_bytes=cap))
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace["draw_count"] == 48 == out.trace["batches"]
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
        with pytest.raises(ResourceLimitError):
            solve_shifted_exhaustive(tuple(range(1, 26)), 0)

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

    def test_skips_exhaustive_above_cap(self, monkeypatch):
        monkeypatch.setattr(solvers, "_EXHAUSTIVE_CAP_N", 3)
        out = solve_shifted((1, 2, 4, 8), 0, seed=0, budget=SolverBudget(repeat_cap=1))
        assert out.status is SolveStatus.INCONCLUSIVE
        assert out.trace.get("exhaustive_skipped")

    def test_phase_trace(self):
        out = solve_shifted((1, 2, 4, 8), 0, seed=0, budget=SolverBudget(repeat_cap=1))
        assert out.trace["algorithm"] == "shifted-dispatch"
        assert out.trace["phases"]

    def test_phase_times_and_reasons(self, monkeypatch):
        out = solve_shifted((1, 2, 4, 8, 16), 0, seed=0, budget=SolverBudget(repeat_cap=1))
        assert [p["t"] for p in out.trace["phases"]] == [4, 3, 2, 1, "all"]
        assert all(p["elapsed_ms"] >= 0.0 for p in out.trace["phases"])
        assert "reason" not in out.trace
        late = solve_shifted((1, 2, 4, 8, 16), 0, seed=0, budget=SolverBudget(time_cap_ms=0.0))
        assert late.status is SolveStatus.INCONCLUSIVE
        assert late.trace["reason"] == "timed_out" and late.trace["timed_out"] is True
        monkeypatch.setattr(solvers, "_EXHAUSTIVE_CAP_N", 3)
        big = solve_shifted((1, 2, 4, 8), 0, seed=0, budget=SolverBudget(repeat_cap=1))
        assert big.trace["reason"] == "exhaustive_skipped" and big.trace["exhaustive_skipped"] is True


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
