"""The brute-force oracles are trusted elsewhere, so they get their own tests.

Every check here recomputes the expected answer inline with plain loops over
masks or {0,1,2} state vectors, independent of the numpy vectorization the
oracle module uses internally.
"""

import random
from itertools import product

import pytest

from sumbins.core import Pair, ProblemInstance, Subset, verify
from sumbins.dpbins import ResourceLimitError
from sumbins.oracles import (
    brute_bin,
    brute_bin_masks,
    brute_solve,
    collision_values,
    disjoint_pair_scan,
    pigeonhole_mitm_check,
)


def S(*indices):
    return Subset.of(indices)


def mask_sum(items, mask):
    return sum(a for i, a in enumerate(items) if (mask >> i) & 1)


class TestBruteBin:
    def test_matches_plain_filter(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randrange(1, 10)
            p = rng.randrange(1, 12)
            items = [rng.randrange(1, 99) for _ in range(n)]
            for k in range(p):
                want = [m for m in range(1 << n) if mask_sum(items, m) % p == k]
                assert list(brute_bin_masks(items, p, k)) == want
                assert brute_bin(items, p, k) == [Subset.from_mask(m) for m in want]

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            brute_bin([1] * 23, 3, 0)


class TestCollisionValues:
    def test_small_example(self):
        assert collision_values((1, 2, 3)) == {3}

    def test_powers_of_two_empty(self):
        assert collision_values((1, 2, 4, 8)) == set()

    def test_full_sum_shift(self):
        # s equal to the item total admits exactly the (full, empty) pair,
        # which is distinct, so the value set is {total} rather than empty
        assert collision_values((1, 2, 3), 6) == {6}

    def test_matches_plain_scan(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randrange(2, 9)
            items = [rng.randrange(1, 30) for _ in range(n)]
            s = rng.choice([0, 1, rng.randrange(0, sum(items))])
            want = set()
            for m1 in range(1 << n):
                for m2 in range(1 << n):
                    if m1 != m2 and mask_sum(items, m1) == mask_sum(items, m2) + s:
                        want.add(mask_sum(items, m1))
            assert collision_values(items, s) == want


class TestDisjointPairScan:
    def test_equal_sums_hand_case(self):
        count, max_pair, min_pair = disjoint_pair_scan((1, 2, 3), 0)
        assert count == 2
        assert {max_pair.s1, max_pair.s2} == {S(3), S(1, 2)}
        assert max_pair.is_disjoint() and min_pair.is_disjoint()

    def test_shifted_hand_case(self):
        count, max_pair, min_pair = disjoint_pair_scan((1, 2, 4), 1)
        assert count == 3
        assert (max_pair.s1, max_pair.s2) == (S(3), S(1, 2))
        assert (min_pair.s1, min_pair.s2) == (S(1), S())

    def test_no_solutions(self):
        count, max_pair, min_pair = disjoint_pair_scan((1, 2, 4, 8), 0)
        assert count == 0 and max_pair is None and min_pair is None

    def test_matches_plain_scan(self):
        rng = random.Random(77)
        for _ in range(12):
            n = rng.randrange(2, 8)
            items = [rng.randrange(1, 25) for _ in range(n)]
            s = rng.choice([0, rng.randrange(0, sum(items))])
            want = 0
            sizes = []
            for states in product((0, 1, 2), repeat=n):
                if s == 0 and not any(states):
                    continue
                d = sum(a * (1 if t == 1 else -1 if t == 2 else 0)
                        for a, t in zip(items, states))
                if d == s:
                    want += 1
                    sizes.append(sum(1 for t in states if t))
            count, max_pair, min_pair = disjoint_pair_scan(items, s)
            assert count == want
            if want:
                n_max = len(max_pair.s1) + len(max_pair.s2)
                n_min = len(min_pair.s1) + len(min_pair.s2)
                assert n_max == max(sizes)
                assert n_min == min(sizes)

    def test_crosses_the_vector_block_boundary(self):
        # n = 14 exercises the 3^12 vector block plus the outer product loop
        rng = random.Random(5)
        items = [rng.randrange(1, 50) for _ in range(14)]
        count, max_pair, _ = disjoint_pair_scan(items, 0)
        assert count > 0
        assert mask_sum(items, max_pair.s1.mask()) == mask_sum(items, max_pair.s2.mask())


class TestBruteSolve:
    def test_subset_sum_example(self):
        inst = ProblemInstance("subset_sum", (3, 5, 7), target=12)
        res = brute_solve(inst)
        assert res.solvable and res.witness == S(2, 3)
        assert res.count == 1

    def test_equal_sums_powers_unsolvable(self):
        res = brute_solve(ProblemInstance("equal_sums", (1, 2, 4, 8)))
        assert not res.solvable and res.witness is None

    def test_shifted_with_ratios(self):
        inst = ProblemInstance("shifted_sums", (1, 2, 4), shift=1)
        res = brute_solve(inst, with_ratios=True)
        assert res.solvable
        assert verify(inst, res.witness)
        assert res.count == 7  # ordered distinct pairs, overlaps allowed
        assert res.max_ratio == 1.0
        assert res.min_ratio == pytest.approx(1 / 3)

    def test_two_subset_witness_and_count(self):
        inst = ProblemInstance("two_subset_sum", (1, 2, 3), target=8)
        res = brute_solve(inst)
        assert res.solvable
        assert verify(inst, res.witness)
        want = sum(
            1
            for e in product((0, 1, 2), repeat=3)
            if e[0] + 2 * e[1] + 3 * e[2] == 8
        )
        assert res.count == want

    def test_two_subset_full_target(self):
        inst = ProblemInstance("two_subset_sum", (1, 2, 3), target=6)
        res = brute_solve(inst)
        assert res.witness == (1, 1, 1)

    def test_pigeonhole_modular_verdicts(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(2, 9)
            items = [rng.randrange(1, 1 << n) for _ in range(n)]
            q = rng.randrange(1, (1 << n))
            inst = ProblemInstance(
                "modular_subset_sum", items, target=rng.randrange(q), modulus=q
            )
            res = brute_solve(inst)
            want = [
                m
                for m in range(1 << n)
                if mask_sum(items, m) % q == inst.target
            ]
            assert res.solvable == bool(want)
            assert res.count == len(want)
            if want:
                assert verify(inst, res.witness)

    @pytest.mark.parametrize("q", [1 << 63, 1 << 64])
    def test_modulus_past_int64(self, q):
        # int64 mask sums are their own residues mod q: no overflow
        items = (1, 1, 1, 1, 6)
        for target in (5, 7, q - 1):
            res = brute_solve(ProblemInstance("modular_subset_sum", items, target=target, modulus=q))
            assert res.count == sum(mask_sum(items, m) == target for m in range(32))
            assert list(brute_bin_masks(items, q, target)) == [m for m in range(32) if mask_sum(items, m) == target]
        assert brute_solve(ProblemInstance("modular_subset_sum", items, target=7, modulus=q)).solvable


class TestPigeonholeMitmCheck:
    def test_small_example(self):
        inst = ProblemInstance("pigeonhole_modular", (1, 2, 3, 4), modulus=15)
        pair = pigeonhole_mitm_check((1, 2, 3, 4), 15)
        assert verify(inst, pair)

    def test_q_one_collides_immediately(self):
        pair = pigeonhole_mitm_check((5, 9), 1)
        assert pair.s1 != pair.s2

    def test_random_sweep(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randrange(2, 13)
            items = [rng.randrange(1, 1 << (n + 2)) for _ in range(n)]
            q = rng.randrange(1, 1 << n)
            pair = pigeonhole_mitm_check(items, q)
            assert pair.s1 != pair.s2
            d = mask_sum(items, pair.s1.mask()) - mask_sum(items, pair.s2.mask())
            assert d % q == 0
