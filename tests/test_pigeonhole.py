"""Total collision finders and the quotient-class counting machinery."""

import random

import numpy as np
import pytest

import sumbins.dpbins as dpbins
from sumbins import solvers
from sumbins.core import Pair, ProblemInstance, Subset, verify
from sumbins.dpbins import DEFAULT_MEMORY_CAP_BYTES, ResourceLimitError, build_table
from sumbins.oracles import pigeonhole_mitm_check
from sumbins.pigeonhole import (
    QuotientDecomposition,
    _ModularContext,
    _repeat_masks,
    find_heavy_bin,
    solve_pigeonhole_equal,
    solve_pigeonhole_modular,
)
from sumbins.solvers import SolverBudget, SolveStatus, solve_instance


def S(*indices):
    return Subset.of(indices)


def mask_sum(items, mask):
    return sum(a for i, a in enumerate(items) if (mask >> i) & 1)


def context(items, q):
    return _ModularContext([a % q for a in items], q, DEFAULT_MEMORY_CAP_BYTES)


def count_b(items, q, i, j):
    """(count, None) or (None, oversized bin) of the dichotomy's class-interval
    count over [i, j]."""
    return context(items, q).count_b(i, j)


def check_oversized_bin(items, q, ctx, c):
    """Bin c is past the walk cap, and its capped prefix holds a verified pair."""
    assert ctx.sizes[c] > ctx.boundary_bin_cap
    pair = ctx.extract(c, c, ctx.boundary_bin_cap)
    assert verify(ProblemInstance("pigeonhole_modular", items, modulus=q), pair)
    d = ctx.decomp
    for s in (pair.s1, pair.s2):
        assert sum((items[k - 1] % q) >> d.h for k in s.indices) % d.q1 == c


class TestFindHeavyBin:
    def test_hand_case(self):
        # both bins of {1,2,3} mod 2 hold exactly 4 subsets, which is not
        # strictly above 2^3/2, so the fallback bin p-1 is chosen
        assert find_heavy_bin((1, 2, 3), 2) == 1

    def test_single_class(self):
        assert find_heavy_bin((1, 2, 3), 1) == 0

    def test_strictly_heavy_preferred(self):
        items = (2, 4, 6)  # all even: bin 0 holds all 8 subsets
        assert find_heavy_bin(items, 2) == 0

    def test_bin_large_enough_for_pigeonhole(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randrange(2, 13)
            total_cap = (1 << n) - 2
            items = []
            while len(items) < n:
                a = rng.randrange(1, max(2, total_cap // n))
                items.append(a)
            if sum(items) >= (1 << n) - 1:
                continue
            p = 1 << ((n + 1) // 2)
            table = build_table(items, p)
            k = find_heavy_bin(items, p, table)
            size = table.bin_size(k)
            if size > (1 << n) // p:
                continue  # strictly heavy, nothing more to check
            assert k == p - 1
            assert size == (1 << n) // p


class TestPigeonholeEqual:
    def test_four_items(self):
        items = (1, 2, 3, 4)
        pair = solve_pigeonhole_equal(items).witness
        assert verify(ProblemInstance("pigeonhole_equal", items), pair)

    def test_three_items(self):
        pair = solve_pigeonhole_equal((1, 2, 3)).witness
        assert {pair.s1, pair.s2} == {S(3), S(1, 2)}

    def test_duplicates_collide(self):
        pair = solve_pigeonhole_equal((3, 3, 1, 2)).witness
        items = (3, 3, 1, 2)
        assert mask_sum(items, pair.s1.mask()) == mask_sum(items, pair.s2.mask())
        assert pair.s1 != pair.s2

    def test_sum_cap_enforced(self):
        with pytest.raises(ValueError):
            solve_pigeonhole_equal((1, 2, 4))  # sum 7 = 2^3 - 1

    def test_dense_small_sweep(self):
        rng = random.Random(2)
        for n in range(2, 11):
            inst_cap = (1 << n) - 2
            for _ in range(30):
                items = []
                budget_left = inst_cap
                for i in range(n):
                    hi = max(1, budget_left - (n - i - 1))
                    a = rng.randrange(1, hi + 1)
                    items.append(a)
                    budget_left -= a
                if sum(items) >= (1 << n) - 1:
                    continue
                pair = solve_pigeonhole_equal(items).witness
                inst = ProblemInstance("pigeonhole_equal", items)
                assert verify(inst, pair), items


def _class_widths(d):
    """Number of residues in each quotient class (its single-class beta), read off ``fold``."""
    return np.bincount(d.fold(np.arange(d.q)), minlength=d.q1)


class TestQuotientDecomposition:
    def test_beta_singles_partition_q(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randrange(4, 16)
            q = rng.randrange(1 << ((n + 1) // 2), 1 << n)
            d = QuotientDecomposition.compute(n, q)
            widths = _class_widths(d)
            assert d.q1 * (1 << d.h) + d.q2 == q
            assert widths.size == d.q1 and widths.sum() == q

    def test_fold_counts_match_beta(self):
        # every class holds 2^h residues but the last, which takes the q2 left over
        d = QuotientDecomposition.compute(8, 777)
        counts = [0] * d.q1
        for r in range(777):
            counts[d.fold(r)] += 1
        assert counts == _class_widths(d).tolist() == [1 << d.h] * (d.q1 - 1) + [(1 << d.h) + d.q2]

    def test_beta_interval_matches_singles(self):
        rng = random.Random(5)
        d = QuotientDecomposition.compute(10, 29_000)
        widths = _class_widths(d)
        for _ in range(80):
            i = rng.randrange(d.q1)
            j = rng.randrange(d.q1)
            width = (j - i) % d.q1 + 1
            want = sum(int(widths[(i + t) % d.q1]) for t in range(width))
            assert d.beta_interval(i, j) == want

    def test_full_circle_is_q(self):
        d = QuotientDecomposition.compute(12, 3333)
        assert d.beta_interval(0, d.q1 - 1) == d.q


class TestCountBInterval:
    def brute_class_count(self, items, q, i, j):
        n = len(items)
        d = QuotientDecomposition.compute(n, q)
        width = (j - i) % d.q1 + 1
        wanted = {(i + t) % d.q1 for t in range(width)}
        return sum(
            1
            for m in range(1 << n)
            if d.fold(mask_sum(items, m) % q) in wanted
        )

    def test_matches_brute_on_random_intervals(self):
        rng = random.Random(6)
        checked = 0
        while checked < 40:
            n = rng.randrange(10, 13)
            q = rng.randrange((1 << (n - 1)) + 1, 1 << n)
            d = QuotientDecomposition.compute(n, q)
            if d.q1 <= 4 * n + 2:
                continue
            width = rng.randrange(2 * n, d.q1 - 2 * n + 1)
            i = rng.randrange(d.q1)
            j = (i + width - 1) % d.q1
            items = [rng.randrange(1, q) for _ in range(n)]
            ctx = context(items, q)
            count, c = ctx.count_b(i, j)
            if c is not None:
                check_oversized_bin(items, q, ctx, c)
            else:
                assert count == self.brute_class_count(items, q, i, j)
            checked += 1

    def test_width_preconditions(self):
        items = [5] * 12
        q = 60_000  # q1 = 937 at h = 6... recomputed below
        d = QuotientDecomposition.compute(12, q)
        with pytest.raises(ValueError):
            count_b(items, q, 0, 2)  # too narrow
        with pytest.raises(ValueError):
            count_b(items, q, 0, d.q1 - 1)  # too wide

    def test_constructed_marked_class(self):
        # all items below 2^h drop every subset into C-bin 0, whose size
        # 2^16 exceeds the boundary enumeration cap
        rng = random.Random(7)
        n = 16
        items = [rng.randrange(1, 256) for _ in range(n)]
        q = 140 * 256 + 3  # q1 = 140 > 8n + 4
        ctx = context(items, q)
        count, c = ctx.count_b(0, 39)
        assert count is None
        assert c == 0
        check_oversized_bin(items, q, ctx, c)

    def test_oversized_bins_on_skewed_instances(self, monkeypatch):
        # most items below 2^h crowd a few C-bins past the walk cap; a few
        # wide items spread them over more bins
        seen = []
        count_b = _ModularContext.count_b

        def spy(ctx, i, j):
            count, c = count_b(ctx, i, j)
            if c is not None:
                check_oversized_bin(ctx.residues, ctx.q, ctx, c)
                seen.append(c)
            return count, c

        monkeypatch.setattr(_ModularContext, "count_b", spy)
        rng = random.Random(14)
        for _ in range(80):
            n = rng.randrange(14, 19)  # q1 > 8n + 4 needs n >= 14
            h = (n + 1) // 2
            q = rng.randrange((8 * n + 5) << h, 1 << n)
            wide = rng.randrange(4)
            items = [rng.randrange(1, 1 << h) for _ in range(n - wide)]
            items += [rng.randrange(1, 1 << 32) for _ in range(wide)]
            rng.shuffle(items)
            inst = ProblemInstance("pigeonhole_modular", items, modulus=q)
            assert verify(inst, solve_pigeonhole_modular(items, q).witness), (items, q)
        assert len(seen) >= 20


class TestPigeonholeModular:
    def test_hand_cases(self):
        inst = ProblemInstance("pigeonhole_modular", (1, 2, 3, 4), modulus=15)
        assert verify(inst, solve_pigeonhole_modular((1, 2, 3, 4), 15).witness)
        inst = ProblemInstance("pigeonhole_modular", (1, 2, 3), modulus=7)
        assert verify(inst, solve_pigeonhole_modular((1, 2, 3), 7).witness)

    def test_zero_residue_shortcut(self):
        pair = solve_pigeonhole_modular((5, 14, 9), 7).witness
        assert pair == Pair(S(2), S())

    def test_q_one(self):
        pair = solve_pigeonhole_modular((5, 9), 1).witness
        assert pair.s1 != pair.s2

    def test_modulus_window(self):
        with pytest.raises(ValueError):
            solve_pigeonhole_modular((1, 2, 3), 8)
        with pytest.raises(ValueError):
            solve_pigeonhole_modular((1, 2, 3), 0)

    def test_marked_route_end_to_end(self):
        rng = random.Random(8)
        n = 16
        items = [rng.randrange(1, 256) for _ in range(n)]
        q = 140 * 256 + 3
        pair = solve_pigeonhole_modular(items, q).witness
        inst = ProblemInstance("pigeonhole_modular", items, modulus=q)
        assert verify(inst, pair)

    def test_dichotomy_keeps_right_halves(self, monkeypatch):
        # q just below 2^n with wide items spreads the subsets, so some
        # left halves are not overfull and the search moves right
        steps = []
        count_b = _ModularContext.count_b

        def spy(ctx, i, j):
            count, c = count_b(ctx, i, j)
            steps.append((i, j, c is None and count <= ctx.decomp.beta_interval(i, j)))
            return count, c

        monkeypatch.setattr(_ModularContext, "count_b", spy)
        rng = random.Random(13)
        right = 0
        for _ in range(40):
            n = rng.randrange(10, 17)
            q = (1 << n) - rng.randrange(1, 9)
            items = [rng.randrange(1, 1 << 32) for _ in range(n)]
            steps.clear()
            inst = ProblemInstance("pigeonhole_modular", items, modulus=q)
            assert verify(inst, solve_pigeonhole_modular(items, q).witness), (items, q)
            q1 = QuotientDecomposition.compute(n, q).q1
            for (i, mid, moved), (i_next, _, _) in zip(steps, steps[1:]):
                assert i_next == ((mid + 1) % q1 if moved else i)
            right += sum(moved for _, _, moved in steps)
        assert right

    def test_direct_route_small_q(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randrange(8, 14)
            q = rng.randrange(2, 8 * n + 4)
            items = [rng.randrange(1, q) for _ in range(n)]
            pair = solve_pigeonhole_modular(items, q).witness
            inst = ProblemInstance("pigeonhole_modular", items, modulus=q)
            assert verify(inst, pair)

    def test_random_sweep_all_routes(self):
        rng = random.Random(10)
        for _ in range(50):
            n = rng.randrange(2, 17)
            q = rng.randrange(1, 1 << n)
            items = [rng.randrange(1, max(2, 1 << n)) for _ in range(n)]
            pair = solve_pigeonhole_modular(items, q).witness
            inst = ProblemInstance("pigeonhole_modular", items, modulus=q)
            assert verify(inst, pair), (items, q)

    def test_agrees_with_mitm_check(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randrange(4, 15)
            q = rng.randrange(2, 1 << n)
            items = [rng.randrange(1, 1 << n) for _ in range(n)]
            inst = ProblemInstance("pigeonhole_modular", items, modulus=q)
            assert verify(inst, solve_pigeonhole_modular(items, q).witness)
            assert verify(inst, pigeonhole_mitm_check(items, q))


# (items, q, s1, s2) recorded from the sequential per-subset scan that the
# batched walk replaced. Indices 0-7 take the dichotomy route at n = 14..20,
# 8-10 the oversized-bin route (every item below 2^h puts all subsets in
# C-bin 0), 11-12 the direct small-q table.
GOLDEN_PAIRS = [
    ([8142435, 117535014, 49050730, 178100818, 32625137, 130058741, 239503673, 212907931, 140531361, 252153667, 142409723, 140006821, 202242284, 149008024], 15550, (4, 5, 9), (1, 2, 4, 7, 8, 9, 13)),
    ([918731826, 354126017, 630419505, 189312991, 512837534, 993469631, 1050872738, 550819401, 426128805, 590508400, 604998897, 92762770, 191566989, 761329168, 198955834], 32566, (1, 2, 3, 7, 9, 10, 12), (1, 6, 7, 9, 10, 13)),
    ([1085804641, 1352683391, 3884227482, 1930358854, 3279376299, 2425629148, 586420940, 3046105152, 3648076127, 18631673, 1403905851, 4196325072, 765053124, 3430988109, 53683860, 2384017346], 39408, (1, 3, 6, 7, 9, 11, 14), (1, 4, 5, 7, 9, 12, 14)),
    ([3357829332, 1548458156, 1388693196, 1638940511, 2184915881, 1471077567, 2126289792, 3864746212, 4167222665, 1628547293, 3296799188, 704952943, 1033493692, 1323322829, 1385631409, 1515279593], 36810, (4, 9, 10, 11), (1, 2, 3, 4, 7, 8, 9, 12)),
    ([7728080877, 6138312407, 1571856452, 13479713470, 11987936097, 13631334851, 11029295178, 16776718218, 5808451594, 8461294240, 4460925614, 6985155718, 1317784118, 14193699531, 8527167149, 11879363448, 8463118671], 98464, (1, 4, 7, 9, 11, 13), (2, 3, 4, 5, 9, 11, 12, 14)),
    ([47902741377, 1796356225, 31308536016, 33360937327, 55437026036, 25689739444, 4842494790, 7592973157, 10238632429, 5761670398, 32859047575, 12220866988, 13133556791, 32727827319, 68380930937, 12760690758, 25974460258, 56148046757], 97748, (2, 5, 6, 7, 9, 13), (3, 5, 6, 7, 10, 13)),
    ([21429678164, 51065911591, 190920817985, 139142572532, 30396333748, 207118221411, 239841497031, 79941704220, 140926838478, 247106089340, 240650455117, 171829424986, 56282045232, 427388007, 247295394169, 137964258197, 257295957407, 126463644705, 61465839048], 449501, (1, 2, 3, 5, 6, 8, 9, 10, 14, 15), (1, 6, 7, 8, 11, 12, 14, 15)),
    ([546960520224, 873449658883, 23176829233, 762095976054, 405757786563, 1088393434928, 328962455504, 127405608893, 592766249476, 762324442835, 159879284939, 636263586110, 221433730300, 714904593704, 316818651158, 1030873805354, 54060173073, 837692645269, 763445204334, 603906567496], 703729, (1, 2, 4, 5, 6, 10, 11, 12, 13), (2, 4, 7, 8, 9, 14, 15, 16)),
    ([93, 57, 4, 38, 95, 58, 52, 103, 4, 97, 19, 8, 49, 81], 15363, (2, 4), (5,)),
    ([140, 92, 122, 221, 60, 148, 51, 122, 134, 28, 197, 244, 91, 217, 134, 93], 35843, (2, 4), (1, 3, 7)),
    ([215, 236, 296, 219, 187, 246, 249, 320, 442, 241, 493, 241, 309, 66, 260, 181, 270, 279], 102403, (2, 3, 7), (1, 6, 8)),
    ([533, 10, 457, 526, 294, 659, 90, 22, 587, 792], 59, (), (2, 3, 4, 6)),
    ([2026, 1449, 1182, 1472, 3013, 1500, 3269, 1807, 2151, 1598, 2332, 1546], 68, (), (2, 3, 5)),
]


class TestGoldenPairs:
    @pytest.mark.parametrize("case", range(len(GOLDEN_PAIRS)))
    def test_same_pair_as_sequential_scan(self, case):
        items, q, s1, s2 = GOLDEN_PAIRS[case]
        assert solve_pigeonhole_modular(items, q).witness == Pair(Subset(s1), Subset(s2))

    def test_routes_covered(self):
        # the first halving step of the dichotomy counts [0, q1/2 - 1]
        routes = []
        for items, q, _, _ in GOLDEN_PAIRS:
            n = len(items)
            d = QuotientDecomposition.compute(n, q)
            if d.q1 <= 8 * n + 4:
                routes.append("direct")
            elif count_b(items, q, 0, d.q1 // 2 - 1)[1] is not None:
                routes.append("marked")
            else:
                routes.append("dichotomy")
        assert routes == ["dichotomy"] * 8 + ["marked"] * 3 + ["direct"] * 2


class TestWordRowLimit:
    def test_equal_refuses_n63(self):
        # p = 2^32 bins: a table of at least 2 TiB
        with pytest.raises(ResourceLimitError):
            solve_pigeonhole_equal([1] * 63)

    def test_dichotomy_refuses_n63(self):
        n = 63
        q = (1 << n) - 1
        items = [(1 << 40) + 3 * i for i in range(1, n + 1)]
        with pytest.raises(ResourceLimitError):
            solve_pigeonhole_modular(items, q)

    def test_direct_route_beyond_word_rows(self):
        items = list(range(1, 71))
        q = 101
        pair = solve_pigeonhole_modular(items, q).witness
        inst = ProblemInstance("pigeonhole_modular", items, modulus=q)
        assert verify(inst, pair)


class TestPrefixFallback:
    # q = 33,000,001 gives q1 = 125 <= 8n + 4 at n = 36, so the direct table
    # mod q (about 9.8 GB) is refused; q < 2^25 holds for the first 25 items.
    q = 33_000_001

    @staticmethod
    def instance():
        rng = random.Random(5)
        return [rng.randrange(1, 1 << 48) for _ in range(36)]

    def test_refused_table_reruns_on_prefix(self):
        items, q = self.instance(), self.q
        out = solve_pigeonhole_modular(items, q)
        assert out.found and out.trace["prefix"] == 25
        assert verify(ProblemInstance("pigeonhole_modular", items, modulus=q), out.witness)
        assert max(out.witness.s1.indices + out.witness.s2.indices) <= 25
        routed = solve_instance(ProblemInstance("pigeonhole_modular", items, modulus=q))
        assert routed.found and routed.witness == out.witness

    def test_prefix_keeps_the_deadline(self):
        out = solve_pigeonhole_modular(self.instance(), self.q, SolverBudget(time_cap_ms=0))
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["reason"] == "timed_out"
        assert out.trace["prefix"] == 25

    def test_refusal_stands_without_a_shorter_prefix(self):
        rng = random.Random(6)
        items = [rng.randrange(1, 1 << 32) for _ in range(20)]
        with pytest.raises(ResourceLimitError):  # k = n = 20
            solve_pigeonhole_modular(items, (1 << 20) - 1, SolverBudget(memory_cap_bytes=1 << 10))
        with pytest.raises(ResourceLimitError):  # the prefix's table is refused too
            solve_pigeonhole_modular(self.instance(), self.q, SolverBudget(memory_cap_bytes=1 << 10))


class TestExpiredBudget:
    def test_dichotomy_stops_when_expired(self):
        rng = random.Random(12)
        n = 16
        items = [rng.randrange(1, 1 << 32) for _ in range(n)]
        q = (1 << n) - 1
        out = solve_pigeonhole_modular(items, q, SolverBudget(time_cap_ms=0))
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["reason"] == "timed_out"
        assert solve_pigeonhole_modular(items, q).found

    def test_equal_stops_when_expired(self):
        items = [1] * 12
        out = solve_pigeonhole_equal(items, SolverBudget(time_cap_ms=0))
        assert out.status is SolveStatus.INCONCLUSIVE and out.trace["reason"] == "timed_out"
        assert solve_pigeonhole_equal(items).found

    @pytest.mark.parametrize("walk", ["_walk_bins", "_repeat_masks", "count_b"])
    def test_walk_stops_on_its_deadline(self, walk, monkeypatch):
        # each walk checks the deadline it is given before its first chunk
        rng = random.Random(12)
        n = 16
        q = (1 << n) - 1
        residues = [rng.randrange(1, 1 << 32) % q for _ in range(n)]
        table = _ModularContext(residues, q, DEFAULT_MEMORY_CAP_BYTES).table
        bins = np.arange(3)
        sizes = table.rows[n][bins]
        runs = {
            "_walk_bins": lambda dl: next(dpbins._walk_bins(table, bins, sizes, 0, int(sizes.sum()), deadline=dl)),
            "_repeat_masks": lambda dl: _repeat_masks(table, bins, int(sizes.sum()), residues, q, dl),
            "count_b": lambda dl: _ModularContext(residues, q, DEFAULT_MEMORY_CAP_BYTES, dl).count_b(0, 4 * n),
        }
        chunks, batch = [], dpbins._bin_sums_batch
        monkeypatch.setattr(dpbins, "_bin_sums_batch", lambda *a: chunks.append(a) or batch(*a))
        with pytest.raises(dpbins._TimedOut):
            runs[walk](solvers._Deadline(0))
        assert chunks == []
        runs[walk](solvers._Deadline(None))
        assert chunks
