"""Count table construction, the subset order, and indexed bin access."""

import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumbins.dpbins as dpbins
from sumbins.core import Subset
from sumbins.dpbins import (
    ResourceLimitError,
    build_table,
    compare_chi,
    enumerate_bin,
    estimate_table_bytes,
    unrank,
)
from sumbins.oracles import brute_bin, brute_bin_masks


def S(*indices):
    return Subset.of(indices)


def _unrank_sum(table, k, rank, values=None):
    """Exact sum of ``values`` (default the items) over the subset that
    dpbins._unrank_mask decodes for rank ``rank`` of bin k."""
    mask = dpbins._unrank_mask(table, k, rank)
    return sum(v for i, v in enumerate(table.items if values is None else values) if mask >> i & 1)


def _batch_sums(table, bins, ranks, values=None, modulus=0):
    """Sums of rank ranks[e] of bin bins[e], entry by entry, from one
    unsplit dpbins._bin_sums_batch call on arrays laid out as
    dpbins._walk_bins lays them out: items mod 2^64, or ``values`` mod
    ``modulus``."""
    size = len(ranks)
    words = values if modulus else [a % (1 << 64) for a in table.items]
    addends = np.array(words, dtype=np.int64 if modulus else np.uint64)
    work = (np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int32))
    return dpbins._bin_sums_batch(
        table, np.array(bins, dtype=np.int64), np.array(ranks, dtype=np.int64),
        np.zeros(size, dtype=addends.dtype), (0, 0, None, None, addends, modulus, work),
    )


class TestBuildTable:
    def test_three_items_mod_three(self):
        t = build_table((1, 2, 3), 3)
        assert t.bin_sizes() == [4, 2, 2]

    def test_row_zero(self):
        t = build_table((9, 4, 7), 5)
        assert [t.count(0, j) for j in range(5)] == [1, 0, 0, 0, 0]

    def test_single_item_mod_two(self):
        t = build_table((5,), 2)
        assert t.count(1, 0) == 1
        assert t.count(1, 1) == 1

    def test_row_sums_are_powers_of_two(self):
        t = build_table((3, 1, 4, 1, 5, 9, 2, 6), 7)
        for i in range(9):
            assert sum(t.count(i, j) for j in range(7)) == 1 << i

    def test_p_one_degenerate(self):
        t = build_table((4, 4, 4), 1)
        assert t.bin_sizes() == [8]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_table((), 3)
        with pytest.raises(ValueError):
            build_table((1, 2), 0)
        with pytest.raises(ValueError):
            build_table((0, 2), 3)

    def test_memory_cap(self):
        assert estimate_table_bytes(10, 8) == 11 * 8 * 8
        with pytest.raises(ResourceLimitError):
            build_table((1, 2, 3), 1 << 20, memory_cap_bytes=1 << 10)

    def test_memory_cap_charges_object_rows(self):
        # past n = 62 an entry is a pointer plus a Python int as large as 2^n
        rng = random.Random(63)
        items = [rng.randrange(1, 1 << 40) for _ in range(64)]
        tracemalloc.start()
        try:
            build_table(items, 1 << 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate_table_bytes(64, 1 << 10)

    def test_paths_agree(self, monkeypatch):
        # force the big-integer path on a size the int64 path also handles
        rng = random.Random(0)
        items = tuple(rng.randrange(1, 100) for _ in range(10))
        fast = build_table(items, 7)
        monkeypatch.setattr(dpbins, "_INT64_SAFE_N", 4)
        slow = build_table(items, 7)
        for i in range(11):
            for j in range(7):
                assert fast.count(i, j) == slow.count(i, j)

    def test_big_path_row_sums(self):
        # n = 63 exceeds the int64-safe bound, so entries are big ints
        rng = random.Random(1)
        items = tuple(rng.randrange(1, 1 << 16) for _ in range(63))
        t = build_table(items, 5)
        assert sum(t.bin_sizes()) == 1 << 63
        for i in (0, 1, 62, 63):
            assert sum(t.count(i, j) for j in range(5)) == 1 << i


def _recurrence_rows(items, p):
    """Reference rows by the defining recurrence, in Python integers."""
    row = [1] + [0] * (p - 1)
    rows = [row]
    for a in items:
        row = [row[j] + row[(j - a) % p] for j in range(p)]
        rows.append(row)
    return rows


class TestNarrowRows:
    # Row i counts at most 2^i subsets: rows 0..30 below row n are int32,
    # the rest int64.
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_dtypes_and_walks(self, data):
        n = data.draw(st.integers(1, 40))
        p = data.draw(st.integers(1, 3000))
        bits = data.draw(st.sampled_from([8, 40, 70]))
        items = data.draw(st.lists(st.integers(1, (1 << bits) - 1), min_size=n, max_size=n))
        t = build_table(items, p)
        for i, (row, want) in enumerate(zip(t.rows, _recurrence_rows(items, p))):
            assert row.dtype == (np.int32 if i <= 30 and i < n else np.int64)
            assert row.tolist() == want
        k = data.draw(st.integers(0, p - 1))
        size = t.bin_size(k)
        if size:
            start = data.draw(st.integers(1, size))
            count = min(size - start + 1, 64)
            got = _batch_sums(t, [k] * count, range(start, start + count))
            want = [_unrank_sum(t, k, r) % (1 << 64) for r in range(start, start + count)]
            assert got.tolist() == want

    def test_ranks_across_the_int32_bound(self):
        # With p = 1 every subset is in bin 0, and rank r is mask r - 1.
        items = tuple(range(1, 34))
        t = build_table(items, 1)
        assert [row.dtype for row in t.rows[30:]] == [np.int32] + [np.int64] * 3
        for r in (1, (1 << 31) - 1, 1 << 31, (1 << 31) + 1, 1 << 33):
            mask, value = dpbins._unrank_mask(t, 0, r), _unrank_sum(t, 0, r)
            assert type(mask) is int and type(value) is int
            assert mask == r - 1
            assert value == sum(a for i, a in enumerate(items) if mask >> i & 1)
        start = (1 << 31) - 2
        got = _batch_sums(t, [0] * 6, range(start, start + 6))
        assert got.tolist() == [
            sum(a for i, a in enumerate(items) if (r - 1) >> i & 1) for r in range(start, start + 6)
        ]

    def test_object_rows_past_62(self):
        # Past n = 62 rows hold Python ints: the last rank of every bin mod 3
        # is above 2^62, and mod 1 the last rank, 2^64, is the full set.
        rng = random.Random(64)
        items = tuple(rng.randrange(1, 1 << 20) for _ in range(64))
        t = build_table(items, 3)
        assert all(row.dtype == object for row in t.rows)
        for k in range(3):
            last = t.bin_size(k)
            assert last > 1 << 62
            s, before = unrank(t, k, last), unrank(t, k, last - 1)
            assert sum(items[i - 1] for i in s) % 3 == k
            assert compare_chi(before, s) == -1
        whole = build_table(items, 1)
        assert whole.bin_size(0) == 1 << 64
        assert unrank(whole, 0, 1 << 64).indices == tuple(range(1, 65))
        assert unrank(whole, 0, (1 << 63) + 1).indices == (64,)


class TestBandTable:
    """Rows lo..hi of the table (a band) against the full table: bin sizes,
    walk chunks and unranks are the same."""

    @staticmethod
    def _same_as_full(full, band, bins, modulus, ranks_of):
        assert band.bin_sizes() == full.bin_sizes()
        for i in range(band.lo, band.hi + 1):
            assert band.rows[i].tolist() == full.rows[i].tolist()
            assert band.rows[i].dtype == full.rows[i].dtype
        sizes = np.array([full.bin_size(k) for k in bins])
        values = [a % modulus for a in full.items] if modulus else None
        for v, q in ((None, 0), (values, modulus)):
            want = [(a, s.tolist()) for a, s in dpbins._walk_bins(full, np.array(bins), sizes, 0, int(sizes.sum()), v, q)]
            got = [(a, s.tolist()) for a, s in dpbins._walk_bins(band, np.array(bins), sizes, 0, int(sizes.sum()), v, q)]
            assert got == want
        for k in bins:
            for r in ranks_of(full.bin_size(k)):
                assert dpbins._unrank_mask(band, k, r) == dpbins._unrank_mask(full, k, r), (k, r)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_band_reads_as_the_full_table(self, data):
        n = data.draw(st.integers(1, 20))
        p = data.draw(st.one_of(st.integers(2, 64), st.integers(2, 1 << 12)))
        bits = data.draw(st.sampled_from([8, 48, 70]))
        items = data.draw(st.lists(st.integers(1, (1 << bits) - 1), min_size=n, max_size=n))
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        full, band = build_table(items, p), build_table(items, p, band=(lo, hi))
        bins = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
        modulus = data.draw(st.sampled_from([5, (1 << 61) + 1]))

        def ranks_of(size):
            # every rank of a bin under 2048 ranks, else its ends and a sample
            if size < 2048:
                return range(1, size + 1)
            return sorted({1, size, *data.draw(st.lists(st.integers(1, size), max_size=64))})

        self._same_as_full(full, band, bins, modulus, ranks_of)

    def test_every_band_of_small_tables(self):
        # every 0 <= lo <= hi <= n, every rank of every bin
        rng = random.Random(22)
        for n in (1, 2, 7, 9):
            items = [rng.randrange(1, 1 << 70) for _ in range(n)]
            for p in (2, 3, 11, 97):
                full = build_table(items, p)
                for lo in range(n + 1):
                    for hi in range(lo, n + 1):
                        band = build_table(items, p, band=(lo, hi))
                        assert (band.lo, band.hi) == (lo, hi)
                        self._same_as_full(full, band, range(p), 7, lambda size: range(1, size + 1))

    def test_thin_band_bin_sizes(self):
        # band (0, 0) of n = 20 mod 4096: 2^20 top residues, at most p of them distinct
        rng = random.Random(20)
        items = [rng.randrange(1, 1 << 48) for _ in range(20)]
        start = time.perf_counter()
        sizes = build_table(items, 4096, band=(0, 0)).bin_sizes()
        assert time.perf_counter() - start < 5
        assert sizes == build_table(items, 4096).bin_sizes()

    def test_bin_sizes_past_int32_rows(self):
        # rows[20] of n = 34 is int32, and each bin mod 3 holds about 2^34 / 3 > 2^31
        rng = random.Random(34)
        items = [rng.randrange(1, 1 << 40) for _ in range(34)]
        full, band = build_table(items, 3), build_table(items, 3, band=(7, 20))
        assert band.rows[20].dtype == np.int32
        assert band.bin_sizes() == [band.bin_size(k) for k in range(3)] == full.bin_sizes()
        assert sum(band.bin_sizes()) == 1 << 34

    def test_band_validated(self):
        for band in ((-1, 2), (2, 1), (0, 4)):
            with pytest.raises(ValueError):
                build_table((1, 2, 3), 5, band=band)

    def test_memory_cap_charges_the_band(self):
        # rows lo..hi, the 2^lo low and the 2^(n - hi) top residues
        n, p, band = 20, 4096, (7, 13)
        need = estimate_table_bytes(n, p, band)
        assert need == (7 * p + (1 << 7) + (1 << 7)) * 8
        assert estimate_table_bytes(n, p, (0, n)) == estimate_table_bytes(n, p) == (n + 1) * p * 8
        items = list(range(1, n + 1))
        with pytest.raises(ResourceLimitError):
            build_table(items, p, need * 2)
        assert build_table(items, p, need, band).bin_size(0) == build_table(items, p).bin_size(0)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                build_table(items, p, need - 1, band)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p  # refused before a row or list is allocated


class TestCompareChi:
    def test_empty_is_minimum(self):
        assert compare_chi(S(), S(1)) < 0

    def test_high_index_dominates(self):
        assert compare_chi(S(1, 2), S(3)) < 0

    def test_reflexive_equal(self):
        s = S(2, 5)
        assert compare_chi(s, s) == 0

    def test_matches_mask_order(self):
        subsets = [Subset.from_mask(m) for m in range(32)]
        for a in subsets:
            for b in subsets:
                want = (a.mask() > b.mask()) - (a.mask() < b.mask())
                got = compare_chi(a, b)
                assert (got > 0) - (got < 0) == want


class TestUnrank:
    def test_worked_example(self):
        t = build_table((1, 2, 3), 3)
        got = [unrank(t, 0, i) for i in range(1, 5)]
        assert got == [S(), S(1, 2), S(3), S(1, 2, 3)]

    def test_single_item_odd_bin(self):
        t = build_table((5,), 2)
        assert unrank(t, 1, 1) == S(1)

    def test_first_element_of_zero_bin_is_empty(self):
        t = build_table((6, 10, 15), 2)
        assert unrank(t, 0, 1) == S()

    def test_index_window_errors(self):
        t = build_table((1, 2, 3), 3)
        with pytest.raises(IndexError):
            unrank(t, 0, 0)
        with pytest.raises(IndexError):
            unrank(t, 0, 5)
        with pytest.raises(ValueError):
            unrank(t, 3, 1)
        with pytest.raises(ValueError):
            unrank(t, -1, 1)

    def test_matches_brute_bin_exactly(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(1, 11)
            p = rng.randrange(1, 14)
            items = [rng.randrange(1, 1 << 12) for _ in range(n)]
            t = build_table(items, p)
            for k in range(p):
                want = brute_bin(items, p, k)
                assert t.bin_size(k) == len(want)
                got = [unrank(t, k, i) for i in range(1, len(want) + 1)]
                assert got == want

    def test_big_path_unrank_consistent(self):
        rng = random.Random(2)
        items = tuple(rng.randrange(1, 1 << 16) for _ in range(63))
        t = build_table(items, 5)
        rng = random.Random(3)
        for k in range(5):
            size = t.bin_size(k)
            prev_chi = -1
            for index in sorted(rng.randrange(1, size + 1) for _ in range(4)):
                s = unrank(t, k, index)
                assert sum(items[i - 1] for i in s) % 5 == k
            # consecutive indices are strictly increasing in the order
            for index in (1, 2, 3):
                s = unrank(t, k, index)
                assert s.chi() > prev_chi
                prev_chi = s.chi()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_bin_streams_to_brute(self, data):
        n = data.draw(st.integers(1, 9))
        p = data.draw(st.integers(1, 11))
        items = data.draw(
            st.lists(st.integers(1, 500), min_size=n, max_size=n)
        )
        t = build_table(items, p)
        for k in range(p):
            assert list(enumerate_bin(t, k)) == brute_bin(items, p, k)


class TestSubsetSums:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_mask_sums(self, data):
        lead = data.draw(st.lists(st.integers(1, 3), max_size=2), label="leading axes")
        h = data.draw(st.integers(0, 10), label="values per list")
        if data.draw(st.booleans(), label="mod q"):  # exact residues mod q in int64
            q = data.draw(st.integers(1, 1 << 62), label="q")
            cell, dtype, mod = st.integers(0, q - 1), np.int64, q
        else:  # uint64 values whose sums wrap mod 2^64; h = 0 is the empty list, [0]
            q, cell, dtype, mod = 0, st.integers(0, (1 << 64) - 1), np.uint64, 1 << 64
        size = int(np.prod(lead, dtype=np.int64))
        flat = data.draw(st.lists(st.lists(cell, min_size=h, max_size=h), min_size=size, max_size=size))
        values = np.array(flat, dtype=dtype).reshape(*lead, h)
        got = dpbins._subset_sums(values, q)
        assert got.shape == (*lead, 1 << h) and got.dtype == dtype
        want = [[sum(v for i, v in enumerate(row) if mask >> i & 1) % mod for mask in range(1 << h)] for row in flat]
        assert got.reshape(size, 1 << h).tolist() == want


class TestBatchWalk:
    def test_word_sums_match_scalar_walk(self):
        rng = random.Random(31)
        items = [rng.randrange(1, 1 << 63) for _ in range(12)]
        t = build_table(items, 7)
        for k in range(7):
            size = t.bin_size(k)
            got = _batch_sums(t, [k] * size, range(1, size + 1))
            want = [_unrank_sum(t, k, r) % (1 << 64) for r in range(1, size + 1)]
            assert got.dtype == np.uint64
            assert got.tolist() == want

    def test_per_rank_bins_and_residues_mod_q(self):
        rng = random.Random(32)
        n = 9
        q = (1 << 61) + 1
        values = [rng.randrange(q - 1000, q) for _ in range(n)]  # sums wrap often
        values[1] = q - values[0]  # subset {1, 2} sums to exactly q
        t = build_table([rng.randrange(1, 50) for _ in range(n)], 7)
        bins, ranks, want = [], [], []
        for k in rng.sample(range(7), 7):
            for r in range(t.bin_size(k), 0, -1):
                mask = dpbins._unrank_mask(t, k, r)
                bins.append(k)
                ranks.append(r)
                want.append(sum(v for i, v in enumerate(values) if mask >> i & 1) % q)
        got = _batch_sums(t, bins, ranks, values, q)
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestBinWalk:
    """The chunked multi-bin walk against the scalar unrank."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_positions_match_scalar_unrank(self, data):
        n = data.draw(st.integers(1, 14))
        items = data.draw(st.lists(st.integers(1, (1 << 70) - 1), min_size=n, max_size=n))
        table = build_table(items, data.draw(st.integers(1, 40)))
        bins = data.draw(st.lists(st.integers(0, table.p - 1), min_size=1, max_size=8))
        # a bin may be empty, or walked only partly
        ranks = [data.draw(st.integers(0, table.bin_size(k))) for k in bins]
        lo = data.draw(st.integers(0, sum(ranks)))
        hi = data.draw(st.integers(lo, sum(ranks)))
        modulus = data.draw(st.sampled_from([0, 5, (1 << 61) + 1]))
        values = [a % modulus for a in items] if modulus else None
        chunk = data.draw(st.sampled_from([1, 3, 7, 1 << 15]))

        want = []
        for k, r in zip(bins, ranks):
            for rank in range(1, r + 1):
                want.append(_unrank_sum(table, k, rank, values) % (modulus or 1 << 64))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dpbins, "_WALK_CHUNK", chunk)
            walk = dpbins._walk_bins(table, np.array(bins), np.array(ranks), lo, hi, values, modulus)
            firsts, sums = [], []
            for first, part in walk:
                assert 0 < part.size <= chunk
                firsts.append(first)
                sums += part.tolist()
        assert firsts == list(range(lo, hi, chunk))
        assert sums == want[lo:hi]


class TestSplitWalk:
    """The split walk (top items by doubling, low items by one gather)
    against per-rank scalar unranks and the chunks of the plain walk."""

    @staticmethod
    def _walk(table, bins, ranks, lo, hi, values, modulus, chunk, split):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dpbins, "_WALK_CHUNK", chunk)
            mp.setattr(dpbins, "_split_levels", lambda *sizes: split)
            walk = dpbins._walk_bins(table, np.array(bins), np.array(ranks), lo, hi, values, modulus)
            firsts, sums = [], []
            for first, part in walk:
                firsts.append(first)
                sums += part.tolist()
        return firsts, sums

    @staticmethod
    def _scalar(table, bins, ranks, lo, hi, values, modulus):
        """Sums of positions lo .. hi-1 by scalar unranks."""
        sums, end = [], 0
        for k, r in zip(bins, ranks):
            for rank in range(max(1, lo - end + 1), min(r, hi - end) + 1):
                sums.append(_unrank_sum(table, k, rank, values) % (modulus or 1 << 64))
            end += r
        return sums

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_forced_split_matches_scalar_unrank(self, data):
        # n up to 40 puts int32 and int64 rows on both sides of the split
        n = data.draw(st.integers(1, 40))
        bits = data.draw(st.sampled_from([8, 40, 70]))
        items = data.draw(st.lists(st.integers(1, (1 << bits) - 1), min_size=n, max_size=n))
        table = build_table(items, data.draw(st.integers(1, 300)))
        bins = data.draw(st.lists(st.integers(0, table.p - 1), min_size=1, max_size=6))
        # a bin may be empty, or walked only partly
        ranks = [data.draw(st.integers(0, table.bin_size(k))) for k in bins]
        lo = data.draw(st.integers(0, sum(ranks)))
        hi = data.draw(st.integers(lo, min(sum(ranks), lo + 300)))
        modulus = data.draw(st.sampled_from([0, 5, (1 << 61) + 1]))
        values = [a % modulus for a in items] if modulus else None
        chunk = data.draw(st.sampled_from([1, 7, 64, 1 << 15]))
        m = data.draw(st.integers(0, min(n, 10)))
        L = data.draw(st.integers(0, min(n - m, 10)))

        firsts, sums = self._walk(table, bins, ranks, lo, hi, values, modulus, chunk, (m, L))
        assert firsts == list(range(lo, hi, chunk))
        assert sums == self._scalar(table, bins, ranks, lo, hi, values, modulus)

    def test_every_split_of_small_tables(self):
        # every (m, L) with m + L <= n, so m = n, L = n and L = n - 1 too
        rng = random.Random(41)
        for n in range(1, 10):
            items = [rng.randrange(1, 1 << 70) for _ in range(n)]
            table = build_table(items, rng.randrange(1, 12))
            for modulus in (0, (1 << 61) + 1, 7):
                bins = [rng.randrange(table.p) for _ in range(5)]
                ranks = [rng.randrange(table.bin_size(k) + 1) for k in bins]
                lo, hi = rng.randrange(sum(ranks) + 1), sum(ranks)
                values = [a % modulus for a in items] if modulus else None
                want = self._scalar(table, bins, ranks, lo, hi, values, modulus)
                for m in range(n + 1):
                    for L in range(n + 1 - m):
                        got = self._walk(table, bins, ranks, lo, hi, values, modulus, 5, (m, L))
                        assert got == (list(range(lo, hi, 5)), want), (n, modulus, m, L)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 62), st.integers(1, 1 << 20), st.integers(1, 1 << 62), st.integers(1, 1 << 34))
    def test_setup_stays_within_one_chunk(self, n, bins, ranks, positions):
        m, L = dpbins._split_levels(n, bins, ranks, positions)
        assert m + L <= n
        # what the split adds before the first chunk: top groups beyond the
        # bins themselves, low subsets and their residue starts
        setup = (bins << m if m else 0) + ((1 << L) + positions if L else 0)
        assert setup <= n * dpbins._WALK_CHUNK

    def test_huge_bin_setup_memory(self):
        # n=48 at p=4096: every bin holds about 2^36 subsets, so a split
        # sized by the ranks alone would need gigabytes before one chunk
        rng = random.Random(48)
        items = [rng.randrange(1, 1 << 60) for _ in range(48)]
        table = build_table(items, 4096)
        size = table.bin_size(7)
        tracemalloc.start()
        try:
            first, sums = next(dpbins._walk_bins(table, np.array([7]), np.array([size]), 0, size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == 0 and sums.size == dpbins._WALK_CHUNK
        assert sums.tolist() == [_unrank_sum(table, 7, r) % (1 << 64) for r in range(1, sums.size + 1)]
        assert peak <= 8 * 48 * dpbins._WALK_CHUNK


class TestEnumerateBin:
    def test_zero_count(self):
        t = build_table((1, 2, 3), 3)
        assert list(enumerate_bin(t, 0, count=0)) == []

    def test_prefix(self):
        t = build_table((1, 2, 3), 3)
        assert list(enumerate_bin(t, 0, count=2)) == [S(), S(1, 2)]

    def test_count_clamps_to_bin(self):
        t = build_table((1, 2, 3), 3)
        assert len(list(enumerate_bin(t, 0, count=99))) == 4

    def test_start_offset(self):
        t = build_table((1, 2, 3), 3)
        assert list(enumerate_bin(t, 0, start=3)) == [S(3), S(1, 2, 3)]

    def test_is_streaming(self):
        # consuming one element must not materialize the whole bin
        t = build_table(tuple(range(1, 21)), 4)
        it = enumerate_bin(t, 0)
        assert next(it) == S()

    def test_size_and_indexing(self):
        t = build_table((1, 2, 3), 3)
        assert t.bin_size(0) == 4
        assert unrank(t, 0, 2) == S(1, 2)
        assert list(enumerate_bin(t, 0)) == [S(), S(1, 2), S(3), S(1, 2, 3)]

    def test_residue_validated(self):
        # checked at the call, before any subset is asked for, as unrank does
        t = build_table((1, 2, 3), 3)
        for k in (-1, 3):
            with pytest.raises(ValueError):
                enumerate_bin(t, k)
            with pytest.raises(ValueError):
                unrank(t, k, 1)
        with pytest.raises(IndexError):
            enumerate_bin(t, 0, start=0)
