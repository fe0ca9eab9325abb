"""Residue-bin counting tables with indexed access to their subsets.

For items ``a_1..a_n`` and a modulus p, bin k is the family of subsets S of
{1..n} whose sum is congruent to k mod p. The table built here stores, for
every prefix length i and residue j, the exact number of subsets of the first
i items with sum = j (mod p):

    rows[0][j]  = 1 if j == 0 else 0
    rows[i][j]  = rows[i-1][j] + rows[i-1][(j - a_i) mod p]

so ``rows[n][k]`` is the size of bin k and each row i sums to 2^i. Counts are
exact. Whenever n <= 62, where no entry can exceed 2^62, rows are machine
words sized to their bound: row i holds at most 2^i, so rows 0..30 below row
n are int32 and the rest, row n (the bin sizes) included, int64. For n > 62
rows are lists of Python integers.

On top of the table, :func:`unrank` gives random access into a bin under a
fixed total order on subsets: S1 < S2 iff the largest index where they differ
belongs to S2, equivalently chi(S1) < chi(S2) for chi(S) = sum(2^i, i in S).
The walk resolves one index per step from n down to 1, so a query costs
O(n) table lookups and O(n)-word arithmetic: O(n^2) bit operations total.
Enumeration of a bin simply unranks index 1, 2, 3, ... so it needs no
per-bin cursor state and any slice of a bin can be streamed independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import Subset

__all__ = [
    "DEFAULT_MEMORY_CAP_BYTES",
    "ResourceLimitError",
    "CountTable",
    "BinRef",
    "build_table",
    "compare_chi",
    "unrank",
    "enumerate_bin",
]

DEFAULT_MEMORY_CAP_BYTES = 8 << 30

# Largest n for which every table entry (<= 2^n) fits a signed 64-bit word.
_INT64_SAFE_N = 62


class ResourceLimitError(RuntimeError):
    """The requested work would exceed a configured resource cap."""


@dataclass
class CountTable:
    """The (n+1) x p count table plus the item data needed to walk it."""

    items: tuple[int, ...]
    p: int
    # rows[i] is indexable by residue: an int32 ndarray for i <= 30 and
    # i < n, else int64; a list[int] for every row when n > 62.
    rows: list
    mods: tuple[int, ...]  # items reduced mod p, aligned with items

    @property
    def n(self) -> int:
        return len(self.items)

    def count(self, i: int, j: int) -> int:
        """Number of subsets of the first i items with sum = j (mod p)."""
        return int(self.rows[i][j])

    def bin_size(self, k: int) -> int:
        return int(self.rows[self.n][k])

    def bin_sizes(self) -> list[int]:
        return [int(c) for c in self.rows[self.n]]


def estimate_table_bytes(n: int, p: int) -> int:
    """Planning estimate used for the memory cap check.

    Entries are bounded by 2^n, i.e. up to n/8 bytes each, and the fast path
    stores words of at most 8 bytes; the estimate takes the larger of the
    two. It stays a conservative upper bound: rows 0..30 of the fast path
    take 4 bytes per entry.
    """
    return (n + 1) * p * max(8, n // 8)


def build_table(
    items: Sequence[int],
    p: int,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> CountTable:
    """Build the full count table in O(n^2 p) bit operations.

    p may be any positive integer (primality is never required; random primes
    are only a property of how callers pick p). p = 1 degenerates to a single
    bin holding all 2^n subsets.
    """
    items = tuple(int(a) for a in items)
    n = len(items)
    if not items:
        raise ValueError("items must be nonempty")
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    if any(a < 1 for a in items):
        raise ValueError("items must be positive integers")
    if estimate_table_bytes(n, p) > memory_cap_bytes:
        raise ResourceLimitError(
            f"table for n={n}, p={p} needs about {estimate_table_bytes(n, p)} bytes, "
            f"cap is {memory_cap_bytes}"
        )
    mods = tuple(a % p for a in items)

    if n <= _INT64_SAFE_N:
        # Row i holds counts up to 2^i, so rows 0..30 fit int32. Fewer bytes
        # mean fewer first-touch page faults, which are most of a fresh
        # build. Row n (the bin sizes) stays int64 for every reader.
        rows: list = []
        row = np.zeros(p, dtype=np.int32)
        row[0] = 1
        for i in range(n + 1):
            rows.append(row)
            if i < n:
                sh = mods[i]
                nxt = np.empty(p, dtype=np.int32 if i + 1 <= 30 and i + 1 < n else np.int64)
                nxt[:sh] = row[p - sh :]
                nxt[sh:] = row[: p - sh]
                nxt += row
                row = nxt
        return CountTable(items, p, rows, mods)

    row_big = [0] * p
    row_big[0] = 1
    rows = [list(row_big)]
    for i in range(n):
        sh = mods[i]
        rotated = row_big[-sh:] + row_big[:-sh] if sh else row_big
        row_big = [x + y for x, y in zip(row_big, rotated)]
        rows.append(list(row_big))
    return CountTable(items, p, rows, mods)


def compare_chi(s1: Subset, s2: Subset) -> int:
    """Three-way comparison in the enumeration order: -1, 0, or 1.

    The order is by chi(S) = sum(2^i for i in S); equivalently the largest
    index in the symmetric difference decides, and it favors the set that
    contains it.
    """
    a, b = s1.chi(), s2.chi()
    return (a > b) - (a < b)


def _unrank_mask(table: CountTable, k: int, index: int) -> tuple[int, int]:
    """Core walk: return (bit mask, exact item sum) of the index-th subset.

    ``index`` is 1-based within bin k. At step i the count of continuations
    that exclude item i is rows[i-1][j]; an index beyond them takes item i
    and retargets the residue j by -a_i.
    """
    rows = table.rows
    mods = table.mods
    items = table.items
    p = table.p
    # Counts are read as Python ints: a NumPy int32 scalar would turn
    # ``index`` into an int32 that overflows past 2^31.
    words = isinstance(rows[0], np.ndarray)
    mask = 0
    value = 0
    j = k
    for i in range(table.n, 0, -1):
        without = rows[i - 1].item(j) if words else rows[i - 1][j]
        if index > without:
            index -= without
            mask |= 1 << (i - 1)
            value += items[i - 1]
            j = (j - mods[i - 1]) % p
    return mask, value


_WORD_MASK = (1 << 64) - 1


def _require_word_rows(n: int) -> None:
    """The batched walk needs machine-word table rows: refuse n > 62."""
    if n > _INT64_SAFE_N:
        raise ResourceLimitError(
            f"the batched bin walk needs machine-word table rows (n <= {_INT64_SAFE_N}), got n={n}"
        )


class _TableStack(NamedTuple):
    """Tables over the same items with their rows laid end to end, so that
    one :func:`_bin_sums_batch` walk covers bins of all of them."""

    items: tuple[int, ...]
    rows: list  # rows[i]: row i of every table, one after another
    offset: np.ndarray  # where each table's residues start in a stacked row
    # steps[i, g]: the stacked position a walk at position g moves to when it
    # takes item i+1, residue j - a_{i+1} mod p of the same table
    steps: np.ndarray


def _stack_tables(tables: Sequence[CountTable]) -> _TableStack:
    """Stack machine-word tables that share their items (and so their n)."""
    p = np.array([t.p for t in tables], dtype=np.int64)
    offset = np.cumsum(p) - p
    of = np.repeat(np.arange(len(tables)), p)
    mods = np.array([t.mods for t in tables], dtype=np.int64).T[:, of]
    steps = (np.arange(p.sum()) - offset[of] - mods) % p[of] + offset[of]
    rows = [np.concatenate(level) for level in zip(*(t.rows for t in tables))]
    return _TableStack(tables[0].items, rows, offset, steps)


def _bin_sums_batch(
    table: CountTable | _TableStack,
    k,
    start,
    count: int,
    values: Sequence[int] | None = None,
    modulus: int = 0,
    which=None,
) -> np.ndarray:
    """Subset sums of ranks start .. start+count-1 of bin k.

    ``k`` and ``start`` may also be int64 arrays of ``count`` bins and
    1-based ranks, one pair per entry, so many bins go through in one call.
    Given ``which``, an array of ``count`` table indices, ``table`` is a
    :class:`_TableStack` and entry e walks bin k[e] of table which[e]: it
    starts at that table's row offset and moves by the stack's ``steps``,
    which stand for its p and item residues. Without ``which`` it is one
    table.

    The walk is that of :func:`_unrank_mask`, run level by level over the
    whole rank vector; callers that need the subsets themselves re-unrank
    the few ranks they care about. Valid only on machine-word rows, which
    callers check with :func:`_require_word_rows`.

    By default the table's items are summed mod 2^64, so exact-valued
    callers confirm candidates exactly (item sums below 2^64 are exact as
    is). Given ``values`` in [0, q) and ``modulus`` q < 2^62, those are
    summed instead, exactly mod q in int64: add, then subtract q once if the
    sum reached it, so nothing exceeds 2q < 2^63.
    """
    if np.ndim(start):
        idx = np.array(start, dtype=np.int64)
    else:
        idx = np.arange(start, start + count, dtype=np.int64)
    if np.ndim(k):
        j = np.array(k, dtype=np.int64)
    else:
        j = np.full(count, k, dtype=np.int64)
    if modulus:
        sums = np.zeros(count, dtype=np.int64)
        addends = [np.int64(v) for v in values]
    else:
        sums = np.zeros(count, dtype=np.uint64)
        addends = [np.uint64(a & _WORD_MASK) for a in table.items]
    # Branch-free steps: ``take`` holds 0/1 words, and a sign shift (x >> 63
    # is -1 exactly when x < 0) turns a comparison into an addend mask.
    # Masked ufuncs (``where=``) are several times slower on random masks.
    take = np.empty(count, dtype=np.int64)
    scratch = np.empty(count, dtype=np.int64)
    # ``take`` only writes its row's dtype: int32 rows go through a narrow
    # scratch that is widened once per level.
    narrow = np.empty(count, dtype=np.int32)
    contrib = scratch.view(sums.dtype)
    take_s = take.view(sums.dtype)
    rows = table.rows
    if which is None:
        mods = table.mods
        p = table.p
    else:
        np.add(j, table.offset[which], out=j)
    for i in range(len(table.items), 0, -1):
        row = rows[i - 1]
        if row.dtype == np.int32:
            row.take(j, out=narrow)
            np.copyto(scratch, narrow)
        else:
            row.take(j, out=scratch)
        np.greater(idx, scratch, out=take, casting="unsafe")
        np.multiply(scratch, take, out=scratch)
        np.subtract(idx, scratch, out=idx)
        if which is None:
            np.multiply(take, mods[i - 1], out=scratch)
            np.subtract(j, scratch, out=j)
            np.right_shift(j, 63, out=scratch)
            np.bitwise_and(scratch, p, out=scratch)
            np.add(j, scratch, out=j)
        else:
            table.steps[i - 1].take(j, out=scratch)
            np.subtract(scratch, j, out=scratch)
            np.multiply(scratch, take, out=scratch)
            np.add(j, scratch, out=j)
        np.multiply(take_s, addends[i - 1], out=contrib)
        np.add(sums, contrib, out=sums)
        if modulus:
            np.subtract(modulus - 1, sums, out=scratch)
            np.right_shift(scratch, 63, out=scratch)
            np.bitwise_and(scratch, modulus, out=scratch)
            np.subtract(sums, scratch, out=sums)
    return sums


_WALK_CHUNK = 1 << 15  # ranks per batched walk call (and needles per join chunk); bounds scratch memory


def _walk_bins(
    table: CountTable | _TableStack, bins: np.ndarray, ranks: np.ndarray, lo: int, hi: int,
    which: np.ndarray | None = None, values: Sequence[int] | None = None, modulus: int = 0,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Sums of positions lo .. hi-1 of ranks 1..ranks[b] of bin bins[b], for
    b = 0, 1, ... laid end to end: yields (first position, b of each entry,
    sums) a chunk of _WALK_CHUNK at a time. ``values`` and ``modulus`` are
    those of :func:`_bin_sums_batch`; given ``which``, ``table`` is a
    :class:`_TableStack` and bin b is one of table which[b]."""
    ends = np.cumsum(ranks)
    for a in range(lo, hi, _WALK_CHUNK):
        b = min(hi, a + _WALK_CHUNK)
        e = int(ends.searchsorted(a, "right"))  # the bin that holds position a
        if ends[e] >= b:
            # Inside one bin: the scalar form and a zero-stride bin index
            # leave out per-entry arrays, each a round of page faults.
            seg = np.broadcast_to(e, (b - a,))
            k, start = int(bins[e]), a - int(ends[e] - ranks[e]) + 1
            tab = None if which is None else int(which[e])
        else:
            counts = np.diff(np.clip(ends, a, b), prepend=a)
            seg = np.repeat(np.arange(ends.size), counts)
            k, start = np.repeat(bins, counts), np.repeat(ranks - ends + 1, counts) + np.arange(a, b)
            tab = None if which is None else np.repeat(which, counts)
        yield a, seg, _bin_sums_batch(table, k, start, b - a, values, modulus, tab)


def unrank(table: CountTable, k: int, index: int) -> Subset:
    """The index-th subset (1-based) of bin k in the chi order; O(n^2)."""
    if not 0 <= k < table.p:
        raise ValueError(f"residue k must be in [0, {table.p}), got {k}")
    size = table.bin_size(k)
    if not 1 <= index <= size:
        raise IndexError(f"index must be in [1, {size}] for this bin, got {index}")
    mask, _ = _unrank_mask(table, k, index)
    return Subset.from_mask(mask)


def enumerate_bin(
    table: CountTable,
    k: int,
    start: int = 1,
    count: int | None = None,
) -> Iterator[Subset]:
    """Stream bin k in chi order, re-running the unrank walk per index.

    Stateless by design: the cost is O(n^2) per yielded subset, and any
    window [start, start+count) can be produced without touching the rest
    of the bin.
    """
    if start < 1:
        raise IndexError(f"start must be at least 1, got {start}")
    size = table.bin_size(k)
    stop = size if count is None else min(size, start + count - 1)
    for index in range(start, stop + 1):
        mask, _ = _unrank_mask(table, k, index)
        yield Subset.from_mask(mask)


@dataclass
class BinRef:
    """A handle on one bin of a table."""

    table: CountTable
    k: int

    def __post_init__(self) -> None:
        if not 0 <= self.k < self.table.p:
            raise ValueError(f"residue k must be in [0, {self.table.p})")

    @property
    def size(self) -> int:
        return self.table.bin_size(self.k)

    def __len__(self) -> int:
        return self.size

    def subset_at(self, index: int) -> Subset:
        return unrank(self.table, self.k, index)

    def __iter__(self) -> Iterator[Subset]:
        return enumerate_bin(self.table, self.k)
