"""Residue-bin counting tables with indexed access to their subsets.

For items ``a_1..a_n`` and a modulus p, bin k is the family of subsets S of
{1..n} whose sum is congruent to k mod p. The table built here stores, for
every prefix length i and residue j, the exact number of subsets of the first
i items with sum = j (mod p):

    rows[0][j]  = 1 if j == 0 else 0
    rows[i][j]  = rows[i-1][j] + rows[i-1][(j - a_i) mod p]

so ``rows[n][k]`` is the size of bin k and each row i sums to 2^i. Counts are
exact. Rows are numpy arrays: whenever n <= 62, where no entry can exceed
2^62, machine words sized to their bound (row i holds at most 2^i, so rows
0..30 below row n are int32 and the rest, row n included, int64), and for
n > 62 ``object`` arrays of Python integers.

On top of the table, :func:`unrank` gives random access into a bin under a
fixed total order on subsets: S1 < S2 iff the largest index where they differ
belongs to S2, equivalently chi(S1) < chi(S2) for chi(S) = sum(2^i, i in S).
The walk resolves one index per step from n down to 1, so a query costs
O(n) table lookups and O(n)-word arithmetic: O(n^2) bit operations total.
Enumeration needs no per-bin cursor state: :func:`enumerate_bin` streams
any window of a bin alone, and the solvers' batched walk (:func:`_walk_bins`)
resolves a chunk's top and low items from a split of the items and walks
only the levels between them rank by rank. Each walk lists its own top and
low parts, from one enumerator (:func:`_subset_sums`) that also lists the
meet-in-the-middle halves, so a table is plain data once built.

A walk split at (m, L) reads rows L .. n - m only, so a caller that knows
its split builds just that band of rows (``build_table(..., band=(L, n - m))``).
Every table, the full band (0, n) too, lists the residues of its low and top
parts' subsets, row lo counts the low ones, and a bin's size sums row hi over
the residues the top ones leave; a full table's parts are the empty set.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .core import Subset

__all__ = [
    "DEFAULT_MEMORY_CAP_BYTES",
    "ResourceLimitError",
    "CountTable",
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


class _TimedOut(Exception):
    """A solver's time cap ran out; each public solver returns it as INCONCLUSIVE."""


@dataclass
class CountTable:
    """Rows lo..hi of the (n+1) x p count table plus the item data needed to walk it.

    The full table is the band (0, n). Rows end at hi and are None below lo;
    ``low_res`` and ``top_res`` hold the residues mod p of the subsets of the
    first lo items and of the last n - hi items, by mask (``[0]`` for an
    empty part). Readers never write to it."""

    items: tuple[int, ...]
    p: int
    # rows[i] is an ndarray indexed by residue: int32 for i <= 30 and i < n,
    # else int64; object (Python ints) for every row when n > 62.
    rows: list
    mods: tuple[int, ...]  # items reduced mod p, aligned with items
    lo: int
    low_res: np.ndarray = field(repr=False, compare=False)
    top_res: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def hi(self) -> int:
        return len(self.rows) - 1

    def count(self, i: int, j: int) -> int:
        """Number of subsets of the first i items with sum = j (mod p); lo <= i <= hi."""
        return int(self.rows[i][j])

    def bin_size(self, k: int) -> int:
        """Size of bin k: rows[hi] summed, in row n's dtype, over the residues the top subsets leave."""
        return int(self.rows[self.hi][(k - self.top_res) % self.p].sum(dtype=_row_dtype(self.n, self.n)))

    def bin_sizes(self) -> list[int]:
        """Every bin size: rows[hi] rolled by each distinct top residue, times its count."""
        row = self.rows[self.hi].astype(_row_dtype(self.n, self.n))
        res, times = np.unique(self.top_res, return_counts=True)
        return sum(np.roll(row, r) * c for r, c in zip(res.tolist(), times.tolist())).tolist()


def estimate_table_bytes(n: int, p: int, band: tuple[int, int] | None = None) -> int:
    """Planning estimate used for the memory cap check.

    Up to n = 62 an entry is one machine word, charged 8 bytes (rows 0..30
    take 4, so the estimate stays an upper bound). Past that, rows hold
    Python ints: an 8-byte pointer plus an int object as large as 2^n. A
    band (lo, hi) other than (0, n) is also charged its 2^lo low and
    2^(n - hi) top residues.
    """
    lo, hi = band or (0, n)
    lists = (1 << lo) + (1 << (n - hi)) if (lo, hi) != (0, n) else 0
    return ((hi - lo + 1) * p + lists) * (8 if n <= _INT64_SAFE_N else 8 + sys.getsizeof(1 << n))


def build_table(
    items: Sequence[int],
    p: int,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
    band: tuple[int, int] | None = None,
) -> CountTable:
    """Build the full count table in O(n^2 p) bit operations, or only rows
    lo..hi of it for ``band`` = (lo, hi).

    p may be any positive integer (primality is never required; random primes
    are only a property of how callers pick p). p = 1 degenerates to a single
    bin holding all 2^n subsets. Row lo is one count of the low subsets'
    residues (row 0 counts the empty set alone), and the recurrence fills
    rows lo+1..hi from it.
    """
    items = tuple(int(a) for a in items)
    n = len(items)
    if not items:
        raise ValueError("items must be nonempty")
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    if any(a < 1 for a in items):
        raise ValueError("items must be positive integers")
    lo, hi = band or (0, n)
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"band must satisfy 0 <= lo <= hi <= {n}, got {band}")
    need = estimate_table_bytes(n, p, band)
    if need > memory_cap_bytes:
        raise ResourceLimitError(f"table for n={n}, p={p} needs about {need} bytes, cap is {memory_cap_bytes}")
    mods = tuple(a % p for a in items)

    low_res, top_res = (_subset_sums(np.array(part, dtype=np.int64), p) for part in (mods[:lo], mods[hi:]))
    rows = [None] * lo + [np.bincount(low_res, minlength=p).astype(_row_dtype(lo, n), copy=False)]
    for i in range(lo + 1, hi + 1):
        row, nxt, sh = rows[-1], np.empty(p, dtype=_row_dtype(i, n)), mods[i - 1]
        nxt[:sh] = row[p - sh :]
        nxt[sh:] = row[: p - sh]
        nxt += row
        rows.append(nxt)
    return CountTable(items, p, rows, mods, lo, low_res, top_res)


def _row_dtype(i: int, n: int):
    """Row i holds counts up to 2^i, so rows 0..30 fit int32. Fewer bytes
    mean fewer first-touch page faults, which are most of a fresh build.
    Row n (the bin sizes) stays int64 for every reader. Past n = 62 rows
    hold Python ints."""
    return object if n > _INT64_SAFE_N else np.int32 if i <= 30 and i < n else np.int64


def compare_chi(s1: Subset, s2: Subset) -> int:
    """Three-way comparison in the enumeration order: -1, 0, or 1.

    The order is by chi(S) = sum(2^i for i in S); equivalently the largest
    index in the symmetric difference decides, and it favors the set that
    contains it.
    """
    a, b = s1.chi(), s2.chi()
    return (a > b) - (a < b)


def _unrank_mask(table: CountTable, k: int, index: int) -> int:
    """Core walk: return the bit mask of the index-th subset.

    ``index`` is 1-based within bin k. At step i the count of continuations
    that exclude item i is rows[i-1][j]; an index beyond them takes item i
    and retargets the residue j by -a_i. A band (lo, hi) first picks the
    top subset whose group (bin size within rows[hi]) holds the index, walks
    levels hi .. lo + 1, then takes the index-th low subset of residue j.
    Callers that need the subset's sum add up its items themselves.
    """
    rows, mods, p, lo, hi = table.rows, table.mods, table.p, table.lo, table.hi
    # Counts are read as Python ints: a NumPy int32 scalar would turn
    # ``index`` into an int32 that overflows past 2^31.
    mask, j = 0, k
    if hi < table.n:
        groups = k - table.top_res
        groups += p & (groups >> 63)  # mod p: an int64 % is several times slower
        ends = np.cumsum(rows[hi][groups], dtype=np.int64)
        top = int(ends.searchsorted(index))
        index -= int(ends[top - 1]) if top else 0
        mask, j = top << hi, int(groups[top])
    for i in range(hi, lo, -1):
        without = rows[i - 1].item(j)
        if index > without:
            index -= without
            mask |= 1 << (i - 1)
            j = (j - mods[i - 1]) % p
    if lo:
        mask |= int(np.flatnonzero(table.low_res == j)[index - 1])
    return mask


_WORD_MASK = (1 << 64) - 1


def _require_word_rows(n: int) -> None:
    """The batched walk needs machine-word table rows: refuse n > 62."""
    if n > _INT64_SAFE_N:
        raise ResourceLimitError(
            f"the batched bin walk needs machine-word table rows (n <= {_INT64_SAFE_N}), got n={n}"
        )


def _subset_sums(values: np.ndarray, q: int = 0) -> np.ndarray:
    """Subset sums of ``values[..., i]`` by mask: entry sum(2^i, i in S) holds
    S's sum. Built in place, one doubling per item; leading axes are
    independent lists. Given q, values lie in [0, q) and each step subtracts
    q once; else the dtype's own arithmetic holds (uint64 wraps mod 2^64)."""
    h = values.shape[-1]
    sums = np.zeros((*values.shape[:-1], 1 << h), dtype=values.dtype)
    for i in range(h):
        more = sums[..., 1 << i : 2 << i]
        np.add(sums[..., : 1 << i], values[..., i, None], out=more)
        if q:
            more -= q * (more >= q)
    return sums


def _low_part(table: CountTable, L: int, addends: np.ndarray, modulus: int) -> tuple:
    """(starts, sums) of the subsets of the first L items sorted by (residue,
    mask) in one sort: those with sum = j (mod p) are sums[starts[j] + r],
    r = 1 .. rows[L][j], summed from the walk's ``addends`` (mod ``modulus``
    if given, else mod 2^64). Built per walk."""
    res = table.low_res if L == table.lo else _subset_sums(np.array(table.mods[:L], dtype=np.int64), table.p)
    order = np.sort(res << L | np.arange(1 << L)) & ((1 << L) - 1)
    # the split keeps 2^L below 2^31, so int32 rows suit the starts
    starts = np.cumsum(table.rows[L], dtype=table.rows[L].dtype)
    starts -= table.rows[L] + 1
    return starts, _subset_sums(addends[:L], modulus)[order]


def _bin_sums_batch(table: CountTable, j: np.ndarray, idx: np.ndarray, sums: np.ndarray, split: tuple) -> np.ndarray:
    """Sums of the subsets of rank idx[e] (1-based) of bin j[e], entry by
    entry, over the entries of one :func:`_walk_bins` chunk.

    The walk is that of :func:`_unrank_mask`, run level by level over the
    whole chunk in place: ``j`` and ``idx`` are the walk's work arrays and
    end up as scratch. Callers that need the subsets themselves re-unrank
    the few ranks they care about. Valid only on machine-word rows, which
    callers check with :func:`_require_word_rows`. ``split``, (m, L, starts,
    low sums, addends, modulus, scratch) from :func:`_walk_bins`, walks
    levels n - m .. L + 1 only, onto ``sums`` (the top items'), and gathers
    the low items' sums.

    Without a modulus the addends are the items mod 2^64, so exact-valued
    callers confirm candidates exactly (item sums below 2^64 are exact as
    is). Given values in [0, q) and modulus q < 2^62, those are summed
    exactly mod q in int64: add, then subtract q once if the sum reached it,
    so nothing exceeds 2q < 2^63.
    """
    m, L, starts, low, addends, modulus, work = split
    take, scratch, narrow = (w[: j.size] for w in work)
    # Branch-free steps: ``take`` holds 0/1 words, and a sign shift (x >> 63
    # is -1 exactly when x < 0) turns a comparison into an addend mask.
    # Masked ufuncs (``where=``) are several times slower on random masks.
    contrib = scratch.view(sums.dtype)
    take_s = take.view(sums.dtype)

    def gather(row: np.ndarray) -> None:
        # row[j] into ``scratch`` (int32 rows via ``narrow``: ``take`` writes its
        # row's dtype); "clip" (no index is out of range) is not buffered.
        if row.dtype == np.int32:
            row.take(j, out=narrow, mode="clip")
            np.copyto(scratch, narrow)
        else:
            row.take(j, out=scratch, mode="clip")

    def add(part: np.ndarray) -> None:
        np.add(sums, part, out=sums)
        if modulus:
            np.subtract(modulus - 1, sums, out=scratch)
            np.right_shift(scratch, 63, out=scratch)
            np.bitwise_and(scratch, modulus, out=scratch)
            np.subtract(sums, scratch, out=sums)

    for i in range(len(table.items) - m, L, -1):
        gather(table.rows[i - 1])
        np.greater(idx, scratch, out=take, casting="unsafe")
        np.multiply(scratch, take, out=scratch)
        np.subtract(idx, scratch, out=idx)
        np.multiply(take, table.mods[i - 1], out=scratch)
        np.subtract(j, scratch, out=j)
        np.right_shift(j, 63, out=scratch)
        np.bitwise_and(scratch, table.p, out=scratch)
        np.add(j, scratch, out=j)
        np.multiply(take_s, addends[i - 1], out=contrib)
        add(contrib)
    if L:
        gather(starts)
        np.add(scratch, idx, out=scratch)
        add(low.take(scratch, out=take_s, mode="clip"))
    return sums


_WALK_CHUNK = 1 << 15  # ranks per batched walk call (and needles per join chunk); bounds scratch memory


def _split_levels(n: int, bins: int, ranks: int, positions: int) -> tuple[int, int]:
    """(m, L) for ``ranks`` ranks over ``bins`` bins of a table with
    ``positions`` residues. A top group (bin, top part), low subset or
    residue start costs about a rank's walked level: doublings stay within
    the ranks and (for memory) half a chunk, starts within the L levels
    saved, all within n * _WALK_CHUNK. Walks under a sixteenth of a chunk
    pay less than the split."""
    if ranks < _WALK_CHUNK // 16:
        return 0, 0
    room = min(ranks, _WALK_CHUNK // 2)
    m = min(n, max(0, (room // bins).bit_length() - 1))
    L = min(n - m, max(0, room.bit_length() - 1))
    return m, L if positions <= min(L * ranks, (n - 2) * _WALK_CHUNK) else 0


def _walk_bins(
    table: CountTable, bins: np.ndarray, ranks: np.ndarray, lo: int, hi: int,
    values: Sequence[int] | None = None, modulus: int = 0, deadline=None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Sums of positions lo .. hi-1 of ranks 1..ranks[b] of bin bins[b], for
    b = 0, 1, ... laid end to end: yields (first position, sums) a chunk of
    _WALK_CHUNK at a time, from one :func:`_bin_sums_batch` call each.

    Sums are of the items mod 2^64 (uint64), or, given ``values`` in [0, q)
    and ``modulus`` q < 2^62, of those values exactly mod q (int64). Given a
    solver's ``deadline``, it calls ``deadline.check()`` before each chunk,
    which raises :class:`_TimedOut` once the cap has passed, so no caller
    checks its time cap inside a walk.

    The items are split (Horowitz-Sahni): in chi order, bin k is, for each
    subset T of the top m items in turn, the subsets of the rest with
    residue k - res(T). :func:`_subset_sums` of the T gives each (bin, T)
    group its residue, sum and size; ranks walk levels n - m .. L + 1 only,
    and the low L items are one gather from :func:`_low_part`.
    :func:`_split_levels` picks (m, L) for the full table, and a band
    (L, n - m) walks its own; m = L = 0 walks every level. Every chunk,
    within one group or across many, takes the same path on scratch arrays
    made once per walk, and every (m, L) yields the same chunks.
    """
    if hi <= lo:
        return
    n, ends = table.n, np.cumsum(ranks)
    e0, e1 = (int(e) for e in ends.searchsorted((lo, hi - 1), "right"))  # bins holding lo and hi - 1
    banded = (table.lo, table.hi) != (0, n)  # a band walks its own split
    m, L = (n - table.hi, table.lo) if banded else _split_levels(n, e1 + 1 - e0, hi - lo, table.p)
    # what a walk adds per item taken: the values given a modulus, else the items mod 2^64
    words = values if modulus else [a & _WORD_MASK for a in table.items]
    addends = np.array(words, dtype=np.int64 if modulus else np.uint64)
    # groups (bin, T) of bins e0..e1 in walk order: position after T, T's sum, end
    pos, top = np.array(bins[e0 : e1 + 1], dtype=np.int64), _subset_sums(addends[n - m :], modulus)
    gext = ends[e0 : e1 + 1]  # group ends: the bins', or their top parts' cut at the bin's ranks
    if m:
        res = table.top_res if banded else _subset_sums(np.array(table.mods[n - m :], dtype=np.int64), table.p)
        pos = (pos[:, None] - res) % table.p
        gext = np.minimum(np.cumsum(table.rows[n - m][pos], axis=1), ranks[e0 : e1 + 1, None])
        gext += (ends - ranks)[e0 : e1 + 1, None]
    # group f holds positions gext[f] .. gext[f + 1] - 1
    gext = np.concatenate(([ends[e0] - ranks[e0]], gext.ravel()))
    gends, gpos, tmask = gext[1:], pos.ravel(), (1 << m) - 1
    # each entry's rank, bin and T, then the walk's scratch: fresh arrays per
    # chunk would each cost a round of page faults
    size = min(_WALK_CHUNK, hi - lo)
    ramp, idx, j, take, scratch = np.arange(size), *(np.empty(size, dtype=np.int64) for _ in range(4))
    low = _low_part(table, L, addends, modulus) if L else (None, None)
    split = (m, L, *low, addends, modulus, (take, scratch, np.empty(size, dtype=np.int32)))
    for a in range(lo, hi, _WALK_CHUNK):
        if deadline is not None:
            deadline.check()
        b = min(hi, a + _WALK_CHUNK)
        # the groups g .. h that hold positions a .. b - 1
        g, h = (int(x) for x in gends.searchsorted((a, b - 1), "right"))
        counts = np.minimum(gends[g : h + 1], b) - np.maximum(gext[g : h + 1], a)
        group = np.repeat(np.arange(g, h + 1), counts)
        start, k = gext.take(group, out=idx[: b - a]), gpos.take(group, out=j[: b - a])
        start -= a + 1
        np.subtract(ramp[: b - a], start, out=start)
        sums = top.take(np.bitwise_and(group, tmask, out=take[: b - a]))
        yield a, _bin_sums_batch(table, k, start, sums, split)


def unrank(table: CountTable, k: int, index: int) -> Subset:
    """The index-th subset (1-based) of bin k in the chi order; O(n^2)."""
    for subset in enumerate_bin(table, k, index, 1):
        return subset
    raise IndexError(f"index must be in [1, {table.bin_size(k)}] for this bin, got {index}")


def enumerate_bin(
    table: CountTable,
    k: int,
    start: int = 1,
    count: int | None = None,
) -> Iterator[Subset]:
    """Stream ranks start .. start+count-1 of bin k (to the bin's end) in chi
    order, re-running the unrank walk per index.

    k and ``start`` are checked at the call: a residue outside [0, p) is a
    ValueError, a start below 1 an IndexError. The stream is stateless: each
    subset costs O(n^2), and any window can be produced without touching the
    rest of the bin.
    """
    if not 0 <= k < table.p:
        raise ValueError(f"residue k must be in [0, {table.p}), got {k}")
    if start < 1:
        raise IndexError(f"start must be at least 1, got {start}")
    size = table.bin_size(k)
    stop = size if count is None else min(size, start + count - 1)
    return (Subset.from_mask(_unrank_mask(table, k, i)) for i in range(start, stop + 1))
