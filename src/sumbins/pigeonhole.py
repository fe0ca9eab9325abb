"""Pigeonhole collision finders: equal sums, and equal sums mod q.

Both problems are total once their promises hold. With item sum W < 2^n - 1
two of the 2^n subsets must share a value, and with q <= 2^n - 1 two must
share a residue mod q. The point of this module is finding such pairs in
roughly 2^(n/2) operations instead of 2^n.

Equal sums: build the count table mod p = 2^(ceil(n/2)) and walk one
residue bin. A bin holding more subsets than there are values compatible
with that residue class must repeat a value. Strictly-heavy bins qualify
outright; if every bin is exactly average, bin p-1 still qualifies because
residue p-1 owns the fewest values in [0, W].

Modular: reduce items mod q, split q = q1 * 2^h + q2 at h = ceil(n/2), and
group residues into q1 quotient classes of width 2^h (the leftover partial
class folds into class q1-1, which therefore owns 2^h + q2 residues). A
count table over the quotient items a_i' = floor((a_i mod q) / 2^h) mod q1
counts subsets per approximate class: a subset whose true class is jj has
table index within n of jj, because dropping the low halves and wrapping
mod q misplaces the quotient sum by less than n. A dichotomic search then
maintains an interval of classes where subsets outnumber residues; interval
counts (``_ModularContext.count_b``) come from the table's inner bins plus
a walk of at most 4n boundary bins. A boundary bin too large to walk is a
collision on its own: its subsets reach at most 2n + 1 classes, fewer
residues than its first ``boundary_bin_cap`` subsets, so those repeat a
residue. Otherwise the search ends on a class window of width <= 4n whose
covering table bins hold more subsets than residues, and bucketing those
subsets by true residue mod q exhibits the collision.

Every enumeration here is one batched walk of the quotient table
(``dpbins._walk_bins``): the ranks of all the bins involved go through
together, a bounded chunk at a time, and the walk accumulates the true
residues a_i mod q instead of the quotient items. Those sums are exact in
int64 (add, then subtract q once if the sum reached it; q < 2^62), so class
counts and residue repeats come straight from numpy, and only the two
subsets of the final pair are unranked one by one. Collision scans grow in
doubling chunks and find the earliest repeat with a stable sort, which is
the pair a sequential scan returns. The walk needs machine-word table rows,
so the dichotomy refuses n > 62; at that size it would need at least 2^31
walk steps anyway.

Both solvers keep the contract of :mod:`sumbins.solvers`: they take a
``SolverBudget`` and return a ``SolveOutcome``, FOUND with the pair, or
INCONCLUSIVE (reason "timed_out") once the time cap passes between walk
chunks or dichotomy steps. A table past ``memory_cap_bytes`` raises
``ResourceLimitError``, and a broken promise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Pair, Subset
from .dpbins import CountTable, ResourceLimitError, _require_word_rows, _TimedOut, _unrank_mask, _walk_bins, build_table
from .solvers import SolveOutcome, SolverBudget, SolveStatus, _Deadline, _inconclusive, _outcome

__all__ = [
    "QuotientDecomposition",
    "find_heavy_bin",
    "solve_pigeonhole_equal",
    "solve_pigeonhole_modular",
]

_FIRST_SCAN = 1 << 10  # first chunk of a doubling collision scan


def _repeat_masks(
    table: CountTable, bins: np.ndarray, total: int, values: Sequence[int] | None = None,
    modulus: int = 0, deadline: _Deadline | None = None,
) -> tuple[int, int]:
    """Masks of the earliest repeated sum among the first ``total`` subsets
    of ``bins`` taken one after another, each in chi order (sums as in
    :func:`dpbins._walk_bins`). The callers' counting arguments promise a
    repeat, so none is a fault: RuntimeError.

    Scans in doubling chunks. A stable sort keeps equal sums in scan order,
    so the earliest second occurrence in the scanned prefix is where a
    sequential scan with a seen-set stops. The walk is handed ``deadline``
    and raises ``dpbins._TimedOut`` before a chunk once its cap has passed.
    """
    sizes = table.rows[table.n][bins]
    ends = np.cumsum(sizes)
    parts: list[np.ndarray] = []
    done = 0
    while done < total:
        stop = min(total, 2 * done + _FIRST_SCAN)  # chunks of _FIRST_SCAN, twice that, ...
        parts.extend(sums for _, sums in _walk_bins(table, bins, sizes, done, stop, values, modulus, deadline))
        done = stop
        scanned = np.concatenate(parts)
        order = np.argsort(scanned, kind="stable")
        sv = scanned[order]
        dup = sv[1:] == sv[:-1]
        if dup.any():
            run_start = dup & ~np.concatenate(([False], dup[:-1]))
            starts = np.nonzero(run_start)[0]
            g = int(starts[int(np.argmin(order[starts + 1]))])
            pos = order[g : g + 2]
            seg = np.searchsorted(ends, pos, side="right")
            ranks = (pos - ends[seg] + sizes[seg] + 1).tolist()
            return tuple(_unrank_mask(table, int(bins[b]), r)[0] for b, r in zip(seg.tolist(), ranks))
    raise RuntimeError(f"no repeated sum among {total} subsets that must hold one")


# ---------------------------------------------------------------------------
# Equal sums
# ---------------------------------------------------------------------------


def find_heavy_bin(items: Sequence[int], p: int, table: CountTable | None = None) -> int:
    """First residue whose bin exceeds the average 2^n / p, else p - 1."""
    n = len(items)
    if table is None:
        table = build_table(items, p)
    heavy = np.nonzero(table.rows[n] > (1 << n) // p)[0]
    return int(heavy[0]) if heavy.size else p - 1


def solve_pigeonhole_equal(items: Sequence[int], budget: SolverBudget | None = None) -> SolveOutcome:
    """Two distinct subsets with the same sum, given sum(items) < 2^n - 1.

    Walks one bin of the table mod p = 2^(ceil(n/2)). The chosen bin holds
    more subsets than distinct values: a strictly-heavy bin has at least
    2^n/p + 1 subsets against at most 2^n/p values, and the fallback bin
    p - 1 has 2^n/p subsets against at most 2^n/p - 1 values, since values
    congruent to p - 1 start at p - 1 and W <= 2^n - 2 caps the range.

    The bin is scanned in doubling chunks, and the earliest repeat of the
    scanned prefix is the pair a sequential walk returns. Sums are exact in
    a word (W < 2^n - 1 <= 2^62). FOUND with that pair, or INCONCLUSIVE
    ("timed_out") once ``budget.time_cap_ms`` passes between walk chunks.
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(int(a) for a in items)
    n = len(items)
    total = sum(items)
    if any(a < 1 for a in items):
        raise ValueError("items must be positive")
    if total >= (1 << n) - 1:
        raise ValueError(f"need sum(items) < 2^n - 1 = {(1 << n) - 1}, got {total}")
    _require_word_rows(n)
    trace = {"algorithm": "pigeonhole-equal"}
    p = 1 << ((n + 1) // 2)
    table = build_table(items, p, budget.memory_cap_bytes)
    k = find_heavy_bin(items, p, table)
    try:
        m1, m2 = _repeat_masks(table, np.array([k]), table.bin_size(k), deadline=deadline)
    except _TimedOut:
        return _inconclusive("timed_out", None, deadline, trace)
    return _outcome(SolveStatus.FOUND, Pair(Subset.from_mask(m1), Subset.from_mask(m2)), None, deadline, trace)


# ---------------------------------------------------------------------------
# Equal sums modulo q
# ---------------------------------------------------------------------------


@dataclass
class QuotientDecomposition:
    """q = q1 * 2^h + q2 with h = ceil(n/2); classes fold the tail into q1-1."""

    q: int
    h: int
    q1: int
    q2: int

    @classmethod
    def compute(cls, n: int, q: int) -> "QuotientDecomposition":
        h = (n + 1) // 2
        return cls(q=q, h=h, q1=q >> h, q2=q & ((1 << h) - 1))

    def fold(self, residues):
        """Quotient class of residues in [0, q), elementwise over an int64
        array: the last class is wider."""
        return np.minimum(residues >> self.h, self.q1 - 1)

    def beta_interval(self, i: int, j: int) -> int:
        """Number of residues with class in the circular interval [i, j]."""
        width = (j - i) % self.q1 + 1
        total = width << self.h
        if (self.q1 - 1 - i) % self.q1 <= (j - i) % self.q1:
            total += self.q2
        return total


class _ModularContext:
    """Shared state for the dichotomic search over quotient classes; its
    walks and halving steps check the solver's ``deadline``."""

    def __init__(self, residues: Sequence[int], q: int, memory_cap_bytes: int, deadline: _Deadline | None = None):
        self.n = len(residues)
        self.q = q
        self.residues = tuple(residues)
        self.decomp = QuotientDecomposition.compute(self.n, q)
        self.deadline = deadline
        d = self.decomp
        if d.q1 < 1:
            raise ValueError("quotient table needs q >= 2^h")
        _require_word_rows(self.n)
        # Positive stand-ins keep the table builder happy: q1 = 0 mod q1.
        c_items = tuple(((r >> d.h) % d.q1) or d.q1 for r in self.residues)
        self.table = build_table(c_items, d.q1, memory_cap_bytes)
        self.sizes = self.table.rows[self.n]
        n = self.n
        # Bin c holds subsets of the 2n + 1 classes within n of c, fewer than
        # (2n + 2) * 2^h residues, so its first boundary_bin_cap subsets repeat one.
        self.boundary_bin_cap = (4 * n + 2) * (1 << d.h) + 1
        self.final_extract_cap = (8 * n + 2) * (1 << d.h) + 1

    def count_b(self, i: int, j: int) -> tuple[int | None, int | None]:
        """(count, None) with the exact number of subsets whose quotient class
        is in [i, j] (circular), or (None, c) with a boundary table bin c
        larger than ``boundary_bin_cap``, which then holds a residue repeat.

        Preconditions: interval width w satisfies 2n <= w and w + 2n <= q1,
        so the boundary windows around i and j do not collide.
        """
        d = self.decomp
        n = self.n
        q1 = d.q1
        w = (j - i) % q1 + 1
        if w < 2 * n or w + 2 * n > q1:
            raise ValueError("interval width must be in [2n, q1 - 2n]")
        # Inner bins [i + n, j - n] hold only classes inside [i, j].
        count = int(self.sizes[(i + n + np.arange(w - 2 * n)) % q1].sum())
        # Boundary windows [i - n + 1, i + n - 1] and [j - n + 1, j + n].
        bins = np.concatenate((np.arange(i - n + 1, i + n), np.arange(j - n + 1, j + n + 1))) % q1
        sizes = self.sizes[bins]
        over = np.nonzero(sizes > self.boundary_bin_cap)[0]
        if over.size:
            return None, int(bins[over[0]])
        span = (j - i) % q1
        walk = _walk_bins(self.table, bins, sizes, 0, int(sizes.sum()), self.residues, self.q, self.deadline)
        for _, res in walk:
            count += int(np.count_nonzero((d.fold(res) - i) % q1 <= span))
        return count, None

    def extract(self, lo: int, hi: int, cap: int) -> Pair:
        """Find a residue collision among subsets with C-index in [lo, hi].

        Sound whenever the classes feeding [lo, hi] hold more subsets than
        residues; the cap just bounds work, since cap many subsets drawn
        from these bins cannot all have distinct residues either. Scans in
        doubling chunks and returns the earliest repeat, with its first
        occurrence, in bin-then-chi order.
        """
        q1 = self.decomp.q1
        bins = (lo + np.arange((hi - lo) % q1 + 1)) % q1
        total = min(int(self.sizes[bins].sum()), cap)
        hit = _repeat_masks(self.table, bins, total, self.residues, self.q, self.deadline)
        return Pair(Subset.from_mask(hit[0]), Subset.from_mask(hit[1]))


def solve_pigeonhole_modular(items: Sequence[int], q: int, budget: SolverBudget | None = None) -> SolveOutcome:
    """Two distinct subsets with equal sums mod q, for any q <= 2^n - 1.

    Cheap exits first: an item divisible by q collides with the empty set,
    and a small q (q1 <= 8n + 4 quotient classes) admits a direct count
    table mod q, where some bin of size >= 2 must exist and its first two
    subsets collide. Otherwise :func:`_dichotomy` runs. FOUND with the
    pair, or INCONCLUSIVE ("timed_out") once ``budget.time_cap_ms`` passes
    between the dichotomy's walk chunks or halving steps. A refused route
    (``ResourceLimitError``) reruns on the first k = q.bit_length() < n items
    under the same deadline, at O~(2^(k/2)), with ``trace["prefix"] = k``.
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(int(a) for a in items)
    n = len(items)
    if any(a < 1 for a in items):
        raise ValueError("items must be positive")
    if not 1 <= q <= (1 << n) - 1:
        raise ValueError(f"need 1 <= q <= 2^n - 1 = {(1 << n) - 1}, got {q}")
    trace = {"algorithm": "pigeonhole-modular"}
    residues = [a % q for a in items]
    for m in (n, q.bit_length()):  # q <= 2^m - 1 holds for the first m items too
        try:
            if 0 in residues:
                pair = Pair(Subset.of((residues.index(0) + 1,)), Subset.of(()))
            elif QuotientDecomposition.compute(m, q).q1 <= 8 * m + 4:
                table = build_table(residues[:m], q, budget.memory_cap_bytes)
                k = int(np.nonzero(table.rows[m] >= 2)[0][0])
                pair = Pair(*(Subset.from_mask(_unrank_mask(table, k, r)[0]) for r in (1, 2)))
            else:
                ctx = _ModularContext(residues[:m], q, budget.memory_cap_bytes, deadline)
                pair = _dichotomy(ctx)
            return _outcome(SolveStatus.FOUND, pair, None, deadline, trace)
        except _TimedOut:
            return _inconclusive("timed_out", None, deadline, trace)
        except ResourceLimitError:
            if m == q.bit_length():
                raise
            trace["prefix"] = q.bit_length()


def _dichotomy(ctx: _ModularContext) -> Pair:
    """Keep halving a class interval whose subset count exceeds its residue
    count until it is 4n classes wide, then bucket the covering table bins
    by true residue; a boundary bin too large to walk is bucketed alone
    instead. The context's deadline is checked before each halving step."""
    d, n = ctx.decomp, ctx.n
    q1 = d.q1
    i, j, b, beta = 0, q1 - 1, 1 << n, ctx.q  # classes [i, j], their subsets and residues
    while (j - i) % q1 + 1 > 4 * n:
        ctx.deadline.check()
        w = (j - i) % q1 + 1
        mid = (i + w // 2 - 1) % q1
        left, c = ctx.count_b(i, mid)
        if c is not None:
            return ctx.extract(c, c, ctx.boundary_bin_cap)
        beta_left = d.beta_interval(i, mid)
        if left > beta_left:
            j, b, beta = mid, left, beta_left
        else:
            i, b, beta = (mid + 1) % q1, b - left, beta - beta_left
        if b <= beta:
            raise RuntimeError("dichotomy invariant lost")
    return ctx.extract(i - n, j + n, ctx.final_extract_cap)
