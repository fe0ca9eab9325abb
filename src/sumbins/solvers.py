"""Solvers for the subset-sum variants.

Two algorithm families:

* meet-in-the-middle ("mitm"): split the indices in half, enumerate both
  halves and join them. Each half's disjoint pair states (S1, S2) become a
  numpy array of sum differences mod 2^64; a subset is a pair state with S2
  empty, so the plain target's half sums are pair states too. A modular
  target joins a dictionary of residues instead. Deterministic; complete
  for the plain and modular target problems. The single-class shifted
  search builds one size class per random split, so a miss is only
  evidence, not a proof: the result is Inconclusive.

* residue binning ("rep"): pick a random prime p, build the count table,
  and walk the one bin (or pair of bins) that must contain a solution. For
  subset_sum the target pins the bin, so fully enumerating it proves
  NotFound; for shifted sums the bin pair only covers one residue class of
  solutions and a miss is Inconclusive. Up to n = 17 shifted-rep reads its
  bins from a list of every subset's residue instead of a table.

Every list match, the three mitm searches and the shifted bin pairs (bin
k2 ranks as states (empty, S2), bin k ranks as (S1, empty)), runs on one
sorted join of pair states, ``_join_pair_states``: one split, one draw or
the one fixed split per join.

``solve_shifted`` combines both: a probe over solution-size ratios (one
draw or split each, mitm or rep per ratio by their cost exponents), then
the folklore exhaustive pass (all 3^(n/2) pair states of each half, all
sizes at once), which settles the instance while its pair states fit
``memory_cap_bytes``; only when they do not does a full sweep of the
ratios run, and its miss is Inconclusive.

Numpy sums wrap mod 2^64 whatever the item width, so a match there is only
a candidate until exact integer arithmetic confirms it. All witnesses are
re-verified against the instance before being returned.

Every public solver takes a :class:`SolverBudget` and returns a
:class:`SolveOutcome`. A memory cap raises ``ResourceLimitError`` before
the work is allocated; a time cap raises the private ``_TimedOut`` between
walk chunks, join chunks, draws and splits, and each public solver returns
it as INCONCLUSIVE with reason "timed_out".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from . import costmodel, dpbins
from .core import (
    Pair,
    ProblemInstance,
    Subset,
    reduce_two_subset_to_shifted,
    verify,
)
from .dpbins import (
    DEFAULT_MEMORY_CAP_BYTES,
    ResourceLimitError,
    _TimedOut,
    _WORD_MASK,
    _require_word_rows,
    _split_levels,
    _subset_sums,
    _unrank_mask,
    _walk_bins,
    build_table,
    estimate_table_bytes,
)
from .numtheory import random_prime, random_residue
from .rng import as_rng, derive_seed

__all__ = [
    "SolveStatus",
    "SolveOutcome",
    "SolverBudget",
    "solve_subset_sum_mitm",
    "solve_modular_subset_sum_mitm",
    "solve_subset_sum_rep",
    "solve_shifted_mitm",
    "solve_shifted_rep",
    "solve_shifted_exhaustive",
    "solve_shifted",
    "solve_equal_sums",
    "solve_two_subset_sum",
    "solve_instance",
]

_TRACE_DRAWS = 24  # keep at most this many per-draw records in a trace

ALGOS = ("auto", "mitm", "rep", "exhaustive", "brute")  # what solve_instance's ``algo`` takes


class SolveStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    INCONCLUSIVE = "inconclusive"


@dataclass
class SolveOutcome:
    status: SolveStatus
    witness: object | None
    seed: int | None
    elapsed_ms: float
    trace: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.status is SolveStatus.FOUND


def _ceil_half_pow(n: int) -> int:
    """ceil(2^(n/2)) exactly (odd n is never a perfect square)."""
    if n % 2 == 0:
        return 1 << (n // 2)
    return math.isqrt(1 << n) + 1


@dataclass
class SolverBudget:
    """Knobs every randomized solver takes; None means the default formula."""

    sample_cap: int | None = None  # random-sampling step, default ceil(2^(n/2))
    repeat_cap: int | None = None  # independent redraws, default 4n
    time_cap_ms: float | None = None
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES

    def resolved_sample_cap(self, n: int) -> int:
        if self.sample_cap is not None:
            return max(0, self.sample_cap)
        return _ceil_half_pow(n)

    def resolved_repeat_cap(self, n: int) -> int:
        if self.repeat_cap is not None:
            return max(1, self.repeat_cap)
        return 4 * n


class _Deadline:
    def __init__(self, cap_ms: float | None):
        self.start = time.perf_counter()
        self.cap_ms = cap_ms

    def expired(self) -> bool:
        if self.cap_ms is None:
            return False
        return (time.perf_counter() - self.start) * 1000.0 >= self.cap_ms

    def check(self) -> None:
        """Raise :class:`_TimedOut` once the cap has passed."""
        if self.expired():
            raise _TimedOut

    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.start) * 1000.0


def _check_witness(ok: bool) -> None:
    """Exact re-check of a witness a solver is about to return."""
    if not ok:
        raise RuntimeError("solver built a witness that fails its exact check")


def _outcome(
    status: SolveStatus,
    witness,
    seed: int | None,
    deadline: _Deadline,
    trace: dict,
) -> SolveOutcome:
    return SolveOutcome(status, witness, seed, deadline.elapsed_ms(), trace)


def _inconclusive(reason: str, seed: int | None, deadline: _Deadline, trace: dict) -> SolveOutcome:
    """INCONCLUSIVE that names its ``trace["reason"]`` and sets it as a flag:
    "timed_out", "repeat_cap" when the draws or splits ran out, or the
    dispatcher's "exhaustive_skipped"."""
    trace[reason] = True
    trace["reason"] = reason
    return _outcome(SolveStatus.INCONCLUSIVE, None, seed, deadline, trace)


def _half_sums(items: Sequence[int], positions: Sequence[int], deadline: _Deadline) -> list[int]:
    """Subset sums of the given positions, indexed by local mask (doubling);
    ``deadline`` is checked between doublings."""
    sums = [0]
    for pos in positions:
        deadline.check()
        a = items[pos]
        sums += [v + a for v in sums]
    return sums


def _mask_value(items: Sequence[int], mask: int) -> int:
    """Exact sum of the items selected by a bit mask."""
    v = 0
    while mask:
        low = mask & -mask
        v += items[low.bit_length() - 1]
        mask ^= low
    return v


def _require_bytes(per: int, count: int, cap: int, what: str) -> None:
    """Refuse, before anything is built, ``count`` entries of ``per`` bytes past ``cap``."""
    if per * count > cap:
        raise ResourceLimitError(f"{count} {what} need about {per * count} bytes, cap is {cap}")


# ---------------------------------------------------------------------------
# Meet-in-the-middle for a plain or modular target
# ---------------------------------------------------------------------------


def solve_subset_sum_mitm(
    items: Sequence[int], target: int, budget: SolverBudget | None = None
) -> SolveOutcome:
    """Deterministic complete search in O(2^(n/2)) time and space.

    A subset is a pair state with S2 empty, so the half sums mod 2^64 go
    through the pair-state join (:func:`_join_pair_states`) with the target
    as its shift: first-half masks are the left states, second-half masks
    the right ones. A wrapped match is only a candidate until exact integers
    confirm it, and the witness pairs the lowest second-half mask with an
    exact partner with the lowest first-half mask holding the needed value.
    Target 0 is the empty subset, the one pair the join skips.
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    h1 = n - n // 2
    trace = {"algorithm": "subset-sum-mitm", "halves": [h1, n - h1], "scanned": 0}
    # Eight-byte arrays: three over the first half, at most five over the
    # second, which is no larger.
    _require_bytes(64, 1 << h1, budget.memory_cap_bytes, "first-half entries")
    if target == 0:
        trace["scanned"] = 1
        return _outcome(SolveStatus.FOUND, Subset.of(()), None, deadline, trace)
    words = np.array([a & _WORD_MASK for a in items], dtype=np.uint64)
    keys1 = _subset_sums(words[:h1])
    needs2 = np.uint64(target & _WORD_MASK) - _subset_sums(words[h1:])
    try:
        hit = _join_pair_states(
            items, target, keys1, _chunks(needs2), 1, lambda i: (i, 0), lambda j: (j << h1, 0), deadline
        )
    except _TimedOut:
        return _inconclusive("timed_out", None, deadline, trace)
    if hit is None:
        trace["scanned"] = int(needs2.size)
        return _outcome(SolveStatus.NOT_FOUND, None, None, deadline, trace)
    trace["scanned"] = hit[0] + 1
    return _outcome(SolveStatus.FOUND, hit[1].s1, None, deadline, trace)


# Bytes per first-half entry of the modular mitm beside two ints (a sum and its
# residue, 32 B plus 4 B per 30-bit digit): tracemalloc read 80 B of list slots
# and dict entry at n = 32 with 32- to 200-bit items; 96 leaves two words spare.
_MODULAR_ENTRY_BYTES = 96


def solve_modular_subset_sum_mitm(
    items: Sequence[int],
    target: int,
    modulus: int,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Same strategy with sums reduced mod the modulus; complete, or refused past ``memory_cap_bytes``."""
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    q = modulus
    h1 = n - n // 2
    per = _MODULAR_ENTRY_BYTES + 2 * (32 + 4 * (sum(items).bit_length() // 30))
    _require_bytes(per, 1 << h1, budget.memory_cap_bytes, "first-half entries")
    trace = {"algorithm": "modular-mitm", "halves": [h1, n - h1], "scanned": 0}
    first: dict[int, int] = {}
    try:
        for mask, v in enumerate(_half_sums(items, range(h1), deadline)):
            r = v % q
            if r not in first:
                first[r] = mask
            if mask % 4096 == 0:
                deadline.check()
        sums2 = _half_sums(items, range(h1, n), deadline)
        for mask2, v2 in enumerate(sums2):
            mask1 = first.get((target - v2) % q)
            if mask1 is not None:
                trace["scanned"] = mask2 + 1
                witness = Subset.from_mask(mask1 | (mask2 << h1))
                _check_witness(sum(items[i - 1] for i in witness.indices) % q == target % q)
                return _outcome(SolveStatus.FOUND, witness, None, deadline, trace)
            if mask2 % 4096 == 0:
                trace["scanned"] = mask2 + 1
                deadline.check()
    except _TimedOut:
        return _inconclusive("timed_out", None, deadline, trace)
    trace["scanned"] = len(sums2)
    return _outcome(SolveStatus.NOT_FOUND, None, None, deadline, trace)


# ---------------------------------------------------------------------------
# Residue binning for a plain target
# ---------------------------------------------------------------------------


def _sample_random_subsets(
    items: Sequence[int],
    target: int,
    rng,
    count: int,
    deadline: _Deadline,
) -> tuple[int | None, int]:
    """Try ``count`` uniform random subsets; return (hit mask or None, tried).
    Past ``deadline`` it stops after the current chunk, and the caller's
    next check ends the solve.

    Masks are drawn a chunk at a time, one word each (callers keep n <= 62),
    and the chunk's subset sums mod 2^64 come from one gather per byte of the
    mask: byte b indexes the subset sums (:func:`_subset_sums`) of items
    8b+1 .. 8b+8. Each wrapped hit is confirmed exactly, in draw order.
    """
    n = len(items)
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    tgt = np.uint64(target & _WORD_MASK)
    item_words = np.array([a & _WORD_MASK for a in items], dtype=np.uint64)
    bytes_ = [_subset_sums(item_words[lo : lo + 8]) for lo in range(0, n, 8)]
    size = min(count, 1 << 16)
    acc_w, byte_w, part_w = (np.empty(size, dtype=t) for t in (np.uint64, np.intp, np.uint64))
    tried = 0
    while tried < count:
        chunk = min(count - tried, size)
        masks = gen.integers(0, 1 << n, size=chunk, dtype=np.uint64).view(np.int64)
        acc, byte, part = acc_w[:chunk], byte_w[:chunk], part_w[:chunk]
        acc.fill(0)
        for b, sums in enumerate(bytes_):
            np.right_shift(masks, 8 * b, out=byte)
            np.bitwise_and(byte, 255, out=byte)
            sums.take(byte, out=part, mode="clip")  # "raise" would buffer ``out``
            np.add(acc, part, out=acc)
        for off in np.flatnonzero(acc == tgt).tolist():
            mask = int(masks[off])
            if _mask_value(items, mask) == target:
                return mask, tried + off + 1
        tried += chunk
        if deadline.expired():
            return None, tried
    return None, tried


def _record_draw(trace: dict, record: dict) -> None:
    """Keep at most _TRACE_DRAWS per-draw records and count the others."""
    if len(trace["draws"]) < _TRACE_DRAWS:
        trace["draws"].append(record)
    else:
        trace["draws_dropped"] += 1


def solve_subset_sum_rep(
    items: Sequence[int],
    target: int,
    seed: int = 0,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Random sampling, then prime draws with target-bin enumeration.

    Every solution lies in bin (target mod p), so a draw that exhausts that
    bin without a hit settles NOT_FOUND. Draws that overflow the enumeration
    cap n^2 * 2^(ceil(n/2)) only ever yield INCONCLUSIVE. The bin walk needs
    machine-word table rows, so n > 62 raises :class:`ResourceLimitError`
    on entry, before any sampling.

    A draw builds only the rows its walk reads: the split (m, L) that
    :func:`dpbins._split_levels` picks for a bin of about 2^n / p ranks
    gives the band (L, n - m) of the table, and its draw record's ``rows``
    counts them (n + 1 when the bin is too small to split).
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    _require_word_rows(n)
    rng = as_rng(seed, "subset-rep")
    trace: dict = {"algorithm": "subset-sum-rep", "samples": 0, "draws": [], "draws_dropped": 0, "draw_count": 0}

    sample_cap = min(budget.resolved_sample_cap(n), _ceil_half_pow(n))
    hit, trace["samples"] = _sample_random_subsets(items, target, rng, sample_cap, deadline)
    if hit is not None:
        return _outcome(SolveStatus.FOUND, Subset.from_mask(hit), seed, deadline, trace)

    half_bits = (n + 1) // 2
    enum_cap = n * n * (1 << half_bits)
    tgt = np.uint64(target & _WORD_MASK)
    try:
        for r in range(budget.resolved_repeat_cap(n)):
            deadline.check()
            p = random_prime(1 << half_bits, 1 << (half_bits + 1), derive_seed(seed, "subset-rep-prime", r))
            k = target % p
            m, L = _split_levels(n, 1, (1 << n) // p, p)
            table = build_table(items, p, budget.memory_cap_bytes, (L, n - m))
            size = table.bin_size(k)
            scan = min(size, enum_cap)
            record = {"p": p, "k": k, "bin_size": size, "enumerated": 0, "rows": n - m - L + 1}
            _record_draw(trace, record)
            trace["draw_count"] = r + 1
            # Chunked vector scan; candidate sums match mod 2^64, and each
            # candidate rank is re-unranked and confirmed exactly, so the first
            # confirmed rank is the first solution of the bin in chi order.
            walk = _walk_bins(table, np.array([k]), np.array([scan]), 0, scan, deadline=deadline)
            for done, sums_c in walk:
                for off in np.nonzero(sums_c == tgt)[0]:
                    rank = done + int(off) + 1
                    mask, value = _unrank_mask(table, k, rank)
                    if value == target:
                        record["enumerated"] = rank
                        return _outcome(SolveStatus.FOUND, Subset.from_mask(mask), seed, deadline, trace)
                record["enumerated"] = done + sums_c.size
            if scan == size:
                # The whole bin holding every possible solution was checked.
                trace["definitive_draw"] = r
                return _outcome(SolveStatus.NOT_FOUND, None, seed, deadline, trace)
    except _TimedOut:
        return _inconclusive("timed_out", seed, deadline, trace)
    return _inconclusive("repeat_cap", seed, deadline, trace)


# ---------------------------------------------------------------------------
# Shifted pairs: meet-in-the-middle over disjoint pair states
# ---------------------------------------------------------------------------

# Bytes per pair state: its key, the sort order, the sorted copy and the
# probe positions, eight each, plus temporaries while the keys are built.
_PAIR_STATE_BYTES = 48


def _class_states(words: np.ndarray, combos: np.ndarray, deadline: _Deadline) -> np.ndarray:
    """Sum differences mod 2^64 of the disjoint pairs of total size t = combos.shape[1].

    ``words`` holds one side's item values mod 2^64. The result holds, at
    index u * 2^t + s, sum(S1) - sum(S2) for the pair whose union is
    ``combos[u]`` (positions into ``words``) and whose first set takes union
    member j when bit j of s is set. It is built about a walk chunk of
    states (at least one union) at a time, with ``deadline.check()`` before
    each block.
    """
    t = combos.shape[1]
    d = np.empty((len(combos), 1 << t), dtype=np.uint64)
    step = max(1, dpbins._WALK_CHUNK >> t)
    for u in range(0, len(combos), step):
        deadline.check()
        a = words[combos[u : u + step]]
        np.subtract(_subset_sums(a + a), a.sum(axis=-1)[:, None], out=d[u : u + step])
    return d.ravel()


def _all_states(words: Sequence[int]) -> np.ndarray:
    """Sum differences mod 2^64 of all 3^h disjoint pairs over ``words``, in
    ternary index order: digit j, most significant first, puts item j in
    neither set, in S1 or in S2."""
    d = np.zeros(1, dtype=np.uint64)
    for w in words:
        d = (d[:, None] + np.array([0, w, -w & _WORD_MASK], dtype=np.uint64)).ravel()
    return d


def _class_decoder(side: list[int], combos: list[tuple[int, ...]], t: int):
    """decode(i) -> (S1 mask, S2 mask) for class state i of
    :func:`_class_states` over the items at positions ``side``."""

    def decode(i: int) -> tuple[int, int]:
        m1 = m2 = 0
        for j, p in enumerate(combos[i >> t]):
            if i >> j & 1:
                m1 |= 1 << side[p]
            else:
                m2 |= 1 << side[p]
        return m1, m2

    return decode


def _ternary_decoder(positions: Sequence[int]):
    """decode(i) -> (S1 mask, S2 mask) for the states of
    :func:`_all_states` over the items at ``positions``."""

    def decode(i: int) -> tuple[int, int]:
        m1 = m2 = 0
        for p in reversed(positions):
            i, digit = divmod(i, 3)
            if digit == 1:
                m1 |= 1 << p
            elif digit:
                m2 |= 1 << p
        return m1, m2

    return decode


def _join_pair_states(
    items: Sequence[int], shift: int, keys1: np.ndarray, needles, twins: int, decode1, decode2,
    deadline: _Deadline,
) -> tuple[int, Pair] | None:
    """First exact shifted pair across two sides of pair states.

    Every list match in this module runs on this join: the three
    meet-in-the-middle searches (one split each) and shifted-rep's bin pair
    (one draw). A subset is a pair state whose S2 is empty, and ``shift`` is
    then the subset's target. ``keys1[i]`` is left state i's key, its sum
    difference mod 2^64, and ``needles`` yields, a chunk at a time, the key
    each right state needs from its partner, so that the two states of an
    exact pair meet. ``decode1(i)`` and ``decode2(j)`` give the exact
    (S1 mask, S2 mask) of left state i or right state j.

    A key match is only a candidate. Right state r, for r below ``twins``,
    has left state r as its twin, the state that makes the degenerate pair
    (S, S) with it; a match whose wrapped group holds only its twin is
    dropped with array ops, with no argsort and no decode. The rest are
    confirmed with exact integers: right states in ascending index, each
    against its left partners with the exact difference in ascending index,
    and the first partner whose union pair is not (S, S) wins. Returns
    (right index, pair), or None. ``deadline.check()`` runs before and
    after the sort and after each needle chunk, for every caller.
    """
    deadline.check()
    sv = np.sort(keys1)
    deadline.check()
    order = None  # left states in key order, needed only once a match survives
    groups: dict[int, dict[int, list[tuple[int, int]]]] = {}
    start = 0
    for want in needles:
        # Sorted needles keep the binary searches cache friendly; the group
        # bounds are taken on them, then each hit finds its value's bounds.
        srt = np.sort(want)
        lo = np.searchsorted(sv, srt)
        ok = lo < sv.size
        ok[ok] = sv[lo[ok]] == srt[ok]
        if ok.any():
            vals, lo = srt[ok], lo[ok]
            hi = np.searchsorted(sv, vals, "right")
            at = np.minimum(np.searchsorted(vals, want), vals.size - 1)
            hits = np.flatnonzero(vals[at] == want)
            lo, hi, j = lo[at[hits]], hi[at[hits]], start + hits
            lone = (hi - lo == 1) & (j < twins)
            lone[lone] = keys1[j[lone]] == want[hits[lone]]
            for jj, l, h in zip(*(x[~lone].tolist() for x in (j, lo, hi))):
                # One exact table per wrapped group: exact difference -> the
                # group's left states in ascending index.
                exact = groups.get(l)
                if exact is None:
                    if order is None:
                        order = np.argsort(keys1)
                    exact = groups[l] = {}
                    for i in sorted(order[l:h].tolist()):
                        g1, g2 = decode1(i)
                        exact.setdefault(_mask_value(items, g1) - _mask_value(items, g2), []).append((g1, g2))
                m1, m2 = decode2(jj)
                for g1, g2 in exact.get(shift - _mask_value(items, m1) + _mask_value(items, m2), ()):
                    c1, c2 = g1 | m1, g2 | m2
                    if c1 != c2:
                        pair = Pair(Subset.from_mask(c1), Subset.from_mask(c2))
                        _check_witness(_verify_pair(items, pair, shift))
                        return jj, pair
        start += want.size
        deadline.check()
    return None


def _chunks(a: np.ndarray):
    """``a`` a walk chunk at a time: a needle stream for :func:`_join_pair_states`."""
    size = dpbins._WALK_CHUNK
    return (a[i : i + size] for i in range(0, a.size, size))


def _verify_pair(items: Sequence[int], pair: Pair, s: int) -> bool:
    d = sum(items[i - 1] for i in pair.s1.indices) - sum(
        items[i - 1] for i in pair.s2.indices
    )
    return d == s and pair.s1 != pair.s2


def solve_shifted_mitm(
    items: Sequence[int],
    shift: int,
    ratio: float,
    seed: int = 0,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Search for disjoint (S1, S2) with sum(S1) - sum(S2) = shift and
    |S1| + |S2| = t = round(ratio * n), across random balanced splits.

    Per split the left half contributes floor(t/2) of the pair and the right
    half the rest, so a miss is INCONCLUSIVE: the random split may simply
    have cut the solution unevenly. Only :func:`solve_shifted_exhaustive`
    proves NOT_FOUND.

    Each side's pair states are built as numpy arrays of sum differences mod
    2^64, only those of the wanted size: C(h, t1) * 2^t1 states for t1 of h
    items. Each split is joined on its own (:func:`_join_pair_states`), and
    a wrapped match counts only once exact integers confirm it. The witness
    is the first exact one of the earliest split that has one: lowest right
    state, then lowest left state, where a side's states are ordered by
    their union in lexicographic order, then by the subset of the union in
    S1 (its bit j for union member j).
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    t = max(1, min(n, round(ratio * n)))
    rng = as_rng(seed, "shifted-mitm", t)
    repeats = budget.resolved_repeat_cap(n)
    trace: dict = {
        "algorithm": "shifted-mitm",
        "class_size": t,
        "splits": 0,
    }
    h1 = n // 2
    t1, t2 = t // 2, t - t // 2
    per1, per2 = math.comb(h1, t1) << t1, math.comb(n - h1, t2) << t2
    _require_bytes(_PAIR_STATE_BYTES, per1 + per2, budget.memory_cap_bytes, "pair states")
    combos1 = list(combinations(range(h1), t1))
    combos2 = list(combinations(range(n - h1), t2))
    index1 = np.array(combos1, dtype=np.intp).reshape(len(combos1), t1)
    index2 = np.array(combos2, dtype=np.intp).reshape(len(combos2), t2)
    words = np.array([a & _WORD_MASK for a in items], dtype=np.uint64)
    shift_w = np.uint64(shift & _WORD_MASK)
    try:
        while trace["splits"] < repeats:
            deadline.check()
            perm = rng.sample(range(n), n)
            left, right = sorted(perm[:h1]), sorted(perm[h1:])
            trace["splits"] += 1
            keys1 = _class_states(words[left], index1, deadline)
            needs2 = _class_states(words[right], index2, deadline)
            np.subtract(shift_w, needs2, out=needs2)
            decode1, decode2 = _class_decoder(left, combos1, t1), _class_decoder(right, combos2, t2)
            hit = _join_pair_states(items, shift, keys1, _chunks(needs2), 0, decode1, decode2, deadline)
            if hit is not None:
                return _outcome(SolveStatus.FOUND, hit[1], seed, deadline, trace)
    except _TimedOut:
        return _inconclusive("timed_out", seed, deadline, trace)
    return _inconclusive("repeat_cap", seed, deadline, trace)


# ---------------------------------------------------------------------------
# Shifted pairs: residue binning
# ---------------------------------------------------------------------------


# Bytes the shifted-rep join may hold per bin-k2 entry: its walked key, their
# concatenation, the join's sorted copy and, once a match survives, the sort
# order, eight each (tracemalloc: 24 B per entry where no match survives,
# beside ~3.5 MB of walk-chunk temporaries); 40 leaves a word to spare.
_REP_ENTRY_BYTES = 40

# Bytes per subset of a shifted-rep draw's residue list beside its join: the
# residues, the bins' masks, keys and needles. The list is taken only when it
# and a join over all 2^n subsets fit the cap, so the room formula never binds
# there (tracemalloc: both peaked at 63 B a subset at n = 15, p = 2).
_LIST_ENTRY_BYTES = 40


def _bin_pair_keys(table, k: int, k2: int, scan1: int, scan2: int, deadline: _Deadline) -> tuple:
    """(bin-k2 keys, bin-k key stream) of one table-path draw of
    :func:`solve_shifted_rep`: the sums mod 2^64 of ranks 1..scan2 of bin k2
    as one array, then those of ranks 1..scan1 of bin k a chunk at a time,
    from one walk (:func:`_walk_bins`) over bin k2 then bin k, which checks
    ``deadline`` before each chunk. At k2 == k and equal scans it walks the bin
    once and streams the keys."""
    once = k2 == k and scan1 == scan2
    bins, scans = ([k2], [scan2]) if once else ([k2, k], [scan2, scan1])
    walk = _walk_bins(table, np.array(bins), np.array(scans), 0, sum(scans), deadline=deadline)
    parts = []
    for done, sums in walk:
        parts.append(sums)
        if done + sums.size > scan2:  # bin k starts inside this chunk
            break
    keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
    key2 = keys[:scan2]
    return key2, _chunks(key2) if once else chain([keys[scan2:]], (sums for _, sums in walk))


def solve_shifted_rep(
    items: Sequence[int],
    shift: int,
    ratio: float,
    seed: int = 0,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Bin-pair search tuned for solutions of total size about ratio * n.

    The prime scale is 2^(b n) with b = 1 - ratio for ratio > 1/2 and
    b = 1/2 otherwise, at least 2^1. Each draw picks a random residue k
    and looks for sum(S1) = k, sum(S2) = k - shift (mod p) with
    sum(S1) - sum(S2) = shift over the two bins, enumerating at most
    n^2 * 2^((1-b) n) entries per bin.

    Draws run one at a time, each joining its one bin pair
    (:func:`_join_pair_states`), which holds _REP_ENTRY_BYTES per bin-k2
    entry, so the bin-k2 scan is also capped by the room a table of p
    leaves under ``memory_cap_bytes``. A miss is only INCONCLUSIVE, so that
    cap is as sound as the enumeration cap. Up to n = 17, while the list
    and a join over all 2^n subsets fit that cap, each draw lists every
    subset's residue mod p by mask (:func:`_subset_sums` of each half) and
    takes its bins as the masks of residue k and k2. Otherwise it builds its
    prime's table and walks its bins (:func:`_bin_pair_keys`), the path
    that scales. Either source gives keys and rank -> mask decoders
    (``in_k[r]`` or :func:`_unrank_mask`) to the one join call per draw.
    Both give the same ranks, pairs and witnesses, since chi order is mask
    order. A draw whose (p, k) an earlier draw of the call
    already joined is the same search and cannot hit: it is not joined
    again, only counted in ``trace["repeats_skipped"]``. The witness is the
    first exact pair of the first draw that has one, by bin-k rank, then
    bin-k2 rank.
    ``trace["draw_count"]`` counts the draws (skipped ones too) up to the
    deciding one, and only those get ``draws`` records (at most
    _TRACE_DRAWS, the rest are counted in ``draws_dropped``).
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    _require_word_rows(n)
    t = max(1, min(n - 1, round(ratio * n)))
    bn_bits, heavy_ceil = (max(1, n - t), 1 << t) if t > n // 2 else ((n + 1) // 2, _ceil_half_pow(n))
    enum_cap = n * n * heavy_ceil
    cap = budget.memory_cap_bytes
    trace: dict = {
        "algorithm": "shifted-rep",
        "class_size": t,
        "prime_bits": bn_bits,
        "draws": [],
        "draws_dropped": 0,
        "repeats_skipped": 0,
        "draw_count": 0,
    }
    seen: dict = {}  # (p, k) -> the record of the draw that joined that bin pair
    # The list up to four walk chunks of subsets, n <= 17, where one listed
    # draw costs at most a table and walk (at n = 18 it costs more). The
    # chunk is read per call, so smaller walk chunks list less.
    listed = 1 << n <= 4 * dpbins._WALK_CHUNK and (_LIST_ENTRY_BYTES + _REP_ENTRY_BYTES) << n <= cap
    shift_w = np.uint64(shift & _WORD_MASK)
    if listed:  # the subset of mask hi << h | lo joins a subset of each half
        h, words = n // 2, np.array([a & _WORD_MASK for a in items], dtype=np.uint64)
        hi, lo = _subset_sums(words[h:]), _subset_sums(words[:h])
    try:
        for r in range(budget.resolved_repeat_cap(n)):
            deadline.check()
            p = random_prime(1 << bn_bits, 1 << (bn_bits + 1), derive_seed(seed, "shifted-rep-prime", t, r))
            k = random_residue(p, derive_seed(seed, "shifted-rep-residue", t, r))
            trace["draw_count"] = r + 1
            if (p, k) in seen:
                trace["repeats_skipped"] += 1
                _record_draw(trace, seen[p, k])
                continue
            k2 = (k - shift) % p
            if listed:
                # Residues by mask: the outer sum of the halves' lists mod p,
                # less p where that does not wrap (a half's sums stay below
                # 9 * 2^10 in uint16, since p < 2^10 here).
                mods = np.array([a % p for a in items], dtype=np.uint16)
                res = np.add.outer(_subset_sums(mods[h:]) % p, _subset_sums(mods[:h]) % p).ravel()
                np.minimum(res, res - np.uint16(p), out=res)
                in_k = np.flatnonzero(res == k)
                in_k2 = in_k if k2 == k else np.flatnonzero(res == k2)
                bins = [in_k.size, in_k2.size]
            else:
                table = build_table(items, p, cap)
                bins = [table.bin_size(k), table.bin_size(k2)]
            room = (cap - estimate_table_bytes(n, p)) // _REP_ENTRY_BYTES
            scans = [min(bins[0], enum_cap), min(bins[1], enum_cap, room)]
            seen[p, k] = {"p": p, "k": k, "bins": bins, "enumerated": scans}
            _record_draw(trace, seen[p, k])
            if not scans[1]:
                continue
            if listed:  # rank r of a bin is the mask in_k[r - 1]
                in_k, in_k2 = in_k[: scans[0]], in_k2[: scans[1]]
                key1, key2 = (hi[m >> h] + lo[m & ((1 << h) - 1)] for m in (in_k, in_k2))
                keys1, mask1, mask2 = _chunks(key1), in_k.item, in_k2.item
            else:
                key2, keys1 = _bin_pair_keys(table, k, k2, *scans, deadline)
                mask1, mask2 = (lambda r, b=b: _unrank_mask(table, b, r + 1)[0] for b in (k, k2))
            # states (empty, S2) of bin k2, (S1, empty) of bin k; at k2 == k rank r's twin is rank r
            hit = _join_pair_states(
                items, shift, key2, (keys - shift_w for keys in keys1), min(scans) if k2 == k else 0,
                lambda i: (0, mask2(i)), lambda j: (mask1(j), 0), deadline,
            )
            if hit is not None:
                return _outcome(SolveStatus.FOUND, hit[1], seed, deadline, trace)
    except _TimedOut:
        return _inconclusive("timed_out", seed, deadline, trace)
    return _inconclusive("repeat_cap", seed, deadline, trace)


# ---------------------------------------------------------------------------
# Shifted pairs: folklore exhaustive meet-in-the-middle, and the dispatcher
# ---------------------------------------------------------------------------


def solve_shifted_exhaustive(
    items: Sequence[int], shift: int, budget: SolverBudget | None = None
) -> SolveOutcome:
    """Complete O(3^(n/2)) search over all disjoint pairs; NotFound is final.

    One fixed split suffices: any solution decomposes into a left disjoint
    pair and a right disjoint pair, and recombination preserves the
    difference. Each half's 3^h pair states are built as a numpy array of
    sum differences mod 2^64 in ternary index order (digit j, most
    significant first, puts item j in neither set, in S1 or in S2), and a
    wrapped match counts only once exact integers confirm it. The witness
    joins the first right state with an exact partner to its lowest exact
    left partner, skipping only the degenerate empty-with-empty pair.

    A ``time_cap_ms`` that expires before the join ends gives INCONCLUSIVE
    with ``trace["timed_out"]``; state arrays above ``memory_cap_bytes``
    raise :class:`ResourceLimitError` before anything is built, so the
    default cap allows n <= 33.
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    left, right = list(range(n // 2)), list(range(n // 2, n))
    trace: dict = {"algorithm": "shifted-exhaustive", "pair_states": 3 ** len(left) + 3 ** len(right)}
    _require_bytes(_PAIR_STATE_BYTES, trace["pair_states"], budget.memory_cap_bytes, "pair states")
    keys1 = _all_states([items[p] & _WORD_MASK for p in left])
    needs2 = np.uint64(shift & _WORD_MASK) - _all_states([items[p] & _WORD_MASK for p in right])
    decode1, decode2 = _ternary_decoder(left), _ternary_decoder(right)
    try:
        hit = _join_pair_states(items, shift, keys1, _chunks(needs2), 1, decode1, decode2, deadline)
    except _TimedOut:
        return _inconclusive("timed_out", None, deadline, trace)
    if hit is None:
        return _outcome(SolveStatus.NOT_FOUND, None, None, deadline, trace)
    return _outcome(SolveStatus.FOUND, hit[1], None, deadline, trace)


def solve_shifted(
    items: Sequence[int],
    shift: int,
    seed: int = 0,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Phased shifted-sums driver: probe, exhaustive pass, sweep if refused.

    The probe visits solution-size classes t = n-1 .. 1 (largest first) and
    gives each only its first draw or split, where planted pairs are mostly
    hit: the residue-binning solver where its cost exponent beats
    meet-in-the-middle (between the classical crossover ratios), the
    single-class mitm otherwise. The exhaustive pair search then runs at
    once and settles the instance: FOUND (perfect-partition pairs of total
    size n are only reachable here) or a definitive NOT_FOUND. Only when
    that pass refuses with :class:`ResourceLimitError` (its pair states
    would pass ``memory_cap_bytes``, n >= 34 under the default cap) does
    the sweep run each class in full to the repeat cap (its first draw or
    split is the probe's, and misses again); a miss there ends INCONCLUSIVE
    with reason "exhaustive_skipped". The witness is the first hit in
    probe order, then the exhaustive pass's, then the first in sweep order.

    A class whose solver refuses with :class:`ResourceLimitError` is
    recorded with status "skipped" and not tried again. Every
    ``trace["phases"]`` entry carries its ``pass`` ("probe", "exhaustive"
    or "sweep") and the phase's ``elapsed_ms``; a FOUND names
    ``found_at_class`` and ``found_in_pass`` ("all" and "exhaustive" for
    the exhaustive pass). An INCONCLUSIVE result names its
    ``trace["reason"]``: "timed_out" or "exhaustive_skipped".
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    cx = costmodel.crossovers()
    lo, hi = cx["classical_l1"], cx["classical_l2"]

    def phase_budget(**knobs) -> SolverBudget:
        # Each phase inherits whatever of the overall cap is left, so a
        # single size class cannot blow through the caller's deadline.
        remaining = None
        if budget.time_cap_ms is not None:
            remaining = max(1.0, budget.time_cap_ms - deadline.elapsed_ms())
        return replace(budget, time_cap_ms=remaining, **knobs)

    trace: dict = {"algorithm": "shifted-dispatch", "phases": []}

    def record(*entry) -> None:  # t, pass, algorithm, status, elapsed_ms
        trace["phases"].append(dict(zip(("t", "pass", "algorithm", "status", "elapsed_ms"), entry)))

    skipped = set()

    def run_classes(name: str, knobs: dict) -> SolveOutcome | None:
        for t in range(n - 1, 0, -1):
            if t in skipped:
                continue
            deadline.check()
            ratio = t / n
            child_seed = derive_seed(seed, "dispatch", t)
            rep = lo <= ratio < hi
            clock = _Deadline(None)
            try:
                solve = solve_shifted_rep if rep else solve_shifted_mitm
                sub = solve(items, shift, ratio, child_seed, phase_budget(**knobs))
            except ResourceLimitError:
                # Phase 1 only gambles (a miss is never NOT_FOUND), so skipping a class is sound.
                skipped.add(t)
                record(t, name, "shifted-rep" if rep else "shifted-mitm", "skipped", clock.elapsed_ms())
                continue
            record(t, name, sub.trace.get("algorithm"), sub.status.value, sub.elapsed_ms)
            if sub.found:
                _check_witness(_verify_pair(items, sub.witness, shift))
                trace["found_at_class"], trace["found_in_pass"] = t, name
                return _outcome(SolveStatus.FOUND, sub.witness, seed, deadline, trace)
        return None

    try:
        out = run_classes("probe", {"repeat_cap": 1})
        if out is not None:
            return out
        deadline.check()
        try:
            final = solve_shifted_exhaustive(items, shift, phase_budget())
        except ResourceLimitError:
            # Too many pair states: only the sweep is left, and its miss proves nothing.
            out = run_classes("sweep", {}) if budget.resolved_repeat_cap(n) > 1 else None
            return out or _inconclusive("exhaustive_skipped", seed, deadline, trace)
    except _TimedOut:
        return _inconclusive("timed_out", seed, deadline, trace)
    record("all", "exhaustive", final.trace["algorithm"], final.status.value, final.elapsed_ms)
    if final.status is SolveStatus.INCONCLUSIVE:
        return _inconclusive("timed_out", seed, deadline, trace)
    if final.found:
        trace["found_at_class"], trace["found_in_pass"] = "all", "exhaustive"
    return _outcome(final.status, final.witness, seed, deadline, trace)


def solve_equal_sums(
    items: Sequence[int], seed: int = 0, budget: SolverBudget | None = None
) -> SolveOutcome:
    """Equal-sums is the shifted problem at shift 0."""
    return solve_shifted(items, 0, seed, budget)


def solve_two_subset_sum(
    items: Sequence[int],
    target: int,
    seed: int = 0,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Coefficient vectors in {0,1,2}^n via the shifted-sums reduction.

    The reduction is an equivalence, so the inner verdict carries over:
    lifted witnesses for FOUND, and NOT_FOUND stays definitive.
    """
    deadline = _Deadline(budget.time_cap_ms if budget else None)
    red = reduce_two_subset_to_shifted(items, target)
    if red.all_ones:
        witness = red.lift(Pair(Subset.of(()), Subset.of(())))
        trace = {"algorithm": "two-subset-reduction", "case": "all-ones"}
        return _outcome(SolveStatus.FOUND, witness, seed, deadline, trace)
    inner = solve_shifted(items, red.shifted.shift, seed, budget)
    trace = {
        "algorithm": "two-subset-reduction",
        "case": "complemented" if red.complemented else "direct",
        "inner": inner.trace,
    }
    if inner.found:
        witness = red.lift(inner.witness)
        _check_witness(sum(a * e for a, e in zip(items, witness)) == target)
        return _outcome(SolveStatus.FOUND, witness, seed, deadline, trace)
    if inner.status is SolveStatus.INCONCLUSIVE:
        return _inconclusive(inner.trace["reason"], seed, deadline, trace)
    return _outcome(inner.status, None, seed, deadline, trace)


# ---------------------------------------------------------------------------
# Instance-level entry point
# ---------------------------------------------------------------------------


def solve_instance(
    instance: ProblemInstance,
    seed: int = 0,
    budget: SolverBudget | None = None,
    algo: str = "auto",
    ratio: float | None = None,
) -> SolveOutcome:
    """Route an instance to one solver call and re-verify any witness.

    Every solver it reaches, the two pigeonhole solvers included, takes
    ``budget`` and returns its own :class:`SolveOutcome`, which is passed
    on with ``seed`` set. ``algo`` narrows the choice: "mitm", "rep",
    "exhaustive", "brute" (small-n oracle, refuses above its cap), or
    "auto"; any other is a ValueError. ``ratio`` pins the size class for
    the shifted single-class solvers.
    """
    if algo not in ALGOS:
        raise ValueError(f"algo must be one of {', '.join(ALGOS)}, got {algo!r}")
    v = instance.variant
    items = instance.items
    if algo == "brute":
        # Oracle dispatch; the oracle caps surface as ResourceLimitError.
        from . import oracles

        deadline = _Deadline(budget.time_cap_ms if budget else None)
        res = oracles.brute_solve(instance)
        status = SolveStatus.FOUND if res.solvable else SolveStatus.NOT_FOUND
        out = _outcome(status, res.witness, seed, deadline, {"algorithm": "brute-force"})
    elif v == "subset_sum":
        if algo == "rep":
            out = solve_subset_sum_rep(items, instance.target, seed, budget)
        else:
            out = solve_subset_sum_mitm(items, instance.target, budget)
    elif v == "modular_subset_sum":
        out = solve_modular_subset_sum_mitm(items, instance.target, instance.modulus, budget)
    elif v in ("equal_sums", "shifted_sums"):
        s = 0 if v == "equal_sums" else instance.shift
        if algo == "exhaustive":
            out = solve_shifted_exhaustive(items, s, budget)
        elif algo == "mitm" and ratio is not None:
            out = solve_shifted_mitm(items, s, ratio, seed, budget)
        elif algo == "rep" and ratio is not None:
            out = solve_shifted_rep(items, s, ratio, seed, budget)
        else:
            out = solve_shifted(items, s, seed, budget)
    elif v == "two_subset_sum":
        out = solve_two_subset_sum(items, instance.target, seed, budget)
    elif v in ("pigeonhole_equal", "pigeonhole_modular"):
        from . import pigeonhole  # it imports this module's contract names

        if v == "pigeonhole_equal":
            out = pigeonhole.solve_pigeonhole_equal(items, budget)
        else:
            out = pigeonhole.solve_pigeonhole_modular(items, instance.modulus, budget)
    else:
        raise ValueError(f"no solver for variant {v!r}")
    if out.found and not verify(instance, out.witness):
        raise RuntimeError(f"solver produced an invalid witness for {v}")
    out.seed = seed
    return out
