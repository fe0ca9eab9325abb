"""Solvers for the subset-sum variants.

Two algorithm families:

* meet-in-the-middle ("mitm"): split the indices in half, enumerate both
  halves and join them (sorted numpy arrays of sums mod 2^64 for a plain
  target, a dictionary of residues for a modular one). Deterministic;
  complete for the plain and modular target problems. For shifted sums each
  half's disjoint pair states (S1, S2) become numpy arrays of sum
  differences mod 2^64, joined the same way. The single-class search builds
  one size class per random split, so a miss is only evidence, not a
  proof: the result is Inconclusive.

* residue binning ("rep"): pick a random prime p, build the count table,
  and walk the one bin (or pair of bins) that must contain a solution. For
  subset_sum the target pins the bin, so fully enumerating it proves
  NotFound; for shifted sums the bin pair only covers one residue class of
  solutions and a miss is Inconclusive.

``solve_shifted`` combines both: a sweep over solution-size ratios picks
mitm or rep per ratio by their cost exponents, and a final folklore
exhaustive pass (all 3^(n/2) pair states of each half, all sizes at once)
settles NotFound for small n.

Numpy sums wrap mod 2^64 whatever the item width, so a match there is only
a candidate until exact integer arithmetic confirms it. All witnesses are
re-verified against the instance before being returned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations
from typing import Sequence

import numpy as np

from . import costmodel, pigeonhole
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
    _require_word_rows,
    _stack_tables,
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

_EXHAUSTIVE_CAP_N = 24  # 3^(n/2) pair states per half
_TRACE_DRAWS = 24  # keep at most this many per-draw records in a trace
_BATCH_CHUNK = 1 << 15  # bin ranks unranked per vector call
_WORD_MASK = (1 << 64) - 1


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


def _half_sums(items: Sequence[int], positions: Sequence[int]) -> list[int]:
    """Subset sums of the given positions, indexed by local mask (doubling)."""
    sums = [0]
    for pos in positions:
        a = items[pos]
        sums += [v + a for v in sums]
    return sums


def _half_sums_vec(items: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    """The same doubling as :func:`_half_sums`, as a uint64 vector of the
    sums mod 2^64 (items of any width)."""
    sums = np.zeros(1 << len(positions), dtype=np.uint64)
    for i, pos in enumerate(positions):
        np.add(sums[: 1 << i], np.uint64(items[pos] & _WORD_MASK), out=sums[1 << i : 2 << i])
    return sums


def _mask_value(items: Sequence[int], mask: int) -> int:
    """Exact sum of the items selected by a bit mask."""
    v = 0
    while mask:
        low = mask & -mask
        v += items[low.bit_length() - 1]
        mask ^= low
    return v


# ---------------------------------------------------------------------------
# Meet-in-the-middle for a plain or modular target
# ---------------------------------------------------------------------------


def solve_subset_sum_mitm(
    items: Sequence[int], target: int, budget: SolverBudget | None = None
) -> SolveOutcome:
    """Deterministic complete search in O(2^(n/2)) time and space.

    The half sums are hashed mod 2^64 and joined over sorted numpy arrays;
    probing with needles that are themselves sorted keeps the binary
    searches cache friendly. A wrapped match is only a candidate: second-half
    masks are confirmed exactly in ascending order, and the witness pairs
    the first one with an exact partner with the lowest first-half mask
    holding the needed value.
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    h1 = n - n // 2
    trace = {"algorithm": "subset-sum-mitm", "halves": [h1, n - h1], "scanned": 0}
    # Eight-byte arrays: three over the first half, at most five over the
    # second, which is no larger.
    need_bytes = 64 << h1
    if need_bytes > budget.memory_cap_bytes:
        raise ResourceLimitError(
            f"mitm halves for n={n} need about {need_bytes} bytes, cap is {budget.memory_cap_bytes}"
        )
    sums1 = _half_sums_vec(items, range(h1))
    order1 = np.argsort(sums1)
    sv1 = sums1[order1]
    if deadline.expired():
        trace["timed_out"] = True
        return _outcome(SolveStatus.INCONCLUSIVE, None, None, deadline, trace)
    need2 = np.uint64(target & _WORD_MASK) - _half_sums_vec(items, range(h1, n))
    needles = np.sort(need2)
    pos = np.searchsorted(sv1, needles)
    ok = pos < sv1.size
    ok[ok] = sv1[pos[ok]] == needles[ok]
    # Needed values that have a wrapped partner, then the second-half masks
    # asking for one of them, in natural order.
    matched = np.unique(needles[ok])
    pos2 = np.searchsorted(matched, need2)
    hit2 = pos2 < matched.size
    hit2[hit2] = matched[pos2[hit2]] == need2[hit2]
    partners: dict[int, dict[int, int]] = {}  # wrapped need -> exact sum -> lowest mask1
    for count, mask2 in enumerate(np.flatnonzero(hit2).tolist()):
        if count % 4096 == 0 and deadline.expired():
            trace["scanned"] = mask2
            trace["timed_out"] = True
            return _outcome(SolveStatus.INCONCLUSIVE, None, None, deadline, trace)
        w = need2[mask2]
        if w not in partners:
            group = order1[np.searchsorted(sv1, w) : np.searchsorted(sv1, w, "right")]
            exact: dict[int, int] = {}
            for mask1 in sorted(group.tolist()):
                exact.setdefault(_mask_value(items, mask1), mask1)
            partners[w] = exact
        mask1 = partners[w].get(target - _mask_value(items, mask2 << h1))
        if mask1 is not None:
            trace["scanned"] = mask2 + 1
            witness = Subset.from_mask(mask1 | (mask2 << h1))
            _check_witness(sum(items[i - 1] for i in witness.indices) == target)
            return _outcome(SolveStatus.FOUND, witness, None, deadline, trace)
    trace["scanned"] = int(need2.size)
    return _outcome(SolveStatus.NOT_FOUND, None, None, deadline, trace)


def solve_modular_subset_sum_mitm(
    items: Sequence[int],
    target: int,
    modulus: int,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Same strategy with sums reduced mod the modulus; still complete."""
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    q = modulus
    h1 = n - n // 2
    first: dict[int, int] = {}
    for mask, v in enumerate(_half_sums(items, range(h1))):
        r = v % q
        if r not in first:
            first[r] = mask
    trace = {"algorithm": "modular-mitm", "halves": [h1, n - h1], "scanned": 0}
    sums2 = _half_sums(items, range(h1, n))
    for mask2, v2 in enumerate(sums2):
        mask1 = first.get((target - v2) % q)
        if mask1 is not None:
            trace["scanned"] = mask2 + 1
            witness = Subset.from_mask(mask1 | (mask2 << h1))
            _check_witness(sum(items[i - 1] for i in witness.indices) % q == target % q)
            return _outcome(SolveStatus.FOUND, witness, None, deadline, trace)
        if mask2 % 4096 == 0 and deadline.expired():
            trace["scanned"] = mask2 + 1
            trace["timed_out"] = True
            return _outcome(SolveStatus.INCONCLUSIVE, None, None, deadline, trace)
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

    Masks are drawn a chunk at a time as 64-bit words, and the chunk's
    subset sums accumulate per bit mod 2^64; each wrapped hit is confirmed
    exactly, in draw order.
    """
    n = len(items)
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    tgt = np.uint64(target & _WORD_MASK)
    addends = [np.uint64(a & _WORD_MASK) for a in items]
    one = np.uint64(1)
    tried = 0
    while tried < count:
        chunk = min(count - tried, 1 << 16)
        words = [
            gen.integers(0, 1 << min(64, n - lo), size=chunk, dtype=np.uint64)
            for lo in range(0, n, 64)
        ]
        acc = np.zeros(chunk, dtype=np.uint64)
        buf = np.empty(chunk, dtype=np.uint64)
        for i in range(n):
            np.right_shift(words[i >> 6], np.uint64(i & 63), out=buf)
            np.bitwise_and(buf, one, out=buf)
            np.multiply(buf, addends[i], out=buf)
            np.add(acc, buf, out=acc)
        for off in np.flatnonzero(acc == tgt).tolist():
            mask = sum(int(word[off]) << (64 * w) for w, word in enumerate(words))
            if _mask_value(items, mask) == target:
                return mask, tried + off + 1
        tried += chunk
        if deadline.expired():
            return None, tried
    return None, tried


def _record_draws(trace: dict, records: list[dict]) -> None:
    """Keep at most _TRACE_DRAWS per-draw records and count the others."""
    kept = records[: max(0, _TRACE_DRAWS - len(trace["draws"]))]
    trace["draws"] += kept
    trace["draws_dropped"] += len(records) - len(kept)


def solve_subset_sum_rep(
    items: Sequence[int],
    target: int,
    seed: int = 0,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Random sampling, then prime draws with target-bin enumeration.

    Every solution lies in bin (target mod p), so a draw that exhausts that
    bin without a hit settles NOT_FOUND. Draws that overflow the enumeration
    cap n^2 * 2^(ceil(n/2)) only ever yield INCONCLUSIVE.
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    rng = as_rng(seed, "subset-rep")
    trace: dict = {"algorithm": "subset-sum-rep", "samples": 0, "draws": [], "draws_dropped": 0}

    sample_cap = min(budget.resolved_sample_cap(n), _ceil_half_pow(n))
    hit, tried = _sample_random_subsets(items, target, rng, sample_cap, deadline)
    trace["samples"] = tried
    if hit is not None:
        witness = Subset.from_mask(hit)
        return _outcome(SolveStatus.FOUND, witness, seed, deadline, trace)

    half_bits = (n + 1) // 2
    enum_cap = n * n * (1 << half_bits)
    repeats = budget.resolved_repeat_cap(n)
    draws_done = 0
    for r in range(repeats):
        if deadline.expired():
            trace["timed_out"] = True
            break
        _require_word_rows(n)
        p = random_prime(1 << half_bits, 1 << (half_bits + 1), derive_seed(seed, "subset-rep-prime", r))
        k = target % p
        table = build_table(items, p, budget.memory_cap_bytes)
        size = table.bin_size(k)
        scan = min(size, enum_cap)
        record = {"p": p, "k": k, "bin_size": size, "enumerated": scan}
        _record_draws(trace, [record])
        draws_done += 1
        # Chunked vector scan; candidate sums match mod 2^64, and each
        # candidate rank is re-unranked and confirmed exactly, so the first
        # confirmed rank is the first solution of the bin in chi order.
        tgt = np.uint64(target & _WORD_MASK)
        for done, _, sums_c in _walk_bins(table, np.array([k]), np.array([scan]), 0, scan):
            for off in np.nonzero(sums_c == tgt)[0]:
                rank = done + int(off) + 1
                mask, value = _unrank_mask(table, k, rank)
                if value == target:
                    record["enumerated"] = rank
                    witness = Subset.from_mask(mask)
                    trace["draw_count"] = draws_done
                    return _outcome(SolveStatus.FOUND, witness, seed, deadline, trace)
            done += sums_c.size
            if done < scan and deadline.expired():
                record["enumerated"] = done
                trace["timed_out"] = True
                trace["draw_count"] = draws_done
                return _outcome(SolveStatus.INCONCLUSIVE, None, seed, deadline, trace)
        if scan == size:
            # The whole bin holding every possible solution was checked.
            trace["draw_count"] = draws_done
            trace["definitive_draw"] = r
            return _outcome(SolveStatus.NOT_FOUND, None, seed, deadline, trace)
    trace["draw_count"] = draws_done
    return _outcome(SolveStatus.INCONCLUSIVE, None, seed, deadline, trace)


# ---------------------------------------------------------------------------
# Shifted pairs: meet-in-the-middle over disjoint pair states
# ---------------------------------------------------------------------------

_PAIR_CHUNK = 1 << 16  # pair states of the single-class path built per vector call
# Bytes per pair state: its key, the sort order, the sorted copy and the
# probe positions, eight each, plus temporaries while the keys are built.
_PAIR_STATE_BYTES = 48
# Odd, so distinct small tags (split or draw) stay distinct mod 2^64.
_TAG = np.uint64(0x9E3779B97F4A7C15)


def _require_pair_bytes(states: int, cap: int) -> None:
    need = _PAIR_STATE_BYTES * states
    if need > cap:
        raise ResourceLimitError(f"{states} pair states need about {need} bytes, cap is {cap}")


def _class_states(words: np.ndarray, combos: np.ndarray, t: int) -> np.ndarray:
    """Sum differences mod 2^64 of the disjoint pairs of total size t.

    Row b of ``words`` holds one side's item values mod 2^64. Row b of the
    result holds, at index u * 2^t + s, sum(S1) - sum(S2) for the pair whose
    union is ``combos[u]`` (positions into the row) and whose first set
    takes union member j when bit j of s is set.
    """
    a = words[:, combos]
    d = np.empty(a.shape[:2] + (1 << t,), dtype=np.uint64)
    d[..., 0] = -a.sum(axis=-1)
    a += a
    for j in range(t):
        np.add(d[..., : 1 << j], a[..., j, None], out=d[..., 1 << j : 2 << j])
    return d.reshape(len(words), -1)


def _all_states(words: Sequence[int]) -> np.ndarray:
    """Sum differences mod 2^64 of all 3^h disjoint pairs over ``words``, in
    ternary index order: digit j, most significant first, puts item j in
    neither set, in S1 or in S2."""
    d = np.zeros(1, dtype=np.uint64)
    for w in words:
        d = (d[:, None] + np.array([0, w, -w & _WORD_MASK], dtype=np.uint64)).ravel()
    return d


def _class_decoder(sides: list[list[int]], combos: list[tuple[int, ...]], t: int):
    """decode(i) -> (split, S1 mask, S2 mask) for the class states of
    :func:`_class_states` stacked split after split."""
    per_split = len(combos) << t

    def decode(i: int) -> tuple[int, int, int]:
        split, local = divmod(i, per_split)
        side = sides[split]
        m1 = m2 = 0
        for j, p in enumerate(combos[local >> t]):
            if local >> j & 1:
                m1 |= 1 << side[p]
            else:
                m2 |= 1 << side[p]
        return split, m1, m2

    return decode


def _ternary_decoder(positions: Sequence[int]):
    """decode(i) -> (0, S1 mask, S2 mask) for the states of
    :func:`_all_states` over the items at ``positions``."""

    def decode(i: int) -> tuple[int, int, int]:
        m1 = m2 = 0
        for p in reversed(positions):
            i, digit = divmod(i, 3)
            if digit == 1:
                m1 |= 1 << p
            elif digit:
                m2 |= 1 << p
        return 0, m1, m2

    return decode


def _join_pair_states(
    items: Sequence[int], shift: int, keys1: np.ndarray, needs2: np.ndarray, decode1, decode2,
    deadline: _Deadline,
) -> tuple[tuple[int, Pair] | None, bool]:
    """First exact shifted pair across two sides of pair states.

    ``keys1[i]`` is left state i's key mod 2^64 and ``needs2[j]`` the key
    right state j needs from its partner; both hold sum differences with a
    tag (the split, or 0) mixed in. ``decode`` gives a state's exact
    (tag, S1 mask, S2 mask), where a right state gives the tag it needs. A
    wrapped match is only a candidate: right states are confirmed in
    ascending index, each against its left partners with the same tag and
    the exact difference in ascending index, and the first partner whose
    union pair is not (empty, empty) wins. Returns ((right index, pair) or
    None, timed out).
    """
    sv = np.sort(keys1)
    if deadline.expired():
        return None, True
    order = None  # left states in key order, needed only once a match turns up
    groups: dict[int, dict[tuple[int, int], list[tuple[int, int]]]] = {}
    for start in range(0, needs2.size, _BATCH_CHUNK):
        want = needs2[start : start + _BATCH_CHUNK]
        # Probing with sorted needles keeps the binary searches cache friendly.
        needles = np.sort(want)
        pos = np.searchsorted(sv, needles)
        ok = pos < sv.size
        ok[ok] = sv[pos[ok]] == needles[ok]
        hits = np.flatnonzero(np.isin(want, needles[ok]))
        starts = np.searchsorted(sv, want[hits])
        ends = np.searchsorted(sv, want[hits], "right")
        for off, lo, hi in zip(hits.tolist(), starts.tolist(), ends.tolist()):
            # One exact table per wrapped group: (tag, exact difference) ->
            # its left states in ascending index.
            exact = groups.get(lo)
            if exact is None:
                if order is None:
                    order = np.argsort(keys1)
                exact = groups[lo] = {}
                for i in sorted(order[lo:hi].tolist()):
                    tag, g1, g2 = decode1(i)
                    key = (tag, _mask_value(items, g1) - _mask_value(items, g2))
                    exact.setdefault(key, []).append((g1, g2))
            tag, m1, m2 = decode2(start + off)
            for g1, g2 in exact.get((tag, shift - _mask_value(items, m1) + _mask_value(items, m2)), ()):
                c1, c2 = g1 | m1, g2 | m2
                if c1 != c2:
                    pair = Pair(Subset.from_mask(c1), Subset.from_mask(c2))
                    _check_witness(_verify_pair(items, pair, shift))
                    return (start + off, pair), False
        if deadline.expired():
            return None, True
    return None, False


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
    items. Splits are drawn as before but joined in doubling batches (1, 2,
    4, ...), and a wrapped match counts only once exact integers confirm it.
    The witness is the first exact one in the order of a sequential search:
    earliest split, then lowest right state, then lowest left state, where a
    side's states are ordered by their union in lexicographic order, then by
    the subset of the union in S1 (its bit j for union member j).
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
    _require_pair_bytes(per1 + per2, budget.memory_cap_bytes)
    combos1 = list(combinations(range(h1), t1))
    combos2 = list(combinations(range(n - h1), t2))
    index1 = np.array(combos1, dtype=np.intp).reshape(len(combos1), t1)
    index2 = np.array(combos2, dtype=np.intp).reshape(len(combos2), t2)
    words = np.array([a & _WORD_MASK for a in items], dtype=np.uint64)
    shift_w = np.uint64(shift & _WORD_MASK)
    batch_cap = max(1, _PAIR_CHUNK // (per1 + per2))
    batch = 1
    while trace["splits"] < repeats:
        if deadline.expired():
            trace["timed_out"] = True
            break
        done = trace["splits"]
        size = min(batch, batch_cap, repeats - done)
        perms = [rng.sample(range(n), n) for _ in range(size)]
        lefts = [sorted(p[:h1]) for p in perms]
        rights = [sorted(p[h1:]) for p in perms]
        tags = (np.arange(size, dtype=np.uint64) * _TAG)[:, None]
        keys1 = _class_states(words[np.array(lefts, dtype=np.intp)], index1, t1)
        keys1 += tags
        needs2 = shift_w - _class_states(words[np.array(rights, dtype=np.intp)], index2, t2)
        needs2 += tags
        trace["splits"] = done + size
        decode1, decode2 = _class_decoder(lefts, combos1, t1), _class_decoder(rights, combos2, t2)
        keys1, needs2 = keys1.ravel(), needs2.ravel()
        hit, timed_out = _join_pair_states(items, shift, keys1, needs2, decode1, decode2, deadline)
        if hit is not None:
            trace["splits"] = done + hit[0] // per2 + 1
            return _outcome(SolveStatus.FOUND, hit[1], seed, deadline, trace)
        if timed_out:
            trace["timed_out"] = True
            break
        batch *= 2
    return _outcome(SolveStatus.INCONCLUSIVE, None, seed, deadline, trace)


# ---------------------------------------------------------------------------
# Shifted pairs: residue binning
# ---------------------------------------------------------------------------


# Bytes the shifted-rep join holds per bin-k2 entry: its walked key, their
# concatenation, its draw id, the sort order and the sorted copy, eight each
# (tracemalloc: 40 B per entry beside ~3 MB of walk-chunk temporaries).
_REP_ENTRY_BYTES = 40


def _shifted_rep_join(
    items: Sequence[int], shift: int, tables: list, draws: list, deadline: _Deadline
) -> tuple[tuple[int, Pair] | None, bool]:
    """One sorted join for a batch of :func:`solve_shifted_rep` draws.

    ``draws[d]`` is (table index, k, k2, scan1, scan2). Bin k2 of every draw
    is walked in one pass, keyed by (draw, sum mod 2^64) and sorted; bin k
    of every draw is then streamed against it (at k2 == k and equal scans,
    from the same keys). A key match is only a candidate: one across draws
    is rejected, a bin-k rank that meets only itself (k2 == k) is dropped
    unvisited, and the rest are confirmed with exact arithmetic in (draw,
    bin-k rank, bin-k2 rank) order, so the pair returned is the first exact
    one of the first draw that has one. Returns ((draw, pair) or None,
    timed out).
    """
    tab, ks, k2s, scan1, scan2 = (np.array(c, dtype=np.int64) for c in zip(*draws))
    walked, which = (tables[draws[0][0]], None) if len(draws) == 1 else (_stack_tables(tables), tab)

    def keyed(bins: np.ndarray, scans: np.ndarray):
        # A key is the rank's sum mod 2^64, plus draw * _TAG for a stack.
        for a, seg, sums in _walk_bins(walked, bins, scans, 0, int(scans.sum()), which):
            yield a, seg, sums if which is None else sums + seg.astype(np.uint64) * _TAG

    parts = []
    for _, _, keys in keyed(k2s, scan2):
        parts.append(keys)
        if deadline.expired():
            return None, True
    if not parts:
        return None, False
    key2 = parts[0] if len(parts) == 1 else np.concatenate(parts)
    draw2 = np.repeat(np.arange(len(draws)), scan2)
    order = np.argsort(key2)
    sv = key2[order]
    base1, base2, same = np.cumsum(scan1) - scan1, np.cumsum(scan2) - scan2, k2s == ks
    if same.all() and (scan1 == scan2).all():
        chunks = range(0, key2.size, _BATCH_CHUNK)
        stream = ((a, draw2[a : a + _BATCH_CHUNK], key2[a : a + _BATCH_CHUNK]) for a in chunks)
    else:
        stream = keyed(ks, scan1)
    for a, seg, keys in stream:
        want = keys - np.uint64(shift & _WORD_MASK)
        pos = np.searchsorted(sv, want)
        ok = pos < sv.size
        ok[ok] = sv[pos[ok]] == want[ok]
        hits = np.flatnonzero(ok)
        lo, hi = pos[hits], np.searchsorted(sv, want[hits], "right")
        d = seg[hits]
        rank = a + hits - base1[d]
        # At k2 == k, bin-k rank r is bin-k2 rank r: alone in its group it is no pair.
        me = np.where(same[d] & (rank < scan2[d]), base2[d] + rank, -1)
        keep = (hi - lo > 1) | (order[lo] != me)
        for dd, r, l, h, m in zip(*(x[keep].tolist() for x in (d, rank, lo, hi, me))):
            group = sorted(g for g in order[l:h].tolist() if draw2[g] == dd and g != m)
            if not group:
                continue
            table = tables[tab[dd]]
            mask, value = _unrank_mask(table, int(ks[dd]), r + 1)
            for g in group:
                other, other_value = _unrank_mask(table, int(k2s[dd]), g - int(base2[dd]) + 1)
                if other != mask and value - other_value == shift:
                    return (dd, Pair(Subset.from_mask(mask), Subset.from_mask(other))), False
        if deadline.expired():
            return None, True
    return None, False


def solve_shifted_rep(
    items: Sequence[int],
    shift: int,
    ratio: float,
    seed: int = 0,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Bin-pair search tuned for solutions of total size about ratio * n.

    The prime scale is 2^(b n) with b = 1 - ratio for ratio > 1/2 and
    b = 1/2 otherwise. Each draw picks a random residue k and looks for
    sum(S1) = k, sum(S2) = k - shift (mod p) with sum(S1) - sum(S2) = shift
    over the two bins, enumerating at most n^2 * 2^((1-b) n) entries per
    bin.

    The first batch is one draw, so a planted pair can end the search
    there. Each later batch holds _BATCH_CHUNK // (2 * the largest scan of
    the batch before) draws, so its bins fill about one walk chunk. A batch
    builds one table per distinct prime and joins all its draws at once
    (:func:`_shifted_rep_join`). A draw whose (p, k) an earlier draw of the
    call already joined with at least its scans is the same search and
    cannot hit: it is not walked again, only counted in
    ``trace["repeats_skipped"]``. The witness rule is that of one draw at a
    time: the first draw with an exact pair, then its lowest bin-k rank,
    then its lowest bin-k2 rank. ``trace["draw_count"]`` counts the draws
    (skipped ones too) up to the deciding one, and only those get ``draws``
    records (at most _TRACE_DRAWS, the rest are counted in
    ``draws_dropped``).
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    _require_word_rows(n)
    t = max(1, min(n - 1, round(ratio * n)))
    if t > n // 2:
        bn_bits = n - t
        heavy_ceil = 1 << t
    else:
        bn_bits = (n + 1) // 2
        heavy_ceil = _ceil_half_pow(n)
    enum_cap = n * n * heavy_ceil
    cap = budget.memory_cap_bytes
    trace: dict = {
        "algorithm": "shifted-rep",
        "class_size": t,
        "prime_bits": bn_bits,
        "draws": [],
        "draws_dropped": 0,
        "batches": 0,
        "tables_built": 0,
        "repeats_skipped": 0,
    }

    repeats = budget.resolved_repeat_cap(n)
    joined: dict = {}  # (p, k) -> the largest bin-k2 scan joined for it
    r, size = 0, 1
    while r < repeats:
        if deadline.expired():
            trace["timed_out"] = True
            break
        # Several draws stack their tables too (the rows again and a step
        # per entry): the batch stops short where that would pass the cap.
        batch, table_of, table_bytes = [], {}, 0
        for i in range(r, min(repeats, r + size)):
            p = random_prime(1 << bn_bits, 1 << (bn_bits + 1), derive_seed(seed, "shifted-rep-prime", t, i))
            need = table_bytes + (0 if p in table_of else estimate_table_bytes(n, p))
            if batch and 3 * need > cap:
                break
            table_of.setdefault(p, len(table_of))
            table_bytes = need
            batch.append((p, random_residue(p, derive_seed(seed, "shifted-rep-residue", t, i))))
        tables = [build_table(items, p, cap) for p in table_of]
        trace["tables_built"] += len(tables)
        # The join holds _REP_ENTRY_BYTES per bin-k2 entry. A miss is only
        # INCONCLUSIVE, so capping that scan is as sound as enum_cap; a draw
        # capped only for the draws before it waits for the next batch.
        room = max(0, cap - table_bytes * (3 if len(batch) > 1 else 1)) // _REP_ENTRY_BYTES
        draws, records, index = [], [], []
        for p, k in batch:
            table, k2 = tables[table_of[p]], (k - shift) % p
            bins = [table.bin_size(k), table.bin_size(k2)]
            scans = [min(bins[0], enum_cap), min(bins[1], enum_cap, room)]
            if draws and scans[1] < min(bins[1], enum_cap):
                break
            records.append({"p": p, "k": k, "bins": bins, "enumerated": scans})
            if joined.get((p, k), -1) >= scans[1]:
                continue  # that bin pair was searched at least this far
            joined[(p, k)] = scans[1]
            room -= scans[1]
            index.append(len(records))
            draws.append((table_of[p], k, k2, *scans))
        hit, timed_out = _shifted_rep_join(items, shift, tables, draws, deadline) if draws else (None, False)
        trace["batches"] += 1
        decided = len(records) if hit is None else index[hit[0]]
        trace["repeats_skipped"] += decided - (len(draws) if hit is None else hit[0] + 1)
        r += decided
        _record_draws(trace, records[:decided])
        if hit is not None:
            trace["draw_count"] = r
            return _outcome(SolveStatus.FOUND, hit[1], seed, deadline, trace)
        if timed_out:
            trace["timed_out"] = True
            break
        if draws:
            size = max(1, _BATCH_CHUNK // max(1, 2 * max(max(d[3:]) for d in draws)))
    trace["draw_count"] = r
    return _outcome(SolveStatus.INCONCLUSIVE, None, seed, deadline, trace)


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
    raise :class:`ResourceLimitError`.
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    if n > _EXHAUSTIVE_CAP_N:
        raise ResourceLimitError(
            f"exhaustive pair search is capped at n <= {_EXHAUSTIVE_CAP_N}"
        )
    trace: dict = {"algorithm": "shifted-exhaustive", "pair_states": 2 * 3 ** (n - n // 2)}
    left, right = list(range(n // 2)), list(range(n // 2, n))
    _require_pair_bytes(3 ** len(left) + 3 ** len(right), budget.memory_cap_bytes)
    keys1 = _all_states([items[p] & _WORD_MASK for p in left])
    timed_out = deadline.expired()
    if not timed_out:
        needs2 = np.uint64(shift & _WORD_MASK) - _all_states([items[p] & _WORD_MASK for p in right])
        decode1, decode2 = _ternary_decoder(left), _ternary_decoder(right)
        hit, timed_out = _join_pair_states(items, shift, keys1, needs2, decode1, decode2, deadline)
        if hit is not None:
            return _outcome(SolveStatus.FOUND, hit[1], None, deadline, trace)
    if timed_out:
        trace["timed_out"] = True
        return _outcome(SolveStatus.INCONCLUSIVE, None, None, deadline, trace)
    return _outcome(SolveStatus.NOT_FOUND, None, None, deadline, trace)


def solve_shifted(
    items: Sequence[int],
    shift: int,
    seed: int = 0,
    budget: SolverBudget | None = None,
) -> SolveOutcome:
    """Two-phase shifted-sums driver.

    Phase 1 sweeps solution-size classes t = n-1 .. 1 (largest first) and
    picks the residue-binning solver where its cost exponent beats
    meet-in-the-middle (between the classical crossover ratios), and the
    single-class mitm otherwise. Phase 2 falls back to the exhaustive pair
    search so a miss becomes a definitive NOT_FOUND for n small enough to
    afford it; perfect-partition pairs (total size n) are only reachable by
    phase 2, since phase 1 classes stop at n-1.

    A phase-1 class whose solver refuses with :class:`ResourceLimitError`
    (its states or tables would pass ``memory_cap_bytes``) is recorded with
    status "skipped" and the sweep goes on. Every ``trace["phases"]`` entry
    carries the phase's ``elapsed_ms``. An INCONCLUSIVE result names its
    ``trace["reason"]``: "timed_out", or "exhaustive_skipped" when n is
    above the exhaustive pass's cap.
    """
    budget = budget or SolverBudget()
    deadline = _Deadline(budget.time_cap_ms)
    items = tuple(items)
    n = len(items)
    cx = costmodel.crossovers()
    lo, hi = cx["classical_l1"], cx["classical_l2"]

    def phase_budget() -> SolverBudget:
        # Each phase inherits whatever of the overall cap is left, so a
        # single size class cannot blow through the caller's deadline.
        remaining = None
        if budget.time_cap_ms is not None:
            remaining = max(1.0, budget.time_cap_ms - deadline.elapsed_ms())
        return replace(budget, time_cap_ms=remaining)

    trace: dict = {"algorithm": "shifted-dispatch", "phases": []}

    def give_up(reason: str) -> SolveOutcome:
        trace[reason] = True
        trace["reason"] = reason
        return _outcome(SolveStatus.INCONCLUSIVE, None, seed, deadline, trace)

    def record(t, sub: SolveOutcome) -> None:
        entry = {"t": t, "algorithm": sub.trace.get("algorithm"), "status": sub.status.value}
        trace["phases"].append({**entry, "elapsed_ms": sub.elapsed_ms})

    for t in range(n - 1, 0, -1):
        if deadline.expired():
            return give_up("timed_out")
        ratio = t / n
        child_seed = derive_seed(seed, "dispatch", t)
        rep = lo <= ratio < hi
        clock = _Deadline(None)
        try:
            sub = (solve_shifted_rep if rep else solve_shifted_mitm)(items, shift, ratio, child_seed, phase_budget())
        except ResourceLimitError:
            # Phase 1 only gambles (a miss is never NOT_FOUND), so skipping a class is sound.
            entry = {"t": t, "algorithm": "shifted-rep" if rep else "shifted-mitm", "status": "skipped"}
            trace["phases"].append({**entry, "elapsed_ms": clock.elapsed_ms()})
            continue
        record(t, sub)
        if sub.found:
            _check_witness(_verify_pair(items, sub.witness, shift))
            trace["found_at_class"] = t
            return _outcome(SolveStatus.FOUND, sub.witness, seed, deadline, trace)
    if n > _EXHAUSTIVE_CAP_N:
        return give_up("exhaustive_skipped")
    if deadline.expired():
        return give_up("timed_out")
    final = solve_shifted_exhaustive(items, shift, phase_budget())
    record("all", final)
    if final.status is SolveStatus.INCONCLUSIVE:
        return give_up("timed_out")
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
    """Route an instance to a solver and re-verify any witness.

    ``algo`` narrows the choice: "mitm", "rep", "exhaustive", "brute"
    (small-n oracle, refuses above its cap), or "auto".
    ``ratio`` pins the size class for the shifted single-class solvers.
    """
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
        budget = budget or SolverBudget()
        deadline = _Deadline(budget.time_cap_ms)
        cap = budget.memory_cap_bytes
        if v == "pigeonhole_equal":
            pair = pigeonhole.solve_pigeonhole_equal(items, cap, deadline.expired)
        else:
            pair = pigeonhole.solve_pigeonhole_modular(items, instance.modulus, cap, deadline.expired)
        trace = {"algorithm": v.replace("_", "-")}
        if pair is None:
            trace["timed_out"] = True
            out = _outcome(SolveStatus.INCONCLUSIVE, None, seed, deadline, trace)
        else:
            out = _outcome(SolveStatus.FOUND, pair, seed, deadline, trace)
    else:
        raise ValueError(f"no solver for variant {v!r}")
    if out.found and not verify(instance, out.witness):
        raise RuntimeError(f"solver produced an invalid witness for {v}")
    out.seed = seed
    return out
