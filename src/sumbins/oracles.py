"""Brute-force oracles for small instances.

Everything here is deliberately independent of the count-table machinery:
subset sums come from direct enumeration over bit masks, pair scans walk
ternary state vectors, and the meet-in-the-middle collision check uses only
sorting and binary search. Tests compare the real algorithms against these.

Masks encode subsets as integers with bit i-1 for index i, so ascending mask
order is exactly the chi order used by the unranking code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .core import Pair, ProblemInstance, Subset
from .dpbins import ResourceLimitError

__all__ = [
    "BruteForceResult",
    "brute_solve",
    "brute_bin",
    "brute_bin_masks",
    "collision_values",
    "disjoint_pair_scan",
    "pigeonhole_mitm_check",
]

_ENUM_CAP_N = 24  # 2^n mask enumerations
_BIN_CAP_N = 22
_TERNARY_CAP_N = 18  # 3^n state scans
_MITM_CAP_N = 40


@dataclass
class BruteForceResult:
    """Verdict plus, where applicable, counts and extremal solution sizes.

    ``count`` is the number of solutions in the variant's own currency:
    subsets for the subset-sum variants, ordered distinct pairs for the
    equal/shifted variants, coefficient vectors for two_subset_sum (the
    latter only when the ternary scan ran). ``max_ratio``/``min_ratio`` are
    (|S1|+|S2|)/n over disjoint distinct solution pairs.
    """

    solvable: bool
    witness: object | None = None
    count: int | None = None
    max_ratio: float | None = None
    min_ratio: float | None = None
    max_pair: Pair | None = None
    min_pair: Pair | None = None


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ResourceLimitError(
            f"{what} oracle is capped at n <= {cap}, got n = {n}"
        )


def _mask_sums(items: Sequence[int]):
    """Subset sums indexed by mask; int64 array when they fit, else a list."""
    n = len(items)
    if sum(items) < (1 << 62):
        sums = np.zeros(1 << n, dtype=np.int64)
        size = 1
        for a in items:
            sums[size : 2 * size] = sums[:size] + a
            size *= 2
        return sums
    sums_big = [0]
    for a in items:
        sums_big += [v + a for v in sums_big]
    return sums_big


def _residues(sums: np.ndarray, q: int) -> np.ndarray:
    """int64 mask sums mod q: below 2^62, they are their own residues mod any wider q."""
    return sums % q if q < (1 << 62) else sums


def brute_bin_masks(items: Sequence[int], p: int, k: int):
    """Masks of subsets with sum = k (mod p), ascending (= chi order)."""
    _check_cap(len(items), _BIN_CAP_N, "bin enumeration")
    if p < 1 or not 0 <= k < p:
        raise ValueError("need p >= 1 and 0 <= k < p")
    sums = _mask_sums(items)
    if isinstance(sums, np.ndarray):
        return np.nonzero(_residues(sums, p) == k)[0]
    return [mask for mask, v in enumerate(sums) if v % p == k]


def brute_bin(items: Sequence[int], p: int, k: int) -> list[Subset]:
    return [Subset.from_mask(int(m)) for m in brute_bin_masks(items, p, k)]


def collision_values(items: Sequence[int], s: int = 0) -> set[int]:
    """All v admitting distinct subsets S1, S2 with sum(S1)=v, sum(S2)=v-s."""
    _check_cap(len(items), _ENUM_CAP_N, "collision value")
    sums = _mask_sums(items)
    if isinstance(sums, np.ndarray):
        if abs(s) >> 62:  # int64 sums lie in [0, 2^62): none differ by s
            return set()
        vals, counts = np.unique(sums, return_counts=True)
        if s == 0:
            return {int(v) for v, c in zip(vals, counts) if c >= 2}
        pos = np.searchsorted(vals, vals - s)
        pos = np.minimum(pos, len(vals) - 1)
        hit = vals[pos] == vals - s
        return {int(v) for v in vals[hit]}
    seen: dict[int, int] = {}
    for v in sums:
        seen[v] = seen.get(v, 0) + 1
    if s == 0:
        return {v for v, c in seen.items() if c >= 2}
    return {v for v in seen if (v - s) in seen}


def _pair_witness(sums, s: int) -> Pair | None:
    """Some distinct (S1, S2) with sum(S1) - sum(S2) = s, or None."""
    if isinstance(sums, np.ndarray):
        order = np.argsort(sums, kind="stable")
        sv = sums[order]
        if s == 0:
            dup = np.nonzero(sv[1:] == sv[:-1])[0]
            if dup.size == 0:
                return None
            i = int(dup[0])
            m1, m2 = int(order[i]), int(order[i + 1])
            return Pair(Subset.from_mask(m1), Subset.from_mask(m2))
        pos = np.minimum(np.searchsorted(sv, sv - s), len(sv) - 1)
        hit = np.nonzero(sv[pos] == sv - s)[0]
        if hit.size == 0:
            return None
        i = int(hit[0])
        return Pair(
            Subset.from_mask(int(order[i])),
            Subset.from_mask(int(order[pos[i]])),
        )
    index: dict[int, int] = {}
    for mask, v in enumerate(sums):
        if s == 0:
            if v in index:
                return Pair(Subset.from_mask(index[v]), Subset.from_mask(mask))
            index[v] = mask
        else:
            index.setdefault(v, mask)
    if s != 0:
        for v, mask in index.items():
            if (v - s) in index:
                return Pair(Subset.from_mask(mask), Subset.from_mask(index[v - s]))
    return None


def _ordered_pair_count(sums, s: int) -> int:
    if isinstance(sums, np.ndarray):
        if abs(s) >> 62:  # int64 sums lie in [0, 2^62): none differ by s
            return 0
        vals, counts = np.unique(sums, return_counts=True)
        if s == 0:
            return int(np.sum(counts * (counts - 1)))
        pos = np.searchsorted(vals, vals - s)
        pos = np.minimum(pos, len(vals) - 1)
        hit = vals[pos] == vals - s
        return int(np.sum(counts[hit] * counts[pos[hit]]))
    seen: dict[int, int] = {}
    for v in sums:
        seen[v] = seen.get(v, 0) + 1
    if s == 0:
        return sum(c * (c - 1) for c in seen.values())
    return sum(c * seen[v - s] for v, c in seen.items() if (v - s) in seen)


def _decode_states(inner_idx: int, k: int, outer: tuple[int, ...]) -> list[int]:
    states = []
    for _ in range(k):
        states.append(inner_idx % 3)
        inner_idx //= 3
    states.extend(outer)
    return states


def _states_to_pair(states: Sequence[int]) -> Pair:
    s1 = [i + 1 for i, st in enumerate(states) if st == 1]
    s2 = [i + 1 for i, st in enumerate(states) if st == 2]
    return Pair(Subset.of(s1), Subset.of(s2))


def disjoint_pair_scan(items: Sequence[int], s: int):
    """Scan all disjoint ordered pairs (S1, S2), S1 and S2 not both empty,
    with sum(S1) - sum(S2) = s.

    Returns (pair_count, max_pair, min_pair) where the extremes are by
    |S1| + |S2|. 3^n states, capped.
    """
    n = len(items)
    _check_cap(n, _TERNARY_CAP_N, "disjoint pair")
    k = min(n, 12)
    block = 3**k
    diffs = np.zeros(block, dtype=np.int64)
    sizes = np.zeros(block, dtype=np.int16)
    width = 1
    for a in items[:k]:
        diffs[width : 2 * width] = diffs[:width] + a
        sizes[width : 2 * width] = sizes[:width] + 1
        diffs[2 * width : 3 * width] = diffs[:width] - a
        sizes[2 * width : 3 * width] = sizes[:width] + 1
        width *= 3

    count = 0
    best_max = -1
    best_min = None
    max_pair = min_pair = None
    for outer in product((0, 1, 2), repeat=n - k):
        doff = 0
        soff = 0
        for st, a in zip(outer, items[k:]):
            if st == 1:
                doff += a
                soff += 1
            elif st == 2:
                doff -= a
                soff += 1
        hits = np.nonzero(diffs == s - doff)[0]
        if hits.size == 0:
            continue
        hit_sizes = sizes[hits].astype(np.int64) + soff
        if s == 0 and doff == 0 and soff == 0:
            keep = hit_sizes > 0  # drop the (empty, empty) state
            hits = hits[keep]
            hit_sizes = hit_sizes[keep]
            if hits.size == 0:
                continue
        count += int(hits.size)
        i_max = int(np.argmax(hit_sizes))
        i_min = int(np.argmin(hit_sizes))
        if int(hit_sizes[i_max]) > best_max:
            best_max = int(hit_sizes[i_max])
            max_pair = _states_to_pair(_decode_states(int(hits[i_max]), k, outer))
        if best_min is None or int(hit_sizes[i_min]) < best_min:
            best_min = int(hit_sizes[i_min])
            min_pair = _states_to_pair(_decode_states(int(hits[i_min]), k, outer))
    return count, max_pair, min_pair


def _two_subset_witness(items: Sequence[int], target: int, sums):
    """Coefficients e in {0,1,2}^n with a.e = target, via the shift trick.

    a.e = W + sum(A) - sum(B) for A = {e=2}, B = {e=0} extended to arbitrary
    (possibly overlapping) A, B because shared indices cancel. So a witness
    is any pair of masks whose sums differ by target - W.
    """
    total = sum(items)
    pair = _pair_witness(sums, target - total) if target != total else None
    if target == total:
        return (1,) * len(items)
    if pair is None:
        return None
    in_a = pair.s1.mask()
    in_b = pair.s2.mask()
    return tuple(
        1 + ((in_a >> i) & 1) - ((in_b >> i) & 1) for i in range(len(items))
    )


def brute_solve(instance: ProblemInstance, with_ratios: bool = False) -> BruteForceResult:
    """Ground-truth verdict (and witness) by direct enumeration."""
    n = instance.n
    _check_cap(n, _ENUM_CAP_N, "brute solve")
    items = instance.items
    sums = _mask_sums(items)
    variant = instance.variant

    if variant in ("subset_sum", "modular_subset_sum"):
        if variant == "subset_sum":
            matches = (
                np.nonzero(sums == instance.target)[0]
                if isinstance(sums, np.ndarray)
                else [m for m, v in enumerate(sums) if v == instance.target]
            )
        else:
            q = instance.modulus
            matches = (
                np.nonzero(_residues(sums, q) == instance.target)[0]
                if isinstance(sums, np.ndarray)
                else [m for m, v in enumerate(sums) if v % q == instance.target]
            )
        count = int(len(matches))
        witness = Subset.from_mask(int(matches[0])) if count else None
        return BruteForceResult(count > 0, witness, count)

    if variant in ("equal_sums", "shifted_sums", "pigeonhole_equal"):
        s = instance.shift or 0
        pair = _pair_witness(sums, s)
        count = _ordered_pair_count(sums, s)
        result = BruteForceResult(pair is not None, pair, count)
        if with_ratios and pair is not None:
            _, max_pair, min_pair = disjoint_pair_scan(items, s)
            result.max_pair = max_pair
            result.min_pair = min_pair
            result.max_ratio = len(max_pair.s1.indices + max_pair.s2.indices) / n
            result.min_ratio = len(min_pair.s1.indices + min_pair.s2.indices) / n
        return result

    if variant == "pigeonhole_modular":
        q = instance.modulus
        if isinstance(sums, np.ndarray):
            res = _residues(sums, q)
            order = np.argsort(res, kind="stable")
            rv = res[order]
            dup = np.nonzero(rv[1:] == rv[:-1])[0]
            if dup.size == 0:
                return BruteForceResult(False)
            i = int(dup[0])
            pair = Pair(
                Subset.from_mask(int(order[i])), Subset.from_mask(int(order[i + 1]))
            )
            return BruteForceResult(True, pair)
        index: dict[int, int] = {}
        for mask, v in enumerate(sums):
            r = v % q
            if r in index:
                pair = Pair(Subset.from_mask(index[r]), Subset.from_mask(mask))
                return BruteForceResult(True, pair)
            index[r] = mask
        return BruteForceResult(False)

    if variant == "two_subset_sum":
        witness = _two_subset_witness(items, instance.target, sums)
        count = None
        if n <= _TERNARY_CAP_N:
            count = _coefficient_count(items, instance.target)
        return BruteForceResult(witness is not None, witness, count)

    raise ValueError(f"no oracle for variant {variant!r}")


def _coefficient_count(items: Sequence[int], target: int) -> int:
    """Number of e in {0,1,2}^n with a.e = target: the exact values of every
    e over each half (Python ints, so items of any width), one half counted
    against the other."""
    n = len(items)
    _check_cap(n, _TERNARY_CAP_N, "coefficient count")

    def values(part: Sequence[int]) -> list[int]:
        vals = [0]
        for a in part:
            vals = [v + c * a for v in vals for c in (0, 1, 2)]
        return vals

    left = Counter(values(items[: n // 2]))
    return sum(left[target - v] for v in values(items[n // 2 :]))


# ---------------------------------------------------------------------------
# Meet-in-the-middle collision check (total, for the modular promise setting)
# ---------------------------------------------------------------------------


def pigeonhole_mitm_check(items: Sequence[int], q: int) -> Pair:
    """Find distinct subsets with equal sums mod q, for any q <= 2^n - 1.

    Splits the indices in half, sorts each half's 2^(n/2) residues, and
    counts subsets per residue interval with binary searches; a dichotomy on
    intervals (count > interval length is inherited by some half) lands on a
    single residue carried by two subsets. Time O(2^(n/2) * n) up to logs.
    """
    n = len(items)
    _check_cap(n, _MITM_CAP_N, "meet-in-the-middle collision")
    if not 1 <= q <= (1 << n) - 1:
        raise ValueError(f"need 1 <= q <= 2^n - 1, got q = {q}")
    h1 = n - n // 2
    red = [a % q for a in items]

    def half_residues(indices: list[int]):
        res = np.zeros(1 << len(indices), dtype=np.int64)
        size = 1
        for i in indices:
            res[size : 2 * size] = (res[:size] + red[i]) % q
            size *= 2
        return res

    r1 = half_residues(list(range(h1)))
    r2 = half_residues(list(range(h1, n)))
    order2 = np.argsort(r2, kind="stable")
    s2 = r2[order2]

    def count_interval(x1: int, x2: int) -> int:
        """Subsets with total residue in [x1, x2] (mod q), x1 <= x2."""
        lo = (x1 - r1) % q
        width = x2 - x1
        hi = lo + width
        wrap = hi >= q
        hi_cap = np.where(wrap, q - 1, hi)
        c = np.searchsorted(s2, hi_cap, side="right") - np.searchsorted(s2, lo, side="left")
        if np.any(wrap):
            extra_hi = hi[wrap] - q
            c_wrap = np.searchsorted(s2, extra_hi, side="right")
            c = c.astype(np.int64)
            c[wrap] += c_wrap
        return int(np.sum(c))

    x1, x2 = 0, q - 1
    # 2^n subsets share q residues, so count > width holds at the root and
    # is inherited by at least one half at every split.
    while x1 < x2:
        mid = (x1 + x2) // 2
        left = count_interval(x1, mid)
        if left > mid - x1 + 1:
            x2 = mid
        else:
            x1 = mid + 1
    target = x1

    masks: list[int] = []
    needed = (target - r1) % q
    pos = np.searchsorted(s2, needed, side="left")
    for i in range(len(r1)):
        j = int(pos[i])
        while j < len(s2) and int(s2[j]) == int(needed[i]):
            masks.append(i | (int(order2[j]) << h1))
            if len(masks) == 2:
                return Pair(Subset.from_mask(masks[0]), Subset.from_mask(masks[1]))
            j += 1
    raise AssertionError("dichotomy landed on a residue with fewer than two subsets")
