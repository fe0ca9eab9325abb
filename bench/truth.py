"""Ground truth for every pool instance, and the check of each solve against it.

The truth never comes from the solver under test:

- a planted witness means the answer must be FOUND;
- both pigeonhole variants are total, so they must be FOUND;
- ``oracles.brute_solve`` settles every other instance with n <= 24;
- ``subset_sum`` and ``modular_subset_sum`` above that are settled by the
  small exact meet-in-the-middle below, which shares no code with
  ``sumbins.solvers``.

Every witness, the truth's own and each solver's, is re-checked with
``core.verify``. The reference to ``verify`` is taken when this module is
imported, before the traced run wraps the package, so checks made here do
not count as calls of the program's own layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sumbins import oracles
from sumbins.core import Subset, verify

FOUND = "found"
NOT_FOUND = "not_found"
INCONCLUSIVE = "inconclusive"

_BRUTE_MAX_N = 24
_WORD_LIMIT = 1 << 62


@dataclass(frozen=True)
class Truth:
    status: str  # FOUND or NOT_FOUND
    witness: object | None
    source: str  # "planted", "promise", "brute" or "mitm"


def _half_sums_word(items) -> np.ndarray:
    sums = np.zeros(1, dtype=np.int64)
    for a in items:
        sums = np.concatenate((sums, sums + a))
    return sums


def _half_sums(items, modulus: int | None) -> list[int]:
    sums = [0]
    for a in items:
        sums += [(v + a) % modulus if modulus else v + a for v in sums]
    return sums


def mitm_subset_sum(items, target: int, modulus: int | None = None) -> int | None:
    """Mask of a subset summing to ``target`` (mod ``modulus`` if given), or None.

    Splits the items in two halves and looks up, for each subset sum of the
    second half, the value the first half must supply. Complete, so None
    proves that no subset exists.
    """
    h = len(items) // 2
    left, right = items[:h], items[h:]
    if modulus is None and sum(items) < _WORD_LIMIT:
        s1 = _half_sums_word(left)
        order = np.argsort(s1, kind="stable")
        sv = s1[order]
        need = target - _half_sums_word(right)
        pos = np.minimum(np.searchsorted(sv, need), sv.size - 1)
        hits = np.flatnonzero(sv[pos] == need)
        if not hits.size:
            return None
        mask2 = int(hits[0])
        return int(order[pos[mask2]]) | (mask2 << h)
    first: dict[int, int] = {}
    for mask, v in enumerate(_half_sums(left, modulus)):
        first.setdefault(v, mask)
    for mask2, v in enumerate(_half_sums(right, modulus)):
        want = (target - v) % modulus if modulus else target - v
        mask1 = first.get(want)
        if mask1 is not None:
            return mask1 | (mask2 << h)
    return None


def ground_truth(case) -> Truth:
    """The known answer for one case; raises if a truth witness fails to verify."""
    inst = case.instance
    if case.planted is not None:
        truth = Truth(FOUND, case.planted, "planted")
    elif inst.variant in ("pigeonhole_equal", "pigeonhole_modular"):
        truth = Truth(FOUND, None, "promise")
    elif inst.n <= _BRUTE_MAX_N:
        res = oracles.brute_solve(inst)
        truth = Truth(FOUND if res.solvable else NOT_FOUND, res.witness, "brute")
    elif inst.variant in ("subset_sum", "modular_subset_sum"):
        mask = mitm_subset_sum(inst.items, inst.target, inst.modulus)
        witness = None if mask is None else Subset.from_mask(mask)
        truth = Truth(NOT_FOUND if mask is None else FOUND, witness, "mitm")
    else:
        raise ValueError(f"no ground truth for {inst.variant} at n = {inst.n}")
    if truth.witness is not None and not verify(inst, truth.witness):
        raise ValueError(f"{case.key}: {truth.source} witness fails core.verify")
    return truth


def check(case, truth: Truth, status: str | None, witness: object, error: str | None) -> str | None:
    """Why one solve failed, or None when it is correct.

    A solve fails if it raised, returned INCONCLUSIVE (no time cap is set and
    every answer is known), returned a witness that fails ``core.verify``, or
    returned a verdict that contradicts the ground truth.
    """
    if error is not None:
        return f"raised {error}"
    if status == INCONCLUSIVE:
        return "inconclusive"
    if status == FOUND:
        if not verify(case.instance, witness):
            return "witness fails core.verify"
        if truth.status != FOUND:
            return f"found, but the {truth.source} ground truth is not_found"
        return None
    if status == NOT_FOUND:
        if truth.status == FOUND:
            return f"not_found, but the {truth.source} ground truth is found"
        return None
    return f"unknown status {status!r}"
