"""Problem instances, witnesses, verification, and reductions.

The package solves a family of exact sum problems over a multiset of positive
integers ``a_1..a_n`` (indices are 1-based everywhere):

- ``subset_sum``: find S with sum(S) = m, where 0 <= m <= W = a_1 + .. + a_n.
- ``modular_subset_sum``: find S with sum(S) = m (mod q).
- ``equal_sums``: find distinct S1, S2 with sum(S1) = sum(S2).
- ``shifted_sums``: find distinct S1, S2 with sum(S1) = s + sum(S2),
  0 <= s < W. equal_sums is the s = 0 case.
- ``two_subset_sum``: find coefficients e in {0,1,2}^n with a.e = m,
  0 < m < 2W.
- ``pigeonhole_equal``: equal_sums restricted to instances with W < 2^n - 1,
  where a solution always exists (there are more subsets than reachable
  sums) and solvers must be total.
- ``pigeonhole_modular``: find distinct S1, S2 with sum(S1) = sum(S2) (mod q)
  for q <= 2^n - 1; again a solution always exists.

Witnesses are :class:`Subset` (for the two subset-sum variants),
:class:`Pair` (for every two-subset variant), or a coefficient tuple (for
``two_subset_sum``). :func:`verify` checks any witness against any instance
by direct recomputation.

Instances serialize to JSON with every integer as a decimal string, so
arbitrary-precision values survive any JSON parser untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "WIRE_VARIANTS",
    "Subset",
    "Pair",
    "ProblemInstance",
    "TwoSubsetReduction",
    "subset_sum",
    "verify",
    "canonicalize_pair",
    "reduce_two_subset_to_shifted",
    "instance_to_json",
    "instance_from_json",
    "load_instance",
    "save_instance",
]

# Variants that may appear in instance files.
WIRE_VARIANTS = (
    "subset_sum",
    "two_subset_sum",
    "equal_sums",
    "shifted_sums",
    "pigeonhole_equal",
    "pigeonhole_modular",
    "modular_subset_sum",
)


@dataclass(frozen=True, slots=True)
class Subset:
    """An index subset of {1..n}, stored as a strictly increasing tuple."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for i in self.indices:
            if not isinstance(i, int) or i <= prev:
                raise ValueError(
                    f"indices must be strictly increasing positive ints, got {self.indices!r}"
                )
            prev = i

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Subset":
        """Build from any iterable of distinct 1-based indices."""
        return cls(tuple(sorted(set(int(i) for i in indices))))

    @classmethod
    def from_mask(cls, mask: int) -> "Subset":
        """Bit i-1 of ``mask`` set means index i is a member."""
        out = []
        i = 1
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return cls(tuple(out))

    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << (i - 1)
        return m

    def chi(self) -> int:
        """Characteristic value sum(2^i for i in S); defines the subset order."""
        return 2 * self.mask()

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, i: object) -> bool:
        return i in self.indices


@dataclass(frozen=True, slots=True)
class Pair:
    """An ordered pair of subsets; the witness shape for two-subset variants."""

    s1: Subset
    s2: Subset

    def is_disjoint(self) -> bool:
        return not (set(self.s1.indices) & set(self.s2.indices))


def subset_sum(items: Sequence[int], subset: Subset) -> int:
    """Sum of the selected items (1-based indices)."""
    return sum(items[i - 1] for i in subset.indices)


def _coerce_items(items: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(a) for a in items)
    if not out:
        raise ValueError("items must be nonempty")
    for a in out:
        if a < 1:
            raise ValueError(f"items must be positive integers, got {a}")
    return out


@dataclass(frozen=True)
class ProblemInstance:
    """One problem instance; validation depends on the variant.

    ``target`` is m (subset-sum flavors), ``shift`` is s (shifted sums),
    ``modulus`` is q (modular flavors). Unused parameters must be None.
    """

    variant: str
    items: tuple[int, ...]
    target: int | None = None
    shift: int | None = None
    modulus: int | None = None
    meta: Mapping[str, object] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", _coerce_items(self.items))
        v = self.variant
        if v not in WIRE_VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
        n, w = self.n, self.total
        need = {
            "subset_sum": ("target",),
            "two_subset_sum": ("target",),
            "equal_sums": (),
            "shifted_sums": ("shift",),
            "pigeonhole_equal": (),
            "pigeonhole_modular": ("modulus",),
            "modular_subset_sum": ("target", "modulus"),
        }[v]
        for name in ("target", "shift", "modulus"):
            val = getattr(self, name)
            if name in need and val is None:
                raise ValueError(f"{v} requires {name}")
            if name not in need and val is not None:
                raise ValueError(f"{v} does not take {name}")

        if v == "subset_sum" and not (0 <= self.target <= w):
            raise ValueError(f"subset_sum target must be in [0, {w}], got {self.target}")
        if v == "two_subset_sum" and not (0 < self.target < 2 * w):
            raise ValueError(f"two_subset_sum target must be in (0, {2 * w}), got {self.target}")
        if v == "shifted_sums" and not (0 <= self.shift < w):
            raise ValueError(f"shifted_sums shift must be in [0, {w}), got {self.shift}")
        if v == "pigeonhole_equal" and not (w < (1 << n) - 1):
            raise ValueError(
                f"pigeonhole_equal requires item sum < 2^n - 1 = {(1 << n) - 1}, got {w}"
            )
        if v in ("pigeonhole_modular", "modular_subset_sum"):
            if self.modulus < 1:
                raise ValueError(f"modulus must be positive, got {self.modulus}")
        if v == "pigeonhole_modular" and self.modulus > (1 << n) - 1:
            raise ValueError(
                f"pigeonhole_modular requires modulus <= 2^n - 1 = {(1 << n) - 1}, got {self.modulus}"
            )
        if v == "modular_subset_sum" and not (0 <= self.target < self.modulus):
            raise ValueError(
                f"modular_subset_sum target must be in [0, {self.modulus}), got {self.target}"
            )

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def total(self) -> int:
        return sum(self.items)


def canonicalize_pair(pair: Pair) -> Pair:
    """Replace (S1, S2) by (S1 - S2, S2 - S1).

    This preserves sum(S1) - sum(S2), hence preserves every equal/shifted/
    modular pair equation, and makes the sides disjoint. It is never applied
    implicitly: callers decide when a disjoint representative is wanted.
    """
    a = set(pair.s1.indices)
    b = set(pair.s2.indices)
    return Pair(Subset.of(a - b), Subset.of(b - a))


def _check_indices(n: int, subset: Subset) -> bool:
    return all(1 <= i <= n for i in subset.indices)


def verify(instance: ProblemInstance, witness: object) -> bool:
    """Sound and complete witness check by direct recomputation.

    Accepts :class:`Subset`, :class:`Pair`, or a {0,1,2} coefficient sequence,
    matching the instance variant; anything malformed is simply False.
    """
    items, v = instance.items, instance.variant
    n = instance.n

    if v in ("subset_sum", "modular_subset_sum"):
        if not isinstance(witness, Subset) or not _check_indices(n, witness):
            return False
        total = subset_sum(items, witness)
        if v == "subset_sum":
            return total == instance.target
        return total % instance.modulus == instance.target % instance.modulus

    if v == "two_subset_sum":
        if isinstance(witness, (Subset, Pair)):
            return False
        try:
            coeffs = tuple(int(c) for c in witness)
        except (TypeError, ValueError):
            return False
        if len(coeffs) != n or any(c not in (0, 1, 2) for c in coeffs):
            return False
        return sum(a * c for a, c in zip(items, coeffs)) == instance.target

    if not isinstance(witness, Pair):
        return False
    if not (_check_indices(n, witness.s1) and _check_indices(n, witness.s2)):
        return False
    if witness.s1 == witness.s2:
        return False
    d = subset_sum(items, witness.s1) - subset_sum(items, witness.s2)
    if v in ("equal_sums", "pigeonhole_equal"):
        return d == 0
    if v == "shifted_sums":
        return d == instance.shift
    if v == "pigeonhole_modular":
        return d % instance.modulus == 0
    raise AssertionError(f"unhandled variant {v}")


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSubsetReduction:
    """Size-preserving rewrite of a two_subset_sum instance.

    A coefficient vector e in {0,1,2}^n with a.e = m can be recentered around
    the all-ones vector: writing e_i = 1 + [i in S1] - [i in S2] for subsets
    S1 = {i : e_i = 2} and S2 = {i : e_i = 0} turns a.e = m into
    sum(S1) = (m - W) + sum(S2). Three cases:

    - m = W: e = all ones is itself a witness; no search is needed.
    - m > W: the rewrite directly gives a shifted_sums instance with
      shift s = m - W (note 0 < s < W).
    - m < W: complementing (e -> 2 - e, i.e. a.e = m iff a.(2-e) = 2W - m)
      reduces to the m > W case first; the lift undoes the complement by
      swapping the roles of S1 and S2.

    The shift is never 0 in the searched case, so the produced shifted_sums
    instance needs no distinctness care, and each item multiset is unchanged
    (the reduction preserves instance size n exactly).
    """

    items: tuple[int, ...]
    target: int
    all_ones: bool
    complemented: bool
    shifted: ProblemInstance | None

    def lift(self, pair: Pair | None) -> tuple[int, ...]:
        """Map a shifted_sums witness back to a {0,1,2} coefficient vector."""
        n = len(self.items)
        if self.all_ones:
            return (1,) * n
        if pair is None:
            raise ValueError("a Pair witness is required unless all_ones holds")
        s1, s2 = (pair.s2, pair.s1) if self.complemented else (pair.s1, pair.s2)
        coeffs = [1] * n
        for i in s1.indices:
            coeffs[i - 1] += 1
        for i in s2.indices:
            coeffs[i - 1] -= 1
        # An index on both sides cancels back to 1, so coefficients always
        # land in {0,1,2} even for non-disjoint pairs.
        return tuple(coeffs)


def reduce_two_subset_to_shifted(items: Sequence[int], target: int) -> TwoSubsetReduction:
    """Rewrite two_subset_sum(items, m) as shifted_sums on the same items."""
    items = _coerce_items(items)
    w = sum(items)
    if not (0 < target < 2 * w):
        raise ValueError(f"target must be in (0, {2 * w}), got {target}")
    if target == w:
        return TwoSubsetReduction(items, target, True, False, None)
    complemented = target < w
    m = 2 * w - target if complemented else target
    shifted = ProblemInstance("shifted_sums", items, shift=m - w)
    return TwoSubsetReduction(items, target, False, complemented, shifted)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def instance_to_json(instance: ProblemInstance) -> str:
    """Serialize to the documented JSON shape (ints as decimal strings)."""
    if instance.variant not in WIRE_VARIANTS:
        raise ValueError(f"{instance.variant} is not a wire-format variant")
    doc: dict[str, object] = {
        "variant": instance.variant,
        "items": [str(a) for a in instance.items],
    }
    if instance.target is not None:
        doc["target"] = str(instance.target)
    if instance.shift is not None:
        doc["shift"] = str(instance.shift)
    if instance.modulus is not None:
        doc["modulus"] = str(instance.modulus)
    if instance.meta:
        doc["meta"] = dict(instance.meta)
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> ProblemInstance:
    """Parse the documented JSON shape; unknown keys outside meta are errors."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("instance JSON must be an object")
    known = {"variant", "items", "target", "shift", "modulus", "meta"}
    extra = set(doc) - known
    if extra:
        raise ValueError(f"unknown instance keys: {sorted(extra)}")
    if "variant" not in doc or "items" not in doc:
        raise ValueError("instance JSON needs 'variant' and 'items'")

    def num(key: str) -> int | None:
        if key not in doc:
            return None
        raw = doc[key]
        if not isinstance(raw, str):
            raise ValueError(f"{key} must be a decimal string, got {raw!r}")
        return int(raw)

    items_raw = doc["items"]
    if not isinstance(items_raw, list) or not all(isinstance(x, str) for x in items_raw):
        raise ValueError("items must be a list of decimal strings")
    return ProblemInstance(
        variant=doc["variant"],
        items=tuple(int(x) for x in items_raw),
        target=num("target"),
        shift=num("shift"),
        modulus=num("modulus"),
        meta=doc.get("meta"),
    )


def load_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(instance: ProblemInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))
