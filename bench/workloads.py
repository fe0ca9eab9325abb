"""Workload mixes and the seeded instance generator of the solve benchmark.

A workload is a weighted mix of instance classes. Its pool holds ``rounds``
rounds, and one round holds ``weight`` fresh instances of every class, so
any whole number of rounds carries exactly the workload's class mix. Every
instance depends only on (seed, workload, class family, index): the
generator hashes those into its own ``random.Random`` stream and shares no
code with the package's ``sumbins gen``. Classes of one family (the same
instances under another ``algo``) share their instances.

Class weights keep the median and the 90th percentile of the mix inside a
cluster of similar solves rather than on the gap between two clusters,
where a few instances would decide the statistic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from sumbins.core import Pair, ProblemInstance, Subset

PLANTED = "planted"
RANDOM = "random"
PROMISE = "promise"


@dataclass(frozen=True)
class InstanceClass:
    """One kind of instance: a variant at a size, how it is drawn, and the solver."""

    name: str
    variant: str
    n: int
    bits: int  # width of the generated items
    kind: str  # PLANTED, RANDOM or PROMISE
    ratio: float | None = None  # size ratio of a planted solution
    algo: str = "auto"
    weight: int = 1  # instances of this class per round
    family: str | None = None  # classes of one family share their instances

    @property
    def stream(self) -> str:
        return self.family or self.name

    def describe(self) -> dict:
        out = {
            "class": self.name,
            "variant": self.variant,
            "n": self.n,
            "bits": self.bits,
            "kind": self.kind,
            "algo": self.algo,
            "weight": self.weight,
        }
        if self.ratio is not None:
            out["ratio"] = self.ratio
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[InstanceClass, ...]
    rounds: int  # pool size in rounds
    trace_rounds: int  # rounds of the pool that the traced run solves

    def round_size(self) -> int:
        return sum(c.weight for c in self.classes)


@dataclass(frozen=True)
class Case:
    """One solve of the pool: an instance, the solver choice and its seed."""

    key: str
    instance_key: str  # the same for cases that share one instance
    cls: InstanceClass
    instance: ProblemInstance
    solver_seed: int
    planted: object | None  # the witness the generator planted, if any

    @property
    def algo(self) -> str:
        return self.cls.algo

    def identity(self) -> str:
        """Everything that decides the verdict, as one stable string."""
        inst = self.instance
        return "|".join(
            str(x)
            for x in (
                inst.variant,
                ",".join(map(str, inst.items)),
                inst.target,
                inst.shift,
                inst.modulus,
                self.algo,
                self.solver_seed,
            )
        )


def _dispatch() -> Workload:
    # Random instances are unsolvable and pay the whole phase-1 sweep, up to
    # 15x a planted solve. Per round of 40 solves, the weights put the median
    # in the middle of the 16 planted n=14 solves and the 90th percentile in
    # the middle of the 4 random shifted and two-subset solves at n=14; only
    # the random equal-sums solves lie above them.
    classes = []
    for n, planted, random_ in ((12, 2, 3), (14, 4, 2)):
        bits = 3 * n
        classes += [
            InstanceClass(f"equal_planted0.3_n{n}", "equal_sums", n, bits, PLANTED, 0.3, weight=planted),
            InstanceClass(f"equal_planted0.6_n{n}", "equal_sums", n, bits, PLANTED, 0.6, weight=planted),
            InstanceClass(f"equal_planted0.9_n{n}", "equal_sums", n, bits, PLANTED, 0.9, weight=2),
            InstanceClass(f"equal_random_n{n}", "equal_sums", n, bits, RANDOM),
            InstanceClass(f"shifted_planted_n{n}", "shifted_sums", n, bits, PLANTED, 0.5, weight=planted),
            InstanceClass(f"shifted_random_n{n}", "shifted_sums", n, bits, RANDOM, weight=random_),
            InstanceClass(f"two_subset_planted_n{n}", "two_subset_sum", n, bits, PLANTED, weight=planted),
            InstanceClass(f"two_subset_random_n{n}", "two_subset_sum", n, bits, RANDOM, weight=random_),
        ]
    return Workload("dispatch", tuple(classes), rounds=3, trace_rounds=2)


def _pigeonhole_subset() -> Workload:
    # Modular pigeonhole at n=16 always runs the quotient-class dichotomy
    # (count_b, scalar unrank); pigeonhole_equal at n=36 is its vectorized
    # twin. subset_sum at n=32,34 with 48-bit items keeps sums below 2^62, so
    # only the word-size paths run; at n=28,30 with 100-bit items mitm takes
    # its dict path, rep its scalar sampler, and modular_subset_sum is
    # dict-only. Weights put a third of the solves among the cheap mitm ones,
    # the median among the rep and pigeonhole_equal solves, and the 90th
    # percentile among the modular pigeonhole solves, each inside a cluster
    # rather than on a gap between two.
    classes = [
        InstanceClass("pigeonhole_modular_n16", "pigeonhole_modular", 16, 32, PROMISE, weight=4),
        InstanceClass("pigeonhole_equal_n36", "pigeonhole_equal", 36, 36, PROMISE, weight=2),
    ]
    for sizes, bits, modular in (((32, 34), 48, False), ((28, 30), 100, True)):
        for n in sizes:
            for kind in (PLANTED, RANDOM):
                ratio = 0.5 if kind == PLANTED else None
                for algo, weight in (("auto", 1), ("rep", 2)):
                    classes.append(InstanceClass(
                        f"subset_{kind}_{algo}_n{n}", "subset_sum", n, bits, kind, ratio, algo, weight,
                        family=f"subset_{kind}_n{n}",
                    ))
                if modular:
                    classes.append(
                        InstanceClass(f"modular_{kind}_n{n}", "modular_subset_sum", n, bits, kind, ratio)
                    )
    return Workload("pigeonhole_subset", tuple(classes), rounds=6, trace_rounds=4)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (_dispatch(), _pigeonhole_subset())}


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def _subset_of(positions) -> Subset:
    return Subset.of(i + 1 for i in positions)


def _split_pair(rng: random.Random, items: list[int], ratio: float) -> tuple[list[int], list[int], int]:
    """Two disjoint sides of total size ~ ratio * n and their sum difference."""
    n = len(items)
    t = max(2, min(n, round(ratio * n)))
    chosen = rng.sample(range(n), t)
    side1, side2 = sorted(chosen[: t // 2]), sorted(chosen[t // 2 :])
    return side1, side2, sum(items[i] for i in side1) - sum(items[i] for i in side2)


def _draw(cls: InstanceClass, rng: random.Random) -> tuple[ProblemInstance, object | None]:
    n, bits, v = cls.n, cls.bits, cls.variant

    if v == "pigeonhole_equal":
        hi = ((1 << n) - 2) // n
        return ProblemInstance(v, [rng.randrange(1, hi + 1) for _ in range(n)]), None
    if v == "pigeonhole_modular":
        # Above (8n + 4) * 2^ceil(n/2) the solver cannot answer from a direct
        # table mod q and always runs the quotient-class dichotomy.
        lo = max(1 << (n - 1), (8 * n + 5) << ((n + 1) // 2))
        q = rng.randrange(lo, 1 << n)
        return ProblemInstance(v, [rng.randrange(1, 1 << bits) for _ in range(n)], modulus=q), None

    items = [rng.randrange(1, (1 << bits) + 1) for _ in range(n)]
    total = sum(items)
    planted = cls.kind == PLANTED

    if v in ("subset_sum", "modular_subset_sum"):
        chosen = sorted(rng.sample(range(n), round(cls.ratio * n))) if planted else None
        value = sum(items[i] for i in chosen) if planted else None
        witness = _subset_of(chosen) if planted else None
        if v == "subset_sum":
            target = value if planted else rng.randrange(0, total + 1)
            return ProblemInstance(v, items, target=target), witness
        q = rng.randrange(2, (1 << bits) + 1)
        target = value % q if planted else rng.randrange(q)
        return ProblemInstance(v, items, target=target, modulus=q), witness

    if v == "equal_sums":
        if not planted:
            return ProblemInstance(v, items), None
        side1, side2, d = _split_pair(rng, items, cls.ratio)
        if d > 0:
            items[side2[0]] += d
        elif d < 0:
            items[side1[0]] -= d
        return ProblemInstance(v, items), Pair(_subset_of(side1), _subset_of(side2))

    if v == "shifted_sums":
        if not planted:
            return ProblemInstance(v, items, shift=rng.randrange(0, total)), None
        side1, side2, d = _split_pair(rng, items, cls.ratio)
        if d < 0:
            side1, side2, d = side2, side1, -d
        return ProblemInstance(v, items, shift=d), Pair(_subset_of(side1), _subset_of(side2))

    if v == "two_subset_sum":
        if not planted:
            return ProblemInstance(v, items, target=rng.randrange(1, 2 * total)), None
        while True:
            coeffs = tuple(rng.choice((0, 1, 2)) for _ in range(n))
            target = sum(a * e for a, e in zip(items, coeffs))
            if 0 < target < 2 * total:
                return ProblemInstance(v, items, target=target), coeffs

    raise ValueError(f"no generator for {v!r}")


def make_cases(workload: Workload, seed: int) -> list[Case]:
    """The workload's pool for ``seed``, round by round."""
    cases = []
    for r in range(workload.rounds):
        for cls in workload.classes:
            for w in range(cls.weight):
                index = r * cls.weight + w
                instance_key = f"{cls.stream}#{index}"
                rng = random.Random(f"sumbins-bench:{seed}:{workload.name}:{instance_key}")
                solver_seed = rng.getrandbits(32)
                instance, planted = _draw(cls, rng)
                cases.append(Case(f"{cls.name}#{index}", instance_key, cls, instance, solver_seed, planted))
    return cases
