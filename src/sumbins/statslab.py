"""Monte-Carlo checks of the probabilistic facts behind the solvers.

Each check runs a seeded experiment and returns a :class:`StatReport` with
the estimate, the bound it is held against, a standard error, and a pass
flag. The bounds are the ones the algorithms lean on:

* bin_mean_check: over a random prime p ~ 2^(bn) and random residue k, the
  mean bin size is at most 2^((1-b)n) (up to sampling error), since each
  nonempty subset lands in a residue bin with probability about 1/p.

* bin_product_check: the product of the two bin sizes t_(p,k) and
  t_(p,k-s) stays within a polynomial factor of 2^(2(1-b)n) provided the
  instance has few solution pairs; this is what makes enumerating a random
  bin pair affordable.

* value_hash_check: the set V of values realized by at least two subsets
  (offset by s) spreads over residues: a random (p, k) captures either many
  values of V or at least one, with probability Omega(1/n) depending on
  the density regime.

* birthday_sim: drawing r elements from each side of a planted bipartite
  pair structure hits some planted pair with probability at least about
  r^2 K / (2 N M) in the sparse regime.

* split_check: a uniform balanced (or 1:2) split of the indices cuts a
  planted solution of size t into the proportional sizes with probability
  Omega(n^(-1/2)) (exact hypergeometric, checked both ways).

* binomial_bounds_check: 2^(n h(t/n)) / (n+1) <= binom(n, t) <= 2^(n h(t/n)).

Estimates use math.fsum; every report embeds its seed and all experiments
derive per-trial randomness from it, so reruns reproduce bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dpbins import build_table
from .numtheory import random_prime, random_residue
from .oracles import _mask_sums, _ordered_pair_count, collision_values
from .rng import derive_seed, spawn

__all__ = [
    "StatReport",
    "bin_mean_check",
    "bin_product_check",
    "value_hash_check",
    "birthday_sim",
    "split_check",
    "binomial_bounds_check",
    "run_default_suite",
]


@dataclass
class StatReport:
    name: str
    seed: int
    trials: int
    estimate: float
    bound: float
    std_error: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    trials = len(values)
    mean = math.fsum(values) / trials
    if trials < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in values) / (trials - 1)
    return mean, math.sqrt(var / trials)


def _freq_se(successes: int, trials: int) -> tuple[float, float]:
    freq = successes / trials
    return freq, math.sqrt(freq * (1.0 - freq) / trials)


def _prime_bits(b: float, n: int) -> int:
    return math.ceil(b * n - 1e-12)


def _draw_bin_sizes(items, bits, trials, seed, label, shift=0):
    """Per trial: random prime in [2^bits, 2^(bits+1)], random residue k,
    and the bin sizes at k and k - shift; tables are cached per prime."""
    tables: dict[int, object] = {}
    rows = []
    for t in range(trials):
        p = random_prime(1 << bits, 1 << (bits + 1), derive_seed(seed, label, "p", t))
        k = random_residue(p, derive_seed(seed, label, "k", t))
        table = tables.get(p)
        if table is None:
            table = tables[p] = build_table(items, p)
        rows.append((table.bin_size(k), table.bin_size((k - shift) % p), p, k))
    return rows, len(tables)


def bin_mean_check(
    items: Sequence[int], b: float, trials: int, seed: int
) -> StatReport:
    """Mean random-bin size against 2^((1-b)n) plus three standard errors."""
    items = tuple(items)
    n = len(items)
    if trials < 2:
        raise ValueError("need at least 2 trials")
    bits = _prime_bits(b, n)
    rows, distinct = _draw_bin_sizes(items, bits, trials, seed, "bin-mean")
    sizes = [float(r[0]) for r in rows]
    mean, se = _mean_se(sizes)
    bound = 2.0 ** ((1.0 - b) * n)
    return StatReport(
        name="bin_mean_check",
        seed=seed,
        trials=trials,
        estimate=mean,
        bound=bound,
        std_error=se,
        passed=mean <= bound + 3.0 * se,
        details={
            "n": n,
            "b": b,
            "prime_bits": bits,
            "distinct_primes": distinct,
            "max_size": max(sizes),
        },
    )


def bin_product_check(
    items: Sequence[int], s: int, b: float, trials: int, seed: int
) -> StatReport:
    """Mean product of paired bin sizes against 4 n^2 * 2^(2(1-b)n).

    Requires an instance with at most 2^((2-b)n) ordered solution pairs
    (checked by brute force); the polynomial slack 4 n^2 means only
    order-of-magnitude violations fail.
    """
    items = tuple(items)
    n = len(items)
    if trials < 2:
        raise ValueError("need at least 2 trials")
    # ordered pairs, with the 2^n pairs (S, S) at s = 0
    pair_total = _ordered_pair_count(_mask_sums(items), s) + (0 if s else 1 << n)
    if pair_total > 2.0 ** ((2.0 - b) * n):
        raise ValueError(
            f"instance has {pair_total} solution pairs, over the 2^((2-b)n) precondition"
        )
    bits = _prime_bits(b, n)
    rows, distinct = _draw_bin_sizes(items, bits, trials, seed, "bin-product", shift=s)
    products = [float(r[0]) * float(r[1]) for r in rows]
    mean, se = _mean_se(products)
    slack = 4.0 * n * n
    bound = slack * 2.0 ** (2.0 * (1.0 - b) * n)
    return StatReport(
        name="bin_product_check",
        seed=seed,
        trials=trials,
        estimate=mean,
        bound=bound,
        std_error=se,
        passed=mean <= bound + 3.0 * se,
        details={
            "n": n,
            "b": b,
            "s": s,
            "prime_bits": bits,
            "distinct_primes": distinct,
            "solution_pairs": pair_total,
            "poly_slack": slack,
        },
    )


def value_hash_check(
    items: Sequence[int],
    b: float,
    trials: int,
    seed: int,
    s: int = 0,
    ratio: float | None = None,
) -> StatReport:
    """How often a random residue class captures the collision values V.

    V is the set of values realized by two distinct subsets offset by s.
    With l such that |V| = 2^((1-l)n) (or the given ratio), the dense
    regime l <= 1 - b asks for at least 2^((1-l-b)n - 2) values of V in a
    random class, the sparse regime for at least one; either event should
    occur with frequency at least c/n (c = 1/16), scaled in the sparse
    regime by the expected class occupancy when below 1.
    """
    items = tuple(items)
    n = len(items)
    values = sorted(collision_values(items, s))
    if not values:
        raise ValueError("instance has no collision values; plant a solution")
    ell = ratio if ratio is not None else 1.0 - math.log2(len(values)) / n
    bits = _prime_bits(b, n)
    varr = np.array(values, dtype=object if values[-1] >> 63 else np.int64)
    dense = ell <= 1.0 - b + 1e-9
    threshold = max(1.0, 2.0 ** ((1.0 - ell - b) * n - 2.0)) if dense else 1.0
    c = 1.0 / 16.0
    if dense:
        bound = c / n
    else:
        bound = c * min(1.0 / n, 2.0 ** ((1.0 - ell - b) * n))
    successes = 0
    for t in range(trials):
        p = random_prime(1 << bits, 1 << (bits + 1), derive_seed(seed, "value-hash", "p", t))
        k = random_residue(p, derive_seed(seed, "value-hash", "k", t))
        captured = int(np.count_nonzero(varr % p == k))
        if captured >= threshold:
            successes += 1
    freq, se = _freq_se(successes, trials)
    return StatReport(
        name="value_hash_check",
        seed=seed,
        trials=trials,
        estimate=freq,
        bound=bound,
        std_error=se,
        passed=freq >= bound - 3.0 * se,
        details={
            "n": n,
            "b": b,
            "s": s,
            "collision_values": len(values),
            "ratio": ell,
            "regime": "dense" if dense else "sparse",
            "threshold": threshold,
        },
    )


def birthday_sim(
    n_left: int,
    n_right: int,
    pairs: int,
    draws: int,
    trials: int,
    seed: int,
) -> StatReport:
    """Hit rate of planted pairs under two-sided uniform sampling.

    Plants pairs (i, i) for i < pairs between universes of size n_left and
    n_right, draws ``draws`` uniform elements per side with replacement,
    and counts trials where some planted pair is fully drawn. In the
    sparse regime draws^2 * pairs / (n_left n_right) <= 0.1 the frequency
    must reach half that ratio, minus 1.645 standard errors (one-sided
    95%); denser configurations are reported without a binding bound.
    """
    if not 1 <= pairs <= min(n_left, n_right):
        raise ValueError("need 1 <= pairs <= min(n_left, n_right)")
    if draws < 1 or trials < 2:
        raise ValueError("need draws >= 1 and trials >= 2")
    hits = 0
    for t in range(trials):
        gen = np.random.Generator(np.random.PCG64(derive_seed(seed, "birthday", t)))
        xs = gen.integers(0, n_left, size=draws)
        ys = gen.integers(0, n_right, size=draws)
        planted_x = xs[xs < pairs]
        planted_y = ys[ys < pairs]
        if planted_x.size and np.intersect1d(planted_x, planted_y).size:
            hits += 1
    freq, se = _freq_se(hits, trials)
    ratio = draws * draws * pairs / (n_left * n_right)
    sparse = ratio <= 0.1
    bound = 0.5 * ratio if sparse else 0.0
    passed = freq >= bound - 1.645 * se if sparse else True
    return StatReport(
        name="birthday_sim",
        seed=seed,
        trials=trials,
        estimate=freq,
        bound=bound,
        std_error=se,
        passed=passed,
        details={
            "n_left": n_left,
            "n_right": n_right,
            "pairs": pairs,
            "draws": draws,
            "expected_ratio": ratio,
            "regime": "sparse" if sparse else "dense",
        },
    )


def split_check(
    n: int,
    ratio: float,
    trials: int,
    seed: int,
    x1_fraction: Fraction | float = Fraction(1, 3),
) -> StatReport:
    """Probability that a random index split cuts a solution proportionally.

    The first side gets x1_fraction of the n indices; a planted solution of
    size t (ratio * n snapped so the proportional cut t * x1_fraction is
    integral) should put exactly that many of its indices on the first
    side. The empirical frequency must match the exact hypergeometric
    probability within three standard errors, and that probability must
    clear 0.1 / sqrt(n), the inverse-polynomial floor the splitting solvers
    rely on.
    """
    frac = x1_fraction if isinstance(x1_fraction, Fraction) else Fraction(x1_fraction).limit_denominator(16)
    size1 = n * frac
    if size1.denominator != 1:
        raise ValueError(f"n * x1_fraction must be integral, got {size1}")
    size1 = int(size1)
    den = frac.denominator
    t = den * round(ratio * n / den)
    t = max(den, min(t, (n // den) * den))
    hits_target = int(t * frac)
    exact = (
        math.comb(t, hits_target)
        * math.comb(n - t, size1 - hits_target)
        / math.comb(n, size1)
    )
    rng = spawn(seed, "split-check")
    solution = set(range(t))
    successes = 0
    for _ in range(trials):
        side1 = rng.sample(range(n), size1)
        if sum(1 for i in side1 if i in solution) == hits_target:
            successes += 1
    freq = successes / trials
    se = math.sqrt(exact * (1.0 - exact) / trials)
    floor = 0.1 / math.sqrt(n)
    passed = abs(freq - exact) <= 3.0 * se and exact >= floor
    return StatReport(
        name="split_check",
        seed=seed,
        trials=trials,
        estimate=freq,
        bound=exact,
        std_error=se,
        passed=passed,
        details={
            "n": n,
            "t": t,
            "side1_size": size1,
            "hits_target": hits_target,
            "x1_fraction": str(frac),
            "poly_floor": floor,
        },
    )


def binomial_bounds_check(seed: int = 0) -> StatReport:
    """Entropy bounds on binomial coefficients, checked exactly.

    For every n in {20, 30, 40, 50, 60} and t = l n with l in 0.1 .. 0.9
    (integral t only): n h(l) - log2(n+1) <= log2 binom(n, t) <= n h(l).
    """
    checked = 0
    worst_gap = 0.0
    ok = True
    for n in (20, 30, 40, 50, 60):
        for tenth in range(1, 10):
            t_exact = n * tenth
            if t_exact % 10:
                continue
            t = t_exact // 10
            ell = t / n
            h = -ell * math.log2(ell) - (1 - ell) * math.log2(1 - ell)
            log_comb = math.log2(math.comb(n, t))
            upper = n * h
            lower = n * h - math.log2(n + 1)
            checked += 1
            if not (lower - 1e-9 <= log_comb <= upper + 1e-9):
                ok = False
            worst_gap = max(worst_gap, upper - log_comb)
    return StatReport(
        name="binomial_bounds_check",
        seed=seed,
        trials=checked,
        estimate=worst_gap,
        bound=math.log2(61),
        std_error=0.0,
        passed=ok and worst_gap <= math.log2(61),
        details={"pairs_checked": checked},
    )


def run_default_suite(seed: int = 0, trials: int = 240) -> list[StatReport]:
    """The standard battery on documented small instances.

    Two kinds of instance: wide random items (few collisions) exercise the
    bin-size lemmas, and collision-rich items (duplicated values, or one
    planted equal-sum relation) exercise the value-hashing lemma in its
    dense and sparse regimes.
    """
    rng = spawn(seed, "suite-items")
    wide = tuple(rng.randrange(1, 1 << 28) for _ in range(14))
    dup_base = [rng.randrange(1, 1 << 10) for _ in range(6)]
    duplicated = tuple(sorted(dup_base + dup_base))
    planted = [rng.randrange(1 << 29, 1 << 30) for _ in range(12)]
    planted[11] = planted[0] + planted[1]  # {12} collides with {1, 2}
    planted_items = tuple(planted)

    reports = [
        bin_mean_check(wide, 0.5, trials, derive_seed(seed, "suite", "bin-mean")),
        bin_product_check(wide, 0, 0.5, trials, derive_seed(seed, "suite", "bin-product")),
        value_hash_check(duplicated, 0.25, trials, derive_seed(seed, "suite", "hash-dense")),
        value_hash_check(planted_items, 0.8, trials, derive_seed(seed, "suite", "hash-sparse")),
        birthday_sim(4096, 4096, 256, 64, max(trials, 2000), derive_seed(seed, "suite", "birthday")),
        split_check(15, 0.6, trials, derive_seed(seed, "suite", "split-third")),
        split_check(14, 3 / 7, trials, derive_seed(seed, "suite", "split-half"), x1_fraction=Fraction(1, 2)),
        binomial_bounds_check(derive_seed(seed, "suite", "binomial")),
    ]
    return reports
