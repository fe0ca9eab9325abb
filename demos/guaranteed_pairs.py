"""Collisions that must exist, found in square-root time.

Two promise regimes. With sum(items) < 2^n - 1 there are more subsets than
reachable sums, so two subsets share an exact sum; with any modulus
q <= 2^n - 1 two subsets share a residue. Both solvers find a pair
unconditionally on their promise domain, no randomness involved; with no
time cap their outcome is always FOUND, and the pair is its witness.

Run:  python3 demos/guaranteed_pairs.py
"""

import random

from sumbins.core import Pair, ProblemInstance, verify
from sumbins.pigeonhole import solve_pigeonhole_equal, solve_pigeonhole_modular


def show(items: list[int], pair: Pair, q: int | None = None) -> None:
    v1 = sum(items[i - 1] for i in pair.s1.indices)
    v2 = sum(items[i - 1] for i in pair.s2.indices)
    if q is None:
        inst = ProblemInstance("pigeonhole_equal", tuple(items))
        print(f"  {list(pair.s1.indices)} and {list(pair.s2.indices)}: both sum to {v1}")
    else:
        inst = ProblemInstance("pigeonhole_modular", tuple(items), modulus=q)
        print(
            f"  {list(pair.s1.indices)} and {list(pair.s2.indices)}:"
            f" sums {v1} and {v2}, both {v1 % q} mod {q}"
        )
    assert verify(inst, pair)


def main() -> None:
    rng = random.Random(2)

    print("exact collisions under the small-sum promise:")
    for n in (12, 18, 24):
        # Random composition of a near-maximal total into n positive items.
        total = (1 << n) - 2
        cuts = sorted(rng.sample(range(1, total), n - 1))
        items = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        print(f"n = {n}, sum(items) = {sum(items)} < 2^{n} - 1 = {(1 << n) - 1}")
        show(items, solve_pigeonhole_equal(items).witness)

    print()
    print("residue collisions, items arbitrarily large:")
    n = 20
    items = [rng.randint(1, 1 << 60) for _ in range(n)]
    for q in (97, 8 * n + 5, (1 << n) - 1):
        # 8n+5 is just past the direct-table cutoff, so the quotient-class
        # dichotomy does the work for it and for the huge modulus.
        pair = solve_pigeonhole_modular(items, q).witness
        print(f"q = {q}:")
        show(items, pair, q)


if __name__ == "__main__":
    main()
