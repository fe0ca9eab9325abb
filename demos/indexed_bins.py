"""Random access into residue bins without enumerating them.

Builds the counting table for a small item list, then pulls subsets out of
one bin by index: first, last, and a few spots in between. The point is
that position i of a bin costs one O(n) walk, not an enumeration of the
i - 1 subsets before it.

Run:  python3 demos/indexed_bins.py
"""

from sumbins.dpbins import build_table, enumerate_bin, unrank


def main() -> None:
    items = [3, 14, 15, 92, 65, 35, 89, 79, 32, 38]
    p = 7
    table = build_table(items, p)

    print(f"items = {items}")
    print(f"sums taken mod p = {p}")
    print()
    print("bin sizes (all 2^10 subsets, split by residue):")
    total = 0
    for k in range(p):
        size = table.bin_size(k)
        total += size
        print(f"  residue {k}: {size:4d} subsets")
    print(f"  total     {total:5d} = 2^{total.bit_length() - 1}")
    print()

    k = 3
    size = table.bin_size(k)
    print(f"indexed access into bin {k} (size {size}):")
    for index in (1, 2, size // 2, size):
        s = unrank(table, k, index)
        value = sum(items[i - 1] for i in s.indices)
        print(f"  #{index:4d}: indices {list(s.indices)}  sum {value}  ({value} % {p} = {value % p})")
    print()

    # Any window of the bin as a lazy stream; it agrees with unrank element
    # by element, and streaming the whole bin yields exactly `size` subsets.
    window = list(enumerate_bin(table, k, start=size // 2, count=5))
    if window != [unrank(table, k, size // 2 + i) for i in range(5)]:
        raise SystemExit("enumerate_bin and unrank disagree")
    if sum(1 for _ in enumerate_bin(table, k)) != size:
        raise SystemExit("enumerate_bin streamed the wrong number of subsets")
    print(f"ranks {size // 2}..{size // 2 + 4} via enumerate_bin match unrank: {[list(s.indices) for s in window]}")


if __name__ == "__main__":
    main()
