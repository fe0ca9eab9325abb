"""Complete search vs residue-bin sampling on planted subset-sum instances.

Generates one planted instance per size, solves it with both engines, and
prints what each one actually did (from the solver traces). The sampler's
draw count moves with the bin structure of the instance; the complete
search's work only moves with n.

Run:  python3 demos/solver_race.py
"""

from sumbins.cli import _random_instance
from sumbins.rng import derive_seed
from sumbins.solvers import solve_instance, solve_subset_sum_mitm, solve_subset_sum_rep


def race(n: int, seed: int) -> None:
    # Plant a solution on half the items so both engines have something
    # to find somewhere in the middle of their search order.
    inst, _ = _random_instance("subset_sum", n, 2 * n, 0.5, seed)
    print(f"n = {n}, target = {inst.target}")

    out = solve_subset_sum_mitm(inst.items, inst.target)
    print(
        f"  mitm : {out.status.value:9s} {out.elapsed_ms:7.1f} ms"
        f"   scanned {out.trace['scanned']} of 2^{n // 2} second-half masks"
    )

    out = solve_subset_sum_rep(inst.items, inst.target, derive_seed(seed, "rep"))
    draws = out.trace.get("draw_count", 0)
    last = out.trace["draws"][-1] if out.trace.get("draws") else {}
    print(
        f"  rep  : {out.status.value:9s} {out.elapsed_ms:7.1f} ms"
        f"   {draws} residue draws, last scanned {last.get('enumerated', 0)}"
        f" of bin size {last.get('bin_size', '?')}"
    )


def main() -> None:
    for n, seed in ((20, 7), (26, 8), (32, 9)):
        race(n, seed)
        print()

    # The instance-level entry point routes by variant, probes solution-size
    # classes from large to small, settles a miss with the exhaustive pass,
    # and re-verifies the witness before returning it. A planted pair on 3/4 of the items lands in the band
    # where residue binning is the cheaper engine.
    inst, planted = _random_instance("equal_sums", 16, 32, 0.75, 5)
    out = solve_instance(inst, seed=11)
    print(f"equal_sums n=16 dispatch: {out.status.value} in {out.elapsed_ms:.1f} ms")
    for ph in out.trace["phases"]:
        print(f"  class t={ph['t']:>3}: {ph['algorithm']} -> {ph['status']}")
    if out.found:
        w = out.witness
        print(f"  found pair: {list(w.s1.indices)} vs {list(w.s2.indices)}")
        print(f"  planted   : {list(planted.s1.indices)} vs {list(planted.s2.indices)}")


if __name__ == "__main__":
    main()
