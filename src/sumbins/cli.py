"""Command-line front end.

Subcommands: gen (random/planted instances), solve (run a solver on an
instance file), bench (timing sweeps with log2 slopes), curve (cost-model
CSV), stats (the statistics lab), unrank (indexed access into a residue
bin).

Exit codes: 0 found / check passed, 1 definitively not found, 2
inconclusive, 3 usage or validation error, 4 runtime failure. Every output
embeds the seed and the library version; CSV outputs carry them in a
leading "# ..." comment line above the header.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from math import log2

from . import __version__
from .core import (
    Pair,
    ProblemInstance,
    Subset,
    instance_to_json,
    load_instance,
    verify,
)
from .costmodel import CURVE_KINDS, write_curve_csv
from .dpbins import ResourceLimitError, build_table, enumerate_bin
from .numtheory import PrimeSearchError
from .pigeonhole import solve_pigeonhole_equal
from .rng import derive_seed, spawn
from .solvers import (
    ALGOS,
    SolveStatus,
    SolverBudget,
    solve_instance,
    solve_subset_sum_mitm,
    solve_subset_sum_rep,
)
from .statslab import (
    bin_mean_check,
    bin_product_check,
    binomial_bounds_check,
    birthday_sim,
    run_default_suite,
    split_check,
    value_hash_check,
)

_EXIT_FOUND = 0
_EXIT_NOT_FOUND = 1
_EXIT_INCONCLUSIVE = 2
_EXIT_USAGE = 3
_EXIT_RUNTIME = 4

_STATUS_EXIT = {
    SolveStatus.FOUND: _EXIT_FOUND,
    SolveStatus.NOT_FOUND: _EXIT_NOT_FOUND,
    SolveStatus.INCONCLUSIVE: _EXIT_INCONCLUSIVE,
}


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_jsonable(witness):
    if witness is None:
        return None
    if isinstance(witness, Subset):
        return {"kind": "subset", "indices": list(witness.indices)}
    if isinstance(witness, Pair):
        return {
            "kind": "pair",
            "s1": list(witness.s1.indices),
            "s2": list(witness.s2.indices),
        }
    if isinstance(witness, tuple):
        return {"kind": "coefficients", "coefficients": list(witness)}
    raise TypeError(f"unknown witness type {type(witness)!r}")


def _witness_compact(witness) -> str:
    """The lists of :func:`_witness_jsonable` space-separated, joined by "|"."""
    fields = _witness_jsonable(witness) or {}
    return "|".join(" ".join(map(str, v)) for key, v in fields.items() if key != "kind")


def _render(args, payload: dict, human: list[str], rows=()) -> None:
    """Write one result in ``args.format``: ``payload`` as JSON, or the CSV
    ``rows`` under the "# sumbins ..." comment, or the ``human`` lines and
    then the seed and version lines."""
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        text = "\n".join((f"# sumbins {__version__} seed={args.seed}", *rows))
    else:
        text = "\n".join((*human, f"seed: {args.seed}", f"version: {__version__}"))
    _write_out(text + "\n", args.out)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _random_instance(
    variant: str, n: int, bits: int, plant_ratio: float | None, seed: int
):
    """Draw an instance; returns (instance, witness or None)."""
    rng = spawn(seed, "gen", variant, n)
    meta = {"generator": "sumbins-gen", "seed": str(seed), "version": __version__}
    if plant_ratio is not None:
        meta["plant_ratio"] = repr(plant_ratio)

    if variant == "pigeonhole_equal":
        if plant_ratio is not None:
            raise ValueError("pigeonhole_equal is always solvable; drop --plant-ratio")
        hi = ((1 << n) - 2) // n
        if hi < 1:
            raise ValueError(f"no valid pigeonhole_equal items exist for n = {n}")
        items = [rng.randrange(1, hi + 1) for _ in range(n)]
        return ProblemInstance("pigeonhole_equal", items, meta=meta), None

    if variant == "pigeonhole_modular":
        if plant_ratio is not None:
            raise ValueError("pigeonhole_modular is always solvable; drop --plant-ratio")
        items = [rng.randrange(1, 1 << bits) for _ in range(n)]
        q = rng.randrange(1, 1 << n)
        return ProblemInstance("pigeonhole_modular", items, modulus=q, meta=meta), None

    items = [rng.randrange(1, (1 << bits) + 1) for _ in range(n)]
    total = sum(items)

    if variant == "subset_sum":
        if plant_ratio is not None:
            size = max(1, min(n, round(plant_ratio * n)))
            chosen = sorted(rng.sample(range(1, n + 1), size))
            witness = Subset.of(chosen)
            target = sum(items[i - 1] for i in chosen)
        else:
            witness = None
            target = rng.randrange(0, total + 1)
        return ProblemInstance("subset_sum", items, target=target, meta=meta), witness

    if variant == "modular_subset_sum":
        q = rng.randrange(2, (1 << bits) + 1)
        if plant_ratio is not None:
            size = max(1, min(n, round(plant_ratio * n)))
            chosen = sorted(rng.sample(range(1, n + 1), size))
            witness = Subset.of(chosen)
            target = sum(items[i - 1] for i in chosen) % q
        else:
            witness = None
            target = rng.randrange(q)
        inst = ProblemInstance(
            "modular_subset_sum", items, target=target, modulus=q, meta=meta
        )
        return inst, witness

    if variant == "two_subset_sum":
        if plant_ratio is not None:
            while True:
                coeffs = tuple(rng.choice((0, 1, 2)) for _ in range(n))
                target = sum(a * e for a, e in zip(items, coeffs))
                if 0 < target < 2 * total:
                    break
            inst = ProblemInstance("two_subset_sum", items, target=target, meta=meta)
            return inst, coeffs
        target = rng.randrange(1, 2 * total)
        return ProblemInstance("two_subset_sum", items, target=target, meta=meta), None

    if variant in ("equal_sums", "shifted_sums"):
        witness = None
        shift = None
        if plant_ratio is not None:
            t = max(2, min(n, round(plant_ratio * n)))
            chosen = rng.sample(range(n), t)
            side1 = sorted(chosen[: t // 2])
            side2 = sorted(chosen[t // 2 :])
            d = sum(items[i] for i in side1) - sum(items[i] for i in side2)
            if variant == "equal_sums":
                if d > 0:
                    items[side2[0]] += d
                elif d < 0:
                    items[side1[0]] += -d
            else:
                if d < 0:
                    side1, side2 = side2, side1
                    d = -d
                shift = d
            witness = Pair(
                Subset.of(i + 1 for i in side1), Subset.of(i + 1 for i in side2)
            )
        elif variant == "shifted_sums":
            shift = rng.randrange(0, sum(items))
        if variant == "equal_sums":
            inst = ProblemInstance("equal_sums", items, meta=meta)
        else:
            inst = ProblemInstance("shifted_sums", items, shift=shift, meta=meta)
        return inst, witness

    raise ValueError(f"cannot generate variant {variant!r}")


def _cmd_gen(args) -> int:
    bits = args.bits if args.bits is not None else 2 * args.n
    instance, witness = _random_instance(
        args.variant, args.n, bits, args.plant_ratio, args.seed
    )
    if witness is not None and not verify(instance, witness):
        raise RuntimeError("planted witness failed verification")
    if witness is not None and not args.out:
        raise ValueError("--plant-ratio writes a witness sidecar; give --out")
    text = instance_to_json(instance)
    _write_out(text, args.out)
    if witness is not None:
        sidecar = {
            "variant": instance.variant,
            "witness": _witness_jsonable(witness),
            "seed": args.seed,
            "version": __version__,
        }
        with open(args.out + ".witness.json", "w") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    return _EXIT_FOUND


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    if args.ratio is not None and not 0 < args.ratio <= 1:
        raise ValueError(f"--ratio must be in (0, 1], got {args.ratio}")
    budget = SolverBudget(
        sample_cap=args.budget_samples,
        repeat_cap=args.budget_repeats,
        time_cap_ms=args.time_cap_ms,
    )
    try:
        outcome = solve_instance(
            instance, seed=args.seed, budget=budget, algo=args.algo, ratio=args.ratio
        )
    except RuntimeError:
        raise
    except Exception as exc:
        # The instance was validated when it loaded, so anything else a
        # solver raises is a fault of the program (exit 4), not of the caller.
        raise RuntimeError(f"solver fault: {type(exc).__name__}: {exc}") from exc
    payload = {
        "status": outcome.status.value,
        "witness": _witness_jsonable(outcome.witness),
        "seed": args.seed,
        "version": __version__,
        "elapsed_ms": round(outcome.elapsed_ms, 3),
        "algorithm": outcome.trace.get("algorithm"),
    }
    if args.trace:
        payload["trace"] = outcome.trace
    status, algorithm, ms = payload["status"], payload["algorithm"], payload["elapsed_ms"]
    witness = _witness_compact(outcome.witness)
    _render(
        args, payload,
        [f"status: {status}", f"algorithm: {algorithm}", f"witness: {witness or '-'}", f"elapsed_ms: {ms}"],
        ["status,algorithm,elapsed_ms,witness", f"{status},{algorithm},{ms},{witness}"],
    )
    return _STATUS_EXIT[outcome.status]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _parse_sizes(spec: str) -> list[int]:
    if ":" in spec:
        parts = [int(x) for x in spec.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError(f"bad sizes spec {spec!r}")
        if step < 1 or hi < lo:
            raise ValueError(f"bad sizes spec {spec!r}")
        return list(range(lo, hi + 1, step))
    return [int(x) for x in spec.split(",") if x.strip()]


def _bench_one(variant: str, algo: str, n: int, rep: int, seed: int) -> tuple[float, bool]:
    """One timed solve on a fresh planted instance; returns (ms, found).

    The collector stays off while the solve runs so its pauses do not land
    inside individual measurements.
    """
    inst_seed = derive_seed(seed, "bench", variant, n, rep)
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        if variant == "pigeonhole_equal":
            instance, _ = _random_instance("pigeonhole_equal", n, n, None, inst_seed)
            out = solve_pigeonhole_equal(instance.items)
        else:
            instance, _ = _random_instance("subset_sum", n, n, 0.5, inst_seed)
            if algo == "mitm":
                out = solve_subset_sum_mitm(instance.items, instance.target)
            else:
                out = solve_subset_sum_rep(instance.items, instance.target, derive_seed(inst_seed, "solve"))
        return out.elapsed_ms, out.found
    finally:
        if gc_was_on:
            gc.enable()


def _cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    if args.variant == "pigeonhole_equal":
        algos = ["pigeonhole"]
    else:
        algos = [a.strip() for a in args.algos.split(",") if a.strip()]
        for a in algos:
            if a not in ("mitm", "rep"):
                raise ValueError(f"unknown subset_sum bench algo {a!r}")
    lines = [f"# sumbins {__version__} seed={args.seed}"]
    if args.reps == 1:
        lines.append("# warning: reps=1, medians are single samples")
    lines.append("n,algo,median_ms,found_rate,log2_slope")
    for algo in algos:
        prev: tuple[int, float] | None = None
        try:
            # Throwaway warm-up solve at the smallest size so one-time
            # costs (imports, allocator growth) stay out of the medians.
            _bench_one(args.variant, algo, sizes[0], 0, args.seed)
        except ResourceLimitError:
            pass
        for n in sizes:
            times = []
            founds = 0
            try:
                for rep in range(args.reps):
                    ms, found = _bench_one(args.variant, algo, n, rep, args.seed)
                    times.append(ms)
                    founds += int(found)
            except ResourceLimitError:
                lines.append(f"{n},{algo},,,resource-limit")
                prev = None
                continue
            med = statistics.median(times)
            rate = founds / args.reps
            if prev is None or med <= 0 or prev[1] <= 0:
                slope = ""
            else:
                slope = f"{(log2(med) - log2(prev[1])) / (n - prev[0]):.4f}"
            lines.append(f"{n},{algo},{med:.3f},{rate:.3f},{slope}")
            prev = (n, med)
    _write_out("\n".join(lines) + "\n", args.out)
    return _EXIT_FOUND


# ---------------------------------------------------------------------------
# curve / stats / unrank
# ---------------------------------------------------------------------------


def _cmd_curve(args) -> int:
    import io

    buf = io.StringIO()
    write_curve_csv(
        buf, args.kind, args.step, comment=f"sumbins {__version__} seed={args.seed}"
    )
    _write_out(buf.getvalue(), args.out)
    return _EXIT_FOUND


def _run_single_check(name: str, params: dict, trials: int, seed: int):
    if name == "birthday":
        return birthday_sim(
            int(params["n_left"]),
            int(params["n_right"]),
            int(params["pairs"]),
            int(params["draws"]),
            trials,
            seed,
        )
    if name == "split":
        from fractions import Fraction

        frac = Fraction(str(params.get("x1_fraction", "1/3")))
        return split_check(
            int(params["n"]), float(params["ratio"]), trials, seed, x1_fraction=frac
        )
    if name == "binomial":
        return binomial_bounds_check(seed)
    items = [int(x) for x in params["items"]]
    if name == "bin_mean":
        return bin_mean_check(items, float(params["b"]), trials, seed)
    if name == "bin_product":
        return bin_product_check(
            items, int(params.get("s", 0)), float(params["b"]), trials, seed
        )
    if name == "value_hash":
        ratio = params.get("ratio")
        return value_hash_check(
            items,
            float(params["b"]),
            trials,
            seed,
            s=int(params.get("s", 0)),
            ratio=float(ratio) if ratio is not None else None,
        )
    raise ValueError(f"unknown check {name!r}")


def _report_line(r) -> str:
    return (
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: estimate={r.estimate:.6g} "
        f"bound={r.bound:.6g} se={r.std_error:.3g} trials={r.trials}"
    )


def _cmd_stats(args) -> int:
    if args.check != "all":
        params = json.loads(args.params) if args.params else {}
        if not isinstance(params, dict):
            raise ValueError("--params must be a JSON object")
        report = _run_single_check(args.check, params, args.trials, args.seed)
        payload = {"seed": args.seed, "version": __version__, "report": report.to_dict()}
        _render(args, payload, [_report_line(report)])
        return _EXIT_FOUND if report.passed else _EXIT_RUNTIME
    reports = run_default_suite(args.seed, args.trials)
    all_passed = all(r.passed for r in reports)
    payload = {
        "seed": args.seed,
        "version": __version__,
        "trials": args.trials,
        "all_passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    _render(args, payload, [*map(_report_line, reports), f"all_passed: {all_passed}"])
    return _EXIT_FOUND if all_passed else _EXIT_RUNTIME


def _cmd_unrank(args) -> int:
    if bool(args.items) == bool(args.instance):
        raise ValueError("give exactly one of --items or --instance")
    if args.items:
        items = [int(x) for x in args.items.replace(",", " ").split()]
    else:
        items = list(load_instance(args.instance).items)
    table = build_table(items, args.p)
    subsets = [list(s.indices) for s in enumerate_bin(table, args.k, args.index, args.count)]
    size = table.bin_size(args.k)
    if args.index > size:
        raise ValueError(f"index must be in [1, {size}] for this bin")
    payload = {
        "p": args.p,
        "k": args.k,
        "bin_size": size,
        "start_index": args.index,
        "subsets": subsets,
        "seed": args.seed,
        "version": __version__,
    }
    ranked = list(enumerate(subsets, args.index))
    human = [f"{i}: {{{', '.join(map(str, s))}}}" for i, s in ranked]
    rows = [f"{i},{' '.join(map(str, s))}" for i, s in ranked]
    _render(args, payload, [f"bin {args.k} (mod {args.p}) holds {size} subsets", *human], ["index,indices", *rows])
    return _EXIT_FOUND


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumbins",
        description="Exact subset-sum variants via residue-bin counting tables.",
    )
    parser.add_argument("--version", action="version", version=f"sumbins {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *formats):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=None, help="write output to this file")
        if formats:
            p.add_argument("--format", choices=formats, default="human")

    p = sub.add_parser("gen", help="generate a random or planted instance")
    p.add_argument("--variant", required=True, choices=(
        "subset_sum", "equal_sums", "shifted_sums", "two_subset_sum",
        "modular_subset_sum", "pigeonhole_equal", "pigeonhole_modular"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bits", type=int, default=None, help="item size in bits (default 2n)")
    p.add_argument("--plant-ratio", type=float, default=None,
                   help="plant a solution of this size ratio; writes <out>.witness.json")
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--algo", choices=ALGOS, default="auto")
    p.add_argument("--ratio", type=float, default=None,
                   help="solution-size ratio for the single-class shifted solvers")
    p.add_argument("--budget-samples", type=int, default=None)
    p.add_argument("--budget-repeats", type=int, default=None)
    p.add_argument("--time-cap-ms", type=float, default=None)
    p.add_argument("--trace", action="store_true", help="include the solver trace")
    add_common(p, "human", "json", "csv")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="timing sweep over n")
    p.add_argument("--variant", choices=("subset_sum", "pigeonhole_equal"),
                   default="subset_sum")
    p.add_argument("--sizes", default="24:36:2", help="e.g. 24:36:2 or 24,28,32")
    p.add_argument("--algos", default="mitm,rep")
    p.add_argument("--reps", type=int, default=5)
    add_common(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("curve", help="cost-model curve CSV")
    p.add_argument("--kind", required=True, choices=sorted(CURVE_KINDS))
    p.add_argument("--step", type=float, default=0.001)
    add_common(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("stats", help="run the statistics lab")
    p.add_argument("--trials", type=int, default=240)
    p.add_argument("--check", default="all", choices=(
        "all", "bin_mean", "bin_product", "value_hash",
        "birthday", "split", "binomial"))
    p.add_argument("--params", default=None,
                   help='JSON object of check parameters, '
                        'e.g. \'{"n_left": 100, "n_right": 1000, "pairs": 10, "draws": 30}\'')
    add_common(p, "human", "json")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("unrank", help="indexed access into a residue bin")
    p.add_argument("--items", default=None, help="comma-separated items")
    p.add_argument("--instance", default=None, help="take items from this instance file")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--index", type=int, required=True, help="1-based rank within the bin")
    p.add_argument("--count", type=int, default=1)
    add_common(p, "human", "json", "csv")
    p.set_defaults(func=_cmd_unrank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into our usage code
        return _EXIT_USAGE if exc.code else _EXIT_FOUND
    try:
        return args.func(args)
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (OSError, ResourceLimitError, PrimeSearchError, RuntimeError, AssertionError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
