"""Differential fuzz: every variant and route through solve_instance against the brute-force oracle."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumbins.core import ProblemInstance, verify
from sumbins.dpbins import ResourceLimitError
from sumbins.oracles import brute_solve
from sumbins.solvers import ALGOS, SolverBudget, SolveStatus, solve_instance

VARIANTS = (
    "subset_sum", "modular_subset_sum", "equal_sums", "shifted_sums", "two_subset_sum",
    "pigeonhole_equal", "pigeonhole_modular",
)
# One draw or split per class, no random sampling, and a memory cap that
# refuses most tables and pair-state arrays past n = 10. No time cap: the
# same seed must give the same outcome.
TINY = SolverBudget(sample_cap=0, repeat_cap=1, memory_cap_bytes=1 << 14)
BRUTE_MAX_N = 24  # brute_solve's enumeration cap


@st.composite
def cases(draw) -> tuple[ProblemInstance, SolverBudget | None, str, float | None]:
    # One default-budget exhaustive pass takes seconds at n = 30, while TINY
    # refuses or settles every variant quickly up to n = 70. Each route
    # (the brute oracle aside) may be pinned, and with it a size class.
    budget, max_n = draw(st.sampled_from([(None, 16), (TINY, 70)]))
    algo = draw(st.sampled_from([a for a in ALGOS if a != "brute"]))
    ratio = draw(st.one_of(st.none(), st.floats(0, 1, exclude_min=True)))
    return draw(instances(max_n)), budget, algo, ratio


@st.composite
def instances(draw, max_n: int) -> ProblemInstance:
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(2 if variant == "pigeonhole_equal" else 1, max_n))
    bits = draw(st.sampled_from([1, 62, 64, 200]))
    # pigeonhole_equal promises a sum below 2^n - 1, so its items stay narrow
    top = ((1 << n) - 2) // n if variant == "pigeonhole_equal" else (1 << bits) - 1
    items = tuple(draw(st.integers(1, top)) for _ in range(n))
    total = sum(items)
    coeffs = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    planted = sum(a * (c == 1) - a * (c == 2) for a, c in zip(items, coeffs))
    if variant in ("subset_sum", "modular_subset_sum"):
        target = draw(st.sampled_from([0, sum(a for a, c in zip(items, coeffs) if c), draw(st.integers(0, total))]))
        if variant == "subset_sum":
            return ProblemInstance(variant, items, target=target)
        modulus = draw(st.integers(1, (1 << bits) + 1))
        return ProblemInstance(variant, items, target=target % modulus, modulus=modulus)
    if variant == "shifted_sums":
        shift = draw(st.sampled_from([0, abs(planted) % total, draw(st.integers(0, total - 1))]))
        return ProblemInstance(variant, items, shift=shift)
    if variant == "two_subset_sum":
        lifted = sum(a * c for a, c in zip(items, coeffs))
        target = draw(st.sampled_from([lifted, draw(st.integers(1, 2 * total - 1))]))
        return ProblemInstance(variant, items, target=min(max(target, 1), 2 * total - 1))
    if variant == "pigeonhole_modular":
        return ProblemInstance(variant, items, modulus=draw(st.integers(1, (1 << n) - 1)))
    return ProblemInstance(variant, items)


def _solve(inst: ProblemInstance, seed: int, budget: SolverBudget | None, algo: str, ratio: float | None):
    """(status, witness) of one solve, or None where a cap refused it."""
    try:
        out = solve_instance(inst, seed, budget, algo, ratio)
    except ResourceLimitError:
        return None
    return out.status, out.witness


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(0, 1 << 32))
# a modulus past int64: the oracle once overflowed on it
@example((ProblemInstance("modular_subset_sum", (1, 1, 1, 1, 6), target=5, modulus=1 << 63), None, "auto", None), 0)
# one item at ratio 0.5: shifted rep's prime scale n - t was 0 bits
@example((ProblemInstance("shifted_sums", (2,), shift=1), None, "rep", 0.5), 0)
def test_solve_instance_against_brute(case, seed):
    inst, budget, algo, ratio = case
    got = _solve(inst, seed, budget, algo, ratio)
    assert _solve(inst, seed, budget, algo, ratio) == got
    if got is None:
        return
    status, witness = got
    if status is SolveStatus.FOUND:
        assert verify(inst, witness)
    elif status is SolveStatus.NOT_FOUND and inst.n <= BRUTE_MAX_N:
        assert not brute_solve(inst).solvable
