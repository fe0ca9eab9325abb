"""Exact algorithms for subset-sum variants via residue-bin counting tables.

The package revolves around one data structure: the (n+1) x p table of
exact counts of subsets per sum residue class. It supports O(n^2)-bit
indexed access into any residue bin (dpbins), which powers randomized
solvers for subset sum and shifted/equal sums (solvers), total collision
finders under pigeonhole promises (pigeonhole), an asymptotic cost model
for the algorithm families (costmodel), statistical validation of the
probabilistic lemmas involved (statslab), and brute-force oracles used by
the test suite (oracles). The ``sumbins`` CLI fronts all of it.
"""

from .core import (
    Pair,
    ProblemInstance,
    Subset,
    WIRE_VARIANTS,
    canonicalize_pair,
    instance_from_json,
    instance_to_json,
    load_instance,
    reduce_two_subset_to_shifted,
    save_instance,
    subset_sum,
    verify,
)
from .dpbins import (
    CountTable,
    ResourceLimitError,
    build_table,
    compare_chi,
    enumerate_bin,
    unrank,
)
from .pigeonhole import (
    QuotientDecomposition,
    find_heavy_bin,
    solve_pigeonhole_equal,
    solve_pigeonhole_modular,
)
from .solvers import (
    SolveOutcome,
    SolveStatus,
    SolverBudget,
    solve_equal_sums,
    solve_instance,
    solve_modular_subset_sum_mitm,
    solve_shifted,
    solve_shifted_exhaustive,
    solve_shifted_mitm,
    solve_shifted_rep,
    solve_subset_sum_mitm,
    solve_subset_sum_rep,
    solve_two_subset_sum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Pair",
    "ProblemInstance",
    "Subset",
    "WIRE_VARIANTS",
    "canonicalize_pair",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "reduce_two_subset_to_shifted",
    "save_instance",
    "subset_sum",
    "verify",
    "CountTable",
    "ResourceLimitError",
    "build_table",
    "compare_chi",
    "enumerate_bin",
    "unrank",
    "QuotientDecomposition",
    "find_heavy_bin",
    "solve_pigeonhole_equal",
    "solve_pigeonhole_modular",
    "SolveOutcome",
    "SolveStatus",
    "SolverBudget",
    "solve_equal_sums",
    "solve_instance",
    "solve_modular_subset_sum_mitm",
    "solve_shifted",
    "solve_shifted_exhaustive",
    "solve_shifted_mitm",
    "solve_shifted_rep",
    "solve_subset_sum_mitm",
    "solve_subset_sum_rep",
    "solve_two_subset_sum",
]
