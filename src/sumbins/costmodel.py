"""Asymptotic cost exponents for the solver families.

Every curve maps a solution-size ratio l = t/n (t = |S1| + |S2| for the
pair problems) to the exponent gamma such that the corresponding algorithm
runs in about 2^(gamma n) operations:

* meet-in-the-middle enumerates binom(n, ln) * 2^(ln) ~= 2^((h(l)+l) n)
  size-class pairs split across two sides, giving (h(l)+l)/2 classically
  and (h(l)+l)/3 with a quantum collision-finding subroutine.

* residue binning balances the table-and-bin work 2^(bn) against the bin
  population 2^((1-b)n) with b = max(1-l, 1/2), giving max(l, 1/2)
  classically; its quantum variant grows as (1+l)/4 up to l = 3/5 and
  l/2 + 1/10 beyond, where the pair-finding subroutine changes regime.

The shifted-sums master curves take whichever family is cheaper at each l;
the crossover ratios are the roots of the piece differences, computed here
by bisection to 1e-9. The equal-sums curve may additionally choose the bin
scale b freely since nothing pins the residue class, which improves the
left flank; ``b_quantum_equal_min`` records the optimizing b.

For calibration, ``FOLKLORE_EQUAL_SUMS_EXPONENT`` is the classical
exhaustive-pair baseline 2^(n log2(3) / 2) per half, i.e. exponent
log2(3)/3 once split three ways by the same quantum walk.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "entropy",
    "gamma_mitm_quantum",
    "gamma_mitm_classical",
    "gamma_rep_quantum",
    "gamma_rep_classical",
    "gamma_quantum_shifted",
    "gamma_classical_shifted",
    "gamma_quantum_equal_min",
    "b_quantum_equal_min",
    "crossovers",
    "worst_case_quantum_shifted",
    "worst_case_classical_shifted",
    "pair_finding_cost",
    "FOLKLORE_EQUAL_SUMS_EXPONENT",
    "CURVE_KINDS",
    "curve_points",
    "write_curve_csv",
]

FOLKLORE_EQUAL_SUMS_EXPONENT = math.log2(3) / 3


def entropy(x: float) -> float:
    """Binary entropy h(x) on [0, 1], with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _check_ratio(l: float) -> None:
    if not 0.0 < l < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {l}")


def gamma_mitm_quantum(l: float) -> float:
    _check_ratio(l)
    return (entropy(l) + l) / 3.0


def gamma_mitm_classical(l: float) -> float:
    _check_ratio(l)
    return (entropy(l) + l) / 2.0


def gamma_rep_quantum(l: float) -> float:
    _check_ratio(l)
    if l <= 0.6:
        return (1.0 + l) / 4.0
    return l / 2.0 + 0.1


def gamma_rep_classical(l: float) -> float:
    _check_ratio(l)
    return max(l, 0.5)


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-9) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _equal_min_left_piece(lam: float) -> float:
    return 0.5 - (1.0 - lam) / 4.0 * entropy(lam / (2.0 * (1.0 - lam)))


_CROSSOVERS: dict[str, float] = {}


def crossovers() -> dict[str, float]:
    """Ratios where the piecewise curves switch formula, to 1e-9.

    quantum_l1 / quantum_l2 bracket where residue binning beats quantum
    meet-in-the-middle; classical_l1 / classical_l2 the same classically;
    equal_min_l1 / equal_min_l2 bound the free-bin-scale equal-sums curve.
    """
    if not _CROSSOVERS:
        _CROSSOVERS.update(
            quantum_l1=_bisect(
                lambda l: gamma_mitm_quantum(l) - (1.0 + l) / 4.0, 0.05, 0.45
            ),
            quantum_l2=_bisect(
                lambda l: gamma_mitm_quantum(l) - (l / 2.0 + 0.1), 0.7, 0.95
            ),
            classical_l1=_bisect(lambda l: entropy(l) + l - 1.0, 0.1, 0.4),
            classical_l2=_bisect(lambda l: entropy(l) - l, 0.6, 0.95),
            equal_min_l1=_bisect(
                lambda l: gamma_mitm_quantum(l) - _equal_min_left_piece(l), 0.1, 0.45
            ),
            equal_min_l2=_bisect(
                lambda l: gamma_mitm_quantum(l) - (l / 2.0 + 0.1), 0.7, 0.95
            ),
        )
    return dict(_CROSSOVERS)


def gamma_quantum_shifted(l: float) -> float:
    """Best quantum exponent for shifted sums at solution ratio l."""
    _check_ratio(l)
    cx = crossovers()
    if cx["quantum_l1"] <= l <= 0.6:
        return (1.0 + l) / 4.0
    if 0.6 < l < cx["quantum_l2"]:
        return l / 2.0 + 0.1
    return gamma_mitm_quantum(l)


def gamma_classical_shifted(l: float) -> float:
    """Best classical exponent for shifted sums at solution ratio l."""
    _check_ratio(l)
    cx = crossovers()
    if cx["classical_l1"] <= l < 0.5:
        return 0.5
    if 0.5 <= l < cx["classical_l2"]:
        return l
    return gamma_mitm_classical(l)


def gamma_quantum_equal_min(lam: float) -> float:
    """Quantum equal-sums exponent when lam is the smallest solution ratio.

    Identical to the shifted curve on the right, but the left flank drops
    below it: with no shift pinning the residue class, the bin scale b can
    exceed 1/2 and trade table size against bin population.
    """
    _check_ratio(lam)
    cx = crossovers()
    if cx["equal_min_l1"] <= lam < 0.5:
        return _equal_min_left_piece(lam)
    if 0.5 <= lam <= 0.6:
        return (1.0 + lam) / 4.0
    if 0.6 < lam < cx["equal_min_l2"]:
        return lam / 2.0 + 0.1
    return gamma_mitm_quantum(lam)


def b_quantum_equal_min(lam: float) -> float:
    """Bin scale achieving gamma_quantum_equal_min."""
    _check_ratio(lam)
    if lam <= 0.5:
        return _equal_min_left_piece(lam)
    if lam <= 0.6:
        return (1.0 + lam) / 4.0
    return 0.4


def worst_case_quantum_shifted() -> tuple[float, float]:
    """(argmax ratio, max exponent) of the quantum shifted curve."""
    l2 = crossovers()["quantum_l2"]
    return l2, l2 / 2.0 + 0.1


def worst_case_classical_shifted() -> tuple[float, float]:
    """(argmax ratio, max exponent) of the classical shifted curve."""
    l2 = crossovers()["classical_l2"]
    return l2, l2


def pair_finding_cost(n_left: float, n_right: float, k: float) -> float:
    """Query cost of finding one of K cross pairs between lists of N and M
    random values: (NM/K)^(1/3) while M <= K N^2, then (M/K)^(1/2).

    Symmetric in the two list sizes; K counts the planted pairs.
    """
    if n_left <= 0 or n_right <= 0 or k <= 0:
        raise ValueError("list sizes and pair count must be positive")
    small, large = sorted((float(n_left), float(n_right)))
    if large <= k * small * small:
        return (small * large / k) ** (1.0 / 3.0)
    return (large / k) ** 0.5


CURVE_KINDS: dict[str, Callable[[float], float]] = {
    "mitm_quantum": gamma_mitm_quantum,
    "mitm_classical": gamma_mitm_classical,
    "rep_quantum": gamma_rep_quantum,
    "rep_classical": gamma_rep_classical,
    "shifted_quantum": gamma_quantum_shifted,
    "shifted_classical": gamma_classical_shifted,
    "equal_min_quantum": gamma_quantum_equal_min,
    "folklore_equal_sums": lambda l: FOLKLORE_EQUAL_SUMS_EXPONENT,
}


def curve_points(kind: str, step: float = 0.001) -> list[tuple[float, float]]:
    """Sample a curve at l = step, 2*step, ..., up to but excluding 1."""
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}; know {sorted(CURVE_KINDS)}")
    if not 0.0 < step < 1.0:
        raise ValueError(f"step must be in (0, 1), got {step}")
    fn = CURVE_KINDS[kind]
    count = round(1.0 / step) - 1
    return [(i * step, fn(i * step)) for i in range(1, count + 1)]


def write_curve_csv(fh, kind: str, step: float = 0.001, comment: str | None = None) -> int:
    """Write "l,gamma" rows with 9 significant digits; returns the row count."""
    if comment:
        fh.write(f"# {comment}\n")
    fh.write("l,gamma\n")
    points = curve_points(kind, step)
    for l, g in points:
        fh.write(f"{l:.9g},{g:.9g}\n")
    return len(points)
