"""Primality testing and uniform sampling of primes and residues.

Random primes drive one thing elsewhere in the package: the residue modulus
of a counting table (a random prime in a dyadic interval makes residue bins
behave like a universal hash of subset sums). That needs uniform draws from
``[lo, hi]`` and exact primality answers, nothing fancier.

Policy: below 2**64 the Miller-Rabin test runs a fixed witness set that is
known to be exact in that range, so answers there are deterministic ground
truth. At or above 2**64 it runs 40 pseudorandom rounds (error probability
under 4**-40); the witnesses derive from the tested number itself, so the
function stays pure and reproducible.
"""

from __future__ import annotations

import math
import random

from .rng import as_rng, spawn

__all__ = [
    "PrimeSearchError",
    "is_probable_prime",
    "random_prime",
    "random_residue",
]

# Exact for every n < 3_317_044_064_679_887_385_961_981 (> 2**64).
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BELOW = 1 << 64
_EXTRA_ROUNDS = 40

# Quick trial division screen before the real test.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


class PrimeSearchError(RuntimeError):
    """Rejection sampling exhausted its draw budget without hitting a prime."""


def _miller_rabin_round(n: int, d: int, r: int, base: int) -> bool:
    """Return True when ``n`` passes one Miller-Rabin round for ``base``."""
    base %= n
    if base == 0:
        return True
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test: exact below 2**64, error < 4**-40 above.

    Deterministic for every input (large-case witnesses are derived from
    ``n`` itself), so repeated calls always agree.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 97 * 97:  # a composite this small has a prime factor <= 97
        return True

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _DETERMINISTIC_BELOW:
        witnesses = _SMALL_WITNESSES
    else:
        wrng = spawn(0, "miller-rabin-witnesses", n)
        witnesses = tuple(
            wrng.randrange(2, n - 1) for _ in range(_EXTRA_ROUNDS)
        )
    return all(_miller_rabin_round(n, d, r, a) for a in witnesses)


def random_prime(lo: int, hi: int, seed: int | random.Random) -> int:
    """Uniform prime from the inclusive range ``[lo, hi]``.

    Rejection-samples uniform integers until one is prime. The draw budget is
    100 * ceil(log2(hi)) attempts, a generous multiple of the expected count
    for any dyadic interval; exhausting it raises :exc:`PrimeSearchError`
    (which a prime-free range like [24, 28] does quickly).
    """
    if lo < 2:
        raise ValueError(f"prime range must start at 2 or above, got lo={lo}")
    if hi < lo:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    rng = as_rng(seed, "random-prime", lo, hi)
    budget = 100 * max(1, math.ceil(math.log2(hi)))
    for _ in range(budget):
        candidate = rng.randrange(lo, hi + 1)
        if is_probable_prime(candidate):
            return candidate
    raise PrimeSearchError(
        f"no prime found in [{lo}, {hi}] after {budget} draws"
    )


def random_residue(p: int, seed: int | random.Random) -> int:
    """Uniform residue from ``[0, p)``; exact for arbitrarily large ``p``."""
    if p < 1:
        raise ValueError(f"modulus must be positive, got {p}")
    rng = as_rng(seed, "random-residue", p)
    return rng.randrange(p)
