"""Primality testing and seeded sampling helpers."""

import random

import pytest
import sympy

from sumbins.numtheory import (
    PrimeSearchError,
    is_probable_prime,
    random_prime,
    random_residue,
)

# Carmichael numbers and base-2 strong pseudoprimes; classic trap inputs.
TRAPS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 2047, 3277, 4033, 4681]


class TestIsProbablePrime:
    def test_small_range_against_sieve(self):
        for n in range(-3, 2000):
            assert is_probable_prime(n) == sympy.isprime(n), n

    def test_every_n_below_20000_against_sieve(self):
        # crosses 97^2 = 9409, below which trial division alone decides
        limit = 20_000
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\x00\x00"
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
        assert [n for n in range(limit) if is_probable_prime(n)] == [n for n in range(limit) if sieve[n]]

    @pytest.mark.parametrize("n", TRAPS)
    def test_pseudoprime_traps(self, n):
        assert not is_probable_prime(n)

    def test_large_known_primes(self):
        assert is_probable_prime((1 << 61) - 1)  # Mersenne
        assert is_probable_prime(2305843009213693951)
        assert not is_probable_prime((1 << 61) - 3)

    def test_above_deterministic_threshold(self):
        # 2^89 - 1 is a Mersenne prime; its neighbors are composite
        m89 = (1 << 89) - 1
        assert is_probable_prime(m89)
        assert not is_probable_prime(m89 - 2)

    def test_random_band_against_sympy(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(1 << 32, 1 << 40)
            assert is_probable_prime(n) == sympy.isprime(n), n


class TestRandomPrime:
    def test_single_prime_interval(self):
        assert random_prime(2, 2, seed=0) == 2

    def test_small_interval_membership(self):
        assert random_prime(8, 16, seed=1) in (11, 13)

    def test_deterministic(self):
        a = random_prime(1 << 20, 1 << 21, seed=77)
        b = random_prime(1 << 20, 1 << 21, seed=77)
        assert a == b

    def test_result_is_prime_and_in_range(self):
        for seed in range(40):
            p = random_prime(1 << 20, 1 << 21, seed=seed)
            assert (1 << 20) <= p <= (1 << 21)
            assert sympy.isprime(p)

    def test_primeless_interval_raises(self):
        with pytest.raises(PrimeSearchError):
            random_prime(24, 28, seed=0)

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            random_prime(10, 9, seed=0)
        with pytest.raises(ValueError):
            random_prime(1, 5, seed=0)

    def test_spread_over_interval(self):
        seen = {random_prime(100, 200, seed=s) for s in range(200)}
        assert len(seen) >= 10  # several distinct primes get sampled


class TestRandomResidue:
    def test_single_class(self):
        assert random_residue(1, seed=3) == 0

    def test_range_membership(self):
        for seed in range(50):
            assert 0 <= random_residue(5, seed=seed) < 5

    def test_deterministic(self):
        assert random_residue(97, seed=5) == random_residue(97, seed=5)

    def test_uniformity_chi_squared(self):
        # p = 7, 10^5 draws from one seeded stream; 6 degrees of freedom.
        rng = random.Random(123)
        counts = [0] * 7
        draws = 100_000
        for _ in range(draws):
            counts[random_residue(7, rng)] += 1
        expected = draws / 7
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 22.46  # p = 0.001 tail for 6 dof
