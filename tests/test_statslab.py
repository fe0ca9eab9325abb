"""Tests for the Monte-Carlo lemma checks."""

import json
import math
import random
from fractions import Fraction

import pytest

from sumbins import statslab as sl

_WIDE_RNG = random.Random(91)
WIDE = tuple(_WIDE_RNG.randrange(1, 1 << 28) for _ in range(14))


def planted_items(n, seed):
    """n items around 2^29 where the last equals the sum of the first two,
    so every superset pair {last} u T vs {first, second} u T collides."""
    rng = random.Random(seed)
    items = [rng.randrange(1 << 29, 1 << 30) for _ in range(n)]
    items[-1] = items[0] + items[1]
    return tuple(items)


# ---------------------------------------------------------------------------
# StatReport plumbing
# ---------------------------------------------------------------------------


def test_report_serialization():
    rep = sl.binomial_bounds_check(seed=7)
    d = rep.to_dict()
    assert d["name"] == "binomial_bounds_check"
    assert d["seed"] == 7
    assert d["details"]["pairs_checked"] == rep.trials
    parsed = json.loads(rep.to_json())
    assert parsed == json.loads(json.dumps(d))


# ---------------------------------------------------------------------------
# bin mean
# ---------------------------------------------------------------------------


def test_bin_mean_passes_on_wide_items():
    rep = sl.bin_mean_check(WIDE, 0.5, 200, seed=3)
    assert rep.passed
    assert rep.name == "bin_mean_check"
    assert rep.trials == 200
    assert rep.bound == pytest.approx(2.0 ** (0.5 * 14))
    assert rep.details["n"] == 14
    assert rep.details["prime_bits"] == 7
    assert 1 <= rep.details["distinct_primes"] <= 200
    assert rep.details["max_size"] >= rep.estimate


def test_bin_mean_deterministic():
    a = sl.bin_mean_check(WIDE, 0.5, 60, seed=5)
    b = sl.bin_mean_check(WIDE, 0.5, 60, seed=5)
    assert a.estimate == b.estimate and a.std_error == b.std_error
    c = sl.bin_mean_check(WIDE, 0.5, 60, seed=6)
    assert c.estimate != a.estimate


def test_bin_mean_needs_two_trials():
    with pytest.raises(ValueError):
        sl.bin_mean_check(WIDE, 0.5, 1, seed=0)


# ---------------------------------------------------------------------------
# bin product
# ---------------------------------------------------------------------------


def test_bin_product_passes_on_wide_items():
    rep = sl.bin_product_check(WIDE, 0, 0.5, 200, seed=3)
    assert rep.passed
    assert rep.bound == pytest.approx(4.0 * 14 * 14 * 2.0 ** (1.0 * 14))
    # wide random items have almost only the diagonal pairs
    assert rep.details["solution_pairs"] >= 1 << 14
    assert rep.details["poly_slack"] == 4 * 14 * 14


def test_bin_product_with_shift():
    items = planted_items(12, seed=2)
    s = items[0]  # subset {0} vs the empty set gives at least one pair
    rep = sl.bin_product_check(items, s, 0.5, 150, seed=9)
    assert rep.passed
    assert rep.details["s"] == s
    assert rep.details["solution_pairs"] >= 1


def test_bin_product_rejects_collision_heavy_instances():
    # ten equal items have sum(C(10,k)^2) = C(20,10) equal-sum pairs,
    # far over the 2^(1.5 n) precondition
    with pytest.raises(ValueError, match="solution pairs"):
        sl.bin_product_check((7,) * 10, 0, 0.5, 10, seed=0)


@pytest.mark.parametrize("s", [0, (1 << 63) + 1, 3])
def test_bin_product_counts_pairs_past_int64(s):
    # item sums past 2^63 overflowed (or wrapped) the check's int64 sums; the
    # count is of ordered pairs, the 2^n pairs (S, S) at s = 0 included
    items = ((1 << 63) + 1, (1 << 63) + 1, 1, 2, 4, 8)
    sums = [sum(a for i, a in enumerate(items) if m >> i & 1) for m in range(1 << len(items))]
    want = sum(x - y == s for x in sums for y in sums)
    rep = sl.bin_product_check(items, s, 0.5, 50, seed=4)
    assert rep.details["solution_pairs"] == want
    assert rep.passed


def test_checks_take_values_and_shifts_past_int64():
    # collision values past 2^63, and shifts past 2^63 over int64 sums,
    # overflowed numpy int64 arrays
    wide = ((1 << 63) + 1, (1 << 63) + 1, 1, 2, 4, 8)
    rep = sl.value_hash_check(wide, 0.5, 40, seed=5)
    assert rep.details["collision_values"] == 16  # {2^63 + 1} u T against its twin
    narrow, s = (3, 5, 7, 9, 11, 13), 1 << 63
    assert sl.bin_product_check(narrow, s, 0.5, 20, seed=5).details["solution_pairs"] == 0
    with pytest.raises(ValueError, match="no collision values"):
        sl.value_hash_check(narrow, 0.5, 20, seed=5, s=s)


# ---------------------------------------------------------------------------
# value hashing
# ---------------------------------------------------------------------------


def test_value_hash_rejects_collision_free_instances():
    powers = tuple(1 << i for i in range(10))
    with pytest.raises(ValueError, match="no collision values"):
        sl.value_hash_check(powers, 0.5, 10, seed=0)


def test_value_hash_dense_regime():
    base = [random.Random(17).randrange(1, 1 << 10) for _ in range(6)]
    duplicated = tuple(sorted(base + base))
    rep = sl.value_hash_check(duplicated, 0.25, 200, seed=4)
    assert rep.passed
    assert rep.details["regime"] == "dense"
    assert rep.details["threshold"] >= 1.0
    assert rep.bound == pytest.approx((1.0 / 16.0) / 12)


def test_value_hash_sparse_regime():
    items = planted_items(12, seed=8)
    rep = sl.value_hash_check(items, 0.8, 200, seed=4)
    assert rep.passed
    assert rep.details["regime"] == "sparse"
    assert rep.details["threshold"] == 1.0
    # the planting makes every superset of the relation collide
    assert rep.details["collision_values"] >= 1 << 9


def test_value_hash_ratio_override():
    base = [random.Random(17).randrange(1, 1 << 10) for _ in range(6)]
    duplicated = tuple(sorted(base + base))
    rep = sl.value_hash_check(duplicated, 0.25, 50, seed=4, ratio=0.9)
    assert rep.details["regime"] == "sparse"
    assert rep.details["ratio"] == 0.9


# ---------------------------------------------------------------------------
# birthday simulation
# ---------------------------------------------------------------------------


def test_birthday_sparse_regime():
    rep = sl.birthday_sim(4096, 4096, 256, 64, 2000, seed=12)
    assert rep.details["regime"] == "sparse"
    assert rep.bound == pytest.approx(0.5 * 0.0625)
    assert rep.passed


def test_birthday_dense_regime_reports_without_bound():
    rep = sl.birthday_sim(100, 100, 50, 100, 50, seed=1)
    assert rep.details["regime"] == "dense"
    assert rep.bound == 0.0
    assert rep.passed
    assert rep.estimate > 0.9  # virtually guaranteed hit


def test_birthday_deterministic():
    a = sl.birthday_sim(512, 512, 16, 32, 300, seed=3)
    b = sl.birthday_sim(512, 512, 16, 32, 300, seed=3)
    assert a.estimate == b.estimate


def test_birthday_validation():
    with pytest.raises(ValueError):
        sl.birthday_sim(10, 10, 0, 5, 10, seed=0)
    with pytest.raises(ValueError):
        sl.birthday_sim(10, 10, 11, 5, 10, seed=0)
    with pytest.raises(ValueError):
        sl.birthday_sim(10, 10, 2, 0, 10, seed=0)
    with pytest.raises(ValueError):
        sl.birthday_sim(10, 10, 2, 5, 1, seed=0)


# ---------------------------------------------------------------------------
# split probabilities
# ---------------------------------------------------------------------------


def test_split_third_exact_probability():
    rep = sl.split_check(9, 2.0 / 3.0, 400, seed=11)
    assert rep.bound == pytest.approx(15.0 / 28.0)
    assert rep.details["t"] == 6
    assert rep.details["side1_size"] == 3
    assert rep.details["hits_target"] == 2
    assert rep.details["x1_fraction"] == "1/3"
    assert rep.passed


def test_split_half_exact_probability():
    rep = sl.split_check(14, 3.0 / 7.0, 400, seed=5, x1_fraction=Fraction(1, 2))
    assert rep.bound == pytest.approx(1400.0 / 3432.0)
    assert rep.details["t"] == 6
    assert rep.details["side1_size"] == 7
    assert rep.details["hits_target"] == 3
    assert rep.passed


def test_split_requires_integral_side():
    with pytest.raises(ValueError, match="integral"):
        sl.split_check(9, 0.5, 100, seed=0, x1_fraction=Fraction(1, 2))


def test_split_floor_recorded():
    rep = sl.split_check(30, 0.6, 300, seed=2)
    assert rep.details["poly_floor"] == pytest.approx(0.1 / math.sqrt(30))
    assert rep.bound >= rep.details["poly_floor"]
    assert rep.passed


def test_split_deterministic():
    a = sl.split_check(15, 0.6, 200, seed=7)
    b = sl.split_check(15, 0.6, 200, seed=7)
    assert a.estimate == b.estimate


# ---------------------------------------------------------------------------
# binomial bounds
# ---------------------------------------------------------------------------


def test_binomial_bounds():
    rep = sl.binomial_bounds_check()
    assert rep.passed
    assert rep.trials == 45
    assert rep.std_error == 0.0
    assert rep.bound == pytest.approx(math.log2(61))
    assert 0.0 < rep.estimate <= rep.bound


# ---------------------------------------------------------------------------
# default suite
# ---------------------------------------------------------------------------


def test_default_suite_all_pass():
    reports = sl.run_default_suite(seed=0, trials=240)
    assert [r.name for r in reports] == [
        "bin_mean_check",
        "bin_product_check",
        "value_hash_check",
        "value_hash_check",
        "birthday_sim",
        "split_check",
        "split_check",
        "binomial_bounds_check",
    ]
    assert all(r.passed for r in reports)
    # each experiment runs under its own derived seed
    assert len({r.seed for r in reports}) == len(reports)
    birthday = reports[4]
    assert birthday.trials == 2000  # floor applied over the requested 240
    hash_reports = [r for r in reports if r.name == "value_hash_check"]
    assert {r.details["regime"] for r in hash_reports} == {"dense", "sparse"}


def test_default_suite_deterministic():
    a = sl.run_default_suite(seed=0, trials=120)
    b = sl.run_default_suite(seed=0, trials=120)
    assert [r.estimate for r in a] == [r.estimate for r in b]
