"""Instance model, witness verification, and the two-subset reduction."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumbins.core import (
    Pair,
    ProblemInstance,
    Subset,
    canonicalize_pair,
    instance_from_json,
    instance_to_json,
    load_instance,
    reduce_two_subset_to_shifted,
    save_instance,
    subset_sum,
    verify,
)


def S(*indices):
    return Subset.of(indices)


class TestSubset:
    def test_empty(self):
        assert S().indices == ()
        assert S().mask() == 0
        assert S().chi() == 0

    def test_mask_round_trip(self):
        for mask in range(64):
            assert Subset.from_mask(mask).mask() == mask

    def test_chi_is_shifted_mask(self):
        assert S(1, 3).chi() == 2 + 8
        assert S(2).chi() == 4

    def test_of_sorts_and_dedups(self):
        assert Subset.of([3, 1, 3]).indices == (1, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Subset((0, 1))
        with pytest.raises(ValueError):
            Subset((2, 2))
        with pytest.raises(ValueError):
            Subset((3, 1))

    def test_container_protocol(self):
        s = S(1, 4, 5)
        assert len(s) == 3
        assert list(s) == [1, 4, 5]
        assert 4 in s and 2 not in s


class TestSubsetSum:
    def test_empty_sum(self):
        assert subset_sum((1, 2, 3), S()) == 0

    def test_direct_addition(self):
        assert subset_sum((1, 2, 3), S(1, 3)) == 4

    def test_singleton(self):
        assert subset_sum((7,), S(1)) == 7


class TestPair:
    def test_disjointness(self):
        assert Pair(S(1), S(2)).is_disjoint()
        assert not Pair(S(1, 2), S(2)).is_disjoint()

    def test_canonicalize_keeps_difference(self):
        items = (5, 8, 13, 21)
        pair = Pair(S(1, 2, 3), S(2, 4))
        canon = canonicalize_pair(pair)
        assert canon.is_disjoint()
        before = subset_sum(items, pair.s1) - subset_sum(items, pair.s2)
        after = subset_sum(items, canon.s1) - subset_sum(items, canon.s2)
        assert before == after
        assert canon == Pair(S(1, 3), S(4))

    def test_witnesses_are_slotted_values(self):
        # slotted: no per-instance __dict__, the same value semantics
        pair = Pair(S(1, 3), S(2))
        for obj in (pair, pair.s1):
            assert not hasattr(obj, "__dict__") and type(obj).__slots__
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and hash(back) == hash(obj) and back is not obj
        assert pair == Pair(S(3, 1), S(2)) and hash(pair) == hash(Pair(S(1, 3), S(2)))
        assert pair != Pair(S(2), S(1, 3)) and S(1) != S(2)
        assert len({pair, Pair(S(1, 3), S(2)), Pair(S(1), S(2))}) == 2
        with pytest.raises(AttributeError):
            pair.s1 = S(4)  # frozen


class TestInstanceValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ProblemInstance("partition", (1, 2))

    def test_items_positive_nonempty(self):
        with pytest.raises(ValueError):
            ProblemInstance("equal_sums", ())
        with pytest.raises(ValueError):
            ProblemInstance("equal_sums", (1, 0))

    def test_parameter_presence(self):
        with pytest.raises(ValueError):
            ProblemInstance("subset_sum", (1, 2))  # missing target
        with pytest.raises(ValueError):
            ProblemInstance("equal_sums", (1, 2), target=1)  # extraneous
        with pytest.raises(ValueError):
            ProblemInstance("shifted_sums", (1, 2), shift=1, modulus=5)

    def test_range_checks(self):
        ProblemInstance("subset_sum", (1, 2, 3), target=6)
        with pytest.raises(ValueError):
            ProblemInstance("subset_sum", (1, 2, 3), target=7)
        with pytest.raises(ValueError):
            ProblemInstance("two_subset_sum", (1, 2, 3), target=12)
        with pytest.raises(ValueError):
            ProblemInstance("shifted_sums", (1, 2, 3), shift=6)
        ProblemInstance("shifted_sums", (1, 2, 3), shift=5)

    def test_pigeonhole_sum_cap(self):
        # n = 3 requires item sum < 7
        ProblemInstance("pigeonhole_equal", (1, 2, 3))
        with pytest.raises(ValueError):
            ProblemInstance("pigeonhole_equal", (1, 2, 4))

    def test_pigeonhole_modulus_window(self):
        ProblemInstance("pigeonhole_modular", (1, 2, 3), modulus=1)
        ProblemInstance("pigeonhole_modular", (1, 2, 3), modulus=7)
        with pytest.raises(ValueError):
            ProblemInstance("pigeonhole_modular", (1, 2, 3), modulus=8)
        with pytest.raises(ValueError):
            ProblemInstance("pigeonhole_modular", (1, 2, 3), modulus=0)

    def test_modular_target_reduced(self):
        ProblemInstance("modular_subset_sum", (4, 9), target=4, modulus=5)
        with pytest.raises(ValueError):
            ProblemInstance("modular_subset_sum", (4, 9), target=5, modulus=5)


class TestVerify:
    def test_equal_sums_true(self):
        inst = ProblemInstance("equal_sums", (1, 2, 3))
        assert verify(inst, Pair(S(3), S(1, 2)))

    def test_shifted_true(self):
        inst = ProblemInstance("shifted_sums", (1, 2, 4), shift=1)
        assert verify(inst, Pair(S(1, 2), S(2)))

    def test_equal_sums_false(self):
        inst = ProblemInstance("equal_sums", (1, 2, 4))
        assert not verify(inst, Pair(S(1), S(2)))

    def test_pair_distinctness_required(self):
        inst = ProblemInstance("equal_sums", (1, 2, 3))
        assert not verify(inst, Pair(S(1), S(1)))

    def test_subset_sum(self):
        inst = ProblemInstance("subset_sum", (3, 5, 7), target=12)
        assert verify(inst, S(2, 3))
        assert not verify(inst, S(1, 2))
        assert not verify(inst, S(4))  # out of range index
        assert not verify(inst, Pair(S(1), S(2)))  # wrong shape

    def test_modular_subset_sum(self):
        inst = ProblemInstance("modular_subset_sum", (3, 5, 7), target=2, modulus=5)
        assert verify(inst, S(3))  # 7 mod 5
        assert verify(inst, S(2, 3))  # 12 mod 5
        assert not verify(inst, S(1))

    def test_two_subset_coefficients(self):
        inst = ProblemInstance("two_subset_sum", (1, 2, 3), target=8)
        assert verify(inst, (1, 2, 1))
        assert verify(inst, [0, 1, 2])
        assert not verify(inst, (1, 1, 1))
        assert not verify(inst, (1, 2))  # wrong length
        assert not verify(inst, (3, 1, 0))  # coefficient out of alphabet

    def test_pigeonhole_modular(self):
        inst = ProblemInstance("pigeonhole_modular", (2, 9), modulus=3)
        assert verify(inst, Pair(S(2), S()))  # 9 = 0 mod 3
        assert not verify(inst, Pair(S(1), S()))


class TestTwoSubsetReduction:
    def test_above_total(self):
        red = reduce_two_subset_to_shifted((1, 2, 3), 8)
        assert red.shifted.shift == 2
        coeffs = red.lift(Pair(S(2), S()))
        assert coeffs == (1, 2, 1)
        assert sum(a * e for a, e in zip((1, 2, 3), coeffs)) == 8

    def test_at_total_returns_all_ones(self):
        red = reduce_two_subset_to_shifted((1, 2, 3), 6)
        assert red.all_ones
        assert red.lift(Pair(S(), S())) == (1, 1, 1)

    def test_below_total_complements(self):
        red = reduce_two_subset_to_shifted((1, 2, 3), 4)
        assert red.complemented
        assert red.shifted.shift == 2
        # a lifted witness must hit the original target 4
        pair = Pair(S(2), S())
        coeffs = red.lift(pair)
        assert sum(a * e for a, e in zip((1, 2, 3), coeffs)) == 4

    def test_target_window(self):
        with pytest.raises(ValueError):
            reduce_two_subset_to_shifted((1, 2, 3), 0)
        with pytest.raises(ValueError):
            reduce_two_subset_to_shifted((1, 2, 3), 12)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_lift_always_hits_target(self, data):
        n = data.draw(st.integers(2, 7))
        items = tuple(data.draw(st.integers(1, 40)) for _ in range(n))
        total = sum(items)
        m = data.draw(st.integers(1, 2 * total - 1))
        red = reduce_two_subset_to_shifted(items, m)
        if red.all_ones:
            coeffs = red.lift(Pair(S(), S()))
            assert coeffs == (1,) * n
            assert sum(a * e for a, e in zip(items, coeffs)) == m
            return
        shift = red.shifted.shift
        # search a disjoint witness of the shifted instance by brute force
        for mask1 in range(1 << n):
            for mask2 in range(1 << n):
                if mask1 & mask2 or (mask1 == mask2 == 0 and shift != 0):
                    continue
                p = Pair(Subset.from_mask(mask1), Subset.from_mask(mask2))
                if subset_sum(items, p.s1) - subset_sum(items, p.s2) == shift:
                    coeffs = red.lift(p)
                    assert all(c in (0, 1, 2) for c in coeffs)
                    assert sum(a * e for a, e in zip(items, coeffs)) == m
                    return


class TestJson:
    def test_round_trip_every_variant(self):
        insts = [
            ProblemInstance("subset_sum", (3, 5, 7), target=12),
            ProblemInstance("equal_sums", (1, 2, 3)),
            ProblemInstance("shifted_sums", (1, 2, 4), shift=1),
            ProblemInstance("two_subset_sum", (1, 2, 3), target=8),
            ProblemInstance("pigeonhole_equal", (1, 2, 3)),
            ProblemInstance("pigeonhole_modular", (1, 2, 3), modulus=7),
            ProblemInstance("modular_subset_sum", (4, 9), target=4, modulus=5),
        ]
        for inst in insts:
            assert instance_from_json(instance_to_json(inst)) == inst

    def test_big_integers_survive(self):
        big = (1 << 200) + 7
        inst = ProblemInstance("subset_sum", (big, 3), target=big)
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_meta_passthrough(self):
        inst = ProblemInstance("equal_sums", (1, 2, 3), meta={"seed": 5})
        again = instance_from_json(instance_to_json(inst))
        assert again.meta == {"seed": 5}

    def test_unknown_keys_rejected(self):
        doc = json.loads(instance_to_json(ProblemInstance("equal_sums", (1, 2, 3))))
        doc["extra"] = True
        with pytest.raises(ValueError):
            instance_from_json(json.dumps(doc))

    def test_file_round_trip(self, tmp_path):
        inst = ProblemInstance("shifted_sums", (5, 6, 7), shift=4)
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        assert load_instance(str(path)) == inst
