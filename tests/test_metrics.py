import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dicesm import metrics, sdl
from dicesm.core import LabelField, ProbField
from dicesm.metrics import (
    BDiceSpec,
    CalibRecord,
    EceSpec,
    EmptyRecordsError,
    SoftInputError,
    bdice,
    class_map,
    ece,
    hard_dice,
)

from conftest import vec_prob, vec_label


def mask_field(mask):
    return LabelField.from_array(np.asarray(mask, float).reshape(1, 1, -1), "hard")


class TestHardDice:
    def test_identical(self):
        m = mask_field([1, 1, 0, 0])
        assert hard_dice(m, m) == 1.0

    def test_disjoint(self):
        assert hard_dice(mask_field([1, 1, 0, 0]), mask_field([0, 0, 1, 1])) == 0.0

    def test_counting_case(self):
        # |a|=4, |b|=6, |inter|=3 -> 2*3/10
        a = mask_field([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        b = mask_field([1, 1, 1, 0, 1, 1, 1, 0, 0, 0])
        assert hard_dice(a, b) == pytest.approx(0.6, abs=0)

    def test_empty_both(self):
        z = mask_field([0, 0])
        assert hard_dice(z, z) == 1.0
        assert hard_dice(z, z, empty_both=0.0) == 0.0

    def test_soft_rejected(self):
        soft = LabelField.from_array(np.full((1, 1, 2), 0.5), "soft")
        with pytest.raises(SoftInputError):
            hard_dice(soft, mask_field([0, 0]))


class TestBDice:
    def test_identical_soft(self):
        x = vec_prob([0.3, 0.6, 0.9])
        y = vec_label([0.3, 0.6, 0.9])
        assert bdice(x, y) == 1.0

    def test_constant_55(self):
        x = vec_prob([0.55, 0.55])
        y = vec_label([0.55, 0.55])
        # low thresholds give full/full, high give empty/empty (counted 1.0)
        assert bdice(x, y) == 1.0

    def test_straddling_constants(self):
        # x=0.45, y=0.55, one pixel: only t=0.5 disagrees -> mean 8/9
        x = vec_prob([0.45])
        y = vec_label([0.55])
        assert bdice(x, y) == pytest.approx(8 / 9, abs=1e-15)

    def test_single_threshold_equals_hard_dice(self, rng):
        xv = rng.random(32)
        yv = (rng.random(32) < 0.5).astype(float)
        x, y = vec_prob(xv), vec_label(yv)
        spec = BDiceSpec(thresholds=(0.5,))
        ref = metrics.mask_dice(xv > 0.5, yv > 0.5, 1.0)
        assert bdice(x, y, spec) == ref

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BDiceSpec(thresholds=(0.5, 0.5))
        with pytest.raises(ValueError):
            BDiceSpec(thresholds=(0.0, 0.5))


class TestEce:
    def test_perfect_confidence(self):
        r = CalibRecord(np.ones(100), np.ones(100))
        assert ece(r) == 0.0

    def test_calibrated_half(self):
        conf = np.full(100, 0.5)
        labels = np.array([1.0, 0.0] * 50)
        assert ece(CalibRecord(conf, labels)) == pytest.approx(0.0, abs=1e-15)

    def test_two_bin_hand_case(self):
        conf = np.concatenate([np.full(100, 0.9), np.full(100, 0.2)])
        labels = np.concatenate([np.repeat([1.0, 0.0], [70, 30]),
                                 np.repeat([1.0, 0.0], [20, 80])])
        assert ece(CalibRecord(conf, labels)) == pytest.approx(0.10, abs=1e-12)

    def test_permutation_invariant(self, rng):
        conf = rng.random(500)
        labels = (rng.random(500) < conf).astype(float)
        r1 = CalibRecord(conf, labels)
        perm = rng.permutation(500)
        r2 = CalibRecord(conf[perm], labels[perm])
        assert ece(r1) == pytest.approx(ece(r2), abs=1e-15)
        assert 0.0 <= ece(r1) <= 1.0

    def test_merge_by_concat(self, rng):
        conf = rng.random(400)
        labels = (rng.random(400) < 0.5).astype(float)
        whole = CalibRecord(conf, labels)
        parts = CalibRecord.concat([CalibRecord(conf[:150], labels[:150]),
                                    CalibRecord(conf[150:], labels[150:])])
        assert ece(whole) == pytest.approx(ece(parts), abs=1e-15)

    def test_empty(self):
        with pytest.raises(EmptyRecordsError):
            ece(CalibRecord(np.zeros(0), np.zeros(0)))

    def test_conf_one_lands_in_last_bin(self):
        r = CalibRecord(np.array([1.0]), np.array([0.0]))
        assert ece(r, EceSpec(n_bins=15)) == 1.0


class TestSoftDiceScore:
    """The soft Dice score 1 - sdl, against the integer-counting oracle."""

    def test_oracle_equivalence(self, rng):
        # 1 - sdl == set-based hard dice when the prediction is binarized
        for _ in range(100):
            xv = (rng.random(16) < 0.5).astype(float)
            yv = (rng.random(16) < 0.5).astype(float)
            x, y = vec_prob(xv), vec_label(yv)
            if xv.sum() + yv.sum() == 0:
                continue
            assert 1.0 - sdl(x, y).value == pytest.approx(
                hard_dice(mask_field(xv), mask_field(yv)), abs=1e-12)


class TestClassMap:
    """class_map takes a running maximum over the classes; at C >= 2 it must
    answer as np.argmax over the class axis does on every input: the first
    of tied maxima, and the first NaN where there is one."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), c=st.sampled_from([2, 3, 5]),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    def test_ties_equal_argmax(self, data, c, shape):
        # few distinct values, so most pixels hold tied maxima
        values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
        arr = data.draw(hnp.arrays(np.float64, (c,) + shape, elements=values))
        got = class_map(arr)
        assert got.dtype == np.argmax(arr, axis=0).dtype
        assert np.array_equal(got, np.argmax(arr, axis=0))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), c=st.sampled_from([2, 3, 5]),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    def test_uint8_votes_equal_argmax(self, data, c, shape):
        votes = data.draw(hnp.arrays(np.uint8, (c,) + shape, elements=st.integers(0, 7)))
        assert np.array_equal(class_map(votes), np.argmax(votes, axis=0))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), c=st.sampled_from([2, 3, 5]),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    def test_nan_equals_argmax(self, data, c, shape):
        values = st.sampled_from([0.0, 0.5, 1.0, np.nan])
        arr = data.draw(hnp.arrays(np.float64, (c,) + shape, elements=values))
        assert np.array_equal(class_map(arr), np.argmax(arr, axis=0))

    def test_nan_after_the_maximum(self):
        arr = np.array([[0.9, np.nan], [np.nan, 0.1], [0.5, 0.5]])[:, None]
        assert class_map(arr).tolist() == [[1, 0]]
