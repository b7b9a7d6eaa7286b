import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dicesm import sdl
from dicesm.core import OutOfRangeError, ShapeMismatchError
from dicesm.metrics import (
    BDiceSpec,
    EceSpec,
    EmptyRecordsError,
    bdice,
    class_map,
    ece,
    mask_dice,
    one_hot,
)

from conftest import ece_float_sums, edge_confidences, vec_label, vec_prob


def mask(values):
    return np.asarray(values, float) == 1.0


class TestHardDice:
    """Set-based Dice of bool masks, by mask_dice's integer counts."""

    def test_identical(self):
        m = mask([1, 1, 0, 0])
        assert mask_dice(m, m) == 1.0

    def test_disjoint(self):
        assert mask_dice(mask([1, 1, 0, 0]), mask([0, 0, 1, 1])) == 0.0

    def test_counting_case(self):
        # |a|=4, |b|=6, |inter|=3 -> 2*3/10
        a = mask([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        b = mask([1, 1, 1, 0, 1, 1, 1, 0, 0, 0])
        assert mask_dice(a, b) == pytest.approx(0.6, abs=0)

    def test_empty_both(self):
        z = mask([0, 0])
        assert mask_dice(z, z) == 1.0
        assert mask_dice(z, z, empty_both=0.0) == 0.0


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
        ref = mask_dice(xv > 0.5, yv > 0.5, 1.0)
        assert bdice(x, y, spec) == ref

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BDiceSpec(thresholds=(0.5, 0.5))
        with pytest.raises(ValueError):
            BDiceSpec(thresholds=(0.0, 0.5))


class TestEce:
    def test_perfect_confidence(self):
        assert ece(np.ones(100), np.ones(100, dtype=bool)) == 0.0

    def test_calibrated_half(self):
        conf = np.full(100, 0.5)
        labels = np.array([True, False] * 50)
        assert ece(conf, labels) == pytest.approx(0.0, abs=1e-15)

    def test_two_bin_hand_case(self):
        conf = np.concatenate([np.full(100, 0.9), np.full(100, 0.2)])
        labels = np.concatenate([np.repeat([True, False], [70, 30]),
                                 np.repeat([True, False], [20, 80])])
        assert ece(conf, labels) == pytest.approx(0.10, abs=1e-12)

    def test_permutation_invariant(self, rng):
        conf = rng.random(500)
        labels = rng.random(500) < conf
        perm = rng.permutation(500)
        assert ece(conf, labels) == pytest.approx(ece(conf[perm], labels[perm]), abs=1e-15)
        assert 0.0 <= ece(conf, labels) <= 1.0

    def test_empty(self):
        with pytest.raises(EmptyRecordsError):
            ece(np.zeros(0), np.zeros(0, dtype=bool))

    def test_conf_one_lands_in_last_bin(self):
        assert ece(np.array([1.0]), np.array([False]), EceSpec(n_bins=15)) == 1.0


class TestEceCore:
    @pytest.mark.parametrize("n_bins", [1, 7, 15])
    def test_matches_float_label_sums(self, n_bins):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            conf = edge_confidences(rng, 3000, n_bins)
            assert {0.0, 1.0} <= set(conf.tolist())
            labels = rng.random(conf.size) < conf
            assert ece(conf, labels, EceSpec(n_bins)) == ece_float_sums(conf, labels, n_bins)

    def test_leaves_its_inputs(self):
        rng = np.random.default_rng(1)
        conf = edge_confidences(rng, 500)
        labels = rng.random(500) < 0.5
        kept = conf.copy(), labels.copy()
        ece(conf, labels)
        assert np.array_equal(conf, kept[0]) and np.array_equal(labels, kept[1])

    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2.0 ** -52, 2.0, np.nan])
    def test_rejects_confidence_outside_the_unit_interval(self, bad):
        conf = np.array([0.2, bad, 0.7])
        with pytest.raises(OutOfRangeError):
            ece(conf, np.array([True, False, True]))

    def test_rejects_labels_not_bool_or_of_another_length(self):
        with pytest.raises(TypeError):
            ece(np.array([0.2, 0.7]), np.array([1.0, 0.0]))
        with pytest.raises(ShapeMismatchError):
            ece(np.array([0.2, 0.7]), np.array([True]))


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
                mask_dice(mask(xv), mask(yv)), abs=1e-12)


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

    def test_one_hot_of_the_class_map(self):
        """The binarized prediction that eval --metric dice scores."""
        p = np.array([0.4, 0.6]).reshape(1, 1, 2)
        np.testing.assert_array_equal(one_hot(class_map(p), 1).ravel(), [False, True])
        q = np.array([[0.7, 0.2], [0.3, 0.8]]).reshape(2, 1, 2)
        np.testing.assert_array_equal(one_hot(class_map(q), 2)[:, 0],
                                      [[True, False], [False, True]])
