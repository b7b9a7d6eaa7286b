import numpy as np
import pytest

from dicesm.core import LabelField, ProbField, RaterStack, validate
from dicesm.losses import SoftLabelIncompatibleError, stl
from dicesm.metrics import mask_dice, one_hot
from dicesm.softlabels import (
    AllZeroWeightsWarning,
    SoftLabelSpec,
    build_labels,
    build_labels_dataset,
    label_smoothing,
    majority_vote,
    random_rater,
    rater_weights,
    uniform_average,
    weighted_average,
)

from conftest import vec_label


def stack_of(*masks):
    return RaterStack([np.asarray(m, bool).reshape(1, 1, -1) for m in masks])


class TestMajorityVote:
    def test_strict_majority(self):
        s = stack_of([1], [1], [0])
        assert majority_vote(s).array.ravel().tolist() == [1.0]

    def test_single_rater(self):
        s = stack_of([1, 0, 1])
        np.testing.assert_array_equal(majority_vote(s).array, s.masks[0])

    def test_tie_goes_to_background(self):
        s = stack_of([1], [0])
        assert majority_vote(s, "background").array.ravel().tolist() == [0.0]
        assert majority_vote(s, "lowest_class").array.ravel().tolist() == [0.0]

    def test_multiclass_tie_rules(self):
        a = np.zeros((3, 1, 1)); a[1] = 1.0
        b = np.zeros((3, 1, 1)); b[2] = 1.0
        s = RaterStack(np.array([a, b]) == 1.0)
        assert int(np.argmax(majority_vote(s, "lowest_class").array)) == 1
        # class 0 has zero votes, so background cannot steal the tie
        assert int(np.argmax(majority_vote(s, "background").array)) == 1
        c = np.zeros((3, 1, 1)); c[0] = 1.0
        s2 = RaterStack(np.array([a, c]) == 1.0)
        assert int(np.argmax(majority_vote(s2, "background").array)) == 0

    def test_equals_thresholded_average_odd_k(self, rng):
        for _ in range(50):
            masks = (rng.random((5, 12)) < 0.5).astype(float)
            s = stack_of(*masks)
            maj = majority_vote(s).array
            thresholded = (uniform_average(s).array > 0.5).astype(float)
            np.testing.assert_array_equal(maj, thresholded)


class TestRandomRater:
    def test_deterministic(self):
        s = stack_of([1, 0], [0, 1], [1, 1])
        a = random_rater(s, seed=7)
        b = random_rater(s, seed=7)
        np.testing.assert_array_equal(a.array, b.array)

    def test_single_rater(self):
        s = stack_of([1, 0])
        np.testing.assert_array_equal(random_rater(s, 3).array, s.masks[0])

    def test_frequencies(self):
        k = 5
        masks = [np.eye(1, 8, i).ravel() for i in range(k)]
        s = stack_of(*masks)
        picks = np.zeros(k)
        n = 10_000
        for seed in range(n):
            chosen = random_rater(s, seed).array.ravel()
            picks[int(np.argmax(chosen))] += 1
        p = 1.0 / k
        sigma = np.sqrt(p * (1 - p) / n)
        np.testing.assert_allclose(picks / n, p, atol=3 * sigma)


class TestUniformAverage:
    def test_half(self):
        s = stack_of([1], [0])
        assert uniform_average(s).array.ravel().tolist() == [0.5]

    def test_identical_raters_stay_hard(self):
        s = stack_of([1, 0], [1, 0])
        out = uniform_average(s)
        assert out.is_hard
        np.testing.assert_array_equal(out.array, s.masks[0])

    def test_two_thirds(self):
        s = stack_of([1], [1], [0])
        assert uniform_average(s).array.ravel()[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_grid_values(self, rng):
        masks = (rng.random((4, 9)) < 0.5).astype(float)
        out = uniform_average(stack_of(*masks)).array.ravel()
        np.testing.assert_allclose(out * 4, np.round(out * 4), atol=1e-12)

    def test_permutation_invariance(self, rng):
        masks = (rng.random((4, 9)) < 0.5).astype(float)
        a = uniform_average(stack_of(*masks)).array
        b = uniform_average(stack_of(*masks[::-1])).array
        np.testing.assert_array_equal(a, b)


class TestWeightedAverage:
    def test_identical_raters(self):
        s = stack_of([1, 0], [1, 0], [1, 0])
        out = weighted_average(s)
        assert out.is_hard
        np.testing.assert_array_equal(out.array, s.masks[0])

    def test_dice_zero_rater_ignored(self):
        # rater1 matches majority (dice 1), rater2 disjoint from it (dice 0);
        # K=2 ties in the vote go to background, so majority == [1,0,0,0]
        # only where both agree; craft a 3-rater stack for a clean majority
        s = stack_of([1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1])
        w = rater_weights(s)
        assert w[0] == w[1] == 1.0
        assert w[2] == 0.0
        out = weighted_average(s)
        np.testing.assert_array_equal(out.array, s.masks[0])

    def test_far_rater_gets_lower_weight(self):
        s = stack_of([1, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0])
        w = rater_weights(s)
        assert w[2] < w[1]

    def test_all_zero_weights_falls_back(self):
        # every rater claims a different pixel; majority is empty, and
        # empty-vs-nonempty Dice is 0 for every rater
        s = stack_of([1, 0, 0], [0, 1, 0], [0, 0, 1])
        with pytest.warns(AllZeroWeightsWarning):
            out = weighted_average(s)
        np.testing.assert_allclose(out.array, uniform_average(s).array)

    def test_permutation_invariance(self, rng):
        masks = (rng.random((4, 16)) < 0.4).astype(float)
        a = weighted_average(stack_of(*masks)).array
        b = weighted_average(stack_of(*masks[::-1])).array
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_output_validates(self, rng):
        masks = (rng.random((5, 16)) < 0.5).astype(float)
        validate(weighted_average(stack_of(*masks)))

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 17])
    def test_equals_the_stacked_sum(self, k, rng):
        """The running sum gives np.sum over the K scaled raters, bit for bit."""
        winner = rng.integers(0, 3, (k, 9, 11))
        stack = RaterStack(np.arange(3)[:, None, None] == winner[:, None])
        w = rater_weights(stack)
        w = w / float(np.sum(w))
        expected = np.clip(np.sum([wi * m for wi, m in zip(w, stack.masks)], axis=0), 0.0, 1.0)
        np.testing.assert_array_equal(weighted_average(stack).array, expected)


    @pytest.mark.parametrize("tie_break", ["background", "lowest_class"])
    @pytest.mark.parametrize("c,k", [(1, 4), (2, 4), (3, 5)])
    def test_weights_match_hard_dice(self, c, k, tie_break, rng):
        """rater_weights counts on the stack's masks what mask_dice counts on
        the 1s of the rater and majority-vote fields."""
        raters = []
        for _ in range(k):
            winner = rng.integers(0, max(c, 2), size=(5, 6))
            arr = (winner[None] == 1) if c == 1 else np.arange(c)[:, None, None] == winner
            raters.append(LabelField.from_array(arr.astype(float)))
        s = RaterStack([r.array == 1.0 for r in raters])
        maj = majority_vote(s, tie_break)
        expected = [np.mean([mask_dice(r.array[ci] == 1.0, maj.array[ci] == 1.0)
                             for ci in range(c)]) for r in raters]
        assert rater_weights(s, tie_break).tolist() == expected


class TestLabelSmoothing:
    def test_identity(self):
        y = vec_label([1, 0, 1])
        out = label_smoothing(y, 0.0)
        assert out.is_hard
        np.testing.assert_array_equal(out.array, y.array)

    def test_two_class_formula(self):
        arr = np.array([1.0, 0.0]).reshape(2, 1, 1)
        y = LabelField.from_array(arr)
        out = label_smoothing(y, 0.1)
        np.testing.assert_allclose(out.array.ravel(), [0.95, 0.05], atol=1e-15)

    def test_binary_formula(self):
        out = label_smoothing(vec_label([1, 0]), 0.2)
        np.testing.assert_allclose(out.array.ravel(), [0.9, 0.1], atol=1e-15)

    def test_simplex_preserved(self, rng):
        arr = rng.dirichlet(np.ones(3), size=6).T.reshape(3, 2, 3)
        y = LabelField.from_array(arr)
        out = label_smoothing(y, 0.3)
        validate(out)
        np.testing.assert_allclose(out.array.sum(axis=0), 1.0, atol=1e-12)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            label_smoothing(vec_label([1]), 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            label_smoothing(vec_label([1]), -0.1)


class TestHardnessIsReadOffTheValues:
    """A label of 0/1 values is hard whatever built it, so stl takes it
    without allow_soft; smoothing it off {0, 1} makes it soft."""

    @pytest.mark.parametrize("c", [1, 2])
    def test_zero_one_values_make_a_hard_label(self, c):
        y = LabelField.from_array(one_hot(np.array([[True, False], [True, True]]), c))
        stack = RaterStack([y.array == 1.0] * 3)
        x = ProbField.from_array(np.full((c, 2, 2), 1.0 / c))
        for built in (label_smoothing(y, 0.0), uniform_average(stack), random_rater(stack, 0)):
            assert built.is_hard
            np.testing.assert_array_equal(built.array, y.array)
            assert stl(x, built).value == stl(x, y).value
        soft = label_smoothing(y, 0.1)
        assert not soft.is_hard
        with pytest.raises(SoftLabelIncompatibleError):
            stl(x, soft)


class TestDispatch:
    def test_strategies(self, rng):
        masks = (rng.random((3, 8)) < 0.5).astype(float)
        s = stack_of(*masks)
        for strat in ("majority", "random_rater", "uniform_avg", "weighted_avg",
                      "label_smoothing"):
            out = build_labels(s, SoftLabelSpec(strategy=strat, epsilon=0.1, seed=1))
            validate(out)

    def test_dataset_random_rater_varies_per_image(self, rng):
        stacks = []
        for _ in range(6):
            masks = (rng.random((4, 8)) < 0.5).astype(float)
            stacks.append(stack_of(*masks))
        out1 = build_labels_dataset(stacks, SoftLabelSpec(strategy="random_rater", seed=9))
        out2 = build_labels_dataset(stacks, SoftLabelSpec(strategy="random_rater", seed=9))
        for a, b in zip(out1, out2):
            np.testing.assert_array_equal(a.array, b.array)

    def test_dataset_weighting(self, rng):
        stacks = []
        for _ in range(4):
            masks = (rng.random((3, 10)) < 0.5).astype(float)
            stacks.append(stack_of(*masks))
        out = build_labels_dataset(
            stacks, SoftLabelSpec(strategy="weighted_avg", weights_scope="per_dataset"))
        assert len(out) == 4
        for f in out:
            validate(f)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SoftLabelSpec(strategy="mode")
        with pytest.raises(ValueError, match="epsilon"):
            SoftLabelSpec(strategy="label_smoothing", epsilon=1.5)
