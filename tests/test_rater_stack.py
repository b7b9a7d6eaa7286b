"""RaterStack holds its raters as one (K, C, H, W) bool array. Every
function that reads the stack is checked here against an oracle that works
on the raters as float64 LabelFields, the form a rater file is read in."""

import math
import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dicesm.core import LabelField, RaterStack
from dicesm.softlabels import (
    TIE_BACKGROUND,
    TIE_BREAKS,
    AllZeroWeightsWarning,
    majority_vote,
    random_rater,
    rater_weights,
    uniform_average,
    vote_counts,
    weighted_average,
    weighted_average_dataset,
)
from dicesm.training.loop import References

_PROPS = settings(max_examples=150, deadline=None)


@st.composite
def _raters(draw, k=None, c=None):
    """k hard raters (1..7 unless given) over C in {1, 2, 3} classes on a
    grid as small as 1x1, as float64 LabelFields."""
    k = draw(st.integers(1, 7)) if k is None else k
    c = draw(st.sampled_from([1, 2, 3])) if c is None else c
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if c == 1:
        masks = draw(hnp.arrays(np.bool_, (k, 1, h, w)))
    else:
        classes = draw(hnp.arrays(np.int8, (k, h, w), elements=st.integers(0, c - 1)))
        masks = np.arange(c)[None, :, None, None] == classes[:, None]
    return [LabelField.from_array(m.astype(np.float64)) for m in masks]


def _stack(raters):
    """The stack of the rater fields' masks, as cli._stack_from_files builds it."""
    return RaterStack(np.stack([r.array == 1.0 for r in raters]))


# --------------------------------------------------------------------------
# Oracles on the float64 rater fields
# --------------------------------------------------------------------------

def _votes(raters):
    votes = np.zeros(raters[0].dims, dtype=np.min_scalar_type(len(raters)))
    for r in raters:
        votes += r.array == 1.0
    return votes


def _majority_map(votes, k, tie_break=TIE_BACKGROUND):
    if votes.shape[0] == 1:
        return (votes[0] > k / 2.0).astype(np.int64)
    winner = np.argmax(votes, axis=0)
    if tie_break == TIE_BACKGROUND:
        winner = np.where(votes[0] == votes.max(axis=0), 0, winner)
    return winner


def _majority_masks(raters, tie_break):
    classes = _majority_map(_votes(raters), len(raters), tie_break)
    c = raters[0].dims[0]
    if c == 1:
        return classes[None] == 1
    return np.arange(c)[:, None, None] == classes


def _dice(a, b):
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    return 1.0 if na + nb == 0 else 2.0 * int(np.count_nonzero(a & b)) / (na + nb)


def _rater_weights(raters, tie_break):
    maj = _majority_masks(raters, tie_break)
    return np.array([np.mean([_dice(r.array[ci] == 1.0, maj[ci]) for ci in range(len(maj))])
                     for r in raters])


def _weighted_combine(raters, weights):
    total = float(np.sum(weights))
    if total == 0.0:
        weights = np.ones(len(raters))
        total = float(len(raters))
    w = weights / total
    avg = w[0] * raters[0].array
    for wi, r in zip(w[1:], raters[1:]):
        avg += wi * r.array
    return np.clip(avg, 0.0, 1.0)


def _dataset_weights(stacks_raters, tie_break):
    k = len(stacks_raters[0])
    inter, sizes = np.zeros(k), np.zeros(k)
    for raters in stacks_raters:
        maj = _majority_masks(raters, tie_break)
        for i, r in enumerate(raters):
            inter[i] += np.count_nonzero((r.array == 1.0) & maj)
            sizes[i] += np.count_nonzero(r.array == 1.0) + np.count_nonzero(maj)
    with np.errstate(invalid="ignore"):
        return np.where(sizes > 0, 2.0 * inter / np.where(sizes > 0, sizes, 1.0), 1.0)


def _assert_bits(actual: np.ndarray, expected: np.ndarray):
    """Equal values, and equal float64 bits, so signed zeros agree too."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.asarray(actual, np.float64).view(np.uint64),
                          np.asarray(expected, np.float64).view(np.uint64))


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------

class TestStackHoldsMasks:
    @_PROPS
    @given(raters=_raters())
    def test_masks_and_raters_round_trip(self, raters):
        stack = _stack(raters)
        assert stack.masks.dtype == np.bool_
        assert stack.masks.shape == (len(raters),) + raters[0].dims
        assert not stack.masks.flags.writeable
        assert len(stack) == len(raters) and stack.dims == raters[0].dims
        for r, mask in zip(raters, stack.masks):
            back = LabelField.from_array(mask)
            assert back.is_hard and back.dims == r.dims
            _assert_bits(back.array, r.array)

    def test_retains_one_byte_per_rater_element(self):
        k, dims = 5, (2, 48, 40)
        classes = np.random.default_rng(3).integers(0, 2, (k,) + dims[1:])
        onehots = np.stack([np.stack([c == 0, c == 1]) for c in classes])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stack = RaterStack(onehots)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(stack) == k
        # the bool masks, plus a small constant for the objects around them;
        # float64 fields would hold 8 bytes per element
        assert retained <= k * math.prod(dims) + 4096


class TestReadersMatchFieldOracles:
    @_PROPS
    @given(raters=_raters())
    def test_vote_counts(self, raters):
        votes = vote_counts(_stack(raters))
        expected = _votes(raters)
        assert votes.dtype == expected.dtype
        assert np.array_equal(votes, expected)

    @_PROPS
    @given(raters=_raters(), tie_break=st.sampled_from(TIE_BREAKS))
    def test_majority_vote(self, raters, tie_break):
        field = majority_vote(_stack(raters), tie_break)
        assert field.is_hard
        _assert_bits(field.array, _majority_masks(raters, tie_break).astype(np.float64))

    @_PROPS
    @given(raters=_raters())
    def test_uniform_average(self, raters):
        field = uniform_average(_stack(raters))
        _assert_bits(field.array, _votes(raters) / len(raters))

    @_PROPS
    @given(raters=_raters(), tie_break=st.sampled_from(TIE_BREAKS))
    def test_rater_weights(self, raters, tie_break):
        _assert_bits(rater_weights(_stack(raters), tie_break),
                     _rater_weights(raters, tie_break))

    @_PROPS
    @given(raters=_raters(), tie_break=st.sampled_from(TIE_BREAKS))
    def test_weighted_average(self, raters, tie_break):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AllZeroWeightsWarning)
            field = weighted_average(_stack(raters), tie_break)
        _assert_bits(field.array, _weighted_combine(raters, _rater_weights(raters, tie_break)))

    @_PROPS
    @given(data=st.data(), k=st.integers(1, 7), c=st.sampled_from([1, 2, 3]),
           n=st.integers(1, 3), tie_break=st.sampled_from(TIE_BREAKS))
    def test_weighted_average_dataset(self, data, k, c, n, tie_break):
        stacks_raters = [data.draw(_raters(k=k, c=c)) for _ in range(n)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AllZeroWeightsWarning)
            fields = weighted_average_dataset([_stack(r) for r in stacks_raters],
                                              tie_break)
        weights = _dataset_weights(stacks_raters, tie_break)
        assert len(fields) == n
        for field, raters in zip(fields, stacks_raters):
            _assert_bits(field.array, _weighted_combine(raters, weights))

    @_PROPS
    @given(raters=_raters(), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_rater(self, raters, seed):
        field = random_rater(_stack(raters), seed)
        u = np.random.default_rng(seed).random()
        expected = raters[min(int(u * len(raters)), len(raters) - 1)]
        assert field.is_hard
        _assert_bits(field.array, expected.array)

    @_PROPS
    @given(raters=_raters())
    def test_references(self, raters):
        ref = References.of(_stack(raters))
        votes = _votes(raters)
        assert ref.k == len(raters)
        assert ref.votes.dtype == votes.dtype and np.array_equal(ref.votes, votes)
        assert np.array_equal(ref.majority_fg, _majority_map(votes, len(raters)) == 1)
