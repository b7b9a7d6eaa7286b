"""Training-target construction from multi-rater stacks: majority vote,
random rater selection, uniform and Dice-weighted averaging, and label
smoothing. Every output is a LabelField, so its construction checks range
and simplex and reads its hardness off the values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, EmptyStackError, LabelField, RaterStack, check_seed
from .metrics import class_map, mask_dice, one_hot

STRATEGIES = ("majority", "random_rater", "uniform_avg", "weighted_avg",
              "label_smoothing")

TIE_LOWEST = "lowest_class"
TIE_BACKGROUND = "background"
TIE_BREAKS = (TIE_BACKGROUND, TIE_LOWEST)
WEIGHT_SCOPES = ("per_image", "per_dataset")


class AllZeroWeightsWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SoftLabelSpec:
    """Which strategy builds the targets, plus its knobs.

    epsilon applies to label_smoothing only, seed to random_rater only.
    weights_scope picks per_image (default) or per_dataset Dice weights for
    weighted_avg.
    """

    strategy: str = "uniform_avg"
    epsilon: float = 0.1
    seed: int = 0
    tie_break: str = TIE_BACKGROUND
    weights_scope: str = WEIGHT_SCOPES[0]

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie_break {self.tie_break!r}")
        if self.weights_scope not in WEIGHT_SCOPES:
            raise ValueError(f"unknown weights_scope {self.weights_scope!r}")
        if self.strategy == "label_smoothing" and not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon {self.epsilon!r} outside [0, 1)")
        check_seed(self.seed)


def vote_counts(stack: RaterStack) -> np.ndarray:
    """Per-class vote counts, shape (C, H, W), in the smallest unsigned
    integer dtype that holds K: the stack's (K, C, H, W) bool masks summed
    over raters, in rater order. Integer sums are exact."""
    return np.sum(stack.masks, axis=0, dtype=np.min_scalar_type(len(stack)))


def majority_map(votes: np.ndarray, k: int, tie_break: str = TIE_BACKGROUND) -> np.ndarray:
    """Class map of the majority vote of k raters, from their (C, H, W) vote
    counts, in metrics.class_map's convention: at C == 1, 1 marks foreground.

    Binary (C == 1) ties go to background under either rule; for C >= 2,
    lowest_class picks the smallest tied index and background prefers class
    0 whenever it is among the tied leaders.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if votes.shape[0] == 1:
        return (votes[0] > k / 2.0).astype(np.int64)  # ties (== k/2) go to background
    winner = class_map(votes)
    if tie_break == TIE_BACKGROUND:
        winner = np.where(votes[0] == votes.max(axis=0), 0, winner)
    return winner


def _majority_masks(stack: RaterStack, tie_break: str) -> np.ndarray:
    """(C, H, W) bool one-hot of the majority vote."""
    return one_hot(majority_map(vote_counts(stack), len(stack), tie_break), stack.dims[0])


def majority_vote(stack: RaterStack, tie_break: str = TIE_BACKGROUND) -> LabelField:
    """Per pixel, the class backed by the most raters; ties as in majority_map."""
    return LabelField.from_array(_majority_masks(stack, tie_break))


def random_rater(stack: RaterStack, seed: int) -> LabelField:
    """One whole rater chosen uniformly by the seed (per image, not per pixel)."""
    u = np.random.default_rng(seed).random()
    idx = min(int(u * len(stack)), len(stack) - 1)
    return LabelField.from_array(stack.masks[idx])


def uniform_average(stack: RaterStack) -> LabelField:
    """Per pixel-class mean over raters, from their vote counts; values land
    on {0, 1/K, ..., 1}."""
    return LabelField.from_array(vote_counts(stack) / len(stack))


def rater_weights(stack: RaterStack, tie_break: str = TIE_BACKGROUND) -> np.ndarray:
    """Dice of each rater against the majority vote, averaged over classes."""
    maj = _majority_masks(stack, tie_break)
    return np.array([np.mean([mask_dice(r[ci], maj[ci]) for ci in range(len(maj))])
                     for r in stack.masks])


def _weighted_combine(stack: RaterStack, weights: np.ndarray) -> LabelField:
    total = float(np.sum(weights))
    if total == 0.0:
        warnings.warn("every rater has Dice 0 against the majority vote; "
                      "falling back to uniform weights", AllZeroWeightsWarning)
        weights = np.ones(len(stack))
        total = float(len(stack))
    w = weights / total
    # the raters' weighted sum, added in place in rater order; a bool mask
    # times w gives the bits of 0.0 or 1.0 times w
    masks = stack.masks
    avg = np.multiply(masks[0], w[0], dtype=np.float64)
    term = np.empty_like(avg)
    for wi, m in zip(w[1:], masks[1:]):
        np.multiply(m, wi, out=term)
        avg += term
    np.clip(avg, 0.0, 1.0, out=avg)
    return LabelField.from_array(avg)


def weighted_average(stack: RaterStack, tie_break: str = TIE_BACKGROUND) -> LabelField:
    """Average raters weighted by their Dice against the majority vote.

    Weights are normalized to sum 1; a rater far from the majority gets a
    low weight. If every weight is 0 the combine falls back to uniform and
    warns.
    """
    return _weighted_combine(stack, rater_weights(stack, tie_break))


def weighted_average_dataset(stacks, tie_break: str = TIE_BACKGROUND):
    """Per-dataset variant: one weight vector per rater index, computed from
    summed intersections/sizes over all images, then applied to every stack.

    Requires every stack to carry the same rater count.
    """
    stacks = list(stacks)
    if not stacks:
        raise EmptyStackError("no stacks")
    k = len(stacks[0])
    if any(len(s) != k for s in stacks):
        raise ConfigError("per_dataset weighting needs a common rater count")
    inter = np.zeros(k)
    sizes = np.zeros(k)
    for s in stacks:
        maj = _majority_masks(s, tie_break)
        for i, r in enumerate(s.masks):
            inter[i] += np.count_nonzero(r & maj)
            sizes[i] += np.count_nonzero(r) + np.count_nonzero(maj)
    with np.errstate(invalid="ignore"):
        weights = np.where(sizes > 0, 2.0 * inter / np.where(sizes > 0, sizes, 1.0), 1.0)
    return [_weighted_combine(s, weights) for s in stacks]


def label_smoothing(y: LabelField, epsilon: float) -> LabelField:
    """Affine shrink toward the uniform class distribution.

    C >= 2: y' = (1 - eps) * y + eps / C. C == 1 treats the field as the
    foreground half of a two-class pair: y' = (1 - eps) * y + eps / 2.
    eps == 0 is the identity.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1)")
    uniform = 1.0 / max(y.n_classes, 2)
    return LabelField.from_array((1.0 - epsilon) * y.array + epsilon * uniform)


def build_labels(stack: RaterStack, spec: SoftLabelSpec) -> LabelField:
    """Dispatch one image's stack through the configured strategy."""
    if spec.strategy == "majority":
        return majority_vote(stack, spec.tie_break)
    if spec.strategy == "random_rater":
        return random_rater(stack, spec.seed)
    if spec.strategy == "uniform_avg":
        return uniform_average(stack)
    if spec.strategy == "weighted_avg":
        return weighted_average(stack, spec.tie_break)
    return label_smoothing(majority_vote(stack, spec.tie_break), spec.epsilon)


def build_labels_dataset(stacks, spec: SoftLabelSpec):
    """Targets for a whole dataset; honors per_dataset weighting and gives
    random_rater a distinct per-image seed stream."""
    stacks = list(stacks)
    if spec.strategy == "weighted_avg" and spec.weights_scope == "per_dataset":
        return weighted_average_dataset(stacks, spec.tie_break)
    if spec.strategy == "random_rater":
        seeds = np.random.SeedSequence(spec.seed).generate_state(len(stacks))
        return [random_rater(s, int(seed)) for s, seed in zip(stacks, seeds)]
    return [build_labels(s, spec) for s in stacks]
