"""Evaluation metrics: set-based hard Dice, binarized Dice over threshold
sweeps, and binned expected calibration error.

mask_dice is the one integer Dice count, on bool masks: bdice, the training
loop's evaluation, the rater weights of softlabels and the CLI's hard Dice
use it, and it is the tests' independent oracle for the overlap losses
(1 - sdl on hard pairs must match it exactly).

class_map and foreground_class are the one statement of the class rule: a
C == 1 field is a foreground probability with an implicit background.

bdice takes fields, which were checked once, on construction, and checks
only that their dims agree; ece scores pooled arrays, float confidences and
bool labels, and checks their range and length itself. Callers that hold
checked arrays (the training loop's evaluation, the CLI after reading its
files) score through the array cores, such as _bdice, directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DicesmError,
    LabelField,
    ProbField,
    OutOfRangeError,
    ShapeMismatchError,
    check_same_dims,
)

DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class SoftInputError(DicesmError):
    pass


class EmptyRecordsError(DicesmError):
    pass


def class_map(arr) -> np.ndarray:
    """Class index of each position of a (C, ...) array: p > 0.5 at C == 1,
    the argmax over classes otherwise.

    The argmax equals np.argmax(arr, axis=0) but runs as a running maximum
    over the classes, many times faster than argmax along the outer axis.
    A strict > keeps the first of tied maxima, as argmax does; np.maximum
    carries any NaN into the running maximum, and there argmax answers."""
    if arr.shape[0] == 1:
        return (arr[0] > 0.5).astype(np.int64)
    winner = (arr[1] > arr[0]).astype(np.intp)
    best = np.maximum(arr[0], arr[1])
    for c in range(2, arr.shape[0]):
        winner += (arr[c] > best) * (c - winner)  # c where class c beats the max
        best = np.maximum(best, arr[c])
    if best.dtype.kind == "f" and np.isnan(best).any():
        return np.argmax(arr, axis=0)
    return winner


def one_hot(classes: np.ndarray, n_classes: int) -> np.ndarray:
    """(C, ...) bool masks of a class map; at C == 1 the one mask is class 1,
    the foreground, as class_map gives it."""
    if n_classes == 1:
        return classes[None] == 1
    return np.arange(n_classes).reshape((-1,) + (1,) * classes.ndim) == classes


def foreground_class(n_classes: int) -> int:
    """Channel of the foreground probability: 0 at C == 1, 1 otherwise."""
    return 0 if n_classes == 1 else 1


@dataclass(frozen=True)
class EceSpec:
    """Equal-width binning of foreground confidence, pooled over pixels."""

    n_bins: int = 15

    def __post_init__(self):
        if self.n_bins <= 0:
            raise ValueError("n_bins must be positive")


@dataclass(frozen=True)
class BDiceSpec:
    """Joint thresholding levels for prediction and soft label."""

    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self):
        t = tuple(float(v) for v in self.thresholds)
        if not t or any(not 0.0 < v < 1.0 for v in t):
            raise ValueError("thresholds must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", t)


def mask_dice(a: np.ndarray, b: np.ndarray, empty_both: float = 1.0) -> float:
    """Dice 2|A∩B| / (|A|+|B|) of two bool masks, by integer counting."""
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if na + nb == 0:
        return float(empty_both)
    inter = int(np.count_nonzero(a & b))
    return 2.0 * inter / (na + nb)


def bdice(x: ProbField, y: LabelField, spec: BDiceSpec | None = None,
          class_idx: int = 0) -> float:
    """Mean Dice over joint binarizations of prediction and (soft) label.

    Both maps are thresholded with strict `> t` at every level of the spec
    and scored with set-based Dice; levels where both maps come up empty
    count 1.
    """
    spec = spec or BDiceSpec()
    check_same_dims(x, y)
    return _bdice(x.array[class_idx], y.array[class_idx], spec.thresholds)


def _bdice(x: np.ndarray, y: np.ndarray, thresholds) -> float:
    """The bdice score of one class's (H, W) prediction and label arrays,
    which the caller has checked."""
    return float(np.mean([mask_dice(x > t, y > t, 1.0) for t in thresholds]))


def ece(confidences, labels, spec: EceSpec | None = None) -> float:
    """Binned expected calibration error sum_b (n_b/n) |acc_b - conf_b| of
    pooled confidences in [0, 1] and their hard labels, a bool array of the
    same size. Its one int64 vector, the bin index (conf * n_bins truncated,
    as astype does), then counts each bin's positive labels exactly."""
    n_bins = (spec or EceSpec()).n_bins
    conf = np.asarray(confidences, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if labels.dtype != np.bool_:
        raise TypeError(f"labels must be bool, got {labels.dtype}")
    n = conf.size
    if labels.size != n:
        raise ShapeMismatchError("confidences and labels differ in length")
    if n == 0:
        raise EmptyRecordsError("no calibration records")
    if not (conf.min() >= 0.0 and conf.max() <= 1.0):  # a NaN fails too
        raise OutOfRangeError("confidences outside [0, 1]")
    idx = np.multiply(conf, n_bins, out=np.empty(n, np.int64), casting="unsafe")
    np.minimum(idx, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    idx += 1
    idx *= labels  # bin + 1 for a positive label, 0 for a negative one
    acc_sum = np.bincount(idx, minlength=n_bins + 1)[1:]
    occupied = counts > 0
    gaps = np.abs(acc_sum[occupied] - conf_sum[occupied]) / counts[occupied]
    return float(np.sum(counts[occupied] * gaps) / n)
