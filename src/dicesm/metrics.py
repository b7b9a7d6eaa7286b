"""Evaluation metrics: set-based hard Dice, binarized Dice over threshold
sweeps, and binned expected calibration error.

hard_dice counts set memberships with integers and is the independent oracle
for the overlap losses (1 - sdl on hard pairs must match it exactly). Its
count, mask_dice, is the one integer Dice count: bdice, the training loop's
evaluation and the rater weights of softlabels use it on bool masks.

class_map and foreground_class are the one statement of the class rule: a
C == 1 field is a foreground probability with an implicit background.

Public metrics take fields, which were checked once, on construction, and
check only that their dims agree. Callers that hold checked arrays (the
training loop's evaluation, the CLI after reading its files) score through
the array cores, such as _bdice, directly.
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

    thresholds: tuple = DEFAULT_THRESHOLDS

    def __post_init__(self):
        t = tuple(float(v) for v in self.thresholds)
        if not t or any(not 0.0 < v < 1.0 for v in t):
            raise ValueError("thresholds must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", t)


@dataclass(frozen=True)
class CalibRecord:
    """Flattened (confidence, binary label) pairs."""

    confidences: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        conf = np.asarray(self.confidences, dtype=np.float64).reshape(-1)
        lab = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if conf.size != lab.size:
            raise ShapeMismatchError("confidences and labels differ in length")
        if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
            raise OutOfRangeError("confidences outside [0, 1]")
        if not np.all((lab == 0.0) | (lab == 1.0)):
            raise SoftInputError("labels must be 0 or 1")
        conf.flags.writeable = False
        lab.flags.writeable = False
        object.__setattr__(self, "confidences", conf)
        object.__setattr__(self, "labels", lab)

    def __len__(self):
        return self.confidences.size


def mask_dice(a: np.ndarray, b: np.ndarray, empty_both: float = 1.0) -> float:
    """Dice 2|A∩B| / (|A|+|B|) of two bool masks, by integer counting."""
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if na + nb == 0:
        return float(empty_both)
    inter = int(np.count_nonzero(a & b))
    return 2.0 * inter / (na + nb)


def hard_dice(a: LabelField, b: LabelField, class_idx: int = 0,
              empty_both: float = 1.0) -> float:
    """Set-based Dice 2|A∩B| / (|A|+|B|) for one class, by integer counting."""
    check_same_dims(a, b)
    if not (a.is_hard and b.is_hard):
        raise SoftInputError("hard_dice requires hard labels on both sides")
    if not 0 <= class_idx < a.n_classes:
        raise ShapeMismatchError(f"class {class_idx} outside 0..{a.n_classes - 1}")
    return mask_dice(a.array[class_idx] == 1.0, b.array[class_idx] == 1.0, empty_both)


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


def ece(records: CalibRecord, spec: EceSpec | None = None) -> float:
    """Binned expected calibration error sum_b (n_b/n) |acc_b - conf_b|."""
    spec = spec or EceSpec()
    n = len(records)
    if n == 0:
        raise EmptyRecordsError("no calibration records")
    conf = records.confidences
    idx = np.minimum((conf * spec.n_bins).astype(np.int64), spec.n_bins - 1)
    counts = np.bincount(idx, minlength=spec.n_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=spec.n_bins)
    acc_sum = np.bincount(idx, weights=records.labels, minlength=spec.n_bins)
    occupied = counts > 0
    gaps = np.abs(acc_sum[occupied] - conf_sum[occupied]) / counts[occupied]
    return float(np.sum(counts[occupied] * gaps) / n)
