"""Teacher -> student distillation with optional KDE recalibration of the
teacher signal.

The student minimizes its supervised loss plus kd_weight times CE and/or
dml1 terms computed against the teacher's per-pixel probabilities. With
use_kde, key points are drawn per batch from the teacher's own predictions
paired with the hard reference labels, and the teacher probabilities at
in-scope pixels are replaced by the kernel estimate of E[y | f] before the
distillation terms see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..calibration import (SCOPE_ALL, KdeSpec, kde_calibrate_batch, sample_key_points,
                           select_scope_pixels)
from ..core import check_finite
from ..losses import _reduce_batch, parse_loss_params
from ..metrics import class_map, one_hot
from ..softlabels import majority_map, vote_counts
from .loop import TrainResult, TrainSpec, build_targets, run_sgd
from .models import CheckpointMismatchError, ModelSpec, build_model
from .synth import SynthDataset

# the losses each kd_terms setting adds, in the order they are summed
KD_LOSSES = {"ce": ("ce",), "dml": ("dml1",), "both": ("ce", "dml1")}
KD_TERMS = tuple(KD_LOSSES)


@dataclass(frozen=True)
class KdSpec:
    teacher_checkpoint: str | None = None
    use_kde: bool = False
    kde: KdeSpec = field(default_factory=KdeSpec)
    kd_weight: float = 1.0
    kd_terms: str = "both"

    def __post_init__(self):
        if not 0 <= self.kd_weight < np.inf:
            raise ValueError("kd_weight must be nonnegative and finite")
        if self.kd_terms not in KD_TERMS:
            raise ValueError(f"kd_terms must be one of {KD_TERMS}")


class TeacherSignal:
    """Per-batch provider of distillation targets and their gradients.

    The teacher's probabilities are (C, H, W) arrays, checked for
    finiteness once per image here; the KDE signals and the KD gradients
    are arrays too, and no field is built. With use_kde, each image's
    majority vote is a class map of its rater stack: its one-hot gives the
    bool key-label rows, and with the teacher's class map it gives the
    pixel scope.
    """

    def __init__(self, dataset: SynthDataset, teacher, kd_spec: KdSpec):
        self.kd_spec = kd_spec
        self.weight = kd_spec.kd_weight
        n_classes = dataset.spec.n_classes
        kde = kd_spec.kde
        # per image; with use_kde also its (pixels, C) confidence and
        # hard-label rows and its pixel scope (None for every pixel)
        self.teacher_probs, self.conf_rows, self.label_rows, self.scopes = [], [], [], []
        for im in dataset.images:
            probs, _ = teacher.forward(teacher.prepare(im.image))
            check_finite(probs)
            if probs.shape[0] != n_classes:
                raise CheckpointMismatchError(
                    f"teacher emits {probs.shape[0]} classes, task has {n_classes}")
            self.teacher_probs.append(probs)
            if kd_spec.use_kde:
                maj = majority_map(vote_counts(im.raters), len(im.raters))
                self.conf_rows.append(probs.reshape(n_classes, -1).T)
                self.label_rows.append(one_hot(maj, n_classes).reshape(n_classes, -1).T)
                self.scopes.append(
                    None if kde.pixel_scope == SCOPE_ALL
                    else select_scope_pixels(class_map(probs), maj, kde))
        self.losses = [(name, parse_loss_params(name, None)[0])
                       for name in KD_LOSSES[kd_spec.kd_terms]]

    def _signals(self, idx, epoch, batch_idx):
        """The (C, H, W) teacher signal of each image in idx: its
        probabilities, recalibrated by KDE with use_kde. The images share
        the batch's one key set, whose coefficients the first call builds."""
        if not self.kd_spec.use_kde:
            return [self.teacher_probs[i] for i in idx]
        kde = self.kd_spec.kde
        seed = int(np.random.SeedSequence([kde.seed, epoch, batch_idx]).generate_state(1)[0])
        keys = sample_key_points(np.concatenate([self.conf_rows[i] for i in idx]),
                                 np.concatenate([self.label_rows[i] for i in idx]),
                                 replace(kde, seed=seed))
        return [np.ascontiguousarray(
                    kde_calibrate_batch(self.conf_rows[i], keys, kde.bandwidth, self.scopes[i])
                    .T.reshape(self.teacher_probs[i].shape))
                for i in idx]

    def batch_terms(self, idx, student_probs, red, epoch, batch_idx):
        """KD loss value and per-image gradient arrays for one batch."""
        signals = self._signals(idx, epoch, batch_idx)
        value = 0.0
        grads = [np.zeros(x.shape) for x in student_probs]
        for name, params in self.losses:
            v, g = _reduce_batch(name, params, student_probs, signals, red)
            value += v
            for acc, t in zip(grads, g):
                acc += t
        return value, grads


def distill(dataset: SynthDataset, teacher, student_spec: ModelSpec,
            train_spec: TrainSpec, kd_spec: KdSpec,
            val_dataset: SynthDataset | None = None,
            eval_every: int = 1) -> TrainResult:
    """Train a student against ground truth plus the teacher signal.

    kd_weight == 0 reduces exactly to plain train() with the same seeds.
    """
    student = build_model(student_spec)
    targets = build_targets(dataset, train_spec.label_source)
    provider = TeacherSignal(dataset, teacher, kd_spec) if kd_spec.kd_weight > 0 else None
    return run_sgd(dataset, targets, student, train_spec, val_dataset,
                   eval_every, kd_provider=provider)
