"""Mini-batch SGD with momentum, weight decay and a poly learning-rate
schedule, plus validation metrics.

Everything is deterministic given (dataset seed, model seed, train seed):
shuffling is the only random element, the gradient reduction order over a
batch is fixed, and evaluation is pure.

Fields are checked once, on construction (see core), not here: the
targets that softlabels builds, the teacher signal's inputs, the fields
read from files. Inside run_sgd and evaluate everything is a plain array.
Model outputs come from model.forward as (C, H, W) arrays (see models),
and the loss terms and their batch reduction are the array functions that
losses' field ops also use, so the loop builds no TensorF and calls no
validate. What the loop checks itself: the soft-label guard once per run;
per step, one finiteness check of the probabilities and one of the
gradients; per scored image, the prediction's finiteness and shape. They
raise the NonFiniteError and ShapeMismatchError that the fields' checks
would.

Across steps only the features, targets, References and parameters live;
a step's probabilities, caches and gradients are _batch_step's locals and
die with it. evaluate holds one forward pass, plus float64 confidences,
bool labels and ECE's int64 bin index over all scored pixels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from ..core import DicesmError, RaterStack, ShapeMismatchError, check_finite, check_seed
from ..losses import LossSpec, ReductionSpec, _guard_soft, _reduce_batch, parse_loss_params
# not called here: perfbench's tracer self-test checks that tracing restores
# this binding
from ..losses import batch_loss  # noqa: F401
from ..metrics import BDiceSpec, _bdice, class_map, ece, foreground_class, mask_dice
from ..softlabels import SoftLabelSpec, build_labels_dataset, majority_map, vote_counts
from .models import ModelSpec, build_model
from .synth import SynthDataset


class DivergedLossError(DicesmError):
    pass


class EmptyDatasetError(DicesmError):
    pass


@dataclass(frozen=True)
class TrainSpec:
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 30
    batch_size: int = 8
    poly_power: float = 0.9
    loss: LossSpec = field(default_factory=LossSpec)
    reduction: ReductionSpec = field(default_factory=ReductionSpec)
    label_source: SoftLabelSpec = field(default_factory=SoftLabelSpec)
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr0 < np.inf or self.epochs < 0 or self.batch_size <= 0:
            raise ValueError("lr0 must be positive and finite, epochs >= 0, batch_size > 0")
        # each test is written so that a NaN fails it
        if not all(0 <= v < np.inf for v in (self.momentum, self.weight_decay, self.poly_power)):
            raise ValueError("momentum, weight_decay and poly_power must be nonnegative and finite")
        check_seed(self.seed)


@dataclass
class TrainResult:
    model: object
    trace: list
    final_metrics: dict


def poly_lr(lr0: float, t: int, total: int, power: float) -> float:
    """lr0 * (1 - t/total)^power; strictly decreasing, 0 at t == total."""
    if total <= 0:
        return lr0
    return lr0 * (1.0 - t / total) ** power


@dataclass(frozen=True)
class References:
    """What scoring needs of one image's rater stack, kept compact.

    majority_fg is the (H, W) bool foreground mask of the majority vote,
    for Dice and ECE; votes holds the (C, H, W) per-class vote counts of
    the k raters in an unsigned integer dtype, from which the rater average
    for BDice is rebuilt.
    """

    majority_fg: np.ndarray
    votes: np.ndarray
    k: int

    @classmethod
    def of(cls, stack: RaterStack) -> "References":
        votes = vote_counts(stack)
        k = len(stack)
        # class 1 is the foreground of a class map at every C
        return cls(majority_map(votes, k) == 1, votes, k)


def evaluate(model, feats, refs) -> dict:
    """Dice/ECE against per-image majority votes, BDice against the uniform
    rater average, per the multi-rater evaluation protocol.

    feats[i] is model.prepare of image i and refs[i] its References. The
    caller builds both once per run, since neither changes while the model
    trains. Only the majority's foreground mask and the vote counts are
    kept between evaluations: the rater average of the foreground channel
    is rebuilt from the counts for each image and dropped once the image
    is scored. Scoring runs on arrays; the predictions are checked for
    finiteness and shape, and the references are valid by construction.
    """
    thresholds = BDiceSpec().thresholds
    n = sum(ref.majority_fg.size for ref in refs)
    confs, labels = np.empty(n), np.empty(n, dtype=bool)
    dices, bdices, end = [], [], 0
    for x, ref in zip(feats, refs):
        probs, _ = model.forward(x)
        check_finite(probs)
        if probs.shape != ref.votes.shape:
            raise ShapeMismatchError(f"dims {probs.shape} vs {ref.votes.shape}")
        fg = foreground_class(ref.votes.shape[0])
        dices.append(mask_dice(class_map(probs) == 1, ref.majority_fg))
        bdices.append(_bdice(probs[fg], ref.votes[fg] / ref.k, thresholds))
        start, end = end, end + ref.majority_fg.size
        confs[start:end] = probs[fg].reshape(-1)
        labels[start:end] = ref.majority_fg.reshape(-1)
    return {
        "dice": float(np.mean(dices)),
        "bdice": float(np.mean(bdices)),
        "ece": ece(confs, labels),
    }


def _sgd_step(params, velocity, grads, lr, momentum, weight_decay):
    for name, g in grads.items():
        v = momentum * velocity[name] + g + weight_decay * params[name]
        velocity[name] = v
        params[name] -= lr * v


def _batch_step(model, feats, ys, idx, spec: TrainSpec, params, kd, epoch: int, b: int):
    """Forward, loss and backward of batch b of the epoch: the loss value and
    the parameter gradients summed in image order, which alone outlive it."""
    xs, caches = zip(*(model.forward(feats[i]) for i in idx))
    for x in xs:
        check_finite(x)
    red = spec.reduction
    value, grads_x = _reduce_batch(spec.loss.name, params, xs, [ys[i] for i in idx], red)
    if kd is not None:
        kd_value, kd_grads = kd.batch_terms(idx, xs, red, epoch, b)
        value += kd.weight * kd_value
        for g, kg in zip(grads_x, kd_grads):
            kg *= kd.weight
            g += kg
    for g in grads_x:
        check_finite(g)
    if not np.isfinite(value):
        raise DivergedLossError(f"loss {value!r} at epoch {epoch}")
    param_grads = model.backward(caches[0], grads_x[0])
    for cache, g in zip(caches[1:], grads_x[1:]):
        for k, gp in model.backward(cache, g).items():
            param_grads[k] += gp
    return value, param_grads


def run_sgd(dataset: SynthDataset, targets, model, spec: TrainSpec,
            val_dataset: SynthDataset | None = None, eval_every: int = 1,
            kd_provider=None) -> TrainResult:
    """Core loop shared by train() and distill().

    targets[i] is the supervised LabelField for image i, valid as built;
    kd_provider, when given, contributes extra loss terms and their
    gradients, as arrays, against a teacher signal.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError("no images")
    params, allow_soft = parse_loss_params(spec.loss.name, spec.loss.params)
    feats = [model.prepare(im.image) for im in dataset.images]
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    batches_per_epoch = -(-n // spec.batch_size)
    total_steps = spec.epochs * batches_per_epoch
    if total_steps:
        _guard_soft(spec.loss.name, all(y.is_hard for y in targets), allow_soft)
    ys = [y.array for y in targets]
    kd = kd_provider if kd_provider is not None and kd_provider.weight > 0.0 else None
    ds, split = (dataset, "train") if val_dataset is None else (val_dataset, "val")
    ds_feats = feats if ds is dataset else [model.prepare(im.image) for im in ds.images]
    ds_refs = [References.of(im.raters) for im in ds.images]
    trace = []
    m = None
    t = 0
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for b in range(batches_per_epoch):
            idx = order[b * spec.batch_size:(b + 1) * spec.batch_size]
            value, grads = _batch_step(model, feats, ys, idx, spec, params, kd, epoch, b)
            epoch_losses.append(value)
            lr = poly_lr(spec.lr0, t, total_steps, spec.poly_power)
            _sgd_step(model.params, velocity, grads, lr,
                      spec.momentum, spec.weight_decay)
            t += 1
        due = eval_every and (epoch == spec.epochs - 1 or (epoch + 1) % eval_every == 0)
        m = evaluate(model, ds_feats, ds_refs) if due else None
        trace.append({"epoch": epoch, "split": split if m else "train",
                      **{k: m[k] if m else float("nan") for k in ("dice", "bdice", "ece")},
                      "loss": float(np.mean(epoch_losses))})
    # the last epoch is due unless eval_every == 0; m scores the final model
    return TrainResult(model, trace, m or evaluate(model, ds_feats, ds_refs))


def build_targets(dataset: SynthDataset, spec: SoftLabelSpec):
    return build_labels_dataset(dataset.stacks(), spec)


def train(dataset: SynthDataset, model_spec: ModelSpec, train_spec: TrainSpec,
          val_dataset: SynthDataset | None = None, eval_every: int = 1) -> TrainResult:
    """Supervised training with targets built per train_spec.label_source."""
    model = build_model(model_spec)
    targets = build_targets(dataset, train_spec.label_source)
    return run_sgd(dataset, targets, model, train_spec, val_dataset, eval_every)


def subset(dataset: SynthDataset, indices) -> SynthDataset:
    return SynthDataset(dataset.spec, tuple(dataset.images[i] for i in indices))


def write_trace_csv(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "split", "dice",
                                                "bdice", "ece", "loss"])
        writer.writeheader()
        for row in trace:
            writer.writerow(row)
