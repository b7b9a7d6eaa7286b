"""Soft-label-compatible region losses, calibration tools, and a small
training/distillation harness.

The package is organized as:

    core         tensors, probability/label fields, validation, SDT1 file IO
    losses       every loss with value + analytic gradient, loss registry
    softlabels   majority vote, rater sampling, averaging, label smoothing
    metrics      hard Dice, binarized Dice, binned ECE
    calibration  Beta/Dirichlet kernel recalibration and the bias bound
    training     synthetic multi-rater data, tiny models, SGD, distillation
    properties   the invariant suite behind `dicesm check-properties`
    cli          one binary exposing all of the above
"""

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
