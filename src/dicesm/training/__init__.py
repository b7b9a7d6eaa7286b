"""Desk-scale training harness: synthetic multi-rater data, tiny reference
models with manual backprop, SGD with a poly schedule, and
teacher-student distillation."""

from .distill import KdSpec, TeacherSignal, distill
from .loop import (
    DivergedLossError,
    EmptyDatasetError,
    TrainResult,
    TrainSpec,
    evaluate,
    poly_lr,
    subset,
    train,
    write_trace_csv,
)
from .models import (
    CheckpointMismatchError,
    Conv2Net,
    ModelSpec,
    PerPixelLogistic,
    build_model,
    extract_features,
    forward,
    load_model,
    save_model,
)
from .synth import (
    RaterNoise,
    SynthDataset,
    SynthImage,
    SynthSpec,
    generate_synthetic,
    generate_with_clean,
    mean_pairwise_rater_dice,
)
