"""The benchmark's workloads: seeded inputs, the dicesm command each one
runs, its unit of work, and the checks on its outputs.

Every workload is built twice by the runner: at full size from the
workload seed (the timed jobs) and at a small size from GOLDEN_SEED (the
golden job, whose stdout numbers are compared with reference.json).
Inputs are written as files in the job directory before any timing
starts; dicesm sees only those files and a JSON config, and all paths in
the command and the config are relative to the job directory, so the
stdout of every run of a job is the same byte string.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN_SEED = 20230329

# Outputs are float64 values in [0, 1]; the tolerance is half the float64
# digits, set from the dtype and not from observed results. It rejects a
# change in what is computed (a dropped term, float32 arithmetic, another
# estimator). Whether a faster kernel's reordered sums stay within it is
# not tested: dice and ECE come from thresholded or binned predictions
# after several SGD epochs, so a rounding change can flip a pixel.
TOL = math.sqrt(np.finfo(np.float64).eps)

TRAINING_KEYS = ("dice", "bdice", "ece")
CALIBRATE_KEYS = ("ece_before", "ece_after", "scope_pixels")


@dataclass
class Job:
    """One dicesm command with its inputs already on disk."""

    argv: list            # arguments after `python -m dicesm`
    cwd: Path             # job directory; every path in argv is relative to it
    outputs: tuple        # files and directories the command writes, relative to cwd
    img_epochs: int       # training images x epochs; 1 for one calibrated field
    reference_keys: tuple  # stdout keys compared with reference.json
    check: Callable       # check(stdout_obj) -> list of problems


def _cli(cwd: Path, argv) -> int:
    """Run a dicesm subcommand in this process, in directory cwd,
    discarding its output."""
    from dicesm import cli

    with contextlib.chdir(cwd), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _gen_data(cwd: Path, out: str, n_images: int, size: int, n_classes: int,
              seed: int) -> None:
    code = _cli(cwd, ["gen-data", "--out", out, "--n-images", n_images,
                 "--height", size, "--width", size, "--n-classes", n_classes,
                 "--seed", seed])
    if code != 0:
        raise RuntimeError(f"gen-data exited {code}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))


def _check_training(cwd: Path, epochs: int):
    """stdout carries the final metrics, which must equal the last row of
    trace.csv (both evaluate the same final model on the same images)."""

    def check(out: dict) -> list:
        problems = []
        if sorted(out) != sorted(("out",) + TRAINING_KEYS):
            return [f"stdout keys {sorted(out)}"]
        for k in TRAINING_KEYS:
            if not 0.0 <= out[k] <= 1.0:
                problems.append(f"{k} = {out[k]!r} outside [0, 1]")
        with open(cwd / "out" / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != epochs:
            problems.append(f"trace.csv has {len(rows)} rows for {epochs} epochs")
        elif any(float(rows[-1][k]) != out[k] for k in TRAINING_KEYS):
            problems.append("stdout metrics differ from the last trace.csv row")
        if not (cwd / "out" / "model" / "manifest.json").is_file():
            problems.append("no model checkpoint written")
        return problems

    return check


# --------------------------------------------------------------------------
# train-wide-c2 / distill-kde
# --------------------------------------------------------------------------

def train_wide_c2(cwd: Path, seed: int, golden: bool) -> Job:
    n, size, epochs = (4, 48, 4) if golden else (16, 192, 3)
    _gen_data(cwd, "data", n, size, 2, seed)
    _write_json(cwd / "config.json", {
        "data": {"dir": "data"},
        "model": {"kind": "per_pixel_logistic", "n_classes": 2, "seed": seed},
        "train": {"epochs": epochs, "batch_size": 8, "lr0": 5.0,
                  "loss": {"name": "compound", "params": {"overlap": "dml2"}},
                  "reduction": {"batch_mode": "pooled"},
                  "label_source": {"strategy": "weighted_avg"}, "seed": seed},
        "eval_every": 1, "out_dir": "out"})
    return Job(["train", "--config", "config.json"], cwd, ("out",),
               n * epochs, TRAINING_KEYS,
               _check_training(cwd, epochs))


def distill_kde(cwd: Path, seed: int, golden: bool) -> Job:
    n, size, epochs = (8, 32, 4) if golden else (16, 64, 3)
    _gen_data(cwd, "data", n, size, 1, seed)
    # The teacher is trained here, untimed, on rater stacks of its own.
    _gen_data(cwd, "teacher_data", n, size, 1, seed + 1)
    _write_json(cwd / "teacher.json", {
        "data": {"dir": "teacher_data"},
        "model": {"kind": "per_pixel_logistic", "n_classes": 1, "seed": seed},
        "train": {"epochs": 4, "batch_size": 8, "lr0": 0.5,
                  "label_source": {"strategy": "majority"}, "seed": seed},
        "eval_every": 0, "out_dir": "teacher"})
    code = _cli(cwd, ["train", "--config", "teacher.json"])
    if code != 0:
        raise RuntimeError(f"teacher training exited {code}")
    _write_json(cwd / "config.json", {
        "data": {"dir": "data"},
        "student": {"kind": "per_pixel_logistic", "feature_set": "intensity",
                    "n_classes": 1, "seed": seed},
        "train": {"epochs": epochs, "batch_size": 4, "lr0": 2.0,
                  "label_source": {"strategy": "uniform_avg"}, "seed": seed},
        "kd": {"teacher_checkpoint": "teacher/model", "use_kde": True,
               "kde": {"pixel_scope": "all", "n_key": 128, "seed": seed},
               "kd_weight": 1.0, "kd_terms": "both"},
        "eval_every": 1, "out_dir": "out"})
    return Job(["distill", "--config", "config.json"], cwd, ("out",),
               n * epochs, TRAINING_KEYS,
               _check_training(cwd, epochs))


# --------------------------------------------------------------------------
# calibrate-c2
# --------------------------------------------------------------------------

def _smooth(rng, size: int, passes: int = 12) -> np.ndarray:
    """Zero-mean unit-variance random field smoothed by repeated 5x5 box
    means; correlation length grows with passes."""
    from scipy.ndimage import uniform_filter

    f = rng.standard_normal((size, size))
    for _ in range(passes):
        f = uniform_filter(f, size=5, mode="wrap")
    return (f - f.mean()) / f.std()


def calibrate_fields(size: int, seed: int):
    """A two-class overconfident prediction and its hard label, both as
    float32 [2, size, size] arrays (the precision SDT1 stores)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    truth = _smooth(rng, size)
    seen = truth + 0.6 * _smooth(rng, size, passes=2)
    fg = (truth > 0.0).astype(np.float64)
    p = 1.0 / (1.0 + np.exp(-6.0 * seen))
    label = np.stack([1.0 - fg, fg]).astype(np.float32)
    pred = np.stack([1.0 - p, p]).astype(np.float32)
    return pred, label


def binary_ece(conf: np.ndarray, labels: np.ndarray, n_bins: int = 15) -> float:
    """Equal-width binned ECE of foreground confidences, pooled over pixels."""
    conf = conf.astype(np.float64).ravel()
    labels = labels.astype(np.float64).ravel()
    idx = np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)
    total = 0.0
    for b in range(n_bins):
        sel = idx == b
        if sel.any():
            total += abs(labels[sel].sum() - conf[sel].sum())
    return total / conf.size


def calibrate_c2(cwd: Path, seed: int, golden: bool) -> Job:
    from dicesm.core import TensorF, write_tensor

    size = 64 if golden else 384
    pred, label = calibrate_fields(size, seed)
    write_tensor(cwd / "pred.sdt", TensorF.from_array(pred))
    write_tensor(cwd / "label.sdt", TensorF.from_array(label))
    expected_ece = binary_ece(pred[1], label[1])
    n_pixels = size * size

    def check(out: dict) -> list:
        keys = ("out", "n_key") + CALIBRATE_KEYS
        if sorted(out) != sorted(keys):
            return [f"stdout keys {sorted(out)}"]
        problems = []
        if out["scope_pixels"] != n_pixels or out["n_key"] != 128:
            problems.append(f"scope_pixels {out['scope_pixels']}, n_key {out['n_key']}")
        if abs(out["ece_before"] - expected_ece) > TOL:
            problems.append(f"ece_before {out['ece_before']!r}, "
                            f"independent ECE {expected_ece!r}")
        if not 0.0 <= out["ece_after"] <= 1.0:
            problems.append(f"ece_after {out['ece_after']!r} outside [0, 1]")
        raw = (cwd / "calibrated.sdt").read_bytes()
        head = b"SDT1" + struct.pack("<4I", 3, 2, size, size)
        if raw[:20] != head or len(raw) != 20 + 8 * n_pixels:
            problems.append("calibrated.sdt has the wrong header or length")
        else:
            vals = np.frombuffer(raw, dtype="<f4", offset=20)
            if not (np.all(vals >= 0.0) and np.all(vals <= 1.0)):
                problems.append("calibrated.sdt has values outside [0, 1]")
        return problems

    return Job(["calibrate", "--pred", "pred.sdt", "--label", "label.sdt",
                "--scope", "all", "--n-key", "128", "--seed", str(seed),
                "--out", "calibrated.sdt"],
               cwd, ("calibrated.sdt",), 1, CALIBRATE_KEYS, check)


def boundary_probe_argv() -> list:
    """Known defect: a two-class field read back from float32 SDT1 storage
    has row sums about 1e-8 from 1, beyond core.SIMPLEX_TOL = 1e-9, so the
    boundary scope (which validates the prediction) exits 1 with
    SimplexViolationError on calibrate-c2's own inputs. Expected exit code
    once fixed: 0."""
    return ["calibrate", "--pred", "pred.sdt", "--label", "label.sdt",
            "--scope", "boundary", "--out", "probe.sdt"]


WORKLOADS = {
    "distill-kde": distill_kde,
    "train-wide-c2": train_wide_c2,
    "calibrate-c2": calibrate_c2,
}
