"""Single entry point exposing the library as subcommands.

Machine-readable JSON goes to stdout, logs to stderr. Exit codes: 0 success,
1 validation error (bad data, shape mismatches, file-format problems),
2 usage error (bad flags, malformed config). Every source of randomness is
seeded through --seed / config seeds; DICESM_SEED overrides the default 42.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import losses as losses_mod
from .calibration import (
    KdeSpec,
    SCOPE_ALL,
    SCOPE_BOUNDARY,
    kde_calibrate_batch,
    sample_key_points,
    select_scope_pixels,
)
from .core import (
    DicesmError,
    LabelField,
    ProbField,
    RaterStack,
    TensorF,
    check_same_dims,
    from_json,
    read_label_field,
    read_prob_field,
    read_tensor,
    write_field,
    write_tensor,
)
from .losses import (
    LOSSES,
    OVERLAP_NAMES,
    CompoundParams,
    ReductionSpec,
    TverskyParams,
)
from .metrics import (
    DEFAULT_THRESHOLDS,
    BDiceSpec,
    CalibRecord,
    EceSpec,
    _bdice,
    ece,
    foreground_class,
    hard_dice,
)
from .properties import run_suite
from .softlabels import (STRATEGIES, TIE_BREAKS, WEIGHT_SCOPES, SoftLabelSpec, build_labels,
                         build_labels_dataset)
from .training import (
    KdSpec,
    ModelSpec,
    RaterNoise,
    SynthDataset,
    SynthImage,
    SynthSpec,
    TrainSpec,
    binarize,
    distill,
    generate_synthetic,
    load_model,
    save_model,
    subset,
    train,
    write_trace_csv,
)


class UsageError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("DICESM_SEED", "42")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"DICESM_SEED must be an integer, got {raw!r}") from None


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _require_keys(d: dict, allowed: set, where: str, required=()) -> None:
    extra = sorted(set(d) - allowed)
    if extra:
        raise UsageError(f"unknown keys in {where}: {extra}")
    missing = [k for k in required if k not in d]
    if missing:
        raise UsageError(f"{where} needs the keys {missing}")


# --------------------------------------------------------------------------
# eval-loss
# --------------------------------------------------------------------------

def _reduction_from_args(args) -> ReductionSpec:
    return ReductionSpec(class_mode=args.class_mode, batch_mode=args.batch_mode,
                         empty_both_value=args.empty_both_value)


def _loss_params_from_args(args) -> dict | None:
    """JSON params of --loss from the flags named after its params fields."""
    entry = LOSSES[args.loss]
    if entry.params is None:
        return None
    params = {f.name: getattr(args, f.name) for f in fields(entry.params)}
    if entry.hard_only and args.soft_ok:
        params["allow_soft"] = True
    return params


def cmd_eval_loss(args) -> int:
    if args.curve:
        if not 0.0 <= args.label_value <= 1.0:
            raise UsageError(f"--label-value must be in [0, 1], got {args.label_value!r}")
        if args.curve_points < 2:
            raise UsageError(f"--curve-points must be at least 2, got {args.curve_points}")
        params, _ = losses_mod.parse_loss_params(args.loss, _loss_params_from_args(args))
        grid = np.linspace(0.0, 1.0, args.curve_points)
        vals = losses_mod.pairwise_values(args.loss, grid[:, None],
                                          np.full((grid.size, 1), args.label_value),
                                          params)
        sys.stdout.write("x,value\n")
        for x, v in zip(grid, vals):
            sys.stdout.write(f"{float(x)!r},{float(v)!r}\n")
        return 0
    if not args.pred or not args.label:
        raise UsageError("--pred and --label are required without --curve")
    x = read_prob_field(args.pred)
    y = read_label_field(args.label)
    pair = losses_mod.loss(args.loss, x, y, _reduction_from_args(args),
                           _loss_params_from_args(args))
    if args.grad_out:
        write_tensor(args.grad_out, pair.grad)
    _emit({"loss": args.loss, "value": pair.value})
    return 0


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _binary_ece(pred: ProbField, label: LabelField, n_bins=EceSpec.n_bins) -> float:
    check_same_dims(pred, label)
    if pred.n_classes > 2:
        raise UsageError("ece supports binary tasks (C <= 2)")
    fg = foreground_class(pred.n_classes)
    record = CalibRecord(pred.array[fg].ravel(), label.array[fg].ravel())
    return ece(record, EceSpec(n_bins=n_bins))


def cmd_eval(args) -> int:
    pred = read_prob_field(args.pred)
    label = read_label_field(args.label)
    if args.metric == "dice":
        hard_pred = binarize(pred)
        per_class = [hard_dice(hard_pred, label, c) for c in range(pred.n_classes)]
    elif args.metric == "bdice":
        thresholds = tuple(float(t) for t in args.thresholds.split(","))
        spec = BDiceSpec(thresholds=thresholds)
        check_same_dims(pred, label)
        per_class = [_bdice(pred.array[c], label.array[c], spec.thresholds)
                     for c in range(pred.n_classes)]
    else:
        per_class = [_binary_ece(pred, label, args.bins)]
    value = float(np.mean(per_class))
    _emit({"metric": args.metric, "value": value, "per_class": per_class})
    return 0


# --------------------------------------------------------------------------
# make-soft-labels
# --------------------------------------------------------------------------

def _stack_from_files(paths) -> RaterStack:
    return RaterStack(tuple(read_label_field(p, "hard") for p in paths))


def cmd_make_soft_labels(args) -> int:
    spec = SoftLabelSpec(strategy=args.strategy, epsilon=args.epsilon,
                         seed=args.seed, tie_break=args.tie_break,
                         weights_scope=args.weights)
    if args.manifest:
        manifest = json.loads(Path(args.manifest).read_text())
        _require_keys(manifest, {"images"}, "manifest", ("images",))
        entries = manifest["images"]
        for i, e in enumerate(entries):
            _require_keys(e, {"raters", "out"}, f"manifest image {i}", ("raters", "out"))
        stacks = [_stack_from_files(e["raters"]) for e in entries]
        outs = build_labels_dataset(stacks, spec)
        for e, field in zip(entries, outs):
            write_field(e["out"], field)
        _emit({"strategy": args.strategy, "written": [e["out"] for e in entries]})
        return 0
    if not args.raters or not args.out:
        raise UsageError("--raters and --out are required without --manifest")
    if args.weights == "per_dataset":
        raise UsageError("per_dataset weighting needs --manifest")
    field = build_labels(_stack_from_files(args.raters), spec)
    write_field(args.out, field)
    _emit({"strategy": args.strategy, "written": [args.out],
           "hardness": field.hardness})
    return 0


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------

def _calibration_pass(pred: ProbField, label: LabelField, spec: KdeSpec):
    c = pred.n_classes
    conf_rows = pred.array.reshape(c, -1).T
    keys = sample_key_points(conf_rows, label.array.reshape(c, -1).T, spec)
    scope = None if spec.pixel_scope == SCOPE_ALL else select_scope_pixels(pred, label, spec)
    out = kde_calibrate_batch(conf_rows, keys, spec.bandwidth, scope)
    n_scope = len(conf_rows if scope is None else scope)
    return ProbField.from_array(out.T.reshape(pred.dims)), keys, n_scope


def cmd_calibrate(args) -> int:
    pred = read_prob_field(args.pred)
    label = read_label_field(args.label, "hard")
    spec = KdeSpec(bandwidth=args.bandwidth, n_key=args.n_key,
                   pixel_scope=SCOPE_ALL if args.scope == "all" else SCOPE_BOUNDARY,
                   boundary_radius=args.boundary_radius, seed=args.seed)
    ece_before = _binary_ece(pred, label)
    if args.sweep:
        rows = []
        # every bandwidth is checked before the first pass runs
        for swept in [replace(spec, bandwidth=float(tok)) for tok in args.sweep.split(",")]:
            calibrated, _, n_scope = _calibration_pass(pred, label, swept)
            rows.append({"bandwidth": swept.bandwidth, "ece_before": ece_before,
                         "ece_after": _binary_ece(calibrated, label),
                         "scope_pixels": n_scope})
        _emit({"sweep": rows})
        return 0
    if not args.out:
        raise UsageError("--out is required without --sweep")
    calibrated, keys, n_scope = _calibration_pass(pred, label, spec)
    write_field(args.out, calibrated)
    _emit({"out": args.out, "n_key": len(keys), "scope_pixels": n_scope,
           "ece_before": ece_before, "ece_after": _binary_ece(calibrated, label)})
    return 0


# --------------------------------------------------------------------------
# gen-data and dataset IO
# --------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    spec = SynthSpec(n_images=args.n_images, height=args.height, width=args.width,
                     n_classes=args.n_classes, k_raters=args.k_raters,
                     noise=RaterNoise((args.radius_lo, args.radius_hi),
                                      args.flip_prob),
                     image_noise=args.image_noise, seed=args.seed)
    ds = generate_synthetic(spec)
    out = Path(args.out)
    for sub in ("images", "raters", "clean"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    entries = []
    for i, im in enumerate(ds.images):
        img_path = f"images/img_{i:04d}.sdt"
        write_tensor(out / img_path, TensorF.from_array(im.image))
        rater_paths = []
        for k, r in enumerate(im.raters.raters):
            rp = f"raters/img_{i:04d}_rater_{k}.sdt"
            write_field(out / rp, r)
            rater_paths.append(rp)
        clean_path = f"clean/img_{i:04d}.sdt"
        write_field(out / clean_path, im.clean)
        entries.append({"image": img_path, "raters": rater_paths,
                        "clean": clean_path})
    manifest = {
        "spec": {"n_images": spec.n_images, "height": spec.height,
                 "width": spec.width, "n_classes": spec.n_classes,
                 "k_raters": spec.k_raters,
                 "noise": {"dilate_erode_radius": list(spec.noise.dilate_erode_radius),
                           "boundary_flip_prob": spec.noise.boundary_flip_prob},
                 "image_noise": spec.image_noise, "seed": spec.seed},
        "images": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    _emit({"out": str(out), "n_images": len(entries)})
    return 0


class DatasetDirError(DicesmError):
    """A dataset directory's manifest.json is not a dataset manifest."""


def load_dataset_dir(path) -> SynthDataset:
    """The dataset that gen-data wrote to path. A manifest that is not JSON,
    lacks a key or holds a bad spec is bad data, not bad usage."""
    root = Path(path)
    where = root / "manifest.json"
    try:
        manifest = json.loads(where.read_text())
        spec = from_json(SynthSpec, manifest["spec"])
        entries = [(root / e["image"], [root / p for p in e["raters"]], root / e["clean"])
                   for e in manifest["images"]]
    except KeyError as e:
        raise DatasetDirError(f"{where} lacks the key {e}") from None
    except (TypeError, ValueError, DicesmError) as e:
        raise DatasetDirError(f"{where} is malformed: {e}") from None
    images = []
    for image, raters, clean in entries:
        images.append(SynthImage(read_tensor(image).as_array(), _stack_from_files(raters),
                                 read_label_field(clean, "hard")))
    return SynthDataset(spec, tuple(images))


def _dataset_from_config(cfg: dict) -> SynthDataset:
    _require_keys(cfg, {"dir", "synth"}, "data")
    if ("dir" in cfg) == ("synth" in cfg):
        raise UsageError("data needs exactly one of 'dir' or 'synth'")
    if "dir" in cfg:
        return load_dataset_dir(cfg["dir"])
    return generate_synthetic(from_json(SynthSpec, cfg["synth"]))


# --------------------------------------------------------------------------
# train / distill configs
# --------------------------------------------------------------------------

def _train_spec(d) -> TrainSpec:
    """TrainSpec from JSON; the loss is one object {name, params}."""
    if not isinstance(d, dict) or "loss_name" in d or "loss_params" in d:
        raise UsageError("train needs a JSON object that gives the loss as {name, params}")
    kwargs = dict(d)
    loss = kwargs.pop("loss", {})
    if not isinstance(loss, dict):
        raise UsageError("train.loss needs a JSON object")
    _require_keys(loss, {"name", "params"}, "loss")
    return from_json(TrainSpec, {**kwargs, "loss_name": loss.get("name", TrainSpec.loss_name),
                                 "loss_params": loss.get("params")})


def _split(dataset: SynthDataset, val_fraction: float, seed: int):
    if not 0.0 <= val_fraction < 1.0:
        raise UsageError(f"val_fraction must be in [0, 1), got {val_fraction!r}")
    n = len(dataset)
    n_val = int(round(val_fraction * n))
    if n_val == n:
        raise UsageError(f"val_fraction {val_fraction!r} leaves no training image")
    if n_val == 0:
        return dataset, None
    order = np.random.default_rng(np.random.SeedSequence([seed, 104729])).permutation(n)
    val_idx = np.sort(order[:n_val])
    train_idx = np.sort(order[n_val:])
    return subset(dataset, train_idx), subset(dataset, val_idx)


def _finish_training(result, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", result.trace)
    save_model(result.model, out / "model")
    metrics = {k: result.final_metrics[k] for k in ("dice", "bdice", "ece")}
    _emit({"out": str(out), **metrics})


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise UsageError(f"config holds {token}, which is not a finite number")
    return value


def _read_config(path, allowed: set) -> dict:
    # json.loads reads NaN, Infinity and -Infinity, and 1e400 as inf
    cfg = json.loads(Path(path).read_text(), parse_float=_finite_number,
                     parse_constant=_finite_number)
    _require_keys(cfg, allowed, "config", ("data",))
    return cfg


def cmd_train(args) -> int:
    cfg = _read_config(args.config, {"data", "model", "train", "val_fraction",
                                     "eval_every", "out_dir"})
    dataset = _dataset_from_config(cfg["data"])
    model_spec = from_json(ModelSpec, cfg.get("model", {}))
    train_spec = _train_spec(cfg.get("train", {}))
    tr, va = _split(dataset, cfg.get("val_fraction", 0.0), train_spec.seed)
    result = train(tr, model_spec, train_spec, va, cfg.get("eval_every", 1))
    _finish_training(result, cfg.get("out_dir", "train_out"))
    return 0


def cmd_distill(args) -> int:
    cfg = _read_config(args.config, {"data", "student", "train", "kd", "val_fraction",
                                     "eval_every", "out_dir"})
    dataset = _dataset_from_config(cfg["data"])
    student_spec = from_json(ModelSpec, cfg.get("student", {}))
    train_spec = _train_spec(cfg.get("train", {}))
    kd_spec = from_json(KdSpec, cfg.get("kd", {}))
    if not kd_spec.teacher_checkpoint:
        raise UsageError("kd.teacher_checkpoint is required")
    teacher = load_model(kd_spec.teacher_checkpoint)
    tr, va = _split(dataset, cfg.get("val_fraction", 0.0), train_spec.seed)
    result = distill(tr, teacher, student_spec, train_spec, kd_spec, va,
                     cfg.get("eval_every", 1))
    _finish_training(result, cfg.get("out_dir", "distill_out"))
    return 0


def cmd_check_properties(args) -> int:
    report = run_suite(trials=args.trials, seed=args.seed, mutate=args.mutate)
    _emit(report)
    return 0 if report["all_pass"] else 1


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicesm",
        description="Soft-label-compatible region losses, calibration and "
                    "training tools")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("eval-loss", formatter_class=fmt,
                       help="evaluate one loss on prediction/label tensors")
    p.add_argument("--loss", required=True, choices=losses_mod.LOSS_NAMES)
    p.add_argument("--pred", help="prediction .sdt file")
    p.add_argument("--label", help="label .sdt file")
    # dests are the field names of TverskyParams and CompoundParams
    p.add_argument("--alpha", type=float, default=TverskyParams.alpha)
    p.add_argument("--beta", type=float, default=TverskyParams.beta)
    p.add_argument("--gamma", type=float, default=TverskyParams.gamma)
    p.add_argument("--w-ce", type=float, default=CompoundParams.w_ce)
    p.add_argument("--w-dml", type=float, default=CompoundParams.w_dml)
    p.add_argument("--overlap", default=CompoundParams.overlap, choices=OVERLAP_NAMES)
    p.add_argument("--class-mode", default=ReductionSpec.class_mode,
                   choices=(losses_mod.MEAN_PRESENT, losses_mod.MEAN_ALL))
    p.add_argument("--batch-mode", default=ReductionSpec.batch_mode,
                   choices=(losses_mod.PER_IMAGE_THEN_MEAN, losses_mod.POOLED))
    p.add_argument("--empty-both-value", type=float, default=ReductionSpec.empty_both_value)
    p.add_argument("--soft-ok", action="store_true",
                   help="let stl accept soft labels (demonstration only)")
    p.add_argument("--grad-out", help="write d(loss)/dx as an .sdt tensor")
    p.add_argument("--curve", action="store_true",
                   help="emit CSV of loss values over a scalar prediction sweep")
    p.add_argument("--label-value", type=float, default=0.8,
                   help="scalar soft label for --curve")
    p.add_argument("--curve-points", type=int, default=1001)
    p.set_defaults(fn=cmd_eval_loss)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="evaluate a metric on prediction/label tensors")
    p.add_argument("--pred", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--metric", required=True, choices=("dice", "bdice", "ece"))
    p.add_argument("--thresholds", default=",".join(map(str, DEFAULT_THRESHOLDS)))
    p.add_argument("--bins", type=int, default=EceSpec.n_bins)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("make-soft-labels", formatter_class=fmt,
                       help="build training targets from rater annotations")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--epsilon", type=float, default=SoftLabelSpec.epsilon)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--tie-break", default=SoftLabelSpec.tie_break,
                   choices=TIE_BREAKS)
    p.add_argument("--weights", default=SoftLabelSpec.weights_scope, choices=WEIGHT_SCOPES)
    p.add_argument("--raters", nargs="+", help="one .sdt file per rater")
    p.add_argument("--out", help="output .sdt file")
    p.add_argument("--manifest", help="JSON manifest for multi-image runs")
    p.set_defaults(fn=cmd_make_soft_labels)

    p = sub.add_parser("calibrate", formatter_class=fmt,
                       help="KDE-recalibrate a probability field")
    p.add_argument("--pred", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--bandwidth", type=float, default=KdeSpec.bandwidth)
    p.add_argument("--n-key", type=int, default=KdeSpec.n_key)
    p.add_argument("--scope", default="all", choices=("all", "boundary"))
    p.add_argument("--boundary-radius", type=int, default=KdeSpec.boundary_radius)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", help="output .sdt file")
    p.add_argument("--sweep", help="comma-separated bandwidths to compare")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("gen-data", formatter_class=fmt,
                       help="generate a synthetic multi-rater dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-images", type=int, default=SynthSpec.n_images)
    p.add_argument("--height", type=int, default=SynthSpec.height)
    p.add_argument("--width", type=int, default=SynthSpec.width)
    p.add_argument("--n-classes", type=int, default=SynthSpec.n_classes)
    p.add_argument("--k-raters", type=int, default=SynthSpec.k_raters)
    p.add_argument("--radius-lo", type=int, default=RaterNoise.dilate_erode_radius[0])
    p.add_argument("--radius-hi", type=int, default=RaterNoise.dilate_erode_radius[1])
    p.add_argument("--flip-prob", type=float, default=RaterNoise.boundary_flip_prob)
    p.add_argument("--image-noise", type=float, default=SynthSpec.image_noise)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a reference model from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("distill", formatter_class=fmt,
                       help="teacher->student distillation from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("check-properties", formatter_class=fmt,
                       help="run the full invariant suite")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--mutate", choices=("sign",),
                   help="inject a known bug to demonstrate suite sensitivity")
    p.set_defaults(fn=cmd_check_properties)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    except UsageError as e:
        _log(f"usage error: {e}")
        return 2
    try:
        return args.fn(args)
    except UsageError as e:
        _log(f"usage error: {e}")
        return 2
    except json.JSONDecodeError as e:
        _log(f"bad JSON config: {e}")
        return 2
    except (TypeError, ValueError) as e:
        _log(f"invalid configuration: {e}")
        return 2
    except FileNotFoundError as e:
        _log(f"missing file: {e}")
        return 1
    except DicesmError as e:
        _log(f"{type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
