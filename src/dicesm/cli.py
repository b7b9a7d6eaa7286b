"""Single entry point exposing the library as subcommands.

Machine-readable JSON goes to stdout, logs to stderr. Exit codes: 0 success;
1 bad data: a DicesmError or missing file (values, shapes, file formats, the
dataset and checkpoint manifests); 2 bad usage: argparse's errors and a
ConfigError, raised at the boundary before a run starts: a spec value that
from_json refuses, naming its Class.key, from a flag (each is generated from
its spec field) or from a config or soft-label manifest, which it reads whole
before anything is written; a document that is not JSON; a flag combination,
comma list, DICESM_SEED or check-properties argument that the command
refuses, or a flag its data rules out (ECE on three classes). Any other
exception, a ValueError included, is a bug and keeps its traceback. Every
source of randomness is seeded through --seed / config seeds; DICESM_SEED
overrides the default 42.

main() without argv (python -m dicesm, the dicesm console script) first
sets glibc's mallopt so that allocations below 32 MiB come from the heap and
up to 1 GiB of freed heap stays mapped. Otherwise every training step,
evaluation and KDE block faults its numpy temporaries in again, at about
3 us per minor fault. No arithmetic changes. main(argv) leaves the caller's
allocator alone, and without mallopt the policy does nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
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
    ConfigError,
    DicesmError,
    HardnessViolationError,
    LabelField,
    ProbField,
    RaterStack,
    ShapeMismatchError,
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
    BDiceSpec,
    EceSpec,
    SoftInputError,
    _bdice,
    class_map,
    ece,
    foreground_class,
    mask_dice,
    one_hot,
)
from .properties import run_suite
from .softlabels import (STRATEGIES, TIE_BREAKS, WEIGHT_SCOPES, SoftLabelSpec, build_labels,
                         build_labels_dataset)
from .training import (
    KdSpec,
    ModelSpec,
    SynthDataset,
    SynthImage,
    SynthSpec,
    TrainSpec,
    distill,
    generate_synthetic,
    generate_with_clean,
    load_model,
    save_model,
    subset,
    train,
    write_trace_csv,
)


def _default_seed() -> int:
    raw = os.environ.get("DICESM_SEED", "42")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"DICESM_SEED must be an integer, got {raw!r}") from None


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


# --------------------------------------------------------------------------
# Spec flags
# --------------------------------------------------------------------------

# a spec field's flag where it is not --field-name, one per element of a
# tuple[X, X], and a flag's spellings of the field's values where they differ
_FLAG_NAMES = {"weights_scope": "--weights", "pixel_scope": "--scope", "n_bins": "--bins",
               "boundary_flip_prob": "--flip-prob",
               "dilate_erode_radius": ("--radius-lo", "--radius-hi")}
_FLAG_VALUES = {"pixel_scope": {"all": SCOPE_ALL, "boundary": SCOPE_BOUNDARY}}


def _spec_fields(cls):
    """(field, annotation, flags) of each field of the spec dataclass cls."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        flags = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        yield f, hints[f.name], flags if isinstance(flags, tuple) else (flags,)


def _add_spec_flags(p, cls, **kw) -> None:
    """Add to p the flags of each field of the spec dataclass cls, and of
    each spec in it, in field order. kw maps a field to the add_argument
    keywords that it sets itself (choices, a required flag), or to None for
    a field without a flag."""
    for f, tp, flags in _spec_fields(cls):
        if is_dataclass(tp):
            _add_spec_flags(p, tp)
        elif kw.get(f.name, {}) is not None:
            for flag, one in zip(flags, _flag_keywords(f, tp)):
                p.add_argument(flag, **{**one, **kw.get(f.name, {})})


def _flag_keywords(f, tp) -> list:
    """The type and default of each flag of field f, annotated tp: the
    field's default in the flag's spelling and the annotation's type, a
    union's first member, and comma-separated text for a tuple[X, ...]."""
    tp = typing.get_args(tp)[0] if isinstance(tp, types.UnionType) else tp
    if spelled := _FLAG_VALUES.get(f.name):
        return [{"choices": tuple(spelled),
                 "default": next(k for k, v in spelled.items() if v == f.default)}]
    if typing.get_origin(tp) is not tuple:
        return [{"type": tp, "default": f.default}]
    if typing.get_args(tp)[-1] is ...:
        return [{"default": ",".join(map(str, f.default))}]
    return [{"type": t, "default": d} for t, d in zip(typing.get_args(tp), f.default)]


def _flag_json(args, cls) -> dict:
    """The JSON object of the spec cls that its flags in args give: a key
    per field that the command flags."""
    d = {}
    for f, tp, flags in _spec_fields(cls):
        dests = [flag[2:].replace("-", "_") for flag in flags]  # as argparse names them
        if is_dataclass(tp):
            d[f.name] = _flag_json(args, tp)
        elif dests[0] in vars(args):
            v = [getattr(args, dest) for dest in dests]
            v = v if len(v) > 1 else v[0]
            if typing.get_origin(tp) is tuple and isinstance(v, str):
                v = _float_list(flags[0], v)
            d[f.name] = _FLAG_VALUES[f.name][v] if f.name in _FLAG_VALUES else v
    return d


def _spec(args, cls, **keys):
    """The spec cls that from_json reads from its flags, keys in place of some."""
    return from_json(cls, {**_flag_json(args, cls), **keys})


def _float_list(flag: str, text: str) -> list:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


# --------------------------------------------------------------------------
# eval-loss
# --------------------------------------------------------------------------

def cmd_eval_loss(args) -> int:
    entry = LOSSES[args.loss]
    params = None if entry.params is None else _flag_json(args, entry.params)
    if args.soft_ok:
        if not entry.hard_only:
            raise ConfigError(f"--soft-ok applies only to a loss that refuses soft labels, "
                              f"not {args.loss}")
        params["allow_soft"] = True
    bound, _ = losses_mod.parse_loss_params(args.loss, params)
    red = _spec(args, ReductionSpec)
    if args.curve:
        if args.pred or args.label or args.grad_out:
            raise ConfigError("--curve takes no --pred, --label or --grad-out")
        if not 0.0 <= args.label_value <= 1.0:
            raise ConfigError(f"--label-value must be in [0, 1], got {args.label_value!r}")
        if args.curve_points < 2:
            raise ConfigError(f"--curve-points must be at least 2, got {args.curve_points}")
        grid = np.linspace(0.0, 1.0, args.curve_points)
        vals = losses_mod.pairwise_values(args.loss, grid[:, None],
                                          np.full((grid.size, 1), args.label_value),
                                          bound, red.empty_both_value)
        sys.stdout.write("x,value\n")
        for x, v in zip(grid, vals):
            sys.stdout.write(f"{float(x)!r},{float(v)!r}\n")
        return 0
    if not args.pred or not args.label:
        raise ConfigError("--pred and --label are required without --curve")
    x = read_prob_field(args.pred)
    y = read_label_field(args.label)
    pair = losses_mod.loss(args.loss, x, y, red, params)
    if args.grad_out:
        write_tensor(args.grad_out, pair.grad)
    _emit({"loss": args.loss, "value": pair.value})
    return 0


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _binary_ece(pred: ProbField, label: LabelField, spec: EceSpec | None = None) -> float:
    check_same_dims(pred, label)
    if pred.n_classes > 2:
        raise ConfigError("ece supports binary tasks (C <= 2)")
    if not label.is_hard:
        raise SoftInputError("labels must be 0 or 1")
    fg = foreground_class(pred.n_classes)
    return ece(pred.array[fg].ravel(), label.array[fg].ravel() == 1.0, spec)


def cmd_eval(args) -> int:
    # the metric's flags are read before its files
    spec = {"bdice": BDiceSpec, "ece": EceSpec}.get(args.metric)
    spec = spec and _spec(args, spec)
    pred = read_prob_field(args.pred)
    label = read_label_field(args.label)
    if args.metric == "dice":
        check_same_dims(pred, label)
        if not label.is_hard:
            raise SoftInputError("dice requires a hard label")
        hard_pred = one_hot(class_map(pred.array), pred.n_classes)
        per_class = [mask_dice(hard_pred[c], label.array[c] == 1.0)
                     for c in range(pred.n_classes)]
    elif args.metric == "bdice":
        check_same_dims(pred, label)
        per_class = [_bdice(pred.array[c], label.array[c], spec.thresholds)
                     for c in range(pred.n_classes)]
    else:
        per_class = [_binary_ece(pred, label, spec)]
    value = float(np.mean(per_class))
    _emit({"metric": args.metric, "value": value, "per_class": per_class})
    return 0


# --------------------------------------------------------------------------
# make-soft-labels
# --------------------------------------------------------------------------

def _stack_from_files(paths) -> RaterStack:
    """The raters in paths as one stack. Each file is read as a LabelField,
    which checks it once, and must be hard and of the first file's dims;
    its 1s are written straight into the stack's bool array."""
    masks = np.empty(0, dtype=bool)  # no path: RaterStack raises EmptyStackError
    for k, path in enumerate(paths):
        r = read_label_field(path)
        if k == 0:
            masks = np.empty((len(paths),) + r.dims, dtype=bool)
        if r.dims != masks.shape[1:]:
            raise ShapeMismatchError(f"rater {k} has dims {r.dims}, expected {masks.shape[1:]}")
        if not r.is_hard:
            raise HardnessViolationError(f"rater {k} is not hard")
        np.equal(r.array, 1.0, out=masks[k])
    return RaterStack(masks)


@dataclass(frozen=True)
class ManifestImage:
    raters: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class SoftLabelManifest:
    """make-soft-labels --manifest: the rater files and output of each image."""
    images: tuple[ManifestImage, ...]

    def __post_init__(self):
        if not self.images:
            raise ValueError("images is empty")


def cmd_make_soft_labels(args) -> int:
    spec = _spec(args, SoftLabelSpec)
    if args.manifest:
        if args.raters or args.out:
            raise ConfigError("--manifest takes no --raters or --out")
        entries = _read_json(args.manifest, SoftLabelManifest).images
        outs = build_labels_dataset([_stack_from_files(e.raters) for e in entries], spec)
        for e, out in zip(entries, outs):
            write_field(e.out, out)
        _emit({"strategy": args.strategy, "written": [e.out for e in entries]})
        return 0
    if not args.raters or not args.out:
        raise ConfigError("--raters and --out are required without --manifest")
    if args.weights == "per_dataset":
        raise ConfigError("per_dataset weighting needs --manifest")
    label = build_labels(_stack_from_files(args.raters), spec)
    write_field(args.out, label)
    _emit({"strategy": args.strategy, "written": [args.out],
           "hardness": label.hardness})
    return 0


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    spec = _spec(args, KdeSpec)
    if args.sweep:
        if args.out:
            raise ConfigError("--sweep takes no --out")
        # every bandwidth is checked before a file is read
        bandwidths = [_spec(args, KdeSpec, bandwidth=h).bandwidth
                      for h in _float_list("--sweep", args.sweep)]
    elif not args.out:
        raise ConfigError("--out is required without --sweep")
    pred = read_prob_field(args.pred)
    label = read_label_field(args.label)
    ece_before = _binary_ece(pred, label)
    c = pred.n_classes
    conf_rows = pred.array.reshape(c, -1).T
    # the keys and the scope do not depend on the bandwidth
    keys = sample_key_points(conf_rows, label.array.reshape(c, -1).T, spec)
    # _binary_ece (ece_before) has checked the dims and that the label is hard
    scope = (None if spec.pixel_scope == SCOPE_ALL
             else select_scope_pixels(class_map(pred.array), class_map(label.array), spec))
    n_scope = len(conf_rows if scope is None else scope)

    def calibrate(h: float) -> ProbField:
        out = kde_calibrate_batch(conf_rows, keys, h, scope)
        return ProbField.from_array(out.T.reshape(pred.dims))

    if args.sweep:
        _emit({"sweep": [{"bandwidth": h, "ece_before": ece_before,
                          "ece_after": _binary_ece(calibrate(h), label),
                          "scope_pixels": n_scope} for h in bandwidths]})
        return 0
    calibrated = calibrate(spec.bandwidth)
    write_field(args.out, calibrated)
    _emit({"out": args.out, "n_key": len(keys), "scope_pixels": n_scope,
           "ece_before": ece_before, "ece_after": _binary_ece(calibrated, label)})
    return 0


# --------------------------------------------------------------------------
# gen-data and dataset IO
# --------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    """Write each image's intensity, rater and clean masks as generated."""
    spec = _spec(args, SynthSpec)
    out = Path(args.out)
    for sub in ("images", "raters", "clean"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (im, clean) in enumerate(generate_with_clean(spec)):
        img_path = f"images/img_{i:04d}.sdt"
        write_tensor(out / img_path, TensorF.from_array(im.image))
        rater_paths = []
        # a bool mask is written as the float 0/1 tensor a LabelField reads back
        for k, mask in enumerate(im.raters.masks):
            rp = f"raters/img_{i:04d}_rater_{k}.sdt"
            write_tensor(out / rp, TensorF.from_array(mask))
            rater_paths.append(rp)
        clean_path = f"clean/img_{i:04d}.sdt"
        write_tensor(out / clean_path, TensorF.from_array(one_hot(clean, spec.n_classes)))
        entries.append({"image": img_path, "raters": rater_paths,
                        "clean": clean_path})
    # gen-data has no blob_radius flag, and its manifests have never held one
    manifest = {"spec": {k: v for k, v in asdict(spec).items() if k != "blob_radius"},
                "images": entries}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    _emit({"out": str(out), "n_images": len(entries)})
    return 0


class DatasetDirError(DicesmError):
    """A dataset directory's manifest.json is not a dataset manifest."""


@dataclass(frozen=True)
class DatasetImage:
    image: str
    raters: tuple[str, ...]
    clean: str


@dataclass(frozen=True)
class DatasetManifest:
    """A gen-data directory's manifest.json: its spec and each image's files."""
    spec: SynthSpec
    images: tuple[DatasetImage, ...]


def load_dataset_dir(path) -> SynthDataset:
    """The images and rater masks that gen-data wrote to path (no clean mask
    is read). A manifest that is not JSON, lacks a key (clean included) or
    holds a bad spec is bad data, not bad usage."""
    root = Path(path)
    where = root / "manifest.json"
    try:
        manifest = from_json(DatasetManifest, json.loads(where.read_text()))
    except ValueError as e:
        raise DatasetDirError(f"{where} is malformed: {e}") from None
    return SynthDataset(manifest.spec, tuple(
        SynthImage(read_tensor(root / e.image).as_array(),
                   _stack_from_files([root / p for p in e.raters]))
        for e in manifest.images))


# --------------------------------------------------------------------------
# train / distill configs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DataSpec:
    """A config's data: exactly one of a gen-data directory or a synth spec."""
    dir: str | None = None
    synth: SynthSpec | None = None

    def __post_init__(self):
        if (self.dir is None) == (self.synth is None):
            raise ValueError("data needs exactly one of 'dir' or 'synth'")

    def load(self) -> SynthDataset:
        return load_dataset_dir(self.dir) if self.synth is None else generate_synthetic(self.synth)


@dataclass(frozen=True)
class _Config:
    """What train and distill configs share: data, SGD spec and run values."""
    data: DataSpec
    train: TrainSpec = field(default_factory=TrainSpec)
    val_fraction: float = 0.0
    eval_every: int = 1

    def __post_init__(self):
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction!r}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every!r}")


@dataclass(frozen=True)
class RunSpec(_Config):
    """A train config."""
    model: ModelSpec = field(default_factory=ModelSpec)
    out_dir: str = "train_out"


@dataclass(frozen=True)
class DistillRunSpec(_Config):
    """A distill config; its kd names the teacher's checkpoint."""
    student: ModelSpec = field(default_factory=ModelSpec)
    kd: KdSpec = field(default_factory=KdSpec)
    out_dir: str = "distill_out"

    def __post_init__(self):
        super().__post_init__()
        if not self.kd.teacher_checkpoint:
            raise ValueError("kd.teacher_checkpoint is required")


def _split(dataset: SynthDataset, val_fraction: float, seed: int):
    n = len(dataset)
    n_val = int(round(val_fraction * n))
    if n_val == n:
        raise ConfigError(f"val_fraction {val_fraction!r} leaves no training image")
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
        raise ValueError(f"config holds {token}, which is not a finite number")
    return value


def _read_json(path, cls, **parse):
    """The JSON document at path as cls, checked whole before any data is read."""
    try:
        doc = json.loads(Path(path).read_text(), **parse)
    except ValueError as e:  # not JSON, not UTF-8, or refused by a parse hook
        raise ConfigError(str(e)) from None
    return from_json(cls, doc)


def _read_config(path, cls):
    # json.loads reads NaN, Infinity and -Infinity, and 1e400 as inf
    return _read_json(path, cls, parse_float=_finite_number, parse_constant=_finite_number)


def cmd_train(args) -> int:
    run = _read_config(args.config, RunSpec)
    tr, va = _split(run.data.load(), run.val_fraction, run.train.seed)
    _finish_training(train(tr, run.model, run.train, va, run.eval_every), run.out_dir)
    return 0


def cmd_distill(args) -> int:
    run = _read_config(args.config, DistillRunSpec)
    dataset = run.data.load()
    teacher = load_model(run.kd.teacher_checkpoint)
    tr, va = _split(dataset, run.val_fraction, run.train.seed)
    _finish_training(distill(tr, teacher, run.student, run.train, run.kd, va, run.eval_every),
                     run.out_dir)
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
    seed = {"default": _default_seed()}

    p = sub.add_parser("eval-loss", formatter_class=fmt,
                       help="evaluate one loss on prediction/label tensors")
    p.add_argument("--loss", required=True, choices=losses_mod.LOSS_NAMES)
    p.add_argument("--pred", help="prediction .sdt file")
    p.add_argument("--label", help="label .sdt file")
    _add_spec_flags(p, TverskyParams)
    _add_spec_flags(p, CompoundParams, overlap={"choices": OVERLAP_NAMES})
    _add_spec_flags(p, ReductionSpec,
                    class_mode={"choices": (losses_mod.MEAN_PRESENT, losses_mod.MEAN_ALL)},
                    batch_mode={"choices": (losses_mod.PER_IMAGE_THEN_MEAN, losses_mod.POOLED)})
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
    _add_spec_flags(p, BDiceSpec)
    _add_spec_flags(p, EceSpec)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("make-soft-labels", formatter_class=fmt,
                       help="build training targets from rater annotations")
    _add_spec_flags(p, SoftLabelSpec, seed=seed, tie_break={"choices": TIE_BREAKS},
                    strategy={"required": True, "default": None, "choices": STRATEGIES},
                    weights_scope={"choices": WEIGHT_SCOPES})
    p.add_argument("--raters", nargs="+", help="one .sdt file per rater")
    p.add_argument("--out", help="output .sdt file")
    p.add_argument("--manifest", help="JSON manifest for multi-image runs")
    p.set_defaults(fn=cmd_make_soft_labels)

    p = sub.add_parser("calibrate", formatter_class=fmt,
                       help="KDE-recalibrate a probability field")
    p.add_argument("--pred", required=True)
    p.add_argument("--label", required=True)
    _add_spec_flags(p, KdeSpec, seed=seed)
    p.add_argument("--out", help="output .sdt file")
    p.add_argument("--sweep", help="comma-separated bandwidths to compare")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("gen-data", formatter_class=fmt,
                       help="generate a synthetic multi-rater dataset")
    p.add_argument("--out", required=True)
    _add_spec_flags(p, SynthSpec, blob_radius=None, seed=seed)
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
    p.add_argument("--seed", type=int, **seed)
    p.add_argument("--mutate", choices=("sign",),
                   help="inject a known bug to demonstrate suite sensitivity")
    p.set_defaults(fn=cmd_check_properties)

    return parser


def _keep_freed_memory() -> None:
    """The allocator policy of the module docstring. 32 MiB is glibc's
    ceiling for its dynamic mmap threshold."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library (Windows), or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    if argv is None:
        _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    except ConfigError as e:
        _log(f"usage error: {e}")
        return 2
    except FileNotFoundError as e:
        _log(f"missing file: {e}")
        return 1
    except DicesmError as e:
        _log(f"{type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
