"""Command-line inputs refused with one stderr line (below argparse's usage
block where argparse refuses), no traceback and nothing written: the
exit-code contract.

Exit 2, usage errors: argparse's errors and each ConfigError, raised before
any data is read. Every spec value goes through from_json, which names its
Class.key, whether a flag or a JSON document set it: spec flags at -1
(every one, from the spec classes), a train or distill config or the
soft-label manifest with a value of the wrong JSON type anywhere (every
swap from the annotations), a missing or unknown key, an empty manifest,
a value out of range, NaN or infinity, or that is not JSON. A ConfigError is
also a bad DICESM_SEED, --curve grid, comma list of numbers, or
check-properties seed or trial count, a flag combination a command refuses,
and calibrate on three classes (ECE is binary). A ValueError that no
boundary check raised keeps its traceback.
Exit 1, bad data: a missing file, an SDT1 file with a wrong magic, a header
cut short, a rank outside 1..16, a zero dim, a payload of the wrong length
or a NaN, a malformed dataset or teacher checkpoint manifest, a rater that
is not hard or leaves the simplex, inputs whose dims differ, ECE inputs off
the simplex, and a soft label where a hard one is needed. REFUSALS is the
table that takes a new case. Also: the compound curve honours its flags, and
a dataset directory trains to the same bytes with its clean/ masks deleted.
"""

import functools
import json
import math
import operator
import os
import struct
import types
import typing
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from dicesm import cli
from dicesm.calibration import KdeSpec
from dicesm.core import (ConfigError, LabelField, ProbField, TensorF, read_tensor, write_field,
                         write_tensor)
from dicesm.losses import LOSSES, CompoundParams, LossSpec, ReductionSpec, TverskyParams
from dicesm.metrics import BDiceSpec, EceSpec
from dicesm.softlabels import STRATEGIES, SoftLabelSpec
from dicesm.training import (KdSpec, ModelSpec, RaterNoise, SynthSpec, TrainSpec, build_model,
                             loop, save_model)


@pytest.fixture(autouse=True)
def _in_tmp_path(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)


def _refused(capsys, code, expected, *texts, absent=()):
    """The run exited expected, with nothing on stdout and one stderr line
    (below argparse's usage block, if argparse refused) that holds each of
    texts and no traceback, and wrote none of absent."""
    captured = capsys.readouterr()
    assert (code, captured.out) == (expected, "") and "Traceback" not in captured.err
    err = captured.err
    if err.startswith("usage: "):
        err = err[err.rstrip("\n").rfind("\n") + 1:]
    assert err.count("\n") == 1 and err.endswith("\n")
    assert all(t in err for t in texts) and not any(map(os.path.exists, absent))


def _curve(capsys, *argv):
    code = cli.main(["eval-loss", "--curve", *argv])
    return code, capsys.readouterr().out


def test_bad_dicesm_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("DICESM_SEED", "abc")
    code = cli.main(["gen-data", "--out", "d", "--n-images", "1"])
    _refused(capsys, code, 2, "DICESM_SEED", absent=["d"])


@pytest.mark.parametrize("argv", [["--label-value", "1.5"], ["--label-value", "-0.1"],
                                  ["--label-value", "nan"], ["--curve-points", "0"],
                                  ["--curve-points", "1"],
                                  ["--loss", "ctl", "--alpha", "nan"],
                                  ["--loss", "ctl", "--beta", "inf"],
                                  ["--loss", "compound", "--w-ce", "nan"],
                                  ["--loss", "cftl", "--gamma", "nan"]])
def test_curve_rejects_bad_grid(argv, capsys):
    code, out = _curve(capsys, "--loss", "dml1", *argv)
    assert (code, out) == (2, "")


def test_curve_of_two_points(capsys):
    code, out = _curve(capsys, "--loss", "dml1", "--curve-points", "2", "--label-value", "1")
    assert (code, out) == (0, "x,value\n0.0,1.0\n1.0,0.0\n")


def test_compound_curve_uses_its_flags(capsys):
    _, default = _curve(capsys, "--loss", "compound")
    _, ce_only = _curve(capsys, "--loss", "compound", "--w-ce", "1", "--w-dml", "0")
    _, ce = _curve(capsys, "--loss", "ce")
    _, dml2_only = _curve(capsys, "--loss", "compound", "--w-ce", "0", "--w-dml", "1",
                          "--overlap", "dml2")
    _, dml2 = _curve(capsys, "--loss", "dml2")
    assert ce_only == ce != default
    assert dml2_only == dml2 != default


@pytest.mark.parametrize("val_fraction,code", [(-0.5, 2), (1.0, 2), (1.5, 2), ("half", 2),
                                               (0.5, 0)])
def test_val_fraction_range(val_fraction, code, tmp_path, capsys):
    (tmp_path / "c.json").write_text(json.dumps({
        "data": {"synth": {"n_images": 4, "height": 8, "width": 8, "k_raters": 2}},
        "train": {"epochs": 1, "batch_size": 2}, "val_fraction": val_fraction,
        "eval_every": 0, "out_dir": "out"}))
    assert cli.main(["train", "--config", "c.json"]) == code
    assert (tmp_path / "out").exists() == (code == 0)


def _gen_data(out, n_images=4, *flags):
    assert cli.main(["gen-data", "--out", str(out), "--n-images", str(n_images),
                     "--height", "8", "--width", "8", "--k-raters", "2", *flags]) == 0


@pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
def test_bad_image_noise_writes_nothing(noise, capsys):
    code = cli.main(["gen-data", "--out", "d", "--n-images", "1", f"--image-noise={noise}"])
    _refused(capsys, code, 2, "image_noise must be nonnegative and finite", absent=["d"])


@pytest.mark.parametrize("env,flags", [(None, ["--seed", "-1"]), ("-1", [])],
                         ids=["flag", "DICESM_SEED"])
def test_negative_seed_writes_nothing(env, flags, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("DICESM_SEED", env)
    code = cli.main(["gen-data", "--out", "d", "--n-images", "1", *flags])
    _refused(capsys, code, 2, "seed must be nonnegative, got -1", absent=["d"])


def test_val_fraction_that_takes_every_image(tmp_path, capsys):
    # round(0.9 * 4) == 4: no image would be left to train on
    _gen_data(tmp_path / "data")
    (tmp_path / "c.json").write_text(json.dumps({
        "data": {"dir": "data"}, "train": {"epochs": 1}, "val_fraction": 0.9,
        "eval_every": 0, "out_dir": "out"}))
    capsys.readouterr()
    _refused(capsys, cli.main(["train", "--config", "c.json"]), 2, "val_fraction", absent=["out"])


# data names a directory that does not exist, which would exit 1 if it
# were read before the config's values are checked
@pytest.mark.parametrize("command,key,value,message", [
    ("train", "eval_every", -1, "RunSpec.eval_every: eval_every must be >= 0, got -1"),
    ("distill", "val_fraction", 1.0,
     "DistillRunSpec.val_fraction: val_fraction must be in [0, 1), got 1.0"),
], ids=["eval_every_negative", "val_fraction"])
def test_mistyped_config_value_is_a_usage_error(command, key, value, message, capsys):
    Path("c.json").write_text(json.dumps({"data": {"dir": "missing"}, "out_dir": "out",
                                          key: value}))
    _refused(capsys, cli.main([command, "--config", "c.json"]), 2, message, absent=["out"])


def _synth_config(**synth):
    return {"data": {"synth": {"n_images": 2, "height": 8, "width": 8, "k_raters": 2, **synth}},
            "train": {"epochs": 1}}


RATERS = ["data/raters/img_0000_rater_0.sdt", "data/raters/img_0000_rater_1.sdt"]
MANIFEST_IMAGE = {"raters": RATERS, "out": "soft.sdt"}

# (command, JSON document, what the one stderr line says); the document is a
# config, or the manifest of make-soft-labels, refused whole: no soft label
# is written for a manifest's good first image
JSON_USAGE_ERRORS = {
    "negative_radius": ("train", {**_synth_config(), "model": {"radii": [1, -1]}},
                        "radii must be nonnegative, got (1, -1)"),
    "train_without_data": ("train", {"train": {"epochs": 1}}, "RunSpec needs the keys ['data']"),
    "distill_without_data": ("distill", {}, "DistillRunSpec needs the keys ['data']"),
    "distill_model": ("distill", {**_synth_config(), "kd": {"teacher_checkpoint": "t"},
                                  "model": {}}, "unknown DistillRunSpec keys: ['model']"),
    "train_kd": ("train", {**_synth_config(), "kd": {}, "student": {}},
                 "unknown RunSpec keys: ['kd', 'student']"),
    "three_classes": ("train", _synth_config(n_classes=3), "n_classes must be 1 or 2"),
    "no_raters": ("train", _synth_config(k_raters=0), "k_raters must be positive"),
    "blob_radius_reversed": ("train", _synth_config(blob_radius=[0.3, 0.1]),
                             "bad blob_radius range (0.3, 0.1)"),
    "manifest_without_raters": ("make-soft-labels", {"images": [{"out": "soft.sdt"}]},
                                "ManifestImage needs the keys ['raters']"),
    "manifest_without_out": ("make-soft-labels", {"images": [{"raters": RATERS}]},
                             "ManifestImage needs the keys ['out']"),
    "manifest_without_images": ("make-soft-labels", {},
                                "SoftLabelManifest needs the keys ['images']"),
}


def _run_document(command, doc):
    Path("doc.json").write_text(json.dumps(doc))
    if command == "make-soft-labels":
        return cli.main([command, "--strategy", "uniform_avg", "--manifest", "doc.json"])
    return cli.main([command, "--config", "doc.json"])


@pytest.mark.parametrize("case", sorted(JSON_USAGE_ERRORS))
def test_json_document_usage_error(case, capsys):
    command, doc, message = JSON_USAGE_ERRORS[case]
    _gen_data("data", n_images=1)
    capsys.readouterr()
    _refused(capsys, _run_document(command, doc), 2, message)
    assert sorted(os.listdir()) == ["data", "doc.json"]


def _doc(obj):
    """A setup that writes obj as doc.json."""
    return lambda: Path("doc.json").write_text(json.dumps(obj))


def _sdt_header(*dims) -> bytes:
    return b"SDT1" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)


def _sdt_files():
    """A hard C == 1 label.sdt and, for it, a pred.sdt, a soft.sdt label, a
    small.sdt of other dims, and predictions that read_tensor refuses:
    bad.sdt's magic is not SDT1, cut.sdt ends inside its dims, rank0.sdt and
    rank17.sdt have a rank outside 1..16, zero_dim.sdt has a zero dim,
    long.sdt one float more than its dims hold and nan.sdt a NaN."""
    fg = np.arange(16).reshape(1, 4, 4) % 3 == 0
    for name, a in [("label", fg), ("pred", 0.2 + 0.6 * fg), ("soft", np.full((1, 4, 4), 0.5)),
                    ("small", np.full((1, 3, 3), 0.5))]:
        write_tensor(f"{name}.sdt", TensorF.from_array(a.astype(np.float64)))
    raw = Path("pred.sdt").read_bytes()
    nan = np.array([np.nan], dtype="<f4").tobytes()
    for name, data in [("bad", b"XXXX" + raw[4:]), ("cut", raw[:14]), ("rank0", _sdt_header()),
                       ("rank17", _sdt_header(*[1] * 17) + raw[-4:]),
                       ("zero_dim", _sdt_header(1, 0, 4)), ("long", raw + raw[-4:]),
                       ("nan", raw[:-4] + nan)]:
        Path(f"{name}.sdt").write_bytes(data)


def _label_manifest():
    """_sdt_files, and a doc.json manifest that would make soft.sdt from
    label.sdt."""
    _sdt_files()
    _doc({"images": [{"raters": ["label.sdt", "label.sdt"], "out": "soft.sdt"}]})()


def _eval_dice(pred):
    return ["eval", "--metric", "dice", "--pred", pred, "--label", "label.sdt"]


def _config(text, command="train", **keys):
    """A REFUSALS row: doc.json, a config with keys whose data directory
    does not exist (reading it would exit 1), exits 2 saying text."""
    return (_doc({"data": {"dir": "data"}, "train": {"epochs": 1}, "out_dir": "o", **keys}),
            [command, "--config", "doc.json"], 2, text)


MANIFEST_ARGV = ["make-soft-labels", "--manifest", "doc.json", "--strategy"]
FILES = ["--pred", "pred.sdt", "--label", "label.sdt"]
SEED = "seed must be nonnegative, got -1"
SGD = "momentum, weight_decay and poly_power must be nonnegative and finite"

# (setup, argv, exit code, what the one stderr line says); no row writes a
# file beyond its setup
REFUSALS = {
    "malformed_json": (lambda: Path("doc.json").write_text("{not json"),
                       ["train", "--config", "doc.json"], 2, "Expecting property name"),
    "manifest_unknown_key": (_doc({"images": [], "bogus": 1}), MANIFEST_ARGV + ["majority"], 2,
                             "unknown SoftLabelManifest keys: ['bogus']"),
    "manifest_empty": (_doc({"images": []}), MANIFEST_ARGV + ["uniform_avg"], 2,
                       "SoftLabelManifest: images is empty"),
    "manifest_empty_per_dataset": (_doc({"images": []}), MANIFEST_ARGV + [
        "weighted_avg", "--weights", "per_dataset"], 2, "SoftLabelManifest: images is empty"),
    "epsilon_flag": (None, ["make-soft-labels", "--strategy", "label_smoothing", "--epsilon", "2",
                            "--raters", "a.sdt", "--out", "soft.sdt"], 2,
                     "SoftLabelSpec.epsilon: epsilon 2.0 outside [0, 1)"),
    "epsilon_config": (_doc({**_synth_config(), "train": {"label_source": {
        "strategy": "label_smoothing", "epsilon": 2}}}), ["train", "--config", "doc.json"], 2,
        "SoftLabelSpec.epsilon: epsilon 2 outside [0, 1)"),
    "properties_seed": (None, ["check-properties", "--seed", "-1"], 2,
                        "seed must be nonnegative, got -1"),
    "properties_trials_negative": (None, ["check-properties", "--trials", "-5"], 2,
                                   "trials must be at least 1, got -5"),
    "properties_trials_zero": (None, ["check-properties", "--trials", "0"], 2,
                               "trials must be at least 1, got 0"),
    "manifest_with_raters": (_label_manifest, MANIFEST_ARGV + [
        "uniform_avg", "--raters", "label.sdt"], 2, "usage error: --manifest takes no --raters"),
    "manifest_with_out": (_label_manifest, MANIFEST_ARGV + ["uniform_avg", "--out", "x.sdt"], 2,
                          "usage error: --manifest takes no --raters or --out"),
    "manifest_rater_counts": (
        lambda: _sdt_files() or _doc({"images": [{"raters": ["label.sdt"], "out": "x.sdt"},
                                                 {"raters": ["label.sdt"] * 2, "out": "y.sdt"}]})(),
        MANIFEST_ARGV + ["weighted_avg", "--weights", "per_dataset"], 2,
        "usage error: per_dataset weighting needs a common rater count"),
    "sweep_with_out": (_sdt_files, ["calibrate", *FILES, "--sweep", "0.01", "--out", "cal.sdt"],
                       2, "usage error: --sweep takes no --out"),
    "curve_with_files": (_sdt_files, ["eval-loss", "--loss", "dml1", "--curve", *FILES,
                                      "--grad-out", "g.sdt"], 2,
                         "usage error: --curve takes no --pred, --label or --grad-out"),
    "thresholds_not_numbers": (_sdt_files, ["eval", "--metric", "bdice", *FILES, "--thresholds",
                                            "0.5,abc"], 2,
                               "--thresholds takes comma-separated numbers, got '0.5,abc'"),
    "sweep_not_numbers": (_sdt_files, ["calibrate", *FILES, "--sweep", "0.01,abc"], 2,
                          "--sweep takes comma-separated numbers, got '0.01,abc'"),
    "eval_loss_without_files": (None, ["eval-loss", "--loss", "dml1"], 2,
                                "usage error: --pred and --label are required without --curve"),
    "argparse_unknown_flag": (None, ["eval", *FILES, "--metric", "dice", "--bogus"], 2,
                              "dicesm: error: unrecognized arguments: --bogus"),
    "argparse_unknown_command": (None, ["frobnicate"], 2, "invalid choice: 'frobnicate'"),
    "argparse_unknown_loss": (None, ["eval-loss", "--loss", "dice", "--curve"], 2,
                              "argument --loss: invalid choice: 'dice'"),
    "argparse_overlap_ce": (None, ["eval-loss", "--loss", "compound", "--overlap", "ce",
                                   "--curve"], 2, "argument --overlap: invalid choice: 'ce'"),
    "config_top_level": _config("unknown RunSpec keys: ['bogus']", bogus=1),
    "config_train_key": _config("unknown TrainSpec keys: ['bogus']",
                                train={"epochs": 1, "bogus": 1}),
    "config_train_reduction": _config("unknown ReductionSpec keys: ['bogus']",
                                      train={"reduction": {"bogus": 1}}),
    "config_train_loss": _config("unknown LossSpec keys: ['bogus']",
                                 train={"loss": {"name": "dml1", "bogus": 1}}),
    "config_train_loss_params": _config("unknown TverskyParams keys: ['bogus']", train={
        "loss": {"name": "ctl", "params": {"bogus": 1}}}),
    "config_plain_loss_params": _config(
        "LossSpec.params: loss 'dml1' takes no params, got ['alpha']",
        train={"loss": {"name": "dml1", "params": {"alpha": 0.5}}}),
    "config_unknown_loss": _config("LossSpec.name: unknown loss 'dice'",
                                   train={"loss": {"name": "dice"}}),
    "config_label_source": _config("unknown SoftLabelSpec keys: ['bogus']",
                                   train={"label_source": {"bogus": 1}}),
    "config_model": _config("unknown ModelSpec keys: ['bogus']", model={"bogus": 1}),
    "config_data_key": _config("unknown DataSpec keys: ['bogus']",
                               data={"dir": "data", "bogus": 1}),
    "config_data_both": _config("DataSpec.synth: data needs exactly one of 'dir' or 'synth'",
                                data={"dir": "data", "synth": {}}),
    "config_synth": _config("unknown SynthSpec keys: ['bogus']", data={"synth": {"bogus": 1}}),
    "config_synth_noise": _config("unknown RaterNoise keys: ['bogus']",
                                  data={"synth": {"noise": {"bogus": 1}}}),
    "config_kd_key": _config("unknown KdSpec keys: ['bogus']", "distill", kd={"bogus": 1}),
    "config_kd_kde": _config("unknown KdeSpec keys: ['bogus']", "distill",
                             kd={"teacher_checkpoint": "t", "kde": {"bogus": 1}}),
    "config_kd_no_teacher": _config("DistillRunSpec: kd.teacher_checkpoint is required",
                                    "distill", kd={}),
    "config_bad_value": _config("TrainSpec.lr0: lr0 must be positive and finite",
                                train={"lr0": -1.0}),
    "config_momentum": _config(f"TrainSpec.momentum: {SGD}", train={"momentum": -5.0}),
    "config_weight_decay": _config(f"TrainSpec.weight_decay: {SGD}", train={"weight_decay": -1.0}),
    "config_poly_power": _config(f"TrainSpec.poly_power: {SGD}", train={"poly_power": -1.0}),
    "config_seed_synth": _config(f"SynthSpec.seed: {SEED}", data={"synth": {"seed": -1}}),
    "config_seed_train": _config(f"TrainSpec.seed: {SEED}", train={"seed": -1}),
    "config_seed_label_source": _config(f"SoftLabelSpec.seed: {SEED}",
                                        train={"label_source": {"seed": -1}}),
    "config_seed_model": _config(f"ModelSpec.seed: {SEED}", model={"seed": -1}),
    "config_seed_kde": _config(f"KdeSpec.seed: {SEED}", "distill",
                               kd={"teacher_checkpoint": "t", "kde": {"seed": -1}}),
    "missing_file": (_sdt_files, _eval_dice("missing.sdt"), 1, "missing file"),
    "bad_magic": (_sdt_files, _eval_dice("bad.sdt"), 1, "BadMagicError"),
    "sdt_cut_in_header": (_sdt_files, _eval_dice("cut.sdt"), 1, "TruncatedFileError"),
    "sdt_rank_0": (_sdt_files, _eval_dice("rank0.sdt"), 1, "DimOverflowError"),
    "sdt_rank_17": (_sdt_files, _eval_dice("rank17.sdt"), 1, "DimOverflowError"),
    "sdt_zero_dim": (_sdt_files, _eval_dice("zero_dim.sdt"), 1, "DimOverflowError"),
    "sdt_payload_length": (_sdt_files, _eval_dice("long.sdt"), 1, "TruncatedFileError"),
    "sdt_nan_payload": (_sdt_files, _eval_dice("nan.sdt"), 1, "NonFiniteError"),
    "dims_eval_loss": (_sdt_files, ["eval-loss", "--loss", "dml1", "--pred", "small.sdt",
                                    "--label", "label.sdt"], 1, "ShapeMismatchError"),
    "dims_eval_dice": (_sdt_files, _eval_dice("small.sdt"), 1, "ShapeMismatchError"),
    "soft_label_guard": (_sdt_files, ["eval-loss", "--loss", "stl", "--pred", "pred.sdt",
                                      "--label", "soft.sdt"], 1, "SoftLabelIncompatibleError"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused(case, capsys):
    setup, argv, code, text = REFUSALS[case]
    if setup is not None:
        setup()
    before = sorted(os.listdir())
    _refused(capsys, cli.main(argv), code, text)
    assert sorted(os.listdir()) == before


def _specs(cls) -> set:
    """cls and every spec class reachable from its fields: union members,
    tuple elements and, behind LossSpec.params, each loss's params class."""
    subs = [a for tp in typing.get_type_hints(cls).values() for a in (tp, *typing.get_args(tp))
            if is_dataclass(a)]
    if cls is LossSpec:
        subs += [entry.params for entry in LOSSES.values() if entry.params is not None]
    return {cls}.union(*map(_specs, subs))


def test_no_config_field_is_a_bare_tuple_or_list():
    specs = set().union(*map(_specs, (cli.RunSpec, cli.DistillRunSpec, cli.SoftLabelManifest,
                                      *FLAGGED_SPECS)))
    assert [f"{c.__name__}.{k}" for c in specs for k, tp in typing.get_type_hints(c).items()
            if {tp, *typing.get_args(tp)} & {tuple, list}] == []


def _wrong(tp) -> list:
    """JSON values that annotation tp refuses by type: NaN, a string, a bool
    for a number, a float for an int, an int, null, an object, and lists of
    a wrong element or length."""
    alts = typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
    tuples = [typing.get_args(a) for a in alts if typing.get_origin(a) is tuple]
    wrong = [math.nan] + [w for w, takers in [("0", {str}), (True, {bool}), (0.5, {float}),
                                               (1, {int, float}), (None, {type(None)})]
                          if not takers & set(alts)]
    wrong += [] if any(is_dataclass(a) or a is dict for a in alts) else [{}]
    wrong += [] if tuples else [[0]]
    for args in tuples:
        n = 1 if args[-1] is ... else len(args)
        wrong += [[w] * n for w in _wrong(args[0])[1:] if not isinstance(w, list)]
        wrong += [] if args[-1] is ... else [[0] * (n - 1), [0] * (n + 1)]
    return wrong


def _swaps(doc, cls, path=()):
    """(path, what from_json says, wrong value) for each key of doc, the
    JSON of a cls, and of each object in it: a section, a loss's params, a
    manifest's last image."""
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        tp = hints[key]
        shown = tp.__name__ if isinstance(tp, type) else tp
        yield from (((*path, key), f"{cls.__name__}.{key} must be {shown}, got {w!r}", w)
                    for w in _wrong(tp))
        inner = [a for a in (tp, *typing.get_args(tp)) if is_dataclass(a)]
        inner = [LOSSES[doc["name"]].params] if (cls, key) == (LossSpec, "params") else inner
        if isinstance(value, dict):
            yield from _swaps(value, inner[0], (*path, key))
        elif isinstance(value, list) and inner:
            yield from _swaps(value[-1], inner[0], (*path, key, len(value) - 1))


# every key of every spec set, a loss's params included
_TRAIN = json.loads(json.dumps(asdict(cli.RunSpec(
    data=cli.DataSpec(synth=SynthSpec(n_images=2, height=8, width=8, k_raters=2)),
    train=TrainSpec(epochs=1, loss=LossSpec(params=asdict(CompoundParams())))))))
_DISTILL = {**{k: v for k, v in _TRAIN.items() if k != "model"},
            "student": _TRAIN["model"], "kd": asdict(KdSpec(teacher_checkpoint="teacher"))}
FUZZ_CASES = [(command, doc, *swap) for command, cls, doc in [
    ("train", cli.RunSpec, _TRAIN), ("distill", cli.DistillRunSpec, _DISTILL),
    ("make-soft-labels", cli.SoftLabelManifest, {"images": [MANIFEST_IMAGE] * 2})]
    for swap in _swaps(doc, cls)]


def test_wrong_json_type_anywhere_is_a_usage_error(capsys):
    """Every swap exits 2 naming its Class.key, annotation and value, except
    a NaN in a config, which the config reader refuses as a literal before
    any key is read."""
    _gen_data("data", n_images=1)
    capsys.readouterr()
    for command, doc, path, message, wrong in FUZZ_CASES:
        doc = json.loads(json.dumps(doc))
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = wrong
        nan_literal = (isinstance(wrong, float) and math.isnan(wrong)
                       and command != "make-soft-labels")
        _refused(capsys, _run_document(command, doc), 2,
                 "config holds NaN" if nan_literal else message)
        assert sorted(os.listdir()) == ["data", "doc.json"], (path, wrong)


# each spec class whose fields a command flags, and that command's other
# arguments; gen-data flags no blob_radius
FLAGGED_SPECS = {
    TverskyParams: ["eval-loss", "--loss", "ctl", *FILES],
    CompoundParams: ["eval-loss", "--loss", "compound", *FILES],
    ReductionSpec: ["eval-loss", "--loss", "dml1", *FILES],
    BDiceSpec: ["eval", "--metric", "bdice", *FILES],
    EceSpec: ["eval", "--metric", "ece", *FILES],
    SoftLabelSpec: ["make-soft-labels", "--strategy", "label_smoothing", "--raters", "r.sdt",
                    "--out", "soft.sdt"],
    KdeSpec: ["calibrate", *FILES, "--out", "cal.sdt"],
    SynthSpec: ["gen-data", "--out", "data"],
    RaterNoise: ["gen-data", "--out", "data"],
}


def test_out_of_range_spec_flag_is_a_usage_error(capsys):
    """-1 is out of range for every spec flag and no choice: each exits 2
    before a file is read, naming the Class.key its spec refuses or, for a
    choice, argparse naming the flag."""
    cases = [(cls, f.name, tp, flag) for cls in FLAGGED_SPECS
             for f, tp, flags in cli._spec_fields(cls)
             if f.name != "blob_radius" and not is_dataclass(tp) for flag in flags]
    assert len(cases) == 31
    for cls, key, tp, flag in cases:
        _refused(capsys, cli.main([*FLAGGED_SPECS[cls], f"{flag}=-1"]), 2,
                 f"argument {flag}: invalid choice: '-1'" if tp is str
                 else f"usage error: {cls.__name__}.{key}: ")
        assert os.listdir() == [], flag


def test_a_value_error_inside_a_run_keeps_its_traceback(monkeypatch, capsys):
    """No boundary check raised it, so main lets it through: it is a bug."""
    def step(*args):
        raise ValueError("step")

    monkeypatch.setattr(loop, "_batch_step", step)
    _doc({**_synth_config(), "eval_every": 0, "out_dir": "out"})()
    with pytest.raises(ValueError, match="^step$") as raised:
        cli.main(["train", "--config", "doc.json"])
    assert not isinstance(raised.value, ConfigError) and not os.path.exists("out")


def test_dataset_manifest_without_clean_is_bad_data(tmp_path, capsys):
    _gen_data(tmp_path / "data")
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    del manifest["images"][2]["clean"]
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "c.json").write_text(json.dumps({"data": {"dir": "data"},
                                                 "train": {"epochs": 1}, "out_dir": "out"}))
    capsys.readouterr()
    _refused(capsys, cli.main(["train", "--config", "c.json"]), 1, "clean", absent=["out"])


def test_dataset_trains_the_same_without_its_clean_masks(tmp_path, capsys):
    import shutil

    _gen_data(tmp_path / "with")
    shutil.copytree(tmp_path / "with", tmp_path / "without")
    shutil.rmtree(tmp_path / "without" / "clean")
    runs = {}
    for name in ("with", "without"):
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "data": {"dir": name}, "model": {"n_classes": 1},
            "train": {"epochs": 2, "batch_size": 2, "lr0": 1.0,
                      "label_source": {"strategy": "uniform_avg"}},
            "eval_every": 1, "out_dir": "out"}))
        capsys.readouterr()
        assert cli.main(["train", "--config", f"{name}.json"]) == 0
        out = tmp_path / "out"
        runs[name] = (capsys.readouterr().out,
                      {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                       if p.is_file()})
        shutil.rmtree(out)
    assert runs["with"][1] and runs["with"] == runs["without"]


@pytest.mark.parametrize("corrupt", [
    lambda m: "{not json", lambda m: "[1, 2]",
    lambda m: json.dumps({**m, "spec": {**m["spec"], "bogus": 1}}),
    lambda m: json.dumps({**m, "spec": {**m["spec"], "noise": {"dilate_erode_radius": [0.5, 1]}}}),
    lambda m: json.dumps({**m, "images": [{**m["images"][0], "bogus": 1}, *m["images"][1:]]}),
], ids=["not_json", "list", "unknown_spec_key", "radius_float", "unknown_image_key"])
def test_malformed_dataset_manifest_is_bad_data(corrupt, tmp_path, capsys):
    _gen_data(tmp_path / "data")
    path = tmp_path / "data" / "manifest.json"
    path.write_text(corrupt(json.loads(path.read_text())))
    (tmp_path / "c.json").write_text(json.dumps({"data": {"dir": "data"},
                                                 "train": {"epochs": 1}, "out_dir": "out"}))
    capsys.readouterr()
    _refused(capsys, cli.main(["train", "--config", "c.json"]), 1, "manifest.json",
             absent=["out"])


@pytest.mark.parametrize("corrupt", [
    lambda m: "{not json",
    lambda m: json.dumps({k: v for k, v in m.items() if k != "params"}),
    lambda m: "5",
    lambda m: json.dumps({k: v for k, v in m.items() if k != "seed"}),
    lambda m: json.dumps({**m, "bogus": 1}),
    lambda m: json.dumps({**m, "seed": "0"}),
    lambda m: json.dumps({**m, "channels": 2.0}),
    lambda m: json.dumps({**m, "n_classes": True}),
    lambda m: json.dumps({**m, "radii": [1.9]}),
    lambda m: json.dumps({**m, "radii": ["2"]}),
    lambda m: json.dumps({**m, "radii": [True]}),
    lambda m: json.dumps({**m, "radii": [1.9, "2", True]}),
], ids=["not_json", "no_params", "number", "no_seed", "unknown_key", "seed_str",
        "channels_float", "n_classes_bool", "radii_float", "radii_str", "radii_bool",
        "radii_mixed"])
def test_malformed_teacher_checkpoint_is_bad_data(corrupt, tmp_path, capsys):
    save_model(build_model(ModelSpec(feature_set="intensity")), tmp_path / "teacher")
    path = tmp_path / "teacher" / "manifest.json"
    path.write_text(corrupt(json.loads(path.read_text())))
    (tmp_path / "c.json").write_text(json.dumps({
        "data": {"synth": {"n_images": 2, "height": 8, "width": 8, "k_raters": 2}},
        "train": {"epochs": 1}, "kd": {"teacher_checkpoint": "teacher"},
        "eval_every": 0, "out_dir": "out"}))
    _refused(capsys, cli.main(["distill", "--config", "c.json"]), 1, "manifest.json",
             absent=["out"])


@pytest.mark.parametrize("extra", [["--out", "cal.sdt"], ["--sweep", "0.01,0.1"]])
def test_calibrate_refuses_three_classes(extra, capsys):
    rng = np.random.default_rng(3)
    write_field("pred.sdt", ProbField.from_array(
        rng.dirichlet(np.ones(3), size=(8, 8)).transpose(2, 0, 1)))
    winner = rng.integers(0, 3, size=(8, 8))
    write_field("label.sdt", LabelField.from_array(
        (np.arange(3)[:, None, None] == winner).astype(np.float64)))
    code = cli.main(["calibrate", "--pred", "pred.sdt", "--label", "label.sdt", *extra])
    _refused(capsys, code, 2, "ece supports binary tasks (C <= 2)", absent=["cal.sdt"])


# (prediction, label) arrays of different dims: two classes against one, and
# the same pixel count in another (H, W)
ECE_DIMS_MISMATCHES = {
    "classes": (np.full((2, 8, 8), 0.5), np.zeros((1, 8, 8))),
    "height_width": (np.full((1, 2, 8), 0.5), np.zeros((1, 4, 4))),
}


@pytest.mark.parametrize("argv", [["eval", "--metric", "ece"], ["calibrate", "--out", "cal.sdt"]])
@pytest.mark.parametrize("case", sorted(ECE_DIMS_MISMATCHES))
def test_ece_refuses_mismatched_dims(case, argv, capsys):
    pred, label = ECE_DIMS_MISMATCHES[case]
    write_field("pred.sdt", ProbField.from_array(pred))
    write_field("label.sdt", LabelField.from_array(label))
    code = cli.main([*argv, "--pred", "pred.sdt", "--label", "label.sdt"])
    _refused(capsys, code, 1, "ShapeMismatchError", absent=["cal.sdt"])


def _off_simplex_files(bad):
    """Two-class pred.sdt and label.sdt on a 16x16 grid, written as raw
    tensors. bad == "label": the label's background channel is all 1, so its
    foreground pixels sum to 2. bad == "pred": one pred row sums to 1.5."""
    rng = np.random.default_rng(5)
    p = rng.random((16, 16))
    fg = (p > 0.5).astype(np.float64)
    pred, label = np.stack([1.0 - p, p]), np.stack([1.0 - fg, fg])
    if bad == "label":
        label[0] = 1.0
    else:
        pred[:, 3, 4] = 0.75
    write_tensor("pred.sdt", TensorF.from_array(pred))
    write_tensor("label.sdt", TensorF.from_array(label))


@pytest.mark.parametrize("bad,argv", [
    ("label", ["calibrate", "--scope", "all", "--out", "cal.sdt"]),
    ("label", ["eval", "--metric", "ece"]),
    ("pred", ["eval", "--metric", "ece"]),
])
def test_ece_rejects_rows_off_the_simplex(bad, argv, capsys):
    _off_simplex_files(bad)
    code = cli.main([*argv, "--pred", "pred.sdt", "--label", "label.sdt"])
    _refused(capsys, code, 1, "SimplexViolationError", absent=["cal.sdt"])


# a rater must be hard: 0.5 makes a soft label, 1.5 leaves the [0, 1] range
BAD_RATER_VALUES = [(0.5, "HardnessViolationError"), (1.5, "OutOfRangeError")]
BAD_C2_RATER = "data/raters/img_0002_rater_1.sdt"


@pytest.mark.parametrize("argv", [["calibrate", "--out", "cal.sdt"],
                                  ["calibrate", "--sweep", "0.01,0.1"],
                                  ["eval", "--metric", "dice"]])
def test_soft_label_where_a_hard_one_is_needed(argv, capsys):
    rng = np.random.default_rng(6)
    p, q = rng.random((2, 8, 8))
    write_field("pred.sdt", ProbField.from_array(np.stack([1.0 - p, p])))
    write_field("label.sdt", LabelField.from_array(np.stack([1.0 - q, q])))
    code = cli.main([*argv, "--pred", "pred.sdt", "--label", "label.sdt"])
    _refused(capsys, code, 1, "SoftInputError", absent=["cal.sdt"])


@pytest.mark.parametrize("value,error", BAD_RATER_VALUES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_make_soft_labels_rejects_a_bad_rater(strategy, value, error, capsys):
    good = (np.arange(16).reshape(1, 4, 4) % 3 == 0).astype(np.float64)
    write_field("a.sdt", LabelField.from_array(good))
    bad = good.copy()
    bad[0, 1, 2] = value
    write_tensor("b.sdt", TensorF.from_array(bad))
    code = cli.main(["make-soft-labels", "--strategy", strategy,
                     "--raters", "a.sdt", "b.sdt", "a.sdt", "--out", "soft.sdt"])
    _refused(capsys, code, 1, error, absent=["soft.sdt"])


@pytest.mark.parametrize("value,error", BAD_RATER_VALUES)
def test_train_rejects_a_bad_rater(value, error, tmp_path, capsys):
    _gen_data(tmp_path / "data")
    path = tmp_path / "data" / "raters" / "img_0002_rater_1.sdt"
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    (tmp_path / "c.json").write_text(json.dumps({"data": {"dir": "data"},
                                                 "train": {"epochs": 1}, "out_dir": "out"}))
    capsys.readouterr()
    _refused(capsys, cli.main(["train", "--config", "c.json"]), 1, error, absent=["out"])


@pytest.mark.parametrize("marked", [0, 2], ids=["no_class", "two_classes"])
@pytest.mark.parametrize("argv", [["train", "--config", "c.json"],
                                  ["make-soft-labels", "--strategy", "uniform_avg", "--out", "out",
                                   "--raters", "data/raters/img_0002_rater_0.sdt", BAD_C2_RATER]],
                         ids=["train", "make_soft_labels"])
def test_two_class_rater_off_the_simplex(argv, marked, tmp_path, capsys):
    _gen_data("data", 4, "--n-classes", "2")
    masks = read_tensor(BAD_C2_RATER).as_array().copy()
    masks[:, 3, 4] = marked // 2
    write_tensor(BAD_C2_RATER, TensorF.from_array(masks))
    (tmp_path / "c.json").write_text(json.dumps({"data": {"dir": "data"}, "out_dir": "out"}))
    capsys.readouterr()
    _refused(capsys, cli.main(argv), 1, "SimplexViolationError", absent=["out"])


def _two_class_field() -> None:
    rng = np.random.default_rng(4)
    p = rng.random((8, 8))
    write_field("pred.sdt", ProbField.from_array(np.stack([1.0 - p, p])))
    fg = (p > 0.5).astype(np.float64)
    write_field("label.sdt", LabelField.from_array(np.stack([1.0 - fg, fg])))


@pytest.mark.parametrize("flags", [["--bandwidth", "nan", "--out", "cal.sdt"],
                                   ["--bandwidth", "inf", "--out", "cal.sdt"],
                                   ["--sweep", "1e-3,nan"], ["--sweep", "nan,1e-3"]])
def test_calibrate_rejects_a_bad_bandwidth(flags, capsys):
    _two_class_field()
    code = cli.main(["calibrate", "--pred", "pred.sdt", "--label", "label.sdt", *flags])
    _refused(capsys, code, 2, "bandwidth must be positive and finite", absent=["cal.sdt"])


# (command, path to the key in the config); each run exits 0 with a finite
# value in its place
NUMBER_KEYS = {
    "kd_weight": ("distill", ("kd", "kd_weight")),
    "kde_bandwidth": ("distill", ("kd", "kde", "bandwidth")),
    "lr0": ("train", ("train", "lr0")),
    "momentum": ("train", ("train", "momentum")),
}


def _config_with(command, path, literal) -> str:
    cfg = {"data": {"synth": {"n_images": 2, "height": 8, "width": 8, "k_raters": 2}},
           "train": {"epochs": 1}, "eval_every": 0, "out_dir": "out"}
    if command == "distill":
        cfg["kd"] = {"teacher_checkpoint": "teacher", "use_kde": True}
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = "@"
    return json.dumps(cfg).replace('"@"', literal)


def _run_config(key, literal, tmp_path) -> int:
    save_model(build_model(ModelSpec(feature_set="intensity")), tmp_path / "teacher")
    command, path = NUMBER_KEYS[key]
    (tmp_path / "c.json").write_text(_config_with(command, path, literal))
    return cli.main([command, "--config", "c.json"])


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("key", sorted(NUMBER_KEYS))
def test_non_finite_config_number_is_a_usage_error(key, literal, tmp_path, capsys):
    _refused(capsys, _run_config(key, literal, tmp_path), 2,
             f"config holds {literal}, which is not a finite number", absent=["out"])


@pytest.mark.parametrize("key", sorted(NUMBER_KEYS))
def test_finite_config_number_runs(key, tmp_path, capsys):
    assert _run_config(key, "0.5", tmp_path) == 0
    assert (tmp_path / "out").exists()
