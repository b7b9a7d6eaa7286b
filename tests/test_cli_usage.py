"""Command-line inputs that must exit 2 as usage errors: a non-integer
DICESM_SEED, an --curve grid outside the loss domain or under two points,
a val_fraction outside [0, 1) or one that leaves no training image, a
negative box-mean radius in a model config, JSON inputs that lack a
required key, calibrate on a three-class field (ECE is binary; nothing is
written), a calibrate bandwidth or sweep entry that is not positive and
finite, and a config number that is NaN, Infinity, -Infinity or
overflows to inf. Data files are bad data, exit 1 with one stderr line
that names the file: a dataset manifest that lacks a key, is not JSON, is
not an object or has an unknown spec key, and a teacher checkpoint
manifest that is not JSON or lacks its params, and a rater file that
holds a value other than 0 or 1, under every soft-label strategy and in a
training dataset, and an ECE (eval --metric ece, calibrate) of a prediction
and a label whose dims differ or whose rows leave the simplex. Also: the
compound curve honours its flags.
"""

import json

import numpy as np
import pytest

from dicesm import cli
from dicesm.core import LabelField, ProbField, TensorF, write_field, write_tensor
from dicesm.softlabels import STRATEGIES
from dicesm.training import ModelSpec, build_model, save_model


def _curve(capsys, *argv):
    code = cli.main(["eval-loss", "--curve", *argv])
    return code, capsys.readouterr().out


def test_bad_dicesm_seed_is_a_usage_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("DICESM_SEED", "abc")
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"), "--n-images", "1"]) == 2
    assert "DICESM_SEED" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv", [["--label-value", "1.5"], ["--label-value", "-0.1"],
                                  ["--label-value", "nan"], ["--curve-points", "0"],
                                  ["--curve-points", "1"]])
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
def test_val_fraction_range(val_fraction, code, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({
        "data": {"synth": {"n_images": 4, "height": 8, "width": 8, "k_raters": 2}},
        "train": {"epochs": 1, "batch_size": 2}, "val_fraction": val_fraction,
        "eval_every": 0, "out_dir": "out"}))
    assert cli.main(["train", "--config", "c.json"]) == code
    assert (tmp_path / "out").exists() == (code == 0)


def _gen_data(out, n_images=4):
    assert cli.main(["gen-data", "--out", str(out), "--n-images", str(n_images),
                     "--height", "8", "--width", "8", "--k-raters", "2"]) == 0


def test_val_fraction_that_takes_every_image(monkeypatch, tmp_path, capsys):
    # round(0.9 * 4) == 4: no image would be left to train on
    monkeypatch.chdir(tmp_path)
    _gen_data(tmp_path / "data")
    (tmp_path / "c.json").write_text(json.dumps({
        "data": {"dir": "data"}, "train": {"epochs": 1}, "val_fraction": 0.9,
        "eval_every": 0, "out_dir": "out"}))
    capsys.readouterr()
    assert cli.main(["train", "--config", "c.json"]) == 2
    assert "val_fraction" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_radius_is_a_usage_error(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({
        "data": {"synth": {"n_images": 2, "height": 8, "width": 8, "k_raters": 2}},
        "model": {"radii": [1, -1]}, "train": {"epochs": 1}, "out_dir": "out"}))
    assert cli.main(["train", "--config", "c.json"]) == 2
    assert "radii" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "distill"])
def test_config_without_data(command, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"train": {"epochs": 1}}))
    assert cli.main([command, "--config", "c.json"]) == 2
    assert "data" in capsys.readouterr().err


@pytest.mark.parametrize("drop", ["raters", "out", "images"])
def test_soft_label_manifest_without_a_key(drop, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _gen_data(tmp_path / "data", n_images=1)
    entry = {"raters": ["data/raters/img_0000_rater_0.sdt",
                        "data/raters/img_0000_rater_1.sdt"], "out": "soft.sdt"}
    manifest = {"images": [entry]}
    (manifest if drop == "images" else entry).pop(drop)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["make-soft-labels", "--strategy", "uniform_avg",
                     "--manifest", "m.json"]) == 2
    assert drop in capsys.readouterr().err
    assert not (tmp_path / "soft.sdt").exists()


def test_dataset_manifest_without_clean_is_bad_data(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _gen_data(tmp_path / "data")
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    del manifest["images"][2]["clean"]
    (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "c.json").write_text(json.dumps({"data": {"dir": "data"},
                                                 "train": {"epochs": 1}, "out_dir": "out"}))
    capsys.readouterr()
    assert cli.main(["train", "--config", "c.json"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "clean" in err and "Traceback" not in err


@pytest.mark.parametrize("corrupt", [lambda m: "{not json", lambda m: "[1, 2]",
                                     lambda m: json.dumps({**m, "spec": {**m["spec"], "bogus": 1}})],
                         ids=["not_json", "list", "unknown_spec_key"])
def test_malformed_dataset_manifest_is_bad_data(corrupt, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _gen_data(tmp_path / "data")
    path = tmp_path / "data" / "manifest.json"
    path.write_text(corrupt(json.loads(path.read_text())))
    (tmp_path / "c.json").write_text(json.dumps({"data": {"dir": "data"},
                                                 "train": {"epochs": 1}, "out_dir": "out"}))
    capsys.readouterr()
    assert cli.main(["train", "--config", "c.json"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "manifest.json" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corrupt", [lambda m: "{not json",
                                     lambda m: json.dumps({k: v for k, v in m.items()
                                                           if k != "params"})],
                         ids=["not_json", "no_params"])
def test_malformed_teacher_checkpoint_is_bad_data(corrupt, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    save_model(build_model(ModelSpec(feature_set="intensity")), tmp_path / "teacher")
    path = tmp_path / "teacher" / "manifest.json"
    path.write_text(corrupt(json.loads(path.read_text())))
    (tmp_path / "c.json").write_text(json.dumps({
        "data": {"synth": {"n_images": 2, "height": 8, "width": 8, "k_raters": 2}},
        "train": {"epochs": 1}, "kd": {"teacher_checkpoint": "teacher"},
        "eval_every": 0, "out_dir": "out"}))
    assert cli.main(["distill", "--config", "c.json"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "manifest.json" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [["--out", "cal.sdt"], ["--sweep", "0.01,0.1"]])
def test_calibrate_refuses_three_classes(extra, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(3)
    write_field("pred.sdt", ProbField.from_array(
        rng.dirichlet(np.ones(3), size=(8, 8)).transpose(2, 0, 1)))
    winner = rng.integers(0, 3, size=(8, 8))
    write_field("label.sdt", LabelField.from_array(
        (np.arange(3)[:, None, None] == winner).astype(np.float64), "hard"))
    code = cli.main(["calibrate", "--pred", "pred.sdt", "--label", "label.sdt", *extra])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "ece supports binary tasks (C <= 2)" in captured.err
    assert not (tmp_path / "cal.sdt").exists()


# (prediction, label) arrays of different dims: two classes against one, and
# the same pixel count in another (H, W)
ECE_DIMS_MISMATCHES = {
    "classes": (np.full((2, 8, 8), 0.5), np.zeros((1, 8, 8))),
    "height_width": (np.full((1, 2, 8), 0.5), np.zeros((1, 4, 4))),
}


@pytest.mark.parametrize("argv", [["eval", "--metric", "ece"], ["calibrate", "--out", "cal.sdt"]])
@pytest.mark.parametrize("case", sorted(ECE_DIMS_MISMATCHES))
def test_ece_refuses_mismatched_dims(case, argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    pred, label = ECE_DIMS_MISMATCHES[case]
    write_field("pred.sdt", ProbField.from_array(pred))
    write_field("label.sdt", LabelField.from_array(label, "hard"))
    code = cli.main([*argv, "--pred", "pred.sdt", "--label", "label.sdt"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.count("\n") == 1 and "ShapeMismatchError" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "cal.sdt").exists()


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
def test_ece_rejects_rows_off_the_simplex(bad, argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _off_simplex_files(bad)
    code = cli.main([*argv, "--pred", "pred.sdt", "--label", "label.sdt"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.count("\n") == 1 and "SimplexViolationError" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "cal.sdt").exists()


# a rater file is read as hard: 0.5 breaks hardness, 1.5 the [0, 1] range
BAD_RATER_VALUES = [(0.5, "HardnessViolationError"), (1.5, "OutOfRangeError")]


@pytest.mark.parametrize("value,error", BAD_RATER_VALUES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_make_soft_labels_rejects_a_bad_rater(strategy, value, error, monkeypatch,
                                              tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    good = (np.arange(16).reshape(1, 4, 4) % 3 == 0).astype(np.float64)
    write_field("a.sdt", LabelField.from_array(good))
    bad = good.copy()
    bad[0, 1, 2] = value
    write_tensor("b.sdt", TensorF.from_array(bad))
    code = cli.main(["make-soft-labels", "--strategy", strategy,
                     "--raters", "a.sdt", "b.sdt", "a.sdt", "--out", "soft.sdt"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert error in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "soft.sdt").exists()


@pytest.mark.parametrize("value,error", BAD_RATER_VALUES)
def test_train_rejects_a_bad_rater(value, error, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _gen_data(tmp_path / "data")
    path = tmp_path / "data" / "raters" / "img_0002_rater_1.sdt"
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    (tmp_path / "c.json").write_text(json.dumps({"data": {"dir": "data"},
                                                 "train": {"epochs": 1}, "out_dir": "out"}))
    capsys.readouterr()
    assert cli.main(["train", "--config", "c.json"]) == 1
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _two_class_field() -> None:
    rng = np.random.default_rng(4)
    p = rng.random((8, 8))
    write_field("pred.sdt", ProbField.from_array(np.stack([1.0 - p, p])))
    fg = (p > 0.5).astype(np.float64)
    write_field("label.sdt", LabelField.from_array(np.stack([1.0 - fg, fg]), "hard"))


@pytest.mark.parametrize("flags", [["--bandwidth", "nan", "--out", "cal.sdt"],
                                   ["--bandwidth", "inf", "--out", "cal.sdt"],
                                   ["--sweep", "1e-3,nan"], ["--sweep", "nan,1e-3"]])
def test_calibrate_rejects_a_bad_bandwidth(flags, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _two_class_field()
    code = cli.main(["calibrate", "--pred", "pred.sdt", "--label", "label.sdt", *flags])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "bandwidth must be positive and finite" in captured.err
    assert not (tmp_path / "cal.sdt").exists()


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
def test_non_finite_config_number_is_a_usage_error(key, literal, monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    assert _run_config(key, literal, tmp_path) == 2
    assert f"config holds {literal}, which is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", sorted(NUMBER_KEYS))
def test_finite_config_number_runs(key, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run_config(key, "0.5", tmp_path) == 0
    assert (tmp_path / "out").exists()
