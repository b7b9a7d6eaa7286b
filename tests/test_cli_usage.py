"""Command-line inputs that must exit 2 as usage errors: a non-integer
DICESM_SEED, an --curve grid outside the loss domain or under two points,
and a val_fraction outside [0, 1). Also: the compound curve honours its flags.
"""

import json

import pytest

from dicesm import cli


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
