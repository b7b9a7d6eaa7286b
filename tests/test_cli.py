"""Golden tests of the command line: every subcommand through cli.main(argv).

Each case runs in a fresh directory on tiny fixed-seed data and is compared
exactly with the values pinned in GOLDEN: the exit code, the stdout JSON
(or the sha256 of stdout where it is CSV or long) and the sha256 of every
file written. The pins were recorded on x86-64 Linux with numpy 2.4.6 and
Python 3.11.7, numpy's SIMD extensions found X86_V3, X86_V4, AVX512_ICL and
AVX512_SPR, and OpenBLAS's SkylakeX core; another BLAS kernel, instruction
set or numpy build may round the last bit of a sum differently, which
these tests report as a mismatch.

Further tests pin the DICESM_SEED default and check that calibrate --sweep
samples its keys and pixel scope once and scores each bandwidth as a single
run would. The exit-code contract (0 ok, 1 bad data, 2 bad usage) lives in
tests/test_cli_usage.py.

main() without argv, as python -m dicesm runs it, sets the allocator policy
that the cli docstring describes, and main(argv) does not. The train golden
case runs once more as fresh python -m dicesm processes, so the pins hold
with the policy active too.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from dicesm import cli


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_sdt(path, arr) -> None:
    """SDT1 bytes written by hand, independent of the library's writer."""
    arr = np.asarray(arr)
    header = b"SDT1" + struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + arr.astype("<f4").tobytes())


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj))


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _files(*roots) -> dict:
    """sha256 of every file under each root (a file or a directory)."""
    out = {}
    for root in map(Path, roots):
        paths = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
        for p in paths:
            out[p.as_posix()] = _sha(p.read_bytes())
    return out


def _json_run(capsys, argv):
    code, out = _run(capsys, argv)
    return {"code": code, "stdout": json.loads(out)}


def _text_run(capsys, argv):
    code, out = _run(capsys, argv)
    return {"code": code, "stdout_sha256": _sha(out.encode())}


GEN_C1 = ["gen-data", "--out", "data", "--n-images", "4", "--height", "12",
          "--width", "12", "--k-raters", "3", "--seed", "7"]
GEN_C2 = ["gen-data", "--out", "data2", "--n-images", "4", "--height", "12",
          "--width", "12", "--n-classes", "2", "--k-raters", "3", "--radius-hi", "1",
          "--flip-prob", "0.2", "--image-noise", "0.3", "--seed", "8"]


def _preds() -> None:
    """A C == 1 and a C == 2 prediction on the 12x12 grid of the data."""
    rng = np.random.default_rng(11)
    p = rng.random((12, 12))
    _write_sdt("pred1.sdt", p[None])
    _write_sdt("pred2.sdt", np.stack([1.0 - p, p]))


@pytest.fixture
def work(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DICESM_SEED", raising=False)
    assert cli.main(GEN_C1) == 0
    assert cli.main(GEN_C2) == 0
    _preds()
    capsys.readouterr()
    return tmp_path


# --------------------------------------------------------------------------
# Golden cases: each returns what it observed
# --------------------------------------------------------------------------

def case_gen_data(capsys):
    return {"c1": {**_json_run(capsys, GEN_C1 + ["--out", "g1"]), "files": _files("g1")},
            "c2": {**_json_run(capsys, GEN_C2 + ["--out", "g2"]), "files": _files("g2")}}


def case_make_soft_labels(capsys):
    raters = [f"data/raters/img_0001_rater_{k}.sdt" for k in range(3)]
    out = {}
    for strategy, extra in (("uniform_avg", []), ("random_rater", ["--seed", "3"]),
                            ("label_smoothing", ["--epsilon", "0.2"]),
                            ("weighted_avg", [])):
        res = _json_run(capsys, ["make-soft-labels", "--strategy", strategy,
                                 "--raters", *raters, "--out", f"{strategy}.sdt", *extra])
        out[strategy] = {**res, "files": _files(f"{strategy}.sdt")}
    _write_json("manifest.json", {"images": [
        {"raters": [f"data2/raters/img_{i:04d}_rater_{k}.sdt" for k in range(3)],
         "out": f"w{i}.sdt"} for i in range(4)]})
    res = _json_run(capsys, ["make-soft-labels", "--strategy", "weighted_avg",
                             "--weights", "per_dataset", "--manifest", "manifest.json"])
    out["manifest"] = {**res, "files": _files(*(f"w{i}.sdt" for i in range(4)))}
    return out


def case_eval(capsys):
    out = {}
    for c, pred, label in ((1, "pred1.sdt", "data/clean/img_0000.sdt"),
                           (2, "pred2.sdt", "data2/clean/img_0000.sdt")):
        base = ["eval", "--pred", pred, "--label", label]
        out[f"c{c}"] = {
            "dice": _json_run(capsys, base + ["--metric", "dice"]),
            "bdice": _json_run(capsys, base + ["--metric", "bdice"]),
            "bdice_thresholds": _json_run(capsys, base + ["--metric", "bdice",
                                                          "--thresholds", "0.25,0.5"]),
            "ece": _json_run(capsys, base + ["--metric", "ece", "--bins", "10"]),
        }
    return out


EVAL_LOSS = {
    "dml1_soft": ["--loss", "dml1", "--pred", "pred1.sdt", "--label", "soft1.sdt"],
    "dml2_hard": ["--loss", "dml2", "--pred", "pred1.sdt", "--label", "data/clean/img_0000.sdt"],
    "sdl_c2": ["--loss", "sdl", "--pred", "pred2.sdt", "--label", "data2/clean/img_0000.sdt"],
    "sjl_mean_all": ["--loss", "sjl", "--pred", "pred2.sdt", "--label", "soft2.sdt",
                     "--class-mode", "mean_all", "--empty-both-value", "0.5"],
    "jml1": ["--loss", "jml1", "--pred", "pred1.sdt", "--label", "soft1.sdt"],
    "jml2": ["--loss", "jml2", "--pred", "pred2.sdt", "--label", "soft2.sdt"],
    "stl_hard": ["--loss", "stl", "--pred", "pred1.sdt", "--label", "data/clean/img_0000.sdt",
                 "--alpha", "0.7", "--beta", "0.3"],
    "stl_soft_ok": ["--loss", "stl", "--pred", "pred1.sdt", "--label", "soft1.sdt", "--soft-ok"],
    "ctl": ["--loss", "ctl", "--pred", "pred2.sdt", "--label", "soft2.sdt",
            "--alpha", "0.7", "--beta", "0.3"],
    "cftl": ["--loss", "cftl", "--pred", "pred1.sdt", "--label", "soft1.sdt",
             "--alpha", "0.6", "--beta", "0.4", "--gamma", "2.0"],
    "ce_c1": ["--loss", "ce", "--pred", "pred1.sdt", "--label", "soft1.sdt"],
    "ce_c2": ["--loss", "ce", "--pred", "pred2.sdt", "--label", "soft2.sdt"],
    "compound_c1": ["--loss", "compound", "--pred", "pred1.sdt",
                    "--label", "data/clean/img_0000.sdt"],
    "compound_c2": ["--loss", "compound", "--pred", "pred2.sdt", "--label", "soft2.sdt",
                    "--w-ce", "0.4", "--w-dml", "0.6", "--overlap", "dml2"],
}


def case_eval_loss(capsys):
    assert cli.main(["make-soft-labels", "--strategy", "uniform_avg", "--raters",
                     *(f"data/raters/img_0000_rater_{k}.sdt" for k in range(3)),
                     "--out", "soft1.sdt"]) == 0
    assert cli.main(["make-soft-labels", "--strategy", "uniform_avg", "--raters",
                     *(f"data2/raters/img_0000_rater_{k}.sdt" for k in range(3)),
                     "--out", "soft2.sdt"]) == 0
    capsys.readouterr()
    out = {}
    for name, argv in EVAL_LOSS.items():
        res = _json_run(capsys, ["eval-loss", *argv, "--grad-out", f"g_{name}.sdt"])
        out[name] = {**res, "files": _files(f"g_{name}.sdt")}
    return out


EVAL_LOSS_CURVES = {
    "dml1": ["--loss", "dml1"],
    "sdl": ["--loss", "sdl", "--label-value", "0.5", "--curve-points", "11"],
    "stl": ["--loss", "stl", "--alpha", "0.7", "--beta", "0.3", "--curve-points", "101"],
    "cftl": ["--loss", "cftl", "--alpha", "0.7", "--beta", "0.3", "--gamma", "4.0"],
    "ce": ["--loss", "ce", "--label-value", "0.3", "--curve-points", "2"],
    "compound": ["--loss", "compound"],
}


def case_eval_loss_curve(capsys):
    return {name: _text_run(capsys, ["eval-loss", "--curve", *argv])
            for name, argv in EVAL_LOSS_CURVES.items()}


def case_calibrate(capsys):
    base = ["calibrate", "--pred", "pred2.sdt", "--label", "data2/clean/img_0000.sdt",
            "--n-key", "16", "--seed", "5"]
    out = {}
    for scope, extra in (("all", []), ("boundary", ["--boundary-radius", "2"])):
        res = _json_run(capsys, base + ["--scope", scope, "--bandwidth", "0.05",
                                        "--out", f"cal_{scope}.sdt", *extra])
        out[scope] = {**res, "files": _files(f"cal_{scope}.sdt")}
    out["sweep"] = _json_run(capsys, base + ["--sweep", "0.001,0.05,0.5"])
    out["c1"] = _json_run(capsys, ["calibrate", "--pred", "pred1.sdt", "--label",
                                   "data/clean/img_0000.sdt", "--n-key", "8",
                                   "--out", "cal_c1.sdt"])
    out["c1"]["files"] = _files("cal_c1.sdt")
    return out


def _overconfident_field(size: int, seed: int):
    """A smooth foreground probability that is too sure of itself, and the
    hard foreground mask it was drawn around."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size] / size

    def waves(n):
        k = rng.integers(-3, 4, (n, 2))
        phase = rng.uniform(0.0, 2 * np.pi, n)
        f = sum(np.cos(2 * np.pi * (kx * x + ky * y) + ph) for (kx, ky), ph in zip(k, phase))
        return (f - f.mean()) / f.std()

    truth = waves(4)
    seen = truth + 0.6 * waves(12)
    return 1.0 / (1.0 + np.exp(-6.0 * seen)), (truth > 0.0).astype(np.float64)


def case_calibrate_blocks(capsys):
    # 48 x 48 pixels against 128 keys at h = 1e-3 make four blocks of rows,
    # in which kept and underflowing kernel weights interleave
    p, fg = _overconfident_field(48, 21)
    _write_sdt("blocks1.sdt", p[None])
    _write_sdt("blocks1_label.sdt", fg[None])
    _write_sdt("blocks2.sdt", np.stack([1.0 - p, p]))
    _write_sdt("blocks2_label.sdt", np.stack([1.0 - fg, fg]))
    out = {}
    for c in (1, 2):
        res = _json_run(capsys, ["calibrate", "--pred", f"blocks{c}.sdt",
                                 "--label", f"blocks{c}_label.sdt", "--bandwidth", "0.001",
                                 "--n-key", "128", "--seed", "4", "--out", f"cal_blocks{c}.sdt"])
        out[f"c{c}"] = {**res, "files": _files(f"cal_blocks{c}.sdt")}
    return out


TRAIN_CONFIGS = {
    "c1_compound": {
        "data": {"dir": "data"},
        "model": {"kind": "per_pixel_logistic", "seed": 1},
        "train": {"epochs": 2, "batch_size": 2, "lr0": 0.5, "seed": 2},
        "val_fraction": 0.25, "eval_every": 1, "out_dir": "out_c1"},
    "c2_ctl_pooled": {
        "data": {"dir": "data2"},
        "model": {"kind": "per_pixel_logistic", "feature_set": "intensity",
                  "n_classes": 2, "seed": 3},
        "train": {"epochs": 3, "batch_size": 3, "lr0": 1.0, "momentum": 0.5,
                  "loss": {"name": "ctl", "params": {"alpha": 0.6, "beta": 0.4}},
                  "reduction": {"batch_mode": "pooled", "class_mode": "mean_all"},
                  "label_source": {"strategy": "weighted_avg"}, "seed": 4},
        "eval_every": 2, "out_dir": "out_c2"},
    "synth_conv2": {
        "data": {"synth": {"n_images": 3, "height": 10, "width": 10, "k_raters": 2,
                           "noise": {"dilate_erode_radius": [0, 1],
                                     "boundary_flip_prob": [0.05, 0.2]},
                           "seed": 9}},
        "model": {"kind": "conv2", "channels": 2, "radii": [1, 2], "seed": 5},
        "train": {"epochs": 2, "batch_size": 2, "lr0": 0.2,
                  "loss": {"name": "compound",
                           "params": {"w_ce": 0.5, "w_dml": 0.5, "overlap": "jml1"}},
                  "label_source": {"strategy": "label_smoothing", "epsilon": 0.1},
                  "seed": 6},
        "out_dir": "out_synth"},
}


def case_train(capsys):
    out = {}
    for name, cfg in TRAIN_CONFIGS.items():
        _write_json(f"{name}.json", cfg)
        res = _json_run(capsys, ["train", "--config", f"{name}.json"])
        out[name] = {**res, "files": _files(cfg["out_dir"])}
    return out


def case_distill(capsys):
    _write_json("teacher.json", {
        "data": {"dir": "data"}, "model": {"seed": 1},
        "train": {"epochs": 2, "batch_size": 2, "lr0": 0.5,
                  "label_source": {"strategy": "majority"}, "seed": 2},
        "eval_every": 0, "out_dir": "teacher"})
    assert cli.main(["train", "--config", "teacher.json"]) == 0
    capsys.readouterr()
    out = {}
    for name, kd in (("kde", {"use_kde": True, "kd_terms": "both",
                              "kde": {"n_key": 16, "bandwidth": 0.01, "seed": 3}}),
                     ("kde_boundary", {"use_kde": True, "kd_terms": "dml", "kd_weight": 0.5,
                                       "kde": {"n_key": 8, "pixel_scope": "misclassified_and_boundary"}}),
                     ("plain", {"kd_terms": "ce"})):
        _write_json(f"{name}.json", {
            "data": {"dir": "data"},
            "student": {"feature_set": "intensity", "seed": 4},
            "train": {"epochs": 2, "batch_size": 2, "lr0": 1.0,
                      "label_source": {"strategy": "uniform_avg"}, "seed": 5},
            "kd": {"teacher_checkpoint": "teacher/model", **kd},
            "val_fraction": 0.25, "out_dir": f"out_{name}"})
        res = _json_run(capsys, ["distill", "--config", f"{name}.json"])
        out[name] = {**res, "files": _files(f"out_{name}")}
    return out


def case_check_properties(capsys):
    return {"pass": _text_run(capsys, ["check-properties", "--trials", "100", "--seed", "3"]),
            "mutate_sign": _text_run(capsys, ["check-properties", "--trials", "100",
                                              "--seed", "3", "--mutate", "sign"])}


CASES = {name[5:]: fn for name, fn in dict(globals()).items() if name.startswith("case_")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, work, capsys):
    assert CASES[name](capsys) == GOLDEN[name]


def test_sweep_samples_keys_and_scope_once(work, capsys, monkeypatch):
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for name in ("sample_key_points", "select_scope_pixels"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    base = ["calibrate", "--pred", "pred2.sdt", "--label", "data2/clean/img_0000.sdt",
            "--n-key", "16", "--seed", "5", "--scope", "boundary", "--boundary-radius", "2"]
    code, out = _run(capsys, base + ["--sweep", "0.001,0.05,0.5"])
    assert code == 0 and sorted(calls) == ["sample_key_points", "select_scope_pixels"]
    for row in json.loads(out)["sweep"]:
        code, out = _run(capsys, base + ["--bandwidth", str(row["bandwidth"]), "--out", "c.sdt"])
        single = json.loads(out)
        assert code == 0 and (single["ece_after"], single["scope_pixels"]) == (
            row["ece_after"], row["scope_pixels"])


# --------------------------------------------------------------------------
# DICESM_SEED
# --------------------------------------------------------------------------

def _gen_bytes(out: str) -> dict:
    assert cli.main(["gen-data", "--out", out, "--n-images", "2", "--height", "8",
                     "--width", "8", "--k-raters", "2"]) == 0
    return {k.split("/", 1)[1]: v for k, v in _files(out).items()}


def test_dicesm_seed_sets_the_default(work, monkeypatch):
    monkeypatch.setenv("DICESM_SEED", "5")
    first = _gen_bytes("s5a")
    assert _gen_bytes("s5b") == first
    monkeypatch.setenv("DICESM_SEED", "6")
    assert _gen_bytes("s6")["images/img_0000.sdt"] != first["images/img_0000.sdt"]
    monkeypatch.delenv("DICESM_SEED")
    seeded = _gen_bytes("s42")
    assert cli.main(["gen-data", "--out", "explicit", "--n-images", "2", "--height", "8",
                     "--width", "8", "--k-raters", "2", "--seed", "42"]) == 0
    assert {k.split("/", 1)[1]: v for k, v in _files("explicit").items()} == seeded


# --------------------------------------------------------------------------
# The allocator policy of a process that dicesm owns
# --------------------------------------------------------------------------

CURVE = ["eval-loss", "--curve", "--loss", "dml1", "--curve-points", "2", "--label-value", "1"]


def test_allocator_policy_only_without_argv(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(None))
    assert cli.main(CURVE) == 0 and calls == []
    monkeypatch.setattr(sys, "argv", ["dicesm", *CURVE])
    assert cli.main() == 0 and len(calls) == 1


def test_allocator_policy_without_mallopt(monkeypatch, capsys):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    monkeypatch.setattr(sys, "argv", ["dicesm", *CURVE])
    assert cli.main() == 0
    assert capsys.readouterr().out == "x,value\n0.0,1.0\n1.0,0.0\n"


def _run_process(capsys, argv):
    """argv as a fresh `python -m dicesm`, which sets the allocator policy."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-m", "dicesm", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def test_golden_train_in_a_process_of_its_own(work, capsys, monkeypatch):
    monkeypatch.setitem(globals(), "_run", _run_process)
    assert case_train(capsys) == GOLDEN["train"]


GOLDEN = {'calibrate': {'all': {'code': 0,
                       'files': {'cal_all.sdt': 'eb4837c6bf0b51427e9cff22acf68f4af0fcb24472163c958e0bddff68970f09'},
                       'stdout': {'ece_after': 0.3673961914824298,
                                  'ece_before': 0.31965619946519536,
                                  'n_key': 16,
                                  'out': 'cal_all.sdt',
                                  'scope_pixels': 144}},
               'boundary': {'code': 0,
                            'files': {'cal_boundary.sdt': '9ac0acdd7ddbbaa8d9666ab4abb6a0e103fa5c9d8da9b3d879c5657ac061f1d9'},
                            'stdout': {'ece_after': 0.28988179381213125,
                                       'ece_before': 0.31965619946519536,
                                       'n_key': 16,
                                       'out': 'cal_boundary.sdt',
                                       'scope_pixels': 111}},
               'c1': {'code': 0,
                      'files': {'cal_c1.sdt': '35074b6ffcb426faa2a830a917af39b7876d09d4f14ce2ffa31586178e363d31'},
                      'stdout': {'ece_after': 0.37217811366216463,
                                 'ece_before': 0.34390348568558693,
                                 'n_key': 8,
                                 'out': 'cal_c1.sdt',
                                 'scope_pixels': 144}},
               'sweep': {'code': 0,
                         'stdout': {'sweep': [{'bandwidth': 0.001,
                                               'ece_after': 0.45132101177903106,
                                               'ece_before': 0.31965619946519536,
                                               'scope_pixels': 144},
                                              {'bandwidth': 0.05,
                                               'ece_after': 0.3673961914824298,
                                               'ece_before': 0.31965619946519536,
                                               'scope_pixels': 144},
                                              {'bandwidth': 0.5,
                                               'ece_after': 0.3263043484570488,
                                               'ece_before': 0.31965619946519536,
                                               'scope_pixels': 144}]}}},
 'calibrate_blocks': {'c1': {'code': 0,
                             'files': {'cal_blocks1.sdt': '5ecd08625a0344dde0ce0e8591ac6ba2ec7cc3fe9e240f1825d89f0baffcbf66'},
                             'stdout': {'ece_after': 0.08738144730535696,
                                        'ece_before': 0.11729758736636182,
                                        'n_key': 128,
                                        'out': 'cal_blocks1.sdt',
                                        'scope_pixels': 2304}},
                      'c2': {'code': 0,
                             'files': {'cal_blocks2.sdt': 'c330b48f28d6d8c7888571e9e9d9ebbcfd859beb5e87c59708c2efb668c25f07'},
                             'stdout': {'ece_after': 0.08738269099731705,
                                        'ece_before': 0.11729758736636182,
                                        'n_key': 128,
                                        'out': 'cal_blocks2.sdt',
                                        'scope_pixels': 2304}}},
 'check_properties': {'mutate_sign': {'code': 1,
                                      'stdout_sha256': 'dbb1975568bd8fc99b27a33734a0ce702783680eb323c4dc71f707cc3090effd'},
                      'pass': {'code': 0,
                               'stdout_sha256': '3bafbeb0ece85764611f96603bf35c4f81c42ce565140257606ad55b3d48aab7'}},
 'distill': {'kde': {'code': 0,
                     'files': {'out_kde/model/manifest.json': 'c9f7dd2b6d16ace50fd6229736c1e22863506411e108b460efc34ccb57b51774',
                               'out_kde/model/w.sdt': 'fe393caeb814071d2a4db4b00f38034f0b24a433333a9219790d352251a8500d',
                               'out_kde/trace.csv': '46dbb76a0811bf16b24d3ac6f7781f19489e78da8e66b90eea89ada09726f3ed'},
                     'stdout': {'bdice': 0.3639387890884897,
                                'dice': 0.0,
                                'ece': 0.08730123168813259,
                                'out': 'out_kde'}},
             'kde_boundary': {'code': 0,
                              'files': {'out_kde_boundary/model/manifest.json': 'c9f7dd2b6d16ace50fd6229736c1e22863506411e108b460efc34ccb57b51774',
                                        'out_kde_boundary/model/w.sdt': '7b93b4b0f8e384b12ca899becc6eb52c99a3cad46bbcb9d8c0fb90bb788998ae',
                                        'out_kde_boundary/trace.csv': '4771ea4d1b367681d5344b2a02350ab2ab9dbfab0348ad60964add94ae8486e2'},
                              'stdout': {'bdice': 0.4251497005988024,
                                         'dice': 0.0,
                                         'ece': 0.2705554609473905,
                                         'out': 'out_kde_boundary'}},
             'plain': {'code': 0,
                       'files': {'out_plain/model/manifest.json': 'c9f7dd2b6d16ace50fd6229736c1e22863506411e108b460efc34ccb57b51774',
                                 'out_plain/model/w.sdt': 'dbcf8e28431f56e47479c3c641714e80dfad3c3fc08e07c7ea6b2fc7556a6b2d',
                                 'out_plain/trace.csv': '01243dabb5da4a7b80257a418e6534651bc0bd8d43dbfb23205847499dbb93ae'},
                       'stdout': {'bdice': 0.4251497005988024,
                                  'dice': 0.0,
                                  'ece': 0.23826939049288967,
                                  'out': 'out_plain'}}},
 'eval': {'c1': {'bdice': {'code': 0,
                           'stdout': {'metric': 'bdice',
                                      'per_class': [0.19604542791367618],
                                      'value': 0.19604542791367618}},
                 'bdice_thresholds': {'code': 0,
                                      'stdout': {'metric': 'bdice',
                                                 'per_class': [0.2375],
                                                 'value': 0.2375}},
                 'dice': {'code': 0,
                          'stdout': {'metric': 'dice', 'per_class': [0.225], 'value': 0.225}},
                 'ece': {'code': 0,
                         'stdout': {'metric': 'ece',
                                    'per_class': [0.34217936928487486],
                                    'value': 0.34217936928487486}}},
          'c2': {'bdice': {'code': 0,
                           'stdout': {'metric': 'bdice',
                                      'per_class': [0.6401302491865453, 0.2745864139609009],
                                      'value': 0.4573583315737231}},
                 'bdice_thresholds': {'code': 0,
                                      'stdout': {'metric': 'bdice',
                                                 'per_class': [0.7493478260869565,
                                                               0.30606060606060603],
                                                 'value': 0.5277042160737813}},
                 'dice': {'code': 0,
                          'stdout': {'metric': 'dice',
                                     'per_class': [0.69, 0.29545454545454547],
                                     'value': 0.4927272727272727}},
                 'ece': {'code': 0,
                         'stdout': {'metric': 'ece',
                                    'per_class': [0.31298775008569163],
                                    'value': 0.31298775008569163}}}},
 'eval_loss': {'ce_c1': {'code': 0,
                         'files': {'g_ce_c1.sdt': '0d9c6bca973072cb87e460a28be3c818c51eed075d79a7bc1832fbc1d861fddb'},
                         'stdout': {'loss': 'ce', 'value': 0.9079965077236221}},
               'ce_c2': {'code': 0,
                         'files': {'g_ce_c2.sdt': 'b6786d0a51aedc7bb15a5c8e127ba5a3dbcdcf3162beb4175f0f1fc2c0f7576a'},
                         'stdout': {'loss': 'ce', 'value': 0.9566768307561495}},
               'cftl': {'code': 0,
                        'files': {'g_cftl.sdt': '54aad9d723feec28a84467c4c5ad5c781efd6a81324267bd9c087dc5726a10dc'},
                        'stdout': {'loss': 'cftl', 'value': 0.6666488354784784}},
               'compound_c1': {'code': 0,
                               'files': {'g_compound_c1.sdt': 'f32661246da0d4e8d052dd4e16ef361e222d98bac8d8288b61888038fb24c9bd'},
                               'stdout': {'loss': 'compound', 'value': 0.8212500065012517}},
               'compound_c2': {'code': 0,
                               'files': {'g_compound_c2.sdt': '1fbedbcd5acdeedfa36b47dada819dc3a8325b144da10d674b6b20ab9c65e468'},
                               'stdout': {'loss': 'compound', 'value': 0.6488793001502087}},
               'ctl': {'code': 0,
                       'files': {'g_ctl.sdt': '451c18e6e69e1a870b0e355fc345bffe9ec2ae06b9f3fab50d51a8e26b1df884'},
                       'stdout': {'loss': 'ctl', 'value': 0.3934847755394003}},
               'dml1_soft': {'code': 0,
                             'files': {'g_dml1_soft.sdt': '28c3a1bb179fcc27c19521cccb6e44092292d8f9e7de4ff52bf7c638b21244a3'},
                             'stdout': {'loss': 'dml1', 'value': 0.7915522467638312}},
               'dml2_hard': {'code': 0,
                             'files': {'g_dml2_hard.sdt': 'b36efc5f0b15f4cacb29dadc3d17146fdbf5cb6501e30e3283dd4a6a80f285ef'},
                             'stdout': {'loss': 'dml2', 'value': 0.787748760005469}},
               'jml1': {'code': 0,
                        'files': {'g_jml1.sdt': 'e33a53a31ec6587d45ee1a2360f1eca4f0a2bb5eaf68249f5aeb18964a64a42c'},
                        'stdout': {'loss': 'jml1', 'value': 0.8836496375627905}},
               'jml2': {'code': 0,
                        'files': {'g_jml2.sdt': '1266be9c2063dbbc6e6dafed6e174a23b42967d570c554ddf3ec03354c706727'},
                        'stdout': {'loss': 'jml2', 'value': 0.6036529136163834}},
               'sdl_c2': {'code': 0,
                          'files': {'g_sdl_c2.sdt': '28fcb464eebab07fee678120b36855e99e49ec6b9d143f29c6d7e9903d3b6ea8'},
                          'stdout': {'loss': 'sdl', 'value': 0.5225997280283992}},
               'sjl_mean_all': {'code': 0,
                                'files': {'g_sjl_mean_all.sdt': 'b528b788b02743306b7179cd848105474e7a5b6ccdf16657c23b7a6aff0c87c3'},
                                'stdout': {'loss': 'sjl', 'value': 0.656592112263632}},
               'stl_hard': {'code': 0,
                            'files': {'g_stl_hard.sdt': '0d471fef19f0f1e5a74bd37c3db564a4aa9756ea896b61aa7719c065d755863f'},
                            'stdout': {'loss': 'stl', 'value': 0.8257605815341806}},
               'stl_soft_ok': {'code': 0,
                               'files': {'g_stl_soft_ok.sdt': 'd5644b9f2402df241beece2713c229fc40de4598799fdbe34b0e5d701c5869fc'},
                               'stdout': {'loss': 'stl', 'value': 0.8512371772671206}}},
 'eval_loss_curve': {'ce': {'code': 0,
                            'stdout_sha256': '888463a322ede6290edaf212e625f41c98c6c777e88b0597083f667da856fe8b'},
                     'cftl': {'code': 0,
                              'stdout_sha256': 'e2656c73b0c17a6691931baf659eded6387dabd653fe8644f487d7d91f039d8c'},
                     'compound': {'code': 0,
                                  'stdout_sha256': '889f75a2b74e14b6a0652e746258fb12482780cb26026d16b5efb889dfcbd6b1'},
                     'dml1': {'code': 0,
                              'stdout_sha256': '4f47cab0d3b7559c54350012cc2cc189f37a96dd65965e0ed1754f46f1f74ae4'},
                     'sdl': {'code': 0,
                             'stdout_sha256': 'd1c2da8f20479673619c35d2ff899b50398d833f98b9e4d1a54f53217703f1dd'},
                     'stl': {'code': 0,
                             'stdout_sha256': '97bf83798166f5f2b9055b9b34f2ffa32601a2c6a6fd427c7c8385b7062ee02c'}},
 'gen_data': {'c1': {'code': 0,
                     'files': {'g1/clean/img_0000.sdt': '5c074895034dd3d550b25a7cb216a5e76d923b0d2254e31c7f39c1e3b066e55a',
                               'g1/clean/img_0001.sdt': '8f2667b1702a5434311e9b0a709bc43f84a1b134479875721c5672d05632c860',
                               'g1/clean/img_0002.sdt': '5e991c2c13af6d465513df1029e89ebf50f6aab9222285cf88512b4bf4724446',
                               'g1/clean/img_0003.sdt': '5a27871a4ce34dd17f888ec77ae83222ca49c31e76d282af8fb199c728eeb363',
                               'g1/images/img_0000.sdt': '28d56d1537f99c4476f2b195ade5f2711dfc666cb65a104444eb005b5a74dd81',
                               'g1/images/img_0001.sdt': '867353f4d61f7d9c866d4b771fd3fa90a3244f706d083e96d5fe563d9d892a93',
                               'g1/images/img_0002.sdt': '4e85bb122e7fe57e1638f04468972d46fcf3bdf71bac81c40c8d6f511dce109e',
                               'g1/images/img_0003.sdt': '2d6231db77c043dcc339fea112426a8ef37dc4f531d56a9b6f35178d09fc2863',
                               'g1/manifest.json': '89e64f39595af2d562ad4f655ab38374c3d4f64769d4b7525bb1d3ffdfb63a1f',
                               'g1/raters/img_0000_rater_0.sdt': '0384a2635d71dc263770710f8e6a5dcb9179ad64c82aa319cd20390d285e43c9',
                               'g1/raters/img_0000_rater_1.sdt': 'ec3a06b298dcd01e2490a618af2be9984242efa04a54aa7e6cc90e6271eec248',
                               'g1/raters/img_0000_rater_2.sdt': '42f45901638d37a20138124dd44b4e64d05ca6bc46e54ccd50ba84f2433ac50c',
                               'g1/raters/img_0001_rater_0.sdt': 'fe3f5b52fd225788c5f7efc56953dd4e6bbc434dc35881c5d91b427a3140364d',
                               'g1/raters/img_0001_rater_1.sdt': '9525b6b3157b520fc536f2db8f12bace28bbdaeedc83dccf73dedcd06c95a7d9',
                               'g1/raters/img_0001_rater_2.sdt': '36250443fa24a24f3e9aeb1db71e5978afcf903955e2cc06e573319c069e4985',
                               'g1/raters/img_0002_rater_0.sdt': '22b6dd9b9d7e89fb7e06ffe0c33a0aae283cc3b64a9c4ff8e97d3575b9d387e7',
                               'g1/raters/img_0002_rater_1.sdt': 'c26c438dca062782ba6d1719821a93609436608e0156dbeaf99375e96ae4de27',
                               'g1/raters/img_0002_rater_2.sdt': '55e7258155825b3ab8950fe0be8196b531c3579f7d39db66dea5738d0eef9024',
                               'g1/raters/img_0003_rater_0.sdt': '0384a2635d71dc263770710f8e6a5dcb9179ad64c82aa319cd20390d285e43c9',
                               'g1/raters/img_0003_rater_1.sdt': '0384a2635d71dc263770710f8e6a5dcb9179ad64c82aa319cd20390d285e43c9',
                               'g1/raters/img_0003_rater_2.sdt': '42644e985e29d27ea7ea177394980513e78caae6a3c9243307effbb16e58f49e'},
                     'stdout': {'n_images': 4, 'out': 'g1'}},
              'c2': {'code': 0,
                     'files': {'g2/clean/img_0000.sdt': '441f86b226c3837e00cec7d79b29a7a4abd791771e846faa11470d92795f3392',
                               'g2/clean/img_0001.sdt': 'efae225f8fefec272e7798437d3a1d9f797869f3a5b39053da4f037f46117a4f',
                               'g2/clean/img_0002.sdt': '5320294fd41a1e9047d9cdfe72decfdb253f1dca34c32cb1e69e9b396ff5900a',
                               'g2/clean/img_0003.sdt': 'aeb07893576821e2340d657763843380f07e6439383a3f298df995c23b1fbf62',
                               'g2/images/img_0000.sdt': 'e0f6d5a1dd14d45122ebdc8c818e1104c363fc7bd09f89f0eb5d324700a03b9c',
                               'g2/images/img_0001.sdt': '1e8b1387a6cdca3ab2bd92bd83bf303363f084e62c17b04be708622449769431',
                               'g2/images/img_0002.sdt': 'ace6f51736560ada0798ebdff0d32ad46237cfc8ec2b95669e89853538e65157',
                               'g2/images/img_0003.sdt': '71b93e5da97043d3984d5166adf1faa52b82c270c22f3d08ad1b5f85bf830da9',
                               'g2/manifest.json': '4345257b49a974fbdfa7736d86cb4431a941f09bd4a97db6211bf7fedca868cf',
                               'g2/raters/img_0000_rater_0.sdt': '19fc359e50d2709b4213d85d3f263825463d8e15902de907ceb5d4fe55f4c10a',
                               'g2/raters/img_0000_rater_1.sdt': '975f0e72a4fe53274ca9a9e6bc01acbc468febd213b5d81d9823c5116d9873cb',
                               'g2/raters/img_0000_rater_2.sdt': 'be7dfd289a842daa50b955f7408710a5641c803e3dd26d3a416dd5f7901860c9',
                               'g2/raters/img_0001_rater_0.sdt': 'e877433e6548f676c45672020558d35706c386023854d494ac399a3982917f91',
                               'g2/raters/img_0001_rater_1.sdt': 'ddd565800e3ef733bee2ad91de645a9f0e4c87c06fdbbe17a71952cff4b15cfe',
                               'g2/raters/img_0001_rater_2.sdt': '3c05dcedafefe05788be929ddd86f460d8e4eed0e36f59642d98a404c043ff7d',
                               'g2/raters/img_0002_rater_0.sdt': '8e2983bc7e008259dbe5975999e3681b60591891ded566cc0ae41686c2e09cf4',
                               'g2/raters/img_0002_rater_1.sdt': '370de0ef7df23d53178244bedeb649c1967370a79f9682545a5862747fe54487',
                               'g2/raters/img_0002_rater_2.sdt': '52b873d8380cb74c6d14019e23e35d79cfb353c0e9a6e3abe68b2804c7dcd53f',
                               'g2/raters/img_0003_rater_0.sdt': 'e59cc54921ab396aa39c96ad73698677684789f825ddad0124b9dbe52f402976',
                               'g2/raters/img_0003_rater_1.sdt': '45340a223d7c7ed09ee50e34f403e700fc961f9a7e30120cd294ec40a7d0fb25',
                               'g2/raters/img_0003_rater_2.sdt': 'b6c5c233fd297a94267ec8fe472edda19df40d3cfdb76863884e448b4505ca50'},
                     'stdout': {'n_images': 4, 'out': 'g2'}}},
 'make_soft_labels': {'label_smoothing': {'code': 0,
                                          'files': {'label_smoothing.sdt': '588cb2507447f7c6df00ba15f20e82bfaf9d00b5085b60a4ecf7f175e54d03aa'},
                                          'stdout': {'hardness': 'soft',
                                                     'strategy': 'label_smoothing',
                                                     'written': ['label_smoothing.sdt']}},
                      'manifest': {'code': 0,
                                   'files': {'w0.sdt': 'bc1a87c73f882ad75053b7482d965ed56d23a4d6ceeb118d9a72a0111922be76',
                                             'w1.sdt': 'a162b080f17dd540a3252e99cab6890f1fef80407519cfdcc593dfccc852b035',
                                             'w2.sdt': '63983df08217967da97163a6e380077021999d9cd4ed37f39e98aabfa67e9be8',
                                             'w3.sdt': '6a0af0cb8f3a8496e65678f0c5ef42836bed723fb9b2f17f9e451f9d4d1b61e4'},
                                   'stdout': {'strategy': 'weighted_avg',
                                              'written': ['w0.sdt',
                                                          'w1.sdt',
                                                          'w2.sdt',
                                                          'w3.sdt']}},
                      'random_rater': {'code': 0,
                                       'files': {'random_rater.sdt': 'fe3f5b52fd225788c5f7efc56953dd4e6bbc434dc35881c5d91b427a3140364d'},
                                       'stdout': {'hardness': 'hard',
                                                  'strategy': 'random_rater',
                                                  'written': ['random_rater.sdt']}},
                      'uniform_avg': {'code': 0,
                                      'files': {'uniform_avg.sdt': 'a77031785f8af90c12ca02040585e2ffa456dee0aa06efa12c6da02a7229dcc9'},
                                      'stdout': {'hardness': 'soft',
                                                 'strategy': 'uniform_avg',
                                                 'written': ['uniform_avg.sdt']}},
                      'weighted_avg': {'code': 0,
                                       'files': {'weighted_avg.sdt': '55ec975c966069fdbbdc6d24cc9ae8890f8bb2ea99d3a0c36bf8c9cdfbd5fbb3'},
                                       'stdout': {'hardness': 'soft',
                                                  'strategy': 'weighted_avg',
                                                  'written': ['weighted_avg.sdt']}}},
 'train': {'c1_compound': {'code': 0,
                           'files': {'out_c1/model/manifest.json': '5e4c3b086e864237b276f839743ca7fc1723f612f05d564181894fcb8591791e',
                                     'out_c1/model/w.sdt': 'ad85d133c7f91f530bb50800afbe41f92c34c273302d8df487e6c05704a9ba3b',
                                     'out_c1/trace.csv': '66d8bbb98198fcfcc20df7b9ed3f82fdf50ae8a42ba6c0803eb0ff9ed8c5e2ee'},
                           'stdout': {'bdice': 0.2006472491909385,
                                      'dice': 0.0,
                                      'ece': 0.006232094049260222,
                                      'out': 'out_c1'}},
           'c2_ctl_pooled': {'code': 0,
                             'files': {'out_c2/model/manifest.json': 'c593436dc7118aaf77c3e8f55ff1e50b7be4187ea97a4735ecdcd7255f9431c4',
                                       'out_c2/model/w.sdt': 'ff9721dcbfea5902d5c10e58f8a99b3472bb865fffd509fe96b77506e0910d54',
                                       'out_c2/trace.csv': '6b8a587df566170bb1152f8e9f2ec398cd32195d3d20a14281806702ce065405'},
                             'stdout': {'bdice': 0.2030864549087652,
                                        'dice': 0.0,
                                        'ece': 0.1603201101002504,
                                        'out': 'out_c2'}},
           'synth_conv2': {'code': 0,
                           'files': {'out_synth/model/b1.sdt': 'b5b311835803cfdeb9a60097c400cb8b3d1a3d810db9d9bc760e052164815223',
                                     'out_synth/model/b2.sdt': '35b549a7e42454a1206d5eb709e5bbe3a0c9ba18251f1a4bc92678eefa6ab527',
                                     'out_synth/model/manifest.json': 'cd78faa567f21a27387a183d241e541ad9ea19fe03fbf8fbd17144c02ec7cf95',
                                     'out_synth/model/w1.sdt': 'd6b83319e8b6e005132c94b9fa075e6631382e157b294848d207384203f95698',
                                     'out_synth/model/w2.sdt': '03ef50092663904dcb754e1066947798826a4466f88bf671a06168b4120ac605',
                                     'out_synth/trace.csv': '369a7955346ad29da39120413af29c0d03f3371d663c4bbf799835c0684be00f'},
                           'stdout': {'bdice': 0.13898802215711145,
                                      'dice': 0.044444444444444446,
                                      'ece': 0.3537412450000514,
                                      'out': 'out_synth'}}}}
