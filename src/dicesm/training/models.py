"""Tiny reference models with hand-written backward passes.

Two kinds:
  per_pixel_logistic  logistic/softmax regression on per-pixel features
                      (bias + intensity, optionally box means at several radii)
  conv2               two 3x3 convolution layers with a tanh hidden activation

Both expose prepare/forward/backward. forward(feats) returns (probs, cache):
probs is a plain (C, H, W) float64 array of sigmoid (C == 1) or softmax
probabilities, unchecked, which the training loop checks for finiteness once
per step; nothing here builds or validates a field. The module function
forward(model, image) is the boundary for other callers and returns a
ProbField. backward(cache, dprob) takes d(loss)/d(probs) as an array of the
same shape and returns parameter gradients, which a finite-difference probe
checks in the tests. Checkpoints are SDT1 tensors plus a JSON manifest.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._filters import box_mean
from ..core import (
    DicesmError,
    ProbField,
    ShapeMismatchError,
    TensorF,
    check_seed,
    from_json,
    read_tensor,
    write_tensor,
)

KINDS = ("per_pixel_logistic", "conv2")
FEATURE_SETS = ("intensity", "box_means")


class CheckpointMismatchError(DicesmError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "per_pixel_logistic"
    feature_set: str = "box_means"
    radii: tuple[int, ...] = (1, 2, 4)
    channels: int = 8
    n_classes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.feature_set not in FEATURE_SETS:
            raise ValueError(f"unknown feature_set {self.feature_set!r}")
        if self.channels <= 0 or self.n_classes <= 0:
            raise ValueError("channels and n_classes must be positive")
        if any(r < 0 for r in self.radii):
            raise ValueError(f"radii must be nonnegative, got {self.radii}")
        check_seed(self.seed)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softmax(z):
    """Softmax over the class axis: subtract, exp and divide in one array."""
    e = z - z.max(axis=0, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def _probs_from_logits(z, n_classes):
    if n_classes == 1:
        return _sigmoid(z)
    return _softmax(z)


def _dlogits(probs, dprob, n_classes):
    if n_classes == 1:
        return dprob * probs * (1.0 - probs)
    inner = np.sum(dprob * probs, axis=0, keepdims=True)
    return probs * (dprob - inner)


def extract_features(image: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Per-pixel feature stack (F, H, W): bias, intensity, then box means."""
    img = np.asarray(image, dtype=np.float64)
    feats = [np.ones_like(img), img]
    if spec.feature_set == "box_means":
        for r in spec.radii:
            feats.append(box_mean(img, 2 * r + 1))
    return np.stack(feats)


class PerPixelLogistic:
    """Linear logits from per-pixel features; sigmoid or softmax head.

    Zero-initialized, so the untrained model outputs 0.5 everywhere.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        n_feats = 2 + (len(spec.radii) if spec.feature_set == "box_means" else 0)
        n_logits = 1 if spec.n_classes == 1 else spec.n_classes
        self.params = {"w": np.zeros((n_logits, n_feats))}

    def prepare(self, image) -> np.ndarray:
        return extract_features(image, self.spec)

    def forward(self, feats: np.ndarray):
        if feats.shape[0] != self.params["w"].shape[1]:
            raise ShapeMismatchError("feature count does not match the weights")
        z = np.tensordot(self.params["w"], feats, axes=([1], [0]))
        probs = _probs_from_logits(z, self.spec.n_classes)
        return probs, {"feats": feats, "probs": probs}

    def backward(self, cache, dprob: np.ndarray):
        dz = _dlogits(cache["probs"], dprob, self.spec.n_classes)
        gw = np.tensordot(dz, cache["feats"], axes=([1, 2], [1, 2]))
        return {"w": gw}


def _conv3(x, w, b):
    """'same' 3x3 correlation with zero padding: (Cin,H,W) -> (Cout,H,W)."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))
    return np.einsum("oikl,ihwkl->ohw", w, win) + b[:, None, None]


def _conv3_backward(x, w, dz):
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))
    gw = np.einsum("ohw,ihwkl->oikl", dz, win)
    gb = dz.sum(axis=(1, 2))
    dzp = np.pad(dz, ((0, 0), (1, 1), (1, 1)))
    wino = sliding_window_view(dzp, (3, 3), axis=(1, 2))
    dx = np.einsum("oikl,ohwkl->ihw", w[:, :, ::-1, ::-1], wino)
    return gw, gb, dx


class Conv2Net:
    """conv3x3 -> tanh -> conv3x3 -> sigmoid/softmax."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        k = spec.channels
        n_logits = 1 if spec.n_classes == 1 else spec.n_classes
        self.params = {
            "w1": rng.normal(0.0, 1.0 / 3.0, (k, 1, 3, 3)),
            "b1": np.zeros(k),
            "w2": rng.normal(0.0, 1.0 / np.sqrt(9.0 * k), (n_logits, k, 3, 3)),
            "b2": np.zeros(n_logits),
        }

    def prepare(self, image) -> np.ndarray:
        return np.asarray(image, dtype=np.float64)[None]

    def forward(self, feats: np.ndarray):
        z1 = _conv3(feats, self.params["w1"], self.params["b1"])
        a1 = np.tanh(z1)
        z2 = _conv3(a1, self.params["w2"], self.params["b2"])
        probs = _probs_from_logits(z2, self.spec.n_classes)
        return probs, {"x": feats, "a1": a1, "probs": probs}

    def backward(self, cache, dprob: np.ndarray):
        dz2 = _dlogits(cache["probs"], dprob, self.spec.n_classes)
        gw2, gb2, da1 = _conv3_backward(cache["a1"], self.params["w2"], dz2)
        dz1 = da1 * (1.0 - cache["a1"] ** 2)
        gw1, gb1, _ = _conv3_backward(cache["x"], self.params["w1"], dz1)
        return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


def build_model(spec: ModelSpec):
    if spec.kind == "per_pixel_logistic":
        return PerPixelLogistic(spec)
    return Conv2Net(spec)


def forward(model, image) -> ProbField:
    """One-call convenience: prepare + forward, dropping the cache; the
    probabilities come back as a ProbField, whose construction checks that
    they are finite."""
    probs, _ = model.forward(model.prepare(image))
    return ProbField.from_array(probs)


def save_model(model, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {**asdict(model.spec), "params": {}}
    for name, arr in model.params.items():
        fname = f"{name}.sdt"
        write_tensor(out / fname, TensorF.from_array(arr))
        manifest["params"][name] = fname
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_model(model_dir):
    path = Path(model_dir) / "manifest.json"
    if not path.exists():
        raise CheckpointMismatchError(f"no manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
        files = dict(manifest["params"])  # a TypeError unless manifest is an object
        del manifest["params"]
        missing = [f.name for f in fields(ModelSpec) if f.name not in manifest]
        if missing:
            raise KeyError(f"missing keys {missing}")
        spec = from_json(ModelSpec, manifest)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointMismatchError(f"bad manifest {path}: {e}") from None
    model = build_model(spec)
    for name, ref in model.params.items():
        if name not in files:
            raise CheckpointMismatchError(f"{path} lacks the parameter {name!r}")
        arr = read_tensor(Path(model_dir) / files[name]).as_array()
        if arr.shape != ref.shape:
            raise CheckpointMismatchError(
                f"parameter {name!r} has shape {arr.shape}, expected {ref.shape}")
        model.params[name] = np.ascontiguousarray(arr)
    return model
