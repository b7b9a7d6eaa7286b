"""Synthetic multi-rater segmentation data.

Each image holds 1-3 smooth blobs; the observed intensity is the blob field
plus Gaussian pixel noise, and each of K raters annotates the clean mask
after a random dilation/erosion of bounded radius plus independent flips of
pixels in the boundary band. Everything is a pure function of the spec seed.
A dataset keeps no clean mask; generate_with_clean yields them for gen-data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._filters import dilate3, erode3
from ..core import RaterStack, check_seed
from ..metrics import foreground_class, mask_dice, one_hot


@dataclass(frozen=True)
class RaterNoise:
    """Dilate/erode radius range (inclusive) plus boundary flip probability.

    boundary_flip_prob may be a single float (every rater equally sloppy) or
    a (lo, hi) pair: rater k then flips with the k-th value of
    linspace(lo, hi, K), giving the pool a quality spread that rater
    weighting can exploit.
    """

    dilate_erode_radius: tuple[int, int] = (0, 2)
    boundary_flip_prob: float | tuple[float, float] = 0.1

    def __post_init__(self):
        lo, hi = self.dilate_erode_radius
        if lo < 0 or hi < lo:
            raise ValueError(f"bad radius range {self.dilate_erode_radius}")
        p = self.boundary_flip_prob
        if not all(0.0 <= v <= 1.0 for v in ((p,) if np.isscalar(p) else p)):
            raise ValueError(f"boundary_flip_prob must be in [0, 1], got {p!r}")

    def flip_probs(self, k_raters: int) -> np.ndarray:
        p = self.boundary_flip_prob
        if np.isscalar(p):
            return np.full(k_raters, float(p))
        if k_raters == 1:
            return np.array([0.5 * (p[0] + p[1])])
        return np.linspace(p[0], p[1], k_raters)


@dataclass(frozen=True)
class SynthSpec:
    n_images: int = 50
    height: int = 64
    width: int = 64
    n_classes: int = 1
    k_raters: int = 5
    noise: RaterNoise = field(default_factory=RaterNoise)
    image_noise: float = 0.25
    blob_radius: tuple[float, float] = (0.09, 0.22)  # fraction of min(height, width)
    seed: int = 0

    def __post_init__(self):
        if self.n_images <= 0 or self.height <= 0 or self.width <= 0:
            raise ValueError("n_images, height, width must be positive")
        if self.n_classes not in (1, 2):
            raise ValueError("n_classes must be 1 or 2")
        if self.k_raters <= 0:
            raise ValueError("k_raters must be positive")
        if not 0.0 <= self.image_noise < np.inf:
            raise ValueError(f"image_noise must be nonnegative and finite, "
                             f"got {self.image_noise!r}")
        lo, hi = self.blob_radius
        if not 0.0 < lo <= hi:
            raise ValueError(f"bad blob_radius range {self.blob_radius}")
        check_seed(self.seed)


@dataclass(frozen=True)
class SynthImage:
    """An image and its raters; generate_with_clean yields its clean mask."""

    image: np.ndarray        # (H, W) observed intensity
    raters: RaterStack


@dataclass(frozen=True)
class SynthDataset:
    spec: SynthSpec
    images: tuple

    def __len__(self):
        return len(self.images)

    def __getitem__(self, i):
        return self.images[i]

    def stacks(self):
        return [im.raters for im in self.images]


def _blob_field(rng, h, w, radius_frac):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    f = np.zeros((h, w))
    for _ in range(int(rng.integers(1, 4))):
        cy = rng.uniform(0.2 * h, 0.8 * h)
        cx = rng.uniform(0.2 * w, 0.8 * w)
        r = rng.uniform(*radius_frac) * min(h, w)
        d2 = ((yy - cy) ** 2 + (xx - cx) ** 2) / (r * r)
        f = np.maximum(f, np.exp(-d2))
    return f


def _boundary_band(mask: np.ndarray) -> np.ndarray:
    return dilate3(mask) & ~erode3(mask)


def _perturb(rng, mask: np.ndarray, noise: RaterNoise, flip_prob: float) -> np.ndarray:
    lo, hi = noise.dilate_erode_radius
    radius = int(rng.integers(lo, hi + 1))
    out = mask.copy()
    if radius > 0:
        op = dilate3 if rng.random() < 0.5 else erode3
        out = op(out, radius)
    if flip_prob > 0.0:
        band = _boundary_band(out)
        flips = band & (rng.random(out.shape) < flip_prob)
        out = out ^ flips
    return out


def generate_with_clean(spec: SynthSpec):
    """Yield (SynthImage, clean) for each image of generate_synthetic(spec):
    clean is the noise-free (H, W) bool foreground mask its raters perturb."""
    streams = np.random.SeedSequence(spec.seed).spawn(spec.n_images)
    flip_probs = spec.noise.flip_probs(spec.k_raters)
    for ss in streams:
        rng = np.random.default_rng(ss)
        f = _blob_field(rng, spec.height, spec.width, spec.blob_radius)
        clean = f > np.exp(-1.0)  # pixels within one blob radius
        image = f + spec.image_noise * rng.standard_normal(f.shape)
        raters = [one_hot(_perturb(rng, clean, spec.noise, flip_probs[k]), spec.n_classes)
                  for k in range(spec.k_raters)]
        yield SynthImage(image, RaterStack(raters)), clean


def generate_synthetic(spec: SynthSpec) -> SynthDataset:
    """Deterministic dataset of images with K perturbed rater masks each."""
    return SynthDataset(spec, tuple(im for im, _ in generate_with_clean(spec)))


def mean_pairwise_rater_dice(ds: SynthDataset) -> float:
    """Monte Carlo agreement level of the rater pool (foreground class)."""
    c = foreground_class(ds.spec.n_classes)
    scores = []
    for im in ds.images:
        masks = im.raters.masks
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                scores.append(mask_dice(masks[i][c], masks[j][c]))
    return float(np.mean(scores))
