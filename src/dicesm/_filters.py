"""Numpy versions of the scipy.ndimage filters dicesm uses.

dicesm needs numpy alone at run time; scipy is a test dependency, the
oracle for these helpers. Each one returns the same array as the
scipy.ndimage call it names, bit for bit and in the same dtype, for 2-D
input and an odd size (the default origin 0 centres the window);
tests/test_filters.py checks this against scipy.

box_mean(a, size)
    uniform_filter(a, size=size, mode="reflect") on a float64 array.
    "reflect" repeats the edge sample (d c b a | a b c d | d c b a), which
    is np.pad's "symmetric" mode, also where size // 2 exceeds a
    dimension. scipy filters axis 0, then axis 1, each as a running sum:
    the sum of the first window, then + (in[i + size - 1] - in[i - 1]) per
    step, each partial sum divided by size. A cumulative sum of those
    steps adds in the same order, so it rounds the same way; the memory
    layout it runs on moves no bit. At a size of 1 or less both return a
    copy of a.
window_max(a, size), window_min(a, size)
    maximum_filter / minimum_filter(a, size=size, mode="nearest"): the
    edge value repeats outward. Max and min are exact whatever the order.
dilate3(mask, iterations), erode3(mask, iterations)
    binary_dilation / binary_erosion(mask, np.ones((3, 3), bool),
    iterations=iterations) with scipy's default border_value=0: the
    outside counts as False, so dilation grows nothing in from the border
    and erosion clears every pixel on it. Returns bool; iterations >= 1.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _pad_axis(a, axis, size, mode):
    """Pad a along axis so that window i of size covers in[i - size // 2 ...]."""
    widths = [(0, 0)] * a.ndim
    widths[axis] = (size // 2, size - size // 2 - 1)
    return np.pad(a, widths, mode=mode)


def _symmetric_index(n: int, size: int) -> np.ndarray:
    """Indices of np.pad's "symmetric" padding of n samples for a centred
    window of size: the extension is periodic with period 2n."""
    k = np.arange(-(size // 2), n + size - size // 2 - 1) % (2 * n)
    return np.where(k < n, k, 2 * n - 1 - k)


def box_mean(a, size: int) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    if size <= 1:  # scipy copies the input; a running sum would round
        return out
    for axis in range(out.ndim):
        # one gather pads the axis and lays it out first in a contiguous
        # copy, so each step below is one contiguous row operation
        p = np.moveaxis(out, axis, 0).take(_symmetric_index(out.shape[axis], size), axis=0)
        steps = np.empty_like(p)
        steps[:size] = p[:size]
        np.subtract(p[size:], p[:-size], out=steps[size:])
        out = np.cumsum(steps, axis=0)[size - 1:]
        out /= size
        out = np.moveaxis(out, 0, axis)
    return out


def _window_reduce(a, size, reduce, mode):
    out = np.asarray(a)
    for axis in range(out.ndim):
        windows = sliding_window_view(_pad_axis(out, axis, size, mode), size, axis=axis)
        out = reduce(windows, axis=-1)
    return out


def window_max(a, size: int) -> np.ndarray:
    return _window_reduce(a, size, np.max, "edge")


def window_min(a, size: int) -> np.ndarray:
    return _window_reduce(a, size, np.min, "edge")


def dilate3(mask, iterations: int = 1) -> np.ndarray:
    out = np.asarray(mask, dtype=bool)
    for _ in range(iterations):
        out = _window_reduce(out, 3, np.any, "constant")
    return out


def erode3(mask, iterations: int = 1) -> np.ndarray:
    out = np.asarray(mask, dtype=bool)
    for _ in range(iterations):
        out = _window_reduce(out, 3, np.all, "constant")
    return out
