"""dicesm._filters against scipy.ndimage, its oracle.

Every comparison asks for the same dtype and np.array_equal, never a
tolerance: the helpers stand in for scipy in the feature extractor, the
KDE pixel scope and the synthetic raters, whose outputs the CLI golden
tests pin byte for byte. The last tests keep scipy and numpy.polynomial
off the import path of the command-line tool and numpy.random on it, and
numpy.ma out of a calibrate run.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import dicesm
from dicesm._filters import box_mean, dilate3, erode3, window_max, window_min
from dicesm.core import TensorF, write_tensor

SQUARE = np.ones((3, 3), bool)
SHAPES = [(1, 1), (1, 9), (9, 1), (2, 3), (6, 6), (17, 11)]
RADII = [0, 1, 2, 4, 12]  # 0: a one-pixel window; 12 reaches past every side
SIDES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)


def assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def scipy_box(a, r):
    return ndimage.uniform_filter(a, size=2 * r + 1, mode="reflect")


def scipy_max(c, r):
    return ndimage.maximum_filter(c, size=2 * r + 1, mode="nearest")


def scipy_min(c, r):
    return ndimage.minimum_filter(c, size=2 * r + 1, mode="nearest")


def scipy_binary(op, mask, iterations):
    return op(mask, SQUARE, iterations=iterations)


class TestBoxMean:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r", RADII)
    def test_fixed_cases(self, shape, r):
        a = np.random.default_rng(sum(shape) + r).standard_normal(shape)
        assert_same(box_mean(a, 2 * r + 1), scipy_box(a, r))

    @pytest.mark.parametrize("size", [1, 0, -1])
    def test_size_one_or_less_is_a_copy(self, size):
        a = np.arange(6.0).reshape(2, 3) / 7.0
        out = box_mean(a, size)
        assert_same(out, ndimage.uniform_filter(a, size=size, mode="reflect"))
        assert_same(out, a)
        assert out is not a

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, SIDES, elements=st.floats(-1e6, 1e6)),
           st.integers(0, 30))
    def test_matches_uniform_filter(self, a, r):
        assert_same(box_mean(a, 2 * r + 1), scipy_box(a, r))


class TestWindowExtremes:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r", RADII)
    def test_fixed_cases(self, shape, r):
        c = np.random.default_rng(sum(shape) + r).integers(0, 3, shape)
        assert_same(window_max(c, 2 * r + 1), scipy_max(c, r))
        assert_same(window_min(c, 2 * r + 1), scipy_min(c, r))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(st.sampled_from([np.int64, np.intp, np.uint8]), SIDES,
                      elements=st.integers(0, 4)),
           st.integers(0, 30))
    def test_match_maximum_and_minimum_filter(self, c, r):
        assert_same(window_max(c, 2 * r + 1), scipy_max(c, r))
        assert_same(window_min(c, 2 * r + 1), scipy_min(c, r))


class TestBinaryMorphology:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("iterations", [1, 2, 3, 4])
    def test_fixed_cases(self, shape, iterations):
        mask = np.random.default_rng(sum(shape) + iterations).random(shape) < 0.6
        assert_same(dilate3(mask, iterations),
                    scipy_binary(ndimage.binary_dilation, mask, iterations))
        assert_same(erode3(mask, iterations),
                    scipy_binary(ndimage.binary_erosion, mask, iterations))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (5, 5)])
    def test_erosion_clears_the_border(self, shape):
        full = np.ones(shape, bool)
        out = erode3(full)
        assert_same(out, scipy_binary(ndimage.binary_erosion, full, 1))
        inner = np.zeros(shape, bool)
        inner[1:-1, 1:-1] = True
        assert np.array_equal(out, inner)

    def test_dilation_grows_nothing_in_from_the_border(self):
        empty = np.zeros((4, 4), bool)
        assert_same(dilate3(empty, 3), scipy_binary(ndimage.binary_dilation, empty, 3))
        assert not dilate3(empty, 3).any()

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.bool_, SIDES), st.integers(1, 4))
    def test_match_binary_dilation_and_erosion(self, mask, iterations):
        assert_same(dilate3(mask, iterations),
                    scipy_binary(ndimage.binary_dilation, mask, iterations))
        assert_same(erode3(mask, iterations),
                    scipy_binary(ndimage.binary_erosion, mask, iterations))


def test_cli_import_leaves_out_ndimage_and_integrate():
    src = Path(dicesm.__file__).resolve().parents[1]
    code = ("import sys, dicesm.cli, dicesm.training\n"
            "print([m for m in ('scipy.ndimage', 'scipy.integrate', 'numpy.polynomial')\n"
            "       if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy_and_loads_numpy_random():
    # numpy.random loads at import so that its cost stays in start-up, not
    # in the first draw of a timed job
    src = Path(dicesm.__file__).resolve().parents[1]
    code = ("import sys, dicesm, dicesm.cli, dicesm.training\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')),\n"
            "      'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[] True"


def test_calibrate_run_leaves_out_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, which would put that
    # import inside the timed part of every calibrate and distill job
    rng = np.random.default_rng(3)
    p = rng.random((24, 24))
    for name, arr in (("pred", np.stack([1.0 - p, p])),
                      ("label", np.stack([p <= 0.5, p > 0.5]).astype(float))):
        write_tensor(tmp_path / f"{name}.sdt", TensorF(arr.shape, arr.ravel()))
    src = Path(dicesm.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from dicesm.cli import main\n"
            "code = main(['calibrate', '--pred', 'pred.sdt', '--label', 'label.sdt',\n"
            "             '--n-key', '32', '--bandwidth', '0.05', '--out', 'cal.sdt'])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 False"
