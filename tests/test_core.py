import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dicesm import core
from dicesm.core import (
    BadMagicError,
    DimOverflowError,
    HardnessViolationError,
    LabelField,
    NonFiniteError,
    OutOfRangeError,
    ProbField,
    RaterStack,
    ShapeMismatchError,
    SimplexViolationError,
    TensorF,
    TensorIOError,
    TruncatedFileError,
    read_prob_field,
    read_tensor,
    validate,
    write_tensor,
)
from dicesm.calibration import KdeSpec
from dicesm.cli import RunSpec
from dicesm.losses import LossSpec
from dicesm.training import KdSpec, ModelSpec, RaterNoise, SynthSpec, TrainSpec


class TestTensorF:
    def test_shape_and_data(self):
        t = TensorF((2, 3), np.arange(6, dtype=float))
        assert t.dims == (2, 3)
        assert t.as_array().shape == (2, 3)
        assert t.size == 6

    def test_data_is_frozen_copy(self):
        src = np.zeros(4)
        t = TensorF((4,), src)
        src[0] = 7.0
        assert t.data[0] == 0.0
        with pytest.raises(ValueError):
            t.data[0] = 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            TensorF((2, 2), np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError) as e:
            TensorF((3,), [0.0, np.nan, 1.0])
        assert e.value.flat_index == 1

    def test_bad_dims(self):
        with pytest.raises(DimOverflowError):
            TensorF((0, 2), np.zeros(0))
        with pytest.raises(DimOverflowError):
            TensorF((), np.zeros(1))

    def test_element_count_does_not_wrap(self):
        # 2**32 * 2**32 is 0 in int64 arithmetic
        with pytest.raises(DimOverflowError):
            TensorF((2**32, 2**32), np.zeros(1))


class TestValidate:
    def test_constant_half_ok(self):
        validate(ProbField.from_array(np.full((1, 4, 4), 0.5)))

    def test_two_class_simplex_ok(self):
        a = np.full((2, 3, 3), 0.5)
        validate(ProbField.from_array(a))
        validate(LabelField.from_array(a))

    def test_out_of_range(self):
        a = np.full((1, 2, 2), 0.5)
        a[0, 1, 1] = 1.0000001
        with pytest.raises(OutOfRangeError) as e:
            validate(ProbField.from_array(a))
        assert e.value.flat_index == 3

    def test_simplex_violation(self):
        a = np.full((2, 2, 2), 0.5)
        a[0, 0, 0] = 0.6
        with pytest.raises(SimplexViolationError) as e:
            validate(ProbField.from_array(a))
        assert e.value.flat_index == 0

    def test_simplex_tolerance_absorbs_rounding(self):
        a = np.full((2, 1, 1), 0.5)
        a[0, 0, 0] += 5e-10
        validate(ProbField.from_array(a))

    def test_two_class_field_survives_float32_storage(self, tmp_path):
        rng = np.random.default_rng(3)
        p = rng.random((64, 64))
        path = tmp_path / "p.sdt"
        write_tensor(path, TensorF.from_array(np.stack([1.0 - p, p])))
        back = read_prob_field(path)
        assert np.abs(back.array.sum(axis=0) - 1.0).max() > 1e-9
        validate(back)

    def test_row_off_by_1e_5_raises(self):
        a = np.full((2, 2, 2), 0.5)
        a[1, 1, 0] += 1e-5
        with pytest.raises(SimplexViolationError) as e:
            validate(ProbField.from_array(a))
        assert e.value.flat_index == 2

    def test_needs_chw(self):
        with pytest.raises(ShapeMismatchError):
            ProbField(TensorF((4,), np.zeros(4)))

    def test_construction_validates_once(self, monkeypatch):
        seen = []
        monkeypatch.setattr(core, "validate", seen.append)
        p = ProbField.from_array(np.full((2, 2, 2), 0.5))
        y = LabelField.from_array(np.ones((1, 2, 2)))
        assert seen == [p, y]

    @pytest.mark.parametrize("build,values,error,index", [
        (ProbField.from_array, [[[0.5, -0.25]]], OutOfRangeError, 1),
        (LabelField.from_array, [[[1.0, 1.5]]], OutOfRangeError, 1),
        (LabelField.from_array, [[[1.0, 0.0, 1.25]]], OutOfRangeError, 2),
        (ProbField.from_array, [[[0.5, 0.5]], [[0.5, 0.25]]], SimplexViolationError, 1),
        (lambda a: LabelField(TensorF.from_array(a)), [[[0.5, 1.0]], [[0.5, 1.0]]],
         SimplexViolationError, 1),
    ])
    def test_from_array_rejects(self, build, values, error, index):
        with pytest.raises(error) as e:
            build(np.array(values))
        assert e.value.flat_index == index


def _first_violation(a: np.ndarray):
    """(error type, flat index) of the first violation, found element by
    element, or None: the reference for validate's reductions."""
    for i, v in enumerate(a.reshape(-1)):
        if not 0.0 <= v <= 1.0:
            return OutOfRangeError, i
    if a.shape[0] >= 2:
        for i, s in enumerate(a.sum(axis=0).reshape(-1)):
            if abs(s - 1.0) > core.SIMPLEX_TOL:
                return SimplexViolationError, i
    return None


_EDGE = [0.0, -0.0, 1.0, 0.5, 0.25, 0.75, 1.0 + 2.0 ** -52, -2.0 ** -1074,
         0.5 + core.SIMPLEX_TOL, 0.5 - core.SIMPLEX_TOL, np.nextafter(1.0, 0.0)]


class TestValidateReference:
    """ProbField and LabelField accept and reject the same arrays, with the
    elementwise reference's error and index; a LabelField that is built is
    hard exactly when every value is 0 or 1."""

    @settings(max_examples=300, deadline=None)
    @given(c=st.integers(1, 3), n=st.integers(1, 6), hard=st.booleans(),
           data=st.data())
    def test_matches_the_elementwise_checks(self, c, n, hard, data):
        # hard draws only 0, -0.0 and 1, so that hard labels are common
        elements = st.sampled_from(_EDGE[:3]) if hard else st.one_of(
            st.sampled_from(_EDGE), st.floats(-0.1, 1.1))
        values = data.draw(st.lists(elements, min_size=c * n, max_size=c * n))
        a = np.array(values).reshape(c, 1, n)
        if c >= 2 and data.draw(st.booleans()):
            a[-1] = 1.0 - a[:-1].sum(axis=0)
        expected = _first_violation(a)
        for build in (ProbField.from_array, LabelField.from_array):
            if expected is None:
                build(a)
                continue
            with pytest.raises(expected[0]) as e:
                build(a)
            assert e.value.flat_index == expected[1]
        if expected is None:
            assert LabelField.from_array(a).is_hard == bool(np.all((a == 0.0) | (a == 1.0)))


class TestHardnessOf:
    """core._hardness_of (two counts), the one hardness rule, agrees with
    the elementwise np.all((a == 0) | (a == 1)) on every edge array, -0.0
    and NaN included; a LabelField built from an array in range takes that
    hardness."""

    VALUES = [0.0, -0.0, 1.0, 0.5, 1e-300, np.nextafter(1.0, 0.0), 2.0, np.nan]

    @staticmethod
    def _old(a):
        return "hard" if np.all((a == 0.0) | (a == 1.0)) else "soft"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_elementwise_expression(self, k):
        import itertools

        for combo in itertools.product(self.VALUES, repeat=k):
            a = np.array(combo).reshape(1, 1, k)
            want = self._old(a)
            assert core._hardness_of(a) == want, combo
            if np.all((a >= 0.0) & (a <= 1.0)):
                assert LabelField.from_array(a).hardness == want, combo

    def test_read_label_field_infers_it(self, tmp_path):
        for values, want in (([0.0, -0.0, 1.0], "hard"), ([0.0, 0.5, 1.0], "soft")):
            write_tensor(tmp_path / "y.sdt", TensorF.from_array(np.array(values).reshape(1, 1, 3)))
            assert core.read_label_field(tmp_path / "y.sdt").hardness == want


class TestRaterStack:
    """A RaterStack checks what a bool (K, C, H, W) array can get wrong; a
    rater file is checked where it is read, by cli._stack_from_files."""

    def test_basic(self):
        masks = np.ones((3, 1, 2, 2), dtype=bool)
        stack = RaterStack(masks)
        masks[0] = False  # the stack holds a read-only copy
        assert (len(stack), stack.dims) == (3, (1, 2, 2))
        assert stack.masks.all() and not stack.masks.flags.writeable

    def test_empty(self):
        for masks in ((), np.zeros((0, 1, 2, 2), dtype=bool)):
            with pytest.raises(core.EmptyStackError):
                RaterStack(masks)

    def test_soft_member_rejected(self):
        # masks are bool: float values are refused, 0/1 ones too
        for masks in (np.full((1, 1, 2, 2), 0.5), np.ones((1, 1, 2, 2))):
            with pytest.raises(TypeError):
                RaterStack(masks)

    @pytest.mark.parametrize("value,error", [(0.5, HardnessViolationError),
                                             (1.5, core.OutOfRangeError)])
    def test_member_labelled_hard_is_validated(self, value, error, tmp_path):
        from dicesm.cli import _stack_from_files

        good, bad = tmp_path / "good.sdt", tmp_path / "bad.sdt"
        write_tensor(good, TensorF.from_array(np.ones((1, 2, 2))))
        write_tensor(bad, TensorF.from_array(np.full((1, 2, 2), value)))
        with pytest.raises(error):
            _stack_from_files([good, bad])
        write_tensor(bad, TensorF.from_array(np.ones((1, 2, 3))))
        with pytest.raises(ShapeMismatchError):
            _stack_from_files([good, bad])

    def test_dim_mismatch(self):
        for shape in ((1, 2, 2), (1, 1, 1, 2, 2)):
            with pytest.raises(ShapeMismatchError):
                RaterStack(np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("marked", [0, 2])
    def test_two_class_pixel_in_no_class_or_two(self, marked):
        masks = np.arange(2)[:, None, None] == np.zeros((3, 4, 5), int)[:, None]
        masks[2, :, 1, 3] = marked // 2
        with pytest.raises(SimplexViolationError, match=f"rater 2 marks {marked} classes") as e:
            RaterStack(masks)
        assert e.value.flat_index == 1 * 5 + 3


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        t = TensorF((1, 2, 2), np.array([0.0, 0.5, 1.0, 0.25]))
        path = tmp_path / "t.sdt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.dims == t.dims
        assert back.data.tobytes() == t.data.tobytes()

    def test_file_round_trip_is_identity(self, tmp_path):
        # after one f32 rounding, write/read is the identity on files
        rng = np.random.default_rng(0)
        t = TensorF((3, 5), rng.random(15))
        p1, p2 = tmp_path / "a.sdt", tmp_path / "b.sdt"
        write_tensor(p1, t)
        write_tensor(p2, read_tensor(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.sdt"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        t = TensorF((10,), np.zeros(10))
        path = tmp_path / "t.sdt"
        write_tensor(path, t)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])  # drop 2 of 10 values
        with pytest.raises(TruncatedFileError):
            read_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        t = TensorF((2,), np.zeros(2))
        path = tmp_path / "t.sdt"
        write_tensor(path, t)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TruncatedFileError):
            read_tensor(path)

    def test_dim_overflow(self, tmp_path):
        import struct

        path = tmp_path / "t.sdt"
        path.write_bytes(core.MAGIC + struct.pack("<I", 2) + struct.pack("<2I", 1 << 20, 1 << 20))
        with pytest.raises(DimOverflowError):
            read_tensor(path)

    def test_zero_dim(self, tmp_path):
        import struct

        path = tmp_path / "t.sdt"
        path.write_bytes(core.MAGIC + struct.pack("<I", 1) + struct.pack("<I", 0))
        with pytest.raises(DimOverflowError):
            read_tensor(path)

    def test_label_hardness_inferred(self, tmp_path):
        path = tmp_path / "y.sdt"
        core.write_field(path, LabelField.from_array(np.ones((1, 2, 2))))
        assert core.read_label_field(path).is_hard
        core.write_field(path, LabelField.from_array(np.full((1, 2, 2), 0.5)))
        assert not core.read_label_field(path).is_hard


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _sdt_files(draw):
    """SDT1 files built from dims and a float32 payload, with at most one
    fault: a wrong magic, rank or dim, or the file cut short or extended."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    values = draw(st.lists(st.floats(width=32), min_size=math.prod(dims),
                           max_size=math.prod(dims)))
    magic, rank = core.MAGIC, len(dims)
    fault = draw(st.sampled_from(["none", "magic", "rank", "dim", "cut", "extend"]))
    if fault == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != core.MAGIC))
    elif fault == "rank":
        rank = draw(st.sampled_from([0, rank - 1, rank + 1, 17, 2**32 - 1]))
    elif fault == "dim":
        dims[draw(st.integers(0, len(dims) - 1))] = draw(st.sampled_from([0, 2**16, 2**32 - 1]))
    raw = (magic + struct.pack("<I", rank) + struct.pack(f"<{len(dims)}I", *dims)
           + struct.pack(f"<{len(values)}f", *values))
    if fault == "cut":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif fault == "extend":
        raw += draw(st.binary(min_size=1, max_size=8))
    return raw


def _sound_sdt(raw):
    """(dims, float32 payload) of a structurally sound SDT1 file, else None:
    magic "SDT1", rank 1..16, positive dims with at most 2**31 elements, and
    exactly 4 bytes per element after the header."""
    if len(raw) < 8 or raw[:4] != core.MAGIC:
        return None
    (rank,) = struct.unpack_from("<I", raw, 4)
    if not 1 <= rank <= 16 or len(raw) < 8 + 4 * rank:
        return None
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    n = math.prod(dims)
    if n == 0 or n > 1 << 31 or len(raw) != 8 + 4 * rank + 4 * n:
        return None
    return dims, np.frombuffer(raw, dtype="<f4", offset=8 + 4 * rank)


class TestReadTensorFuzz:
    """read_tensor raises nothing but DicesmError subclasses. A structural
    fault (magic, rank, a zero or overflowing dim, a length that disagrees
    with the dims) raises TensorIOError. A sound file whose payload holds a
    NaN or an infinity raises NonFiniteError, which is a ValidationError and
    not a TensorIOError: the file is intact, its values are not."""

    @_FUZZ
    @given(raw=st.one_of(_sdt_files(), st.binary(max_size=64),
                         st.binary(max_size=64).map(core.MAGIC.__add__)))
    def test_only_the_documented_errors(self, raw, tmp_path):
        path = tmp_path / "t.sdt"
        path.write_bytes(raw)
        sound = _sound_sdt(raw)
        if sound is None:
            with pytest.raises(TensorIOError):
                read_tensor(path)
            return
        dims, payload = sound
        if not np.all(np.isfinite(payload)):
            with pytest.raises(NonFiniteError):
                read_tensor(path)
            return
        t = read_tensor(path)
        assert t.dims == dims
        assert t.data.tobytes() == payload.astype(np.float64).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_value(self, bad, tmp_path):
        path = tmp_path / "t.sdt"
        path.write_bytes(core.MAGIC + struct.pack("<2I", 1, 1) + struct.pack("<f", bad))
        with pytest.raises(NonFiniteError) as e:
            read_tensor(path)
        assert not isinstance(e.value, TensorIOError)

    @_FUZZ
    @given(values=st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=64))
    def test_float32_round_trip_is_exact(self, values, tmp_path):
        t = TensorF((len(values),), np.array(values, dtype=np.float32).astype(np.float64))
        path = tmp_path / "t.sdt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.dims == t.dims
        assert back.data.tobytes() == t.data.tobytes()


SPECS = {c.__name__: c for c in (KdSpec, LossSpec, ModelSpec, RaterNoise, RunSpec, SynthSpec,
                                  TrainSpec)}

# (spec class, JSON object, the spec that from_json builds or the ConfigError
# message it raises): defaults for missing keys, nested objects, JSON lists
# as tuples, every JSON type an annotation allows, and the errors that name
# the innermost class or a missing key
FROM_JSON = {
    "nested_dataclass": ("KdSpec", {"use_kde": True, "kde": {"n_key": 16}},
                         KdSpec(use_kde=True, kde=KdeSpec(n_key=16))),
    "empty_object": ("KdSpec", {}, KdSpec()),
    "lists_as_tuples": ("SynthSpec", {"noise": {"dilate_erode_radius": [1, 2],
                                                "boundary_flip_prob": [0.1, 0.3]},
                                      "blob_radius": [0.1, 0.2]},
                        SynthSpec(noise=RaterNoise((1, 2), (0.1, 0.3)), blob_radius=(0.1, 0.2))),
    "empty_list": ("ModelSpec", {"radii": []}, ModelSpec(radii=())),
    "int_for_float": ("TrainSpec", {"lr0": 1, "loss": {"params": None}}, TrainSpec(lr0=1)),
    "null_for_optional": ("KdSpec", {"teacher_checkpoint": None, "use_kde": False,
                                     "kd_weight": 2}, KdSpec(kd_weight=2)),
    "flip_prob_float": ("RaterNoise", {"boundary_flip_prob": 0.2}, RaterNoise((0, 2), 0.2)),
    "flip_prob_int": ("RaterNoise", {"boundary_flip_prob": 1}, RaterNoise((0, 2), 1)),
    "flip_prob_pair": ("RaterNoise", {"boundary_flip_prob": [0.1, 0.3]},
                       RaterNoise((0, 2), (0.1, 0.3))),
    "inner_loss": ("TrainSpec", {"loss": {"name": 3}}, "LossSpec.name must be str, got 3"),
    "inner_kde": ("KdSpec", {"kde": {"seed": "0"}}, "KdeSpec.seed must be int, got '0'"),
    "inner_noise": ("RunSpec", {"data": {"synth": {"noise": {"dilate_erode_radius": [0, 1.5]}}}},
                    "RaterNoise.dilate_erode_radius must be tuple[int, int], got [0, 1.5]"),
    "missing_key": ("RunSpec", {"train": {}}, "RunSpec needs the keys ['data']"),
}


class TestFromJson:
    @pytest.mark.parametrize("case", sorted(FROM_JSON))
    def test_from_json(self, case):
        cls, d, expected = FROM_JSON[case]
        if isinstance(expected, str):
            with pytest.raises(core.ConfigError, match=re.escape(expected)):
                core.from_json(SPECS[cls], d)
        else:
            assert core.from_json(SPECS[cls], d) == expected

    @pytest.mark.parametrize("cls,d", [
        ("KdSpec", {"use_kde": "false"}), ("KdSpec", {"use_kde": 0}),
        ("KdSpec", {"teacher_checkpoint": 1}), ("KdSpec", {"kd_weight": True}),
        ("TrainSpec", {"epochs": True}), ("TrainSpec", {"epochs": 2.0}),
        ("TrainSpec", {"epochs": None}), ("TrainSpec", {"lr0": "0.1"}),
        ("LossSpec", {"name": 3}), ("LossSpec", {"params": [1]}),
        ("ModelSpec", {"radii": 2}), ("RaterNoise", {"boundary_flip_prob": None}),
        ("RaterNoise", {"boundary_flip_prob": False}),
        ("ModelSpec", {"radii": [1.9]}), ("ModelSpec", {"radii": ["2"]}),
        ("ModelSpec", {"radii": [True]}), ("ModelSpec", {"radii": [1, None]}),
        ("RaterNoise", {"dilate_erode_radius": [0.5, 1.7]}),
        ("RaterNoise", {"dilate_erode_radius": [1]}),
        ("RaterNoise", {"dilate_erode_radius": [0, 1, 2]}),
        ("RaterNoise", {"boundary_flip_prob": ["0.1", "0.2"]}),
        ("RaterNoise", {"boundary_flip_prob": [0.1]}),
        ("SynthSpec", {"blob_radius": ["a", "b"]}), ("SynthSpec", {"blob_radius": [0.1]}),
    ])
    def test_rejects_a_value_of_another_json_type(self, cls, d):
        with pytest.raises(core.ConfigError, match=f"{cls}.{next(iter(d))} must be"):
            core.from_json(SPECS[cls], d)

    @pytest.mark.parametrize("d", [{"bogus": 1}, {"kde": {"bogus": 1}}, {"kde": None},
                                   {"kde": [1]}, None, [], "spec", 3])
    def test_rejects_unknown_keys_and_non_objects(self, d):
        with pytest.raises(core.ConfigError):
            core.from_json(KdSpec, d)
