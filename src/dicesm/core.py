"""Value types shared by every module: dense float64 tensors, probability and
label fields over a [C, H, W] grid, multi-rater stacks of bool masks, their
validation, the SDT1 binary tensor file format, and ``from_json``, the one
reader of JSON documents, which builds every spec dataclass from its JSON.

All types are immutable after construction and safe to share across workers.
Each is valid by construction: a TensorF is finite, a ProbField or
LabelField runs :func:`validate` once, in its constructor, and a RaterStack
checks its masks once, so every value that exists satisfies its invariants
and no consumer checks them again. A LabelField's hardness is read off its
values by :func:`_hardness_of`, the library's one hardness rule; a rater is
hard by its bool dtype.
Arithmetic everywhere is float64; files store float32 and readers up-convert.
"""

from __future__ import annotations

import math
import struct
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

MAGIC = b"SDT1"

# Largest |row sum - 1| accepted for C >= 2 probabilities. SDT1 stores
# float32, and rounding a value to float32 moves it by at most 2**-24 of
# itself, so a row on the simplex comes back with a sum within 2**-24 of 1;
# 2**-40 more covers the float64 sums, which err by under 2**-53 per class
# for up to 2**12 classes.
SIMPLEX_TOL = 2.0 ** -24 + 2.0 ** -40

_MAX_RANK = 16
_MAX_ELEMS = 1 << 31

HARD = "hard"
SOFT = "soft"


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class DicesmError(Exception):
    """Base class for all library errors."""


class ConfigError(ValueError):
    """A flag, spec value, config or manifest refused at the boundary, before
    any run starts: bad usage, which the CLI reports without a traceback."""


class ValidationError(DicesmError):
    """A field invariant is violated.

    ``flat_index`` locates the first offending element in row-major order,
    or None when the violation is structural.
    """

    def __init__(self, message: str, flat_index: int | None = None):
        super().__init__(message)
        self.flat_index = flat_index


class NonFiniteError(ValidationError):
    pass


class OutOfRangeError(ValidationError):
    pass


class SimplexViolationError(ValidationError):
    pass


class HardnessViolationError(ValidationError):
    pass


class ShapeMismatchError(DicesmError):
    pass


class TensorIOError(DicesmError):
    pass


class BadMagicError(TensorIOError):
    pass


class TruncatedFileError(TensorIOError):
    pass


class DimOverflowError(TensorIOError):
    pass


class EmptyStackError(DicesmError):
    pass


# --------------------------------------------------------------------------
# Tensors and fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorF:
    """Dense tensor: positive dims plus flat row-major float64 data.

    The data array is copied on construction and frozen read-only, so a
    TensorF can never alias caller-owned memory.
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or len(dims) > _MAX_RANK:
            raise DimOverflowError(f"rank must be in 1..{_MAX_RANK}, got {len(dims)}")
        if any(d <= 0 for d in dims):
            raise DimOverflowError(f"dims must be positive, got {dims}")
        n = math.prod(dims)
        if n > _MAX_ELEMS:
            raise DimOverflowError(f"{n} elements exceeds the {_MAX_ELEMS} cap")
        data = np.array(self.data, dtype=np.float64, copy=True).reshape(-1)
        if data.size != n:
            raise ShapeMismatchError(
                f"dims {dims} imply {n} elements, data has {data.size}"
            )
        check_finite(data)
        data.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, arr) -> "TensorF":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(tuple(arr.shape), arr.reshape(-1))

    def as_array(self) -> np.ndarray:
        """Read-only view shaped to dims."""
        return self.data.reshape(self.dims)

    @property
    def size(self) -> int:
        return self.data.size


@dataclass(frozen=True)
class _Field:
    """A [C, H, W] tensor of values in [0, 1], on the probability simplex
    per pixel for C >= 2; the constructor checks both once, with
    :func:`validate`. C == 1 is a binary foreground channel."""

    tensor: TensorF

    def __post_init__(self):
        if len(self.tensor.dims) != 3:
            raise ShapeMismatchError(
                f"{type(self).__name__} requires dims [C, H, W], got {self.tensor.dims}")
        validate(self)

    @classmethod
    def from_array(cls, arr):
        return cls(TensorF.from_array(arr))

    @property
    def array(self) -> np.ndarray:
        return self.tensor.as_array()

    @property
    def n_classes(self) -> int:
        return self.tensor.dims[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.tensor.dims


@dataclass(frozen=True)
class ProbField(_Field):
    """Per-pixel class probabilities over a [C, H, W] grid."""


@dataclass(frozen=True)
class LabelField(_Field):
    """Per-pixel training target over a [C, H, W] grid; hardness is HARD
    when every value is exactly 0 or 1, else SOFT."""

    hardness: str = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "hardness", _hardness_of(self.tensor.data))

    @property
    def is_hard(self) -> bool:
        return self.hardness == HARD


@dataclass(frozen=True, init=False, eq=False)
class RaterStack:
    """K independent hard annotations of one image, identical dims.

    The constructor takes the raters as one (K, C, H, W) bool array, True
    where a rater marks 1, and keeps a read-only copy as ``masks``. A bool
    array is hard by its dtype, so the constructor checks only what one can
    still get wrong: its rank, K >= 1 and, for C >= 2, that each rater marks
    exactly one class per pixel. Every consumer counts votes and combines
    raters on ``masks``."""

    masks: np.ndarray

    def __init__(self, masks):
        masks = np.array(masks)
        if masks.shape[:1] == (0,):
            raise EmptyStackError("a RaterStack needs at least one rater")
        if masks.dtype != np.bool_:
            raise TypeError(f"rater masks must be bool, got {masks.dtype}")
        if masks.ndim != 4:
            raise ShapeMismatchError(f"rater masks need dims [K, C, H, W], got {masks.shape}")
        if masks.shape[1] >= 2:
            # a dtype that holds C, as in softlabels.vote_counts, counts exactly
            marked = np.sum(masks, axis=1, dtype=np.min_scalar_type(masks.shape[1]))
            marked = marked.reshape(len(masks), -1)
            if not (marked == 1).all():
                k, pix = np.argwhere(marked != 1)[0]
                raise SimplexViolationError(
                    f"rater {k} marks {marked[k, pix]} classes at pixel {pix}",
                    flat_index=int(pix))
        masks.flags.writeable = False
        object.__setattr__(self, "masks", masks)

    def __len__(self) -> int:
        return self.masks.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.masks.shape[1:]


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def check_finite(arr: np.ndarray) -> None:
    """Raise NonFiniteError at the first NaN or infinity of arr, with its
    flat index in row-major order."""
    if not np.isfinite(arr).all():
        i = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteError(f"non-finite value at flat index {i}", flat_index=i)


def check_seed(seed: int) -> None:
    """Refuse a negative spec seed, which numpy refuses only once a run runs."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")


def _hardness_of(a: np.ndarray) -> str:
    """HARD if every value of a is 0 or 1, else SOFT: the ones are among the
    nonzeros (NaN is nonzero, -0.0 is not), so the counts agree iff so."""
    return HARD if np.count_nonzero(a) == np.count_nonzero(a == 1.0) else SOFT


def validate(f: ProbField | LabelField) -> None:
    """Check the numeric invariants of a field; raise on the first violation.

    The ProbField and LabelField constructors call this once; finiteness is
    TensorF's own invariant. Each check is one whole-array reduction, and
    only a failing one looks for its first offending element. Raises
    OutOfRangeError or SimplexViolationError, each carrying that element's
    flat index.
    """
    data = f.tensor.data
    if data.min() < 0.0 or data.max() > 1.0:
        i = int(np.flatnonzero((data < 0.0) | (data > 1.0))[0])
        raise OutOfRangeError(f"value {data[i]!r} outside [0, 1] at flat index {i}",
                              flat_index=i)
    if f.n_classes >= 2:
        sums = f.array.sum(axis=0).reshape(-1)
        # s - 1 is exact for s in [0.5, 2], so this is max |s - 1| > SIMPLEX_TOL
        if sums.min() < 1.0 - SIMPLEX_TOL or sums.max() > 1.0 + SIMPLEX_TOL:
            pix = int(np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_TOL)[0])
            raise SimplexViolationError(
                f"class sum {sums[pix]!r} at pixel {pix} "
                f"(flat index {pix})", flat_index=pix)


def check_same_dims(a, b) -> None:
    if a.dims != b.dims:
        raise ShapeMismatchError(f"dims {a.dims} vs {b.dims}")


# --------------------------------------------------------------------------
# Spec dataclasses from JSON
# --------------------------------------------------------------------------

_NO = object()  # _typed's answer for a value of a JSON type its annotation refuses


def _typed(tp, v):
    """v as annotation tp reads it, or _NO: the first union alternative that
    takes v, a tuple of a list's typed elements, a dataclass by from_json."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return next((r for r in (_typed(a, v) for a in args) if r is not _NO), _NO)
    if is_dataclass(tp):
        return from_json(tp, v) if isinstance(v, dict) else _NO
    if origin is tuple:
        if not isinstance(v, list):
            return _NO
        elems = args[:1] * len(v) if args[-1] is ... else args
        items = tuple(map(_typed, elems, v)) if len(elems) == len(v) else (_NO,)
        return _NO if _NO in items else items
    if isinstance(v, bool) and tp is not bool:
        return _NO
    return v if isinstance(v, (int, float) if tp is float else tp) else _NO


def from_json(cls, d):
    """Build the spec dataclass ``cls`` from a JSON object: the one reader of
    JSON documents (configs, their sections and every manifest) and of the
    CLI's spec flags. A missing key keeps its default and is refused without
    one. Annotations decide the JSON types (a list, typed element by
    element, for a tuple, which it becomes; a boolean only for bool) and
    ``__post_init__`` the values. Every refusal is a ConfigError naming the
    innermost ``Class.key``: a wrong structure or type names it itself, and a
    ``__post_init__`` ValueError is wrapped with the key at fault (see
    _culprit)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} needs a JSON object, got {type(d).__name__}")
    hints = typing.get_type_hints(cls)
    extra = sorted(set(d) - {f.name for f in fields(cls)})
    if extra:
        raise ConfigError(f"unknown {cls.__name__} keys: {extra}")
    missing = [f.name for f in fields(cls)
               if f.name not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{cls.__name__} needs the keys {missing}")
    kwargs = {}
    for k, v in d.items():
        kwargs[k] = _typed(tp := hints[k], v)
        if kwargs[k] is _NO:
            raise ConfigError(f"{cls.__name__}.{k} must be "
                              f"{tp.__name__ if isinstance(tp, type) else tp}, got {v!r}")
    try:
        return cls(**kwargs)
    except ConfigError:  # a spec inside cls, read by from_json, named its own key
        raise
    except ValueError as e:
        raise ConfigError(f"{cls.__name__}{_culprit(cls, kwargs, e)}: {e}") from None


def _culprit(cls, kwargs, error: ValueError) -> str:
    """".key" of the last field given in kwargs whose default would change
    the error that cls raises, or "" if none would. A check on two keys,
    such as a strategy and its epsilon, names the later one."""
    for f in reversed([f for f in fields(cls) if f.name in kwargs]):
        if f.default is MISSING and f.default_factory is MISSING:
            continue
        default = f.default if f.default is not MISSING else f.default_factory()
        try:
            cls(**{**kwargs, f.name: default})
        except ValueError as e:
            if str(e) == str(error):
                continue
        return f".{f.name}"
    return ""


# --------------------------------------------------------------------------
# SDT1 file format
# --------------------------------------------------------------------------
# Little-endian: magic "SDT1", u32 rank, rank x u32 dims, then
# product(dims) x f32 values. Writers round f64 -> f32 to nearest;
# readers up-convert exactly.

def write_tensor(path, t: TensorF) -> None:
    dims = t.dims
    header = MAGIC + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    payload = t.data.astype("<f4").tobytes()
    Path(path).write_bytes(header + payload)


def read_tensor(path) -> TensorF:
    """Read one SDT1 file. The float32 payload is viewed in place and
    converted to float64 once, by TensorF's own copy."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise TruncatedFileError(f"{path}: only {len(raw)} bytes")
    if raw[:4] != MAGIC:
        raise BadMagicError(f"{path}: magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 8:
        raise TruncatedFileError(f"{path}: header cut short at rank")
    (rank,) = struct.unpack_from("<I", raw, 4)
    if rank == 0 or rank > _MAX_RANK:
        raise DimOverflowError(f"{path}: rank {rank} outside 1..{_MAX_RANK}")
    if len(raw) < 8 + 4 * rank:
        raise TruncatedFileError(f"{path}: header cut short at dims")
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    if any(d == 0 for d in dims):
        raise DimOverflowError(f"{path}: zero dimension in {dims}")
    n = 1
    for d in dims:
        n *= d
        if n > _MAX_ELEMS:
            raise DimOverflowError(f"{path}: dims {dims} overflow the element cap")
    offset = 8 + 4 * rank
    expected = offset + 4 * n
    if len(raw) != expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} bytes for {n} elements, found {len(raw)}")
    return TensorF(tuple(int(d) for d in dims),
                   np.frombuffer(raw, dtype="<f4", count=n, offset=offset))


def write_field(path, f: ProbField | LabelField) -> None:
    write_tensor(path, f.tensor)


def read_prob_field(path) -> ProbField:
    return ProbField(read_tensor(path))


def read_label_field(path) -> LabelField:
    return LabelField(read_tensor(path))
