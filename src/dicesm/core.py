"""Value types shared by every module: dense float64 tensors, probability and
label fields over a [C, H, W] grid, multi-rater stacks, their validation,
the SDT1 binary tensor file format, and ``from_json``, which builds every
spec dataclass from its JSON config.

All types are immutable after construction and safe to share across workers.
Each is valid by construction: a TensorF is finite, and a ProbField or
LabelField runs :func:`validate` once, in its constructor, so every field
that exists satisfies its invariants and no consumer checks them again.
Arithmetic everywhere is float64; files store float32 and readers up-convert.
"""

from __future__ import annotations

import math
import struct
import typing
from dataclasses import dataclass, fields, is_dataclass
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


def _check_chw(tensor: TensorF, what: str) -> None:
    if len(tensor.dims) != 3:
        raise ShapeMismatchError(f"{what} requires dims [C, H, W], got {tensor.dims}")


@dataclass(frozen=True)
class ProbField:
    """Per-pixel class probabilities over a [C, H, W] grid.

    C == 1 is a binary foreground probability; C >= 2 rows live on the
    probability simplex per pixel. The constructor checks the numeric
    invariants once, with :func:`validate`.
    """

    tensor: TensorF

    def __post_init__(self):
        _check_chw(self.tensor, "ProbField")
        validate(self)

    @classmethod
    def from_array(cls, arr) -> "ProbField":
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
class LabelField:
    """Per-pixel training target over a [C, H, W] grid.

    hardness == "hard" means every value is exactly 0 or 1; "soft" allows
    any value in [0, 1]. The simplex invariant applies for C >= 2 either way.
    The constructor checks them once, with :func:`validate`.
    """

    tensor: TensorF
    hardness: str = HARD

    def __post_init__(self):
        _check_chw(self.tensor, "LabelField")
        if self.hardness not in (HARD, SOFT):
            raise ValueError(f"hardness must be '{HARD}' or '{SOFT}', got {self.hardness!r}")
        validate(self)

    @classmethod
    def from_array(cls, arr, hardness: str = HARD) -> "LabelField":
        return cls(TensorF.from_array(arr), hardness)

    @property
    def array(self) -> np.ndarray:
        return self.tensor.as_array()

    @property
    def n_classes(self) -> int:
        return self.tensor.dims[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.tensor.dims

    @property
    def is_hard(self) -> bool:
        return self.hardness == HARD


@dataclass(frozen=True, init=False, eq=False)
class RaterStack:
    """K independent hard annotations of one image, identical dims.

    The constructor takes the K hard LabelFields, each valid since it was
    built, and checks only their dims and hardness flags. It keeps only
    ``masks``, the raters as one read-only (K, C, H, W) bool array (True
    where a rater marks 1), an eighth of the float64 fields' memory; no
    field is retained. Every consumer counts votes and combines raters on
    ``masks``. ``raters`` rebuilds the hard fields on demand, for callers
    that want fields (tests, gen-data); no training, scoring or soft-label
    path reads it."""

    masks: np.ndarray

    def __init__(self, raters):
        raters = tuple(raters)
        if not raters:
            raise EmptyStackError("a RaterStack needs at least one rater")
        dims = raters[0].dims
        masks = np.empty((len(raters),) + dims, dtype=bool)
        for k, r in enumerate(raters):
            if r.dims != dims:
                raise ShapeMismatchError(
                    f"rater {k} has dims {r.dims}, expected {dims}"
                )
            if not r.is_hard:
                raise HardnessViolationError(f"rater {k} is not hard")
            np.equal(r.array, 1.0, out=masks[k])
        masks.flags.writeable = False
        object.__setattr__(self, "masks", masks)

    def __len__(self) -> int:
        return self.masks.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.masks.shape[1:]

    @property
    def raters(self) -> tuple[LabelField, ...]:
        """The K hard LabelFields, rebuilt from the masks on each call."""
        return tuple(LabelField.from_array(m, HARD) for m in self.masks)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def check_finite(arr: np.ndarray) -> None:
    """Raise NonFiniteError at the first NaN or infinity of arr, with its
    flat index in row-major order."""
    if not np.isfinite(arr).all():
        i = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteError(f"non-finite value at flat index {i}", flat_index=i)


def validate(f: ProbField | LabelField) -> None:
    """Check the numeric invariants of a field; raise on the first violation.

    The ProbField and LabelField constructors call this once; finiteness is
    TensorF's own invariant. Each check is one whole-array reduction, and
    only a failing one looks for its first offending element. Raises
    OutOfRangeError, HardnessViolationError or SimplexViolationError, each
    carrying that element's flat index.
    """
    data = f.tensor.data
    if data.min() < 0.0 or data.max() > 1.0:
        i = int(np.flatnonzero((data < 0.0) | (data > 1.0))[0])
        raise OutOfRangeError(f"value {data[i]!r} outside [0, 1] at flat index {i}",
                              flat_index=i)
    # on [0, 1], a hard field's nonzero values are exactly its ones
    if (isinstance(f, LabelField) and f.is_hard
            and np.count_nonzero(data) != np.count_nonzero(data == 1.0)):
        i = int(np.flatnonzero((data != 0.0) & (data != 1.0))[0])
        raise HardnessViolationError(
            f"hard label has value {data[i]!r} at flat index {i}", flat_index=i)
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

def from_json(cls, d):
    """Build the spec dataclass ``cls`` from a JSON object.

    Keys are field names and a missing key keeps the field's default. A
    field typed as a dataclass is built from its own nested object. The
    dataclass's ``__post_init__`` checks the values. Non-object input and
    unknown keys raise ValueError.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} needs a JSON object, got {type(d).__name__}")
    types = typing.get_type_hints(cls)
    extra = sorted(set(d) - {f.name for f in fields(cls)})
    if extra:
        raise ValueError(f"unknown {cls.__name__} keys: {extra}")
    return cls(**{k: from_json(types[k], v) if is_dataclass(types[k]) else v
                  for k, v in d.items()})


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


def read_label_field(path, hardness: str | None = None) -> LabelField:
    """Read a label field; hardness is inferred from the values unless given."""
    t = read_tensor(path)
    if hardness is None:
        hardness = HARD if np.all((t.data == 0.0) | (t.data == 1.0)) else SOFT
    return LabelField(t, hardness)
