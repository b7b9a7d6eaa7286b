"""Value types shared by every module: dense float64 tensors, probability and
label fields over a [C, H, W] grid, multi-rater stacks, their validation, and
the SDT1 binary tensor file format.

All types are immutable after construction and safe to share across workers.
Arithmetic everywhere is float64; files store float32 and readers up-convert.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
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
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise NonFiniteError(
                f"non-finite value at flat index {bad[0]}", flat_index=int(bad[0])
            )
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
    probability simplex per pixel. Numeric invariants are checked by
    :func:`validate`, which every consumer calls on entry.
    """

    tensor: TensorF

    def __post_init__(self):
        _check_chw(self.tensor, "ProbField")

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
    """

    tensor: TensorF
    hardness: str = HARD

    def __post_init__(self):
        _check_chw(self.tensor, "LabelField")
        if self.hardness not in (HARD, SOFT):
            raise ValueError(f"hardness must be '{HARD}' or '{SOFT}', got {self.hardness!r}")

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


@dataclass(frozen=True)
class RaterStack:
    """K independent hard annotations of one image, identical dims."""

    raters: tuple[LabelField, ...]

    def __post_init__(self):
        raters = tuple(self.raters)
        if not raters:
            raise EmptyStackError("a RaterStack needs at least one rater")
        dims = raters[0].dims
        for k, r in enumerate(raters):
            if r.dims != dims:
                raise ShapeMismatchError(
                    f"rater {k} has dims {r.dims}, expected {dims}"
                )
            if not r.is_hard:
                raise HardnessViolationError(f"rater {k} is not hard")
        object.__setattr__(self, "raters", raters)

    def __len__(self) -> int:
        return len(self.raters)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.raters[0].dims


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def validate(f: ProbField | LabelField) -> None:
    """Check every invariant of the field; raise on the first violation.

    Raises NonFiniteError, OutOfRangeError, SimplexViolationError or
    HardnessViolationError, each carrying the flat index of the first
    offending element.
    """
    data = f.tensor.data
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise NonFiniteError(f"non-finite value at flat index {bad[0]}",
                             flat_index=int(bad[0]))
    bad = np.flatnonzero((data < 0.0) | (data > 1.0))
    if bad.size:
        i = int(bad[0])
        raise OutOfRangeError(f"value {data[i]!r} outside [0, 1] at flat index {i}",
                              flat_index=i)
    if isinstance(f, LabelField) and f.is_hard:
        bad = np.flatnonzero((data != 0.0) & (data != 1.0))
        if bad.size:
            i = int(bad[0])
            raise HardnessViolationError(
                f"hard label has value {data[i]!r} at flat index {i}", flat_index=i)
    c = f.n_classes
    if c >= 2:
        sums = f.array.sum(axis=0)
        bad = np.flatnonzero(np.abs(sums.reshape(-1) - 1.0) > SIMPLEX_TOL)
        if bad.size:
            pix = int(bad[0])
            raise SimplexViolationError(
                f"class sum {sums.reshape(-1)[pix]!r} at pixel {pix} "
                f"(flat index {pix})", flat_index=pix)


def check_same_dims(a, b) -> None:
    if a.dims != b.dims:
        raise ShapeMismatchError(f"dims {a.dims} vs {b.dims}")


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
    values = np.frombuffer(raw, dtype="<f4", count=n, offset=offset).astype(np.float64)
    return TensorF(tuple(int(d) for d in dims), values)


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
