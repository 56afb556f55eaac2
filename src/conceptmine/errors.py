"""Exception types shared across the package, the integer and real-number
checks every config uses, the array check every public entry point uses, the
JSON and container readers that map unparsable files onto them, and the one
writer of each artifact format."""

import csv
import json
import math
import numbers
import struct

import numpy as np


class ConceptMineError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ConceptMineError):
    """File does not parse under the declared on-disk format."""


class ValidationError(ConceptMineError):
    """Data violates a declared invariant (shape, range, finiteness)."""


class GenerationError(ConceptMineError):
    """Synthetic generation could not satisfy its placement constraints."""


class StratificationError(ConceptMineError):
    """A class has too few samples to stratify into the requested folds."""


class DivergenceError(ConceptMineError):
    """Training produced a non-finite objective."""

    def __init__(self, message, epoch=None, lr=None):
        super().__init__(message)
        self.epoch = epoch
        self.lr = lr


class CompatibilityError(ConceptMineError):
    """Artifacts do not belong together (dimension or config-hash mismatch)."""


# The largest seed: every seed is written into JSON artifacts, whose
# integers must fit in signed 64 bits.
SEED_MAX = 2**63 - 1


def check_int(name: str, value, low: int, high: int | None = None):
    """Refuse ``value`` unless it is an integer (not a bool) >= ``low`` and,
    when ``high`` is given, <= ``high``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f">= {low} and <= {high}"
        raise ValidationError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(name: str, value, low: float, high: float = math.inf,
               low_open: bool = False):
    """Refuse ``value`` unless it is a finite real number (not a bool) in
    [low, high], or in (low, high] when ``low_open``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not _finite(value) or value > high
            or (value <= low if low_open else value < low)):
        bound = f"> {low}" if low_open else f">= {low}"
        if high < math.inf:
            bound += f" and <= {high}"
        raise ValidationError(f"{name} must be a finite number {bound}, "
                              f"got {value!r}")


def check_array(name: str, value, ndim: int, dtype=np.float64,
                finite: bool = False) -> np.ndarray:
    """``np.asarray(value, dtype)`` (``dtype=None`` keeps its own), refused
    unless it converts from bools, ints or floats (not strings or objects)
    to ``ndim`` dimensions and, when ``finite``, holds no NaN or infinity."""
    try:
        if (source := np.asarray(value).dtype).kind not in "biuf":
            raise TypeError(f"dtype {source}")
        array = np.asarray(value, dtype=dtype)
        if array.ndim != ndim:
            raise ValueError(f"shape {array.shape}")
        if finite and not np.isfinite(array).all():
            raise ValueError("a non-finite entry")
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{name} must be a {'finite ' if finite else ''}"
                              f"{ndim}-D array of real numbers, got {e}") from None
    return array


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _int64(text: str) -> int:
    if not -2**63 <= (value := int(text)) < 2**63:
        raise ValueError("an integer outside the signed 64-bit range")
    return value


def _json_object(raw: bytes, path) -> dict:
    try:
        payload = json.loads(raw.decode("utf-8"), parse_int=_int64)
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, deep nesting
        raise FormatError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: top level is not a JSON object")
    return payload


def read_json_object(path) -> dict:
    """Parse a JSON file whose top level is an object; raise FormatError
    naming the path when it is not UTF-8 JSON that parses (too deep a
    nesting or an integer outside 64 bits does not) or not an object."""
    with open(path, "rb") as fh:
        return _json_object(fh.read(), path)


def write_json(path, obj, indent: int | None = None) -> None:
    """Write ``obj`` as UTF-8 JSON with sorted keys, encoded by ``json.dumps``:
    ``json.dump`` streams through the Python encoder, never the C one."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=indent))


def write_csv(path, header: list, rows) -> None:
    """``header``, then ``rows``, as UTF-8 CSV in csv's default dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# The binary artifact container (books, heads, centers):
#   magic | u32 version | u32 n | n bytes of UTF-8 JSON | little-endian f64 arrays
# The JSON holds the keys of the artifact's JSON twin other than its float
# arrays, plus "shapes", the shape of each array that follows.
CONTAINER_VERSION = 2
_PREFIX = struct.Struct("<4s2I")


def write_container(path, magic: bytes, header: dict, arrays) -> None:
    """Write ``header`` and ``arrays`` in the binary container layout."""
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    text = json.dumps({**header, "shapes": [list(a.shape) for a in arrays]},
                      sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, CONTAINER_VERSION, len(text)))
        fh.write(text)
        for a in arrays:
            fh.write(a.tobytes())


def read_container(path, magic: bytes, count: int) -> tuple[dict, list]:
    """The JSON header (without "shapes") and the ``count`` float64 arrays of
    a container file; FormatError naming the path for a wrong magic or
    version, a malformed header or shape list, or a wrong total length."""
    with open(path, "rb") as fh:
        raw = fh.read()
    kind = magic.decode("ascii")
    if len(raw) < _PREFIX.size:
        raise FormatError(f"{path}: file shorter than the {kind} header")
    got, version, n = _PREFIX.unpack_from(raw)
    if got != magic:
        raise FormatError(f"{path}: not a {kind} file (magic {got!r})")
    if version != CONTAINER_VERSION:
        raise FormatError(f"{path}: {kind} version {version} is not supported; "
                          f"this package reads version {CONTAINER_VERSION}")
    header = _json_object(raw[_PREFIX.size:_PREFIX.size + n], path)
    shapes = header.pop("shapes", None)
    if not (isinstance(shapes, list) and len(shapes) == count and all(
            isinstance(s, list) and all(type(d) is int and d >= 0 for d in s)
            for s in shapes)):
        raise FormatError(f"{path}: header needs \"shapes\", a list of "
                          f"{count} shapes, got {shapes!r}")
    sizes = [math.prod(s) for s in shapes]
    expected = _PREFIX.size + n + 8 * sum(sizes)
    if len(raw) != expected:
        raise FormatError(f"{path}: file is {len(raw)} bytes, its header "
                          f"declares {expected}")
    arrays, off = [], _PREFIX.size + n
    for shape, size in zip(shapes, sizes):
        flat = np.frombuffer(raw, dtype="<f8", count=size, offset=off)
        try:
            arrays.append(flat.reshape(shape).astype(np.float64))
        except ValueError as e:  # an empty array with a dimension numpy refuses
            raise FormatError(f"{path}: bad shape {shape} ({e})") from None
        off += 8 * size
    return header, arrays
