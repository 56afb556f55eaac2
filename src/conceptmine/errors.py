"""Exception types shared across the package, the integer check every
config uses, and the JSON reader that maps unparsable artifact files onto
them."""

import json
import numbers


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


def check_int(name: str, value, low: int):
    """Refuse ``value`` unless it is an integer (not a bool) >= ``low``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def read_json_object(path) -> dict:
    """Parse a JSON file whose top level is an object; raise FormatError
    naming the path when it is not valid UTF-8 JSON or not an object."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: top level is not a JSON object")
    return payload
