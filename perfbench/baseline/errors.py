"""Exception types shared across the package."""


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
