"""Exception hierarchy shared across the package."""


class EmgkinError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(EmgkinError):
    """Operand shapes are incompatible for the requested operation."""


class DataError(EmgkinError):
    """Input data violates a precondition (non-finite values, bad layout)."""


class FilterDesignError(EmgkinError):
    """Filter specification cannot be realized (e.g. cutoff beyond Nyquist)."""


class DegenerateChannelError(DataError):
    """A channel has zero dynamic range, so min-max scaling is undefined."""


class InsufficientDataError(DataError):
    """Recording or feature stream is too short for the requested windowing."""


class DegenerateBatchError(EmgkinError):
    """Batch statistics are undefined (train-mode batch norm on batch of 1)."""


class DivergenceError(EmgkinError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int, loss: float):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}")


class UndefinedMetricError(EmgkinError):
    """Metric denominator is zero (constant ground-truth trace)."""


class SolverError(EmgkinError):
    """Linear system could not be solved."""


class ConfigError(EmgkinError):
    """Invalid configuration value or combination."""


class LoadError(EmgkinError):
    """Session files failed validation on load."""


class OutputPathError(EmgkinError):
    """An output path cannot be written: a file where a directory must be,
    or a directory where a file must be."""


class CorruptCheckpointError(EmgkinError):
    """Checkpoint file is malformed; ``field`` names the offending part."""

    def __init__(self, field: str, detail: str = ""):
        self.field = field
        msg = f"corrupt checkpoint: bad {field}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnsupportedVersionError(CorruptCheckpointError):
    """Checkpoint format version is not understood by this build."""

    def __init__(self, version: int, supported: int):
        self.version = version
        super().__init__("version", f"got {version}, supported {supported}")
