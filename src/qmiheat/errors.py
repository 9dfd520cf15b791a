"""Exception types shared across the package."""


class DataFormatError(ValueError):
    """A file or byte stream does not conform to one of the on-disk formats.

    The message names the offending file region (offset, record index or
    field) so that truncation and corruption are diagnosable.
    """


class TrainingDivergedError(RuntimeError):
    """Training met non-finite scores or parameters.

    The message names the epoch and the batch (both counted from 1) where
    the values were found.
    """
