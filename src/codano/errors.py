"""Shared exception taxonomy, mapped onto CLI exit codes in one place."""

from __future__ import annotations


class CodanoError(Exception):
    """Base class for all library errors."""


class ShapeError(CodanoError):
    """Array shape or mesh incompatibility."""


class MeshError(CodanoError):
    """Unsupported or invalid mesh for the requested operation."""


class ModeCountError(CodanoError):
    """Retained mode count exceeds what the resolution carries."""


class UnknownVariableError(CodanoError):
    """A variable name is not bound in the model or dataset."""


class VariableExistsError(CodanoError):
    """Attempt to add a variable name that is already bound."""


class NumericError(CodanoError):
    """Non-finite values produced by a numeric operation."""


class StabilityError(CodanoError):
    """A simulator stability bound was violated."""


class FractionError(CodanoError):
    """A fraction outside (0, 1] where one is required."""


class TrainingStateError(CodanoError):
    """Optimizer/training bookkeeping is inconsistent."""


class DataError(CodanoError):
    """Base class for dataset/schema/file-format errors."""


class DatasetSchemaError(DataError):
    """Dataset header disagrees with what the consumer needs."""


class PairingError(DataError):
    """Snapshot pairing for prediction tasks is impossible."""


class FormatVersionError(DataError):
    """Container format version not understood."""


class ChecksumError(DataError):
    """A stored buffer failed its checksum."""


class TruncatedFileError(DataError):
    """Container file ended before its declared contents."""


class UsageError(CodanoError):
    """Bad command-line usage outside argparse's own checks."""
