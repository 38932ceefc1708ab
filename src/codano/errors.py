"""Shared exception taxonomy, mapped onto CLI exit codes in one place, and
the one check of every config setting or flag against its type and range."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import types
import typing


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


# -- config settings -------------------------------------------------------------


class Open(float):
    """An exclusive bound of a settings range: (Open(0), None) means > 0."""


POSITIVE = (Open(0), None)
_type_hints = functools.cache(typing.get_type_hints)


def check_settings(obj, error, ranges) -> None:
    """Check each field of the dataclass `obj` against its annotation, then
    against `ranges[name]` = (least, most), each bound inclusive unless
    `Open` and None for none, and raise `error` (or the range's third
    entry) at the first that fails. An int is integral and not a bool, a
    float a finite real, an object anything; a list passes as a tuple, a
    dict as a dataclass.
    """
    hints = _type_hints(type(obj))
    for f in dataclasses.fields(obj):
        least, most, err = (*ranges.get(f.name, (None, None)), error)[:3]
        object.__setattr__(obj, f.name, check_value(
            f.name, hints[f.name], getattr(obj, f.name), least, most, err))


def check_value(name, hint, value, least, most, err):
    """`value` as a field `name` annotated `hint` with the range (least,
    most) stores it, or raise `err`; also checks a lone setting or flag."""
    if isinstance(hint, types.UnionType):  # the value's own type, else the first
        hint = next((h for h in hint.__args__ if type(value) is h), hint.__args__[0])
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        fixed = ... not in args  # tuple[T, T] rather than tuple[T, ...]
        value = tuple(value) if isinstance(value, list) else value
        if not isinstance(value, tuple) or fixed and len(value) != len(args):
            raise err(f"{name} must be a list{f' of {len(args)}' * fixed}, got {value!r}")
        return tuple(check_value(name, args[i] if fixed else args[0], v, least, most, err)
                     for i, v in enumerate(value))
    if dataclasses.is_dataclass(hint) and isinstance(value, dict):
        value = hint(**value)
    if hint in (bool, str, dict, object) or dataclasses.is_dataclass(hint):
        if not isinstance(value, hint):
            raise err(f"{name} must be a {hint.__name__}, got {value!r}")
        return value
    number = not isinstance(value, bool) and isinstance(
        value, numbers.Integral if hint is int else numbers.Real)
    if not (number and (isinstance(value, numbers.Integral) or math.isfinite(value))
            and (least is None or value > least or value == least and not isinstance(least, Open))
            and (most is None or value < most or value == most and not isinstance(most, Open))):
        words = ["finite"] if hint is float else [] if number else ["an integer"]
        words += [f"{word} {bound:g}" for bound, word in (
            (least, "greater than" if isinstance(least, Open) else "at least"),
            (most, "less than" if isinstance(most, Open) else "at most"))
            if bound is not None]
        raise err(f"{name} must be {' and '.join(words)}, got {value!r}")
    return int(value) if hint is int else value
