"""Exception taxonomy, the one file boundary and the one number rule.

The CLI maps these onto stable exit codes (see cli.py), so raise the most
specific class available. Every file the engine reads or writes goes through
``read_file``, ``read_text`` or ``write_file``, which turn an ``OSError`` into
``IoError`` naming the file; ``check_writable`` tries an output path first.
Every number read from a file is taken by ``real`` or ``count``.
"""

import numbers
import os
import sys


class Pb4uError(Exception):
    """Base class for all engine errors."""


class InvalidArgument(Pb4uError, ValueError):
    """A caller-supplied value violates a precondition."""


class InvalidMesh(Pb4uError, ValueError):
    """Mesh data is structurally unusable (degenerate triangle, isolated vertex, ...)."""


class InvalidState(Pb4uError, ValueError):
    """A simulation state or buffer is not usable in its current form."""


class NumericFailure(Pb4uError, ArithmeticError):
    """A numerical routine produced a non-finite value where one is required."""


class NumericDivergence(Pb4uError, ArithmeticError):
    """The simulation produced non-finite positions or losses; rollout must abort."""


class IoError(Pb4uError, OSError):
    """File could not be read or written."""


class FormatError(Pb4uError, ValueError):
    """File contents do not match the expected format."""


class ConfigMismatch(Pb4uError, ValueError):
    """Persisted tensors are inconsistent with the requested model configuration."""


class UsageError(Pb4uError, ValueError):
    """Bad command-line invocation."""


def read_file(path, what: str) -> bytes:
    """The bytes of the file at ``path``; ``what`` names it in an ``IoError``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def read_text(path, what: str) -> str:
    """The file at ``path`` as UTF-8 text; other bytes are a ``FormatError``."""
    data = read_file(path, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def write_file(path, data, what: str) -> None:
    """Write ``data`` to ``path``: a str as UTF-8 with its own line ends, or a
    sequence of byte chunks as given."""
    try:
        with open(path, "wb") as fh:
            fh.writelines([data.encode("utf-8")] if isinstance(data, str) else data)
    except OSError as exc:
        raise IoError(f"cannot write {what} {path}: {exc}") from exc


def check_writable(path, what: str, folder: bool = False) -> None:
    """Raise now the ``IoError`` that writing ``what`` at ``path`` would raise
    after the work that fills it, and create nothing: a file needs an existing
    folder, and a ``folder`` is made with its parents."""
    full = nearest = os.path.abspath(path)
    while not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    usable = (os.path.isdir(full) == folder if nearest == full   # it exists: as the right kind
              else os.path.isdir(nearest) and (folder or nearest == os.path.dirname(full)))
    if not (usable and os.access(nearest, os.W_OK)):
        raise IoError(f"cannot write {what} {path}: not a writable {'folder' if folder else 'file in a folder'}")


def real(value, what: str) -> float:
    """``value`` as a float: a real number that is not a bool and is within
    the float range, so not nan or inf, nor an integer past the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise InvalidArgument(f"{what} must be a finite number, got {value!r}")
    return float(value)


def count(value, what: str, least: int = 0, most: int | None = None) -> int:
    """``value`` as an int: an integer that is not a bool, at least ``least``
    and, if ``most`` is given, at most ``most``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgument(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InvalidArgument(f"{what} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise InvalidArgument(f"{what} must be <= {most}, got {value}")
    return int(value)
