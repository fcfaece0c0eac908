"""Domain errors shared across the toolkit.

Every error the CLI maps to exit code 1 derives from TurfError; the error
class name is the stable identifier printed on stderr.

``typed`` checks every value of the four input documents (model, fused
config, platform, calibration).  A number must be one JSON carries exactly
(RFC 8259 section 6): a finite float, or an integer below 2**53 in
magnitude.  A larger one overflows a report's float arithmetic.
"""

import math
from contextlib import contextmanager


class TurfError(Exception):
    """Base class for all domain errors."""


class UnknownModel(TurfError):
    """Requested reference model name is not recognised."""


class ShapeMismatch(TurfError):
    """Tensor/layer shapes are inconsistent."""


class InvalidReplacement(TurfError):
    """Layer replacement requested at a non-replaceable or already-replaced position."""


class UnsupportedConfig(TurfError):
    """Hardware configuration not supported (e.g. Winograd on K != 3)."""


class PortMismatch(TurfError):
    """Fused design parallelism violates the port-matching constraint."""


class InefficientConfig(TurfError):
    """Buffer too small to store the input or output a computation sequence requires."""


class SimDeadlock(TurfError):
    """Pipeline simulation cannot make progress."""


class InvalidTiling(TurfError):
    """Tile smaller than the receptive field of the fused block."""


class CalibrationError(TurfError):
    """Resource-model calibration coefficient missing for a module kind."""


class Infeasible(TurfError):
    """No candidate design fits the platform's resource capacities."""


class InvalidDocument(TurfError):
    """An input document cannot be read, is not JSON, or lacks a field it needs."""


class OracleError(TurfError):
    """An accuracy oracle failed or returned something other than an accuracy."""


@contextmanager
def reading(path):
    """Report a failure to read or parse the input document ``path`` as
    InvalidDocument.  Domain errors raised while parsing pass through."""
    try:
        yield
    except OSError as exc:
        raise InvalidDocument(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(
            f"{path} is not a valid document: {type(exc).__name__}: {exc}") from exc


def typed(value, kind: type, name: str):
    """``value`` if its JSON type is ``kind``, else TypeError; ``float`` is
    any JSON number (a bool is none).  A non-finite float or an integer of
    magnitude 2**53 or more raises ValueError."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"{name} must be a JSON "
                        f"{'number' if kind is float else kind.__name__}, got {value!r}")
    if type(value) is int and not -2 ** 53 < value < 2 ** 53 \
            or type(value) is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite and below 2**53 in magnitude, "
                         f"got {value!r}")
    return value


class NoSolution(TurfError):
    """Model search finished without any candidate meeting the requirements."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates or []
