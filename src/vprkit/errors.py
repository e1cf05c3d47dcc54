"""Exception hierarchy for the toolkit.

Every module raises subclasses of VprError so callers can catch one base
class at the CLI boundary and map it to a nonzero exit status.
"""

import math
import numbers

import numpy as np


class VprError(Exception):
    """Base class for all toolkit errors."""


class ManifestMissing(VprError):
    """A required pose manifest file does not exist."""


class InconsistentManifest(VprError):
    """Pose manifest and image files disagree (orphan id on either side)."""


class DecodeError(VprError):
    """An image file could not be decoded."""


class InvalidSpec(VprError):
    """A synthetic-world spec violates its invariants."""


class InvalidFraction(VprError):
    """Validation split fraction outside [0, 1]."""


class ShapeError(VprError):
    """Dimension mismatch between arrays or model layers."""


class FormatError(VprError):
    """A binary file does not follow its format (magic, header or layout)."""


class TruncatedError(VprError):
    """A binary file ends before the declared payload is complete."""


class EmptyReferences(VprError):
    """A map build was attempted with no reference images."""


class NonFiniteValue(VprError):
    """A descriptor, query or image holds NaN or infinity."""


class KTooLarge(VprError):
    """Requested more neighbors than the map contains."""


class MissingGroundTruth(VprError):
    """A retrieval result refers to a query with no ground-truth entry."""


class DegenerateSpectrum(VprError):
    """Fewer than two non-degenerate principal directions."""


class InvalidMultiplicity(VprError):
    """Finetune query multiplicity must be at least 1."""


class NumericalDivergence(VprError):
    """Training produced a non-finite loss value."""


class ModelMismatch(VprError):
    """A descriptor map was built by a different model than the one given."""


def check_count(value, name: str, low, error: type[VprError] = VprError):
    """``value`` if it is an integer (NumPy's too, never a bool) of at least
    ``low``; else ``error`` naming the field and the value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be at least {low}, got {value}")
    return value


def check_real(value, name: str, error: type[VprError] = VprError, positive: bool = False):
    """``value`` if it is a finite real number (NumPy's too, never a bool),
    above zero if ``positive``; else ``error`` naming the field and the value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not (finite and (value > 0 or not positive)):
        raise error(f"{name} must be {'positive and ' * positive}finite, got {value}")
    return value


def check_flag(value, name: str):
    """``value`` if it is a bool (NumPy's too); else VprError naming the
    field and the value, so that a truthy string never turns a flag on."""
    if not isinstance(value, (bool, np.bool_)):
        raise VprError(f"{name} must be a bool, got {value!r}")
    return value
