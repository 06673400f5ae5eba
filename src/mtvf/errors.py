"""Exception classes shared across the package: one class per outcome the CLI reports.

No caller tells finer kinds apart, so a raise site picks the class by the
outcome alone and says what went wrong in its message.  ``mtvf`` maps them
to ``config error`` (exit 2), ``geometry error`` (3), ``verification
failed`` (4), ``check does not apply`` (4) and ``error:`` (2, solver
failures).  ``integer`` is the one rule for a count argument.
"""
import operator

import numpy as np


class MtvfError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MtvfError):
    """Malformed or inconsistent configuration / input file."""


class GeometryError(MtvfError):
    """A geometric quantity is undefined or out of range: a singular
    projection, points beyond the injectivity radius, a degenerate jump, a
    comparison bound outside its range, or a jump at or beyond twice the
    convexity radius (flow not well posed)."""


class SolverError(MtvfError):
    """A time-stepping failure."""


class VerificationError(MtvfError):
    """A check that failed (``mtvf verify``)."""


class CheckNotApplicable(VerificationError):
    """A check that does not apply to its input: snapshots on the wrong grid
    or jump set, a target that is not complete with nonpositive curvature, or
    values on an unsupported manifold."""


def integer(name: str, value) -> int:
    """``value`` as an int (numpy integers too, no bool); else a ``ConfigError`` naming ``name``."""
    try:
        if not isinstance(value, (bool, np.bool_)):  # operator.index takes True as 1
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")
