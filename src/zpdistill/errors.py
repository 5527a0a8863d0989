"""Exception hierarchy shared across the toolkit.

Every error raised by library code derives from ZpdistillError so callers
(and the CLI adapter) can catch one type. Subclasses carry intent:

- DomainError:           an argument is outside the documented domain.
- DegenerateInputError:  input is formally valid but has no usable signal
                         (zero variance, zero spread, all-zero weights).
- InsufficientDataError: too few records to compute the requested statistic.
- FitError:              a regression problem is rank-deficient or produced
                         coefficients outside the model's admissible range.
- ConfigError:           a simulator/CLI configuration value is invalid;
                         the message names the offending key.
- FileFormatError:       a data file violates its documented schema; the
                         message carries the 1-based line number when known.
- NumericError:          training produced a non-finite loss or parameter;
                         the message names the step.
"""

from __future__ import annotations


class ZpdistillError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ZpdistillError, ValueError):
    """Argument outside the documented domain."""


class DegenerateInputError(ZpdistillError, ValueError):
    """Valid input with no usable signal (zero variance or spread)."""


class InsufficientDataError(ZpdistillError, ValueError):
    """Too few records for the requested statistic."""


class FitError(ZpdistillError, ValueError):
    """Regression failed or produced inadmissible coefficients."""


class ConfigError(ZpdistillError, ValueError):
    """Invalid configuration value; message names the key."""


class FileFormatError(ZpdistillError, ValueError):
    """Data file violates its schema; message carries the line number."""


class NumericError(ZpdistillError, ArithmeticError):
    """Training produced a non-finite value; message names the step."""
