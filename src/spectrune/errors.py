"""Exception hierarchy shared by all spectrune modules.

Two families, distinguished by the CLI exit code they map to:

* exit code 2: I/O and file-format problems (unreadable files, malformed
  headers, rejected dtypes, bad manifests);
* exit code 1: numerical and precondition problems (dimension mismatches,
  degenerate inputs, failed convergence, empty results).
"""

from __future__ import annotations

import contextlib
from pathlib import Path


class SpectruneError(Exception):
    """Base class for all spectrune errors."""

    exit_code = 1


# --- I/O and format family (exit code 2) ---


class IoError(SpectruneError):
    """File could not be read or written."""

    exit_code = 2


class FormatError(SpectruneError):
    """File exists but its bytes do not form a valid payload."""

    exit_code = 2


class ShapeError(SpectruneError):
    """Array has the wrong dimensionality or a degenerate extent."""

    exit_code = 2


class DataError(SpectruneError):
    """Array values violate a data contract (non-finite entries, zero-norm
    rows, negative label ids)."""

    exit_code = 2


# --- numerical / precondition family (exit code 1) ---


class PreconditionError(SpectruneError):
    """An operation was called with arguments outside its contract."""


class DimError(SpectruneError):
    """Operands have incompatible dimensions."""


class MissingLabelsError(SpectruneError):
    """A per-class operation was invoked on an unlabeled matrix."""


class InsufficientSamplesError(SpectruneError):
    """Fewer than two samples: the n-1 covariance divisor is undefined."""


class DegenerateCovarianceError(SpectruneError):
    """Covariance trace is zero, negative, or non-finite."""


class NumericalError(SpectruneError):
    """A numerical routine failed or produced out-of-tolerance results."""


class NoKneeError(SpectruneError):
    """A curve has no significant knee point."""


class EmptySubspaceError(SpectruneError):
    """No eigenvalues fall below the requested threshold."""


@contextlib.contextmanager
def in_file(path: Path | str):
    """Prefix ``path`` to any spectrune error raised in the block, keeping
    its type and so its exit code. Wrap only the construction of what was
    read: the readers' own errors already name the file."""
    try:
        yield
    except SpectruneError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
