"""Exception types shared across the toolkit, and its one reader of JSON documents.

Every data-dependent failure raises a subclass of :class:`SosidError`, so
callers (the CLI in particular) can separate bad data from genuine bugs.
Dimension mismatches and other caller mistakes raise plain ``ValueError``.
"""

import contextlib
import json


class SosidError(Exception):
    """Base class for all toolkit errors."""


class AudioFormatError(SosidError):
    """A WAV file could not be decoded as mono 16-bit PCM."""


class ConfigurationError(SosidError):
    """A configuration value is invalid or inconsistent."""


class EmptyInputError(SosidError):
    """Input is too short to produce even one frame."""


class DegenerateModelError(SosidError):
    """Too little or too redundant data to estimate a usable model."""

    row: int | None = None  # a stack's first row that does not factorize, for callers to name


class NotPositiveDefiniteError(SosidError):
    """A covariance matrix has no Cholesky factorization, even after loading."""

    row: int | None = None  # its row in the stack being factorized, where there is one


class AlignmentError(SosidError):
    """A phone alignment file is malformed or inconsistent with its track."""


class TaxonomyError(SosidError):
    """A phoneme class taxonomy violates its invariants, or a selector is unknown."""


class InsufficientDataError(SosidError):
    """A speaker does not have enough material for the requested protocol."""


@contextlib.contextmanager
def json_document(path, kind: str, error: type = ConfigurationError):
    """Yield the JSON object in the UTF-8 file at ``path``, for the caller to build from.

    A ValueError (not UTF-8, not JSON), TypeError (an unknown keyword, say) or
    ``error`` raised in reading it or in the ``with`` body is an ``error`` naming the file,
    and so is a KeyError, naming the missing key as well.
    """
    try:
        # open(), not Path(): Path interns the name's parts; store loads churned that table
        with open(path, encoding="utf-8") as file:
            doc = json.loads(file.read())
        if not isinstance(doc, dict):
            raise error(f"{kind} is not a JSON object")
        yield doc
    except (ValueError, TypeError, error) as exc:
        raise error(f"{path}: {exc}") from None
    except KeyError as exc:
        raise error(f"{path}: {kind} has no key {exc}") from None
