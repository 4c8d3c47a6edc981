"""Exception types shared across the package.

Every failure this package raises on purpose is a `CtcTagError`; the
command line maps `UsageError` to exit code 1 and every other `CtcTagError`
(and `OSError`) to exit code 2. Anything else escapes with a traceback,
because it is a bug. A plain `ValueError` is left only for a caller's
programming error, such as an unknown emission kind passed to
`write_emission_file`.

`named` is the one way to put a file, a manifest line or an utterance in
front of a failure's message.
"""


class CtcTagError(Exception):
    """Base class for all errors raised by this package on purpose."""


class UsageError(CtcTagError, ValueError):
    """A flag or config value is out of range (exit code 1)."""


class InvalidValue(CtcTagError, ValueError):
    """A number is non-finite or out of range, a target has probability zero,
    or no usable sample is left (exit code 2)."""


class DuplicateToken(CtcTagError):
    """A surface collides with one already in the vocabulary or registry."""


class InvalidToken(CtcTagError):
    """A surface is empty, contains whitespace, or the token table is degenerate."""


class UnknownToken(CtcTagError):
    """A surface or token id is not part of the vocabulary/registry."""


class NoFreePlaceholder(CtcTagError):
    """All placeholder tokens are already bound to tags."""


class DuplicateEndTag(CtcTagError):
    """A second shared entity-end tag was requested."""


class BlankInLabelSequence(CtcTagError):
    """The blank token appeared where only label tokens are allowed."""


class ShapeError(CtcTagError):
    """Array dimensions do not match what the operation requires."""


class TooLargeForOracle(CtcTagError):
    """The brute-force path enumeration guard was exceeded."""


class InfeasibleAlignment(CtcTagError):
    """No frame path of the given length can collapse to the label sequence."""


class AlignmentError(CtcTagError):
    """Parallel reference/hypothesis lists have mismatched lengths or holes."""


class EmptyReference(CtcTagError):
    """Word error rate is undefined for an empty reference."""


class NotCanonical(CtcTagError):
    """A transcript with anomalies cannot be rendered back to tagged text."""


class FormatError(CtcTagError):
    """A file does not follow the expected binary or document layout."""


class TruncatedFile(CtcTagError):
    """A file ends before its declared payload is complete."""


class UnsupportedVersion(CtcTagError):
    """A file declares a format version this code does not read."""


def named(prefix: str, fn, *args):
    """`fn(*args)`; a CtcTagError it raises is raised again, of the same
    type, with `prefix` in front of its message."""
    try:
        return fn(*args)
    except CtcTagError as exc:
        raise type(exc)(f"{prefix}{exc}") from None
