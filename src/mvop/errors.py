"""Exception types shared across the package."""


class MvopError(Exception):
    """Base class for all package errors."""


class InvalidParam(MvopError):
    """A parameter is outside its admissible range."""


class SizeMismatch(MvopError):
    """Matrix sizes of two operands disagree."""


class OutOfRange(MvopError):
    """A degree index exceeds what a sequence was built for."""


class IllConditioned(MvopError):
    """A moment-based computation lost all significant digits."""


class DegreeCap(MvopError):
    """A requested computation exceeds the configured degree/node caps."""


class Unsupported(MvopError):
    """The operation is not defined for this weight family."""


class SingularLeading(MvopError):
    """A leading coefficient came out singular; signals a backend bug."""


class ConditionFailed(MvopError):
    """The eigenvalue matching condition for bispectrality is violated."""


class CapExceeded(MvopError):
    """A shift-synthesis request exceeds the practical cap."""


class ConfigError(MvopError):
    """A run configuration does not validate."""
