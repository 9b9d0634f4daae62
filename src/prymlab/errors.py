"""Exceptions shared across the package."""


class PrymlabError(Exception):
    """Base class for package errors."""


class WindowError(PrymlabError):
    """A value is not certified on a wide enough exponent window.

    Carries a suggestion so drivers can retry with a larger window.
    """

    def __init__(self, message, *, suggest=None):
        if suggest is not None:
            message = "%s (retry with a window extended by at least %d)" % (message, suggest)
        super().__init__(message)
        self.suggest = suggest


class FrameError(PrymlabError):
    """A generator list cannot be put into reduced echelon form."""


class ConfigError(PrymlabError):
    """Invalid job configuration."""
