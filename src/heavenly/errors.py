"""Exception types shared across the toolkit.

Every failure mode callers are expected to handle gets its own class, so the
command-line layer can map them onto exit codes without string matching.
"""


class HeavenlyError(Exception):
    """Base class for all toolkit errors."""


class InputError(HeavenlyError):
    """The caller supplied data that violates a documented precondition."""


class DigitLimitError(InputError):
    """A number has more decimal digits than Python's int() reads; the
    message is Python's, which names its limit."""


class ReducibleExtensionError(InputError):
    """An extension step was attempted with a reducible polynomial.

    Carries the offending factorization so callers can see the evidence.
    """

    def __init__(self, message, factors=None):
        super().__init__(message)
        self.factors = factors or []


class ResourceCapError(HeavenlyError):
    """A computation exceeded a configured size or iteration cap."""
