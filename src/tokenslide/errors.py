"""Exception hierarchy shared by every module.

Two branches matter to callers: InputError (bad arguments or malformed
input, CLI exit code 2) and ResourceCap (a configured budget was hit,
CLI exit code 3). Anything else escaping the library is a bug.

A subclass exists only where a caller can act on it differently: an
exit-code class, a budget kind, or a class that carries data (NotSplit's
certificate). Any other error is raised as one of these classes, and
its message says what went wrong.
"""


class TokenslideError(Exception):
    """Base class for all library errors."""


class InputError(TokenslideError):
    """Invalid argument or malformed input."""


class ResourceCap(TokenslideError):
    """A configured size or work budget was exceeded."""


class ExplosionCap(ResourceCap):
    """More stable sets than the configured node budget allows."""


class TooLargeForIso(ResourceCap):
    """Canonical-form backtracking exceeded its node budget."""


class TooLargeForSearch(ResourceCap):
    """A clique or colouring search exceeded its work budget."""


class NotSplit(InputError):
    """The graph is not a split graph.

    `certificate` holds an induced forbidden subgraph (2K_2, C_4 or C_5)
    as a vertex tuple when one was located, else None.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate
