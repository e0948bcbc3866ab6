"""Exception hierarchy shared by every module.

Two branches matter to callers: InputError (bad arguments or malformed
input, CLI exit code 2) and ResourceCap (a configured budget was hit,
CLI exit code 3). Anything else escaping the library is a bug.
"""


class TokenslideError(Exception):
    """Base class for all library errors."""


class InputError(TokenslideError):
    """Invalid argument or malformed input."""


class ResourceCap(TokenslideError):
    """A configured size or work budget was exceeded."""


# graph construction

class IndexOutOfRange(InputError):
    """A vertex index is not in 0..n-1."""


class LoopEdge(InputError):
    """An edge (v, v) was supplied; loops are not allowed."""


class NExceedsWidth(InputError):
    """Vertex count exceeds the bit-vector width cap (128)."""


class CycleTooSmall(InputError):
    """cycle(n) needs n >= 3."""


class SubsetViolation(InputError):
    """A vertex set is not a subset of the host graph's vertices."""


class NTooLarge(InputError):
    """Enumeration or search bound exceeds the supported range."""


class MalformedGraph6(InputError):
    """Text is not a valid graph6 encoding."""


# stable sets / split graphs

class ExplosionCap(ResourceCap):
    """More stable sets than the configured node budget allows."""


class NotSplit(InputError):
    """The graph is not a split graph.

    `certificate` holds an induced forbidden subgraph (2K_2, C_4 or C_5)
    as a vertex tuple when one was located, else None.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotIndependent(InputError):
    """The given vertex set contains an edge."""


# realizability

class NExceedsK(InputError):
    """Star size n exceeds k; construction needs n <= k."""


class ConditionViolated(InputError):
    """A realizability precondition fails; message names the vertex."""


class KMismatch(InputError):
    """Parts being combined were built for different k."""


class NotConnected(InputError):
    """Operation requires a connected graph."""


# decomposition

class UniverseOverlap(InputError):
    """Product factors share base vertices."""


class NoStableSetOfSizeK(InputError):
    """A factor graph has no stable set of size k."""


class MalformedJoinSpec(InputError):
    """JoinSpec JSON lacks a key of g1, g2, h1, h2, k or has a bad type."""


# geometry

class TooFewPoints(InputError):
    """Operation needs at least 3 points."""


class DegenerateSegment(InputError):
    """A segment with coincident endpoints was supplied."""


class GeneralPositionViolated(InputError):
    """Point set has a collinear triple or co-circular quadruple."""


class TooManyPoints(InputError):
    """Brute-force triangulation enumeration is limited to 10 points."""


# properties / CLI

class TooLargeForIso(ResourceCap):
    """Canonical-form backtracking exceeded its node budget."""


class TooLargeForSearch(ResourceCap):
    """A clique or colouring search exceeded its work budget."""


class UnknownSearch(InputError):
    """Search name not recognized."""
