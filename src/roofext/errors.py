"""Exception types shared across the package.

Every error raised on a violated precondition carries the measured deviation in
its message so that failures are diagnosable from logs alone.
"""


class RoofextError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(RoofextError):
    pass


class TraceNotOne(RoofextError):
    pass


class NotPSD(RoofextError):
    pass


class NotIsometry(RoofextError):
    pass


class BadRank(RoofextError):
    pass


class OutsideBall(RoofextError):
    pass


class ShapeMismatch(RoofextError):
    pass


class NotSymmetric(RoofextError):
    pass


class UnsupportedOrder(RoofextError):
    pass


class ZeroState(RoofextError):
    pass


class EmptyInterval(RoofextError):
    pass


class NotStandardForm(RoofextError):
    pass


class NotTracePreserving(RoofextError):
    pass


class DimMismatch(RoofextError):
    pass


class OutOfRange(RoofextError):
    pass


class ConfigError(RoofextError):
    pass


class ParseError(RoofextError):
    pass


class DegeneratePencil(UserWarning):
    """The quadratic-form pencil has a null space of dimension > 1 at the
    selected weight; the null direction with zero trace component is used,
    which gives an optimal decomposition."""
