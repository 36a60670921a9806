"""Exceptions and result sentinels shared across the package.

Hard failures (bad input, resource exhaustion) are exceptions.  Expected
negative outcomes (no inverse found, cubic does not split, ...) are value
objects so callers can branch on them without try/except.
"""


class CremonaError(Exception):
    pass


class IncompatibleField(CremonaError):
    """Two scalars from different quadratic extensions were combined."""


class DegreeMismatch(CremonaError):
    pass


class DimensionMismatch(CremonaError):
    pass


class ZeroMap(CremonaError):
    pass


class NotARoot(CremonaError):
    pass


class BadDimension(CremonaError):
    pass


class ResourceLimit(CremonaError):
    """Coefficient or element budget exceeded."""


class PoleAtParameter(CremonaError):
    pass


class PoleAtSeed(CremonaError):
    pass


class InexactDivision(CremonaError):
    pass


class OrbitHitsIndeterminacy(CremonaError):
    pass


class NonConvergence(CremonaError):
    pass


class IllConditioned(CremonaError):
    pass


class FieldObstruction(CremonaError):
    """A required root or factorization does not exist over the working field."""


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def __bool__(self):
        return False


NOT_FOUND = _Sentinel("NotFound")
NOT_CONTRACTED = _Sentinel("NotContracted")
NOT_FULLY_SPLIT = _Sentinel("NotFullySplit")
NOT_AUTOMORPHISM = _Sentinel("NotAutomorphism")
BUDGET_EXCEEDED = _Sentinel("BudgetExceeded")
