"""Exception types shared across the package."""


class HopfCyclicError(Exception):
    """Base class for all package errors."""


class ParseError(HopfCyclicError):
    pass


class ShapeMismatch(HopfCyclicError):
    pass


class DegreeOutOfRange(HopfCyclicError):
    pass


class NotInvertible(HopfCyclicError):
    pass


class NotAGroup(HopfCyclicError):
    pass


class MissingAntipodeInverse(NotInvertible):
    pass


class AuditFailed(HopfCyclicError):
    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class NotBStable(HopfCyclicError):
    pass


class NotSubcoalgebra(HopfCyclicError):
    pass


class NotCoideal(HopfCyclicError):
    pass


class NotStable(HopfCyclicError):
    pass


class WellDefinednessFailure(HopfCyclicError):
    pass


class IdentityViolation(HopfCyclicError):
    def __init__(self, degree, relation):
        self.degree = degree
        self.relation = relation
        super().__init__(f"(co)cyclic identity {relation!r} fails in degree {degree}")


class OrientationMismatch(HopfCyclicError):
    pass
