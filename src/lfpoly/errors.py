"""Exception and warning types shared across the package."""


class LfpolyError(Exception):
    """Base class for all package errors."""


class ZeroExpression(LfpolyError):
    """All monomials cancelled during canonicalization."""


class AssumptionViolated(UserWarning):
    """The dominant-coefficient sum over the leading index set is (numerically) zero.

    Warning-level: degree profiles are still produced, but the zero-count
    prediction is not backed by the counting theorem.
    """


class OracleRange(LfpolyError):
    """A coefficient oracle cannot supply values up to the requested index."""


class NumericallyAmbiguous(LfpolyError):
    """Leading Laurent coefficient too small to call zero or nonzero."""

    def __init__(self, msg, symbolic_bound=None):
        super().__init__(msg)
        self.symbolic_bound = symbolic_bound


class PoleAt1(LfpolyError):
    """Evaluation requested too close to the pole at s = 1."""


class AccuracyUnreachable(LfpolyError):
    """The requested error bound cannot be certified within desk-scale guards."""


class PoleTooClose(LfpolyError):
    """Derivative table requested within 1e-6 of the pole at s = 1."""


class RegionViolation(LfpolyError):
    """Point outside the validity region of the asymptotic functional equation."""


class BoundaryTooClose(LfpolyError):
    """A zero or pole sits (numerically) on a winding contour."""


class PhaseUnresolved(LfpolyError):
    """Adaptive phase tracking exceeded its sample budget."""


class NonConvergence(LfpolyError):
    """Zero isolation failed to converge inside a box."""

    def __init__(self, msg, box=None):
        super().__init__(msg)
        self.box = box


class ScanFailed(LfpolyError):
    """Left-edge dominance scan found no admissible abscissa."""


class BOutOfRange(LfpolyError):
    """Littlewood abscissa b violates its admissibility bound."""


class NotPrimitive(LfpolyError):
    """Gauss-sum normalization requested for an imprimitive character."""


class ExpressionFileError(LfpolyError):
    """Malformed expression file."""

    def __init__(self, msg, line=None, column=None):
        super().__init__(msg)
        self.line = line
        self.column = column
