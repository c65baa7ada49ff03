"""Exception types shared across the package."""

from __future__ import annotations


class ToricError(Exception):
    """Base class for every error raised by this package."""


class SingularBasis(ToricError):
    """A linear solve was attempted against a dependent or non-square
    basis."""


class NotSquare(ToricError):
    """An adjugate was requested for a non-square matrix."""


class DependentSpan(ToricError):
    """The rays of a cone are linearly dependent, so the cone has no
    quotient lattice of the right rank."""


class DimensionOutOfRange(ToricError):
    """A face dimension or ambient dimension is outside the valid range."""


class NotACone(ToricError):
    """An index set does not describe a cone of the fan."""


class ConeTooSmall(ToricError):
    """A cone of dimension below the operation's minimum was supplied."""


class NotFano(ToricError):
    """An operation that needs a Fano fan was called on a non-Fano fan."""


class NotInSupport(ToricError):
    """A lattice point fell outside the support of a supposedly complete fan."""


class NonIntegralCoefficient(ToricError):
    """A relation coefficient came out non-integral, signalling a smoothness
    violation upstream."""


class UnpairedWall(ToricError):
    """A codimension-1 face is not shared by exactly two maximal cones."""


class RegimeUnsupported(ToricError):
    """The (dimension, pseudo-index) pair is outside the supported bound
    regimes."""


class NonIntegralResult(ToricError):
    """A closed-form face count evaluated to a non-integer, signalling a
    transcription error in the formula."""


class OriginNotInterior(ToricError):
    """The origin is not strictly interior to the given polytope."""


class NonSimplicialFacet(ToricError):
    """A facet of the given polytope has more than n vertices."""


class FanSyntaxError(ToricError):
    """A fan or polytope file failed to parse.

    Carries the 1-based line number and a short reason.
    """

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(ToricError):
    """A parsed fan failed mathematical validation.

    Carries the full validation report; the message names the first failing
    check.
    """

    def __init__(self, report):
        failed = [c.name for c in report.checks if not c.passed]
        super().__init__("validation failed: " + ", ".join(failed))
        self.report = report


class InternalInconsistency(ToricError):
    """Two independently computed quantities that must agree did not."""


class TooLarge(ToricError):
    """The input exceeds the size limits of a brute-force reference routine."""


class FormulaDiscrepancy(ToricError):
    """A closed-form face count disagrees with the independent engine.

    Carries the list of discrepancy records, each holding both values.
    """

    def __init__(self, records):
        super().__init__(f"{len(records)} closed-form discrepancies")
        self.records = tuple(records)
