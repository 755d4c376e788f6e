"""Exception hierarchy.

Two broad families: ValidationError for malformed inputs (bad partitions,
non-adapted matrices, invalid measures) and MathError for well-formed inputs
on which the requested construction does not exist (infeasible decomposition,
missing representation, incomplete measure family), or on which the library
could not finish it (a solver without a verdict, a result that fails its own
self-check).  The CLI maps the first family to exit code 2 and the second to
exit code 3.
"""

from __future__ import annotations


class SuperhedgeError(Exception):
    """Base class for all library errors."""


class ValidationError(SuperhedgeError):
    """Input fails a structural precondition."""


class NotPartition(ValidationError):
    """Cells at some time overlap or do not cover all outcomes."""


class NotRefining(ValidationError):
    """A cell at time t+1 straddles two cells at time t."""


class EmptyCell(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class NotAdapted(ValidationError):
    """Values are not constant on the partition cells of their time."""


class NotPredictable(ValidationError):
    """Time-t values are not constant on the time-(t-1) cells."""


class InvalidMeasure(ValidationError):
    """Probability vector with nonpositive entries or wrong total mass."""


class NoEquivalentMartingaleMeasure(ValidationError):
    """No strictly positive measure makes every listed asset a martingale."""


class NotUnitClaim(ValidationError):
    """Claim is not nonnegative with expectation one under every measure."""


class NotNonincreasing(ValidationError):
    pass


class ZeroInitialValue(ValidationError):
    pass


class MathError(SuperhedgeError):
    """The requested object provably does not exist for this input, or the
    library could not build it: a solver without a verdict, or a result
    that fails its own self-check."""


class InvalidDecomposition(MathError):
    """A decomposition the library built fails its own reconstruction,
    compensator or martingale check."""


class NotSupermartingale(MathError):
    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotMartingale(MathError):
    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class _CellError(MathError):
    """A MathError located at a (time, cell) of the tree."""

    def __init__(self, message: str, time: int, cell: int):
        super().__init__(message)
        self.time = time
        self.cell = cell


class MeasureDependent(_CellError):
    """Conditional expectations of the claim differ across member measures."""


class Infeasible(_CellError):
    """No compensator increment satisfies the step identities on a cell."""


class IncompletenessDetected(_CellError):
    """A bound that only holds for complete measure families failed."""


class NoRepresentation(_CellError):
    """Martingale increments are not spanned by asset increments on a cell."""

    def __init__(self, message: str, time: int, cell: int, residual: float = float("nan")):
        super().__init__(message, time, cell)
        self.residual = residual


class InfeasiblePricing(MathError):
    """The superhedging program has no feasible point."""


class UnboundedObjective(MathError):
    """An LP that should be bounded is not; signals a construction bug."""


class SolverFailure(MathError):
    """The LP solver gave no verdict: a limit was reached or it ran into
    numerical trouble."""
