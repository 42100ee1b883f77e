"""Exception and warning types shared across the package."""


class FormatError(ValueError):
    """A stack file or manifest does not conform to the on-disk format."""


class TrainingError(ValueError):
    """Observer training is impossible with the given sample."""


class PlanError(ValueError):
    """A trial plan cannot be built from the given dataset."""


class PointError(RuntimeError):
    """The work of one point of a multi-point pipeline pass failed.

    index is the point's position in the pass; cause is the exception it
    raised.  Both survive pickling, so a pool worker's failure names its
    point too.
    """

    def __init__(self, index: int, cause: BaseException):
        super().__init__(index, cause)
        self.index = index
        self.cause = cause

    def __str__(self) -> str:
        return str(self.cause)


class LesionClippingWarning(UserWarning):
    """Inserting a lesion clipped away a non-negligible part of its energy."""
