"""Exception and warning types shared across the package."""


class FormatError(ValueError):
    """A stack file or manifest does not conform to the on-disk format."""


class TrainingError(ValueError):
    """Observer training is impossible with the given sample."""


class PlanError(ValueError):
    """A trial plan cannot be built from the given dataset."""


class LesionClippingWarning(UserWarning):
    """Inserting a lesion clipped away a non-negligible part of its energy."""
