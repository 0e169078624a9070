"""Exception types shared across the package."""


class NashwalkError(Exception):
    """Base class for all package-specific errors."""


class AlphaOutOfRange(NashwalkError):
    """Tie probability must lie in [0, 1)."""


class BetaOutOfRange(NashwalkError):
    """Bond-open probability must lie in (0, 1)."""


class DimensionTooLarge(NashwalkError):
    """Requested player count exceeds the storage mode's cap."""


class IncompleteTable(NashwalkError):
    """A payoff table is missing entries or has the wrong shape."""


class NonCanonicalEdge(NashwalkError):
    """Edge reference whose base vertex has the axis bit set."""


class AxisOutOfRange(NashwalkError):
    """Edge axis outside [0, n_players)."""


class ExhaustiveModeRequired(NashwalkError):
    """Operation needs a fully materialized orientation table."""


class PneInSample(NashwalkError):
    """A vertex sample for an out-edge probability check contained a PNE."""


class StepCapZero(NashwalkError):
    """Walk configured with max_steps < 1."""


class SeedCollision(NashwalkError):
    """Medium and initial percolation were built from the same seed stream."""


class EmptyTrialCount(NashwalkError):
    """An experiment was asked to run zero trials."""


class NoConditionedTrials(NashwalkError):
    """Conditioning left no trials to aggregate."""


class TimeBudgetExceeded(NashwalkError):
    """A command exceeded its wall-clock budget."""
