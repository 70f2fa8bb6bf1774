"""Exception types shared across the package: a failing run raises a
``RejectedInputError`` (exit 2) or a ``NumericalFailureError`` (exit 3)."""


class RejectedInputError(ValueError):
    """Input failed validation (non-SPD metric, degenerate node, bad field shape)."""


class NumericalFailureError(RuntimeError):
    """A computed value is not finite: the potential of a coupled flow state
    (``entropy.constant_potential``), or W or the soliton defect of its
    sample (``entropy.entropy_record``), as when the volume overflows;
    or a spectrum has no gap to read (``stability.spectrum``): its symbol
    holds a non-finite entry, or no magnitude above the neutral floor."""


class StepRejectedError(NumericalFailureError):
    """A time step produced an invalid state; the caller may retry with smaller dt."""


class GaugeBreakdownError(NumericalFailureError):
    """The evolving diffeomorphism lost injectivity.

    Carries ``time``, the first time at which the injectivity proxy failed.
    """

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class NonConvergenceError(NumericalFailureError):
    """An iterative solver hit its iteration cap.

    Carries ``last_iterate`` so the caller can inspect or restart.
    """

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class InsufficientDataError(ValueError):
    """Not enough usable samples for the requested fit or diagnostic."""
