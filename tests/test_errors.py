"""The exception types: each pickles with what it carries, so a failure in a
forked child reaches its parent as itself."""

import pickle

import numpy as np

from solitonlab import errors

EXAMPLES = {
    errors.RejectedInputError: errors.RejectedInputError("flow.dt: must be positive"),
    errors.NumericalFailureError: errors.NumericalFailureError("non-finite W at t=0"),
    errors.StepRejectedError: errors.StepRejectedError("left the SPD cone at t = 0.5"),
    errors.GaugeBreakdownError: errors.GaugeBreakdownError("gauge lost injectivity at t = 0.25",
                                                           time=0.25),
    errors.NonConvergenceError: errors.NonConvergenceError("stalled at update 1e-9",
                                                           last_iterate=np.arange(6.0)),
    errors.InsufficientDataError: errors.InsufficientDataError("too few samples"),
}


def test_every_error_type_round_trips_through_pickle():
    types = {v for v in vars(errors).values()
             if isinstance(v, type) and issubclass(v, BaseException)
             and v.__module__ == errors.__name__}
    assert types == EXAMPLES.keys()
    for kind, exc in EXAMPLES.items():
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is kind and str(back) == str(exc) and back.args == exc.args
        assert back.__dict__.keys() == exc.__dict__.keys()
        for name, value in exc.__dict__.items():
            assert np.array_equal(getattr(back, name), value)
    assert pickle.loads(pickle.dumps(EXAMPLES[errors.GaugeBreakdownError])).time == 0.25
