"""The stop rule that rvnn, cvnn and qnn all train under.

A run is a sequence of epochs. It converges at the first epoch whose RMS (a
fraction of full scale) is at or below rms_target, and stops unconverged
once max_epochs epochs have run. The nets differ only in what one epoch
does, which each passes in as a function returning that epoch's RMS.
"""

import numbers
from typing import Callable

from .errors import ValidationError


def check_stop_rule(rms_target, max_epochs) -> None:
    if not 0 < rms_target < 1:
        raise ValidationError("rms_target must lie in (0, 1)")
    integer = isinstance(max_epochs, numbers.Integral)
    if not integer or isinstance(max_epochs, bool) or max_epochs < 1:
        raise ValidationError("max_epochs must be an integer >= 1")


def run_epochs(epoch: Callable[[], float], rms_target, max_epochs):
    """Call epoch() until the stop rule fires; returns (epochs_used,
    converged, rms_history)."""
    check_stop_rule(rms_target, max_epochs)
    history = []
    for used in range(1, max_epochs + 1):
        rms = epoch()
        history.append(rms)
        if rms <= rms_target:
            return used, True, history
    return max_epochs, False, history
