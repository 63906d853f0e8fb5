"""The stop rule that rvnn, cvnn and qnn all train under.

A run is a sequence of epochs. It converges at the first epoch whose RMS (a
fraction of full scale) is at or below rms_target, and stops unconverged
once max_epochs epochs have run. The nets differ only in what one epoch
does, which each passes in as a function returning that epoch's numbers:
its RMS first, then any per-epoch counts the net tallies.

An epoch is a deterministic map of the net's training state, so once the
state repeats bit for bit the rest of the run replays a known orbit. The
loop watches for that with Brent's cycle detection (R. P. Brent, BIT
20:176, 1980): one snapshot of the state, re-taken at power-of-two epochs,
plus the previous epoch's state, which catches a fixed point as soon as it
is reached. On a repeat it writes the remaining whole cycles into the
records and runs only the last (max_epochs - epoch) mod period epochs, so
the final net, epochs_used, converged and every record come out as the
plain loop would produce them. The budget is never cut: a run that cycles
cannot converge, since every epoch of the cycle has already missed the
target, and it reports max_epochs.
"""

import numbers
from typing import Callable, Sequence

from .errors import ValidationError


def is_count(value) -> bool:
    """Whether value is an integer (Python or numpy), bools excluded."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_stop_rule(rms_target, max_epochs) -> None:
    if not 0 < rms_target < 1:
        raise ValidationError("rms_target must lie in (0, 1)")
    if not is_count(max_epochs) or max_epochs < 1:
        raise ValidationError("max_epochs must be an integer >= 1")


def run_epochs(
    epoch: Callable[[], Sequence[float]],
    state: Callable[[], bytes],
    rms_target,
    max_epochs,
):
    """Call epoch() until the stop rule fires. state() returns the bytes of
    everything the next epoch depends on. Returns (epochs_used, converged,
    *columns), one column per item epoch() returns, one entry per epoch:
    the RMS history first."""
    check_stop_rule(rms_target, max_epochs)
    columns = []
    previous = snapshot = state()
    snapshot_at = used = 0
    while used < max_epochs:
        record = epoch()
        if not columns:
            columns = [[] for _ in record]
        for column, value in zip(columns, record):
            column.append(value)
        used += 1
        if record[0] <= rms_target:
            return (used, True, *columns)
        current = state()
        if current == previous:
            period = 1
        elif current == snapshot:
            period = used - snapshot_at
        else:
            period = 0
        if period:
            copies = (max_epochs - used) // period
            for column in columns:
                column.extend(column[-period:] * copies)
            used += copies * period
        if used & (used - 1) == 0:
            snapshot, snapshot_at = current, used
        previous = current
    return (max_epochs, False, *columns)
