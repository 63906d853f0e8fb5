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

Trials of one net can run in lockstep, as rows of one training state: an
epoch advances every trial still running, each trial keeps its own stop
rule, snapshot and records, and a trial leaves the batch as soon as its
stop rule fires. A single trial is the one-row case.
"""

import math
import numbers

import numpy as np

from .errors import ValidationError


def is_count(value) -> bool:
    """Whether value is an integer (Python or numpy), bools excluded."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is a real number (Python or numpy), bools excluded."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_positive(value, name: str, allow_zero: bool = False) -> None:
    """A learning rate or a time span is a finite real number, bools excluded,
    above 0, or at least 0 where allow_zero."""
    try:
        finite = is_real(value) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not (finite and (value >= 0 if allow_zero else value > 0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValidationError(f"{name} must be a finite real number {bound}")


def check_stop_rule(rms_target, max_epochs) -> None:
    if not 0 < rms_target < 1:
        raise ValidationError("rms_target must lie in (0, 1)")
    if not is_count(max_epochs) or max_epochs < 1:
        raise ValidationError("max_epochs must be an integer >= 1")


def run_epochs(epoch, state, rms_target, max_epochs, shrink=None):
    """Run one or more trials in lockstep until each one's stop rule fires.

    state() returns the training state of the trials still running, one
    row of uint64 words per trial: the bits of everything its next epoch
    depends on. Its first call fixes the number of trials. epoch() runs one
    epoch of every trial still running and returns that epoch's numbers as
    columns with one value per running trial, in row order: the RMS first,
    then any per-epoch counts the net tallies. When some trials stop while
    others run on, shrink(keep) is called with a boolean mask over the rows;
    later epochs and states cover the kept rows only. A state of more than
    one row needs shrink.

    Returns one (epochs_used, converged, *columns) tuple per trial, in row
    order, each column with one entry per epoch: the RMS history first."""
    check_stop_rule(rms_target, max_epochs)
    previous = state()
    snapshot = previous.copy()
    n = len(previous)
    if n > 1 and shrink is None:
        raise ValidationError("lockstep trials need a shrink function")
    trials = list(range(n))  # the trial in each row
    runs, columns, used, snapshot_at = [None] * n, [None] * n, [0] * n, [0] * n
    while trials:
        record = epoch()
        current = state()
        repeat = (current == previous).all(axis=1).tolist()
        back = (current == snapshot).all(axis=1).tolist()
        for row, t in enumerate(trials):
            if columns[t] is None:
                columns[t] = [[] for _ in record]
            for column, values in zip(columns[t], record):
                column.append(values[row])
            used[t] += 1
            if record[0][row] <= rms_target:
                runs[t] = (used[t], True, *columns[t])
                continue
            if repeat[row]:
                period = 1
            elif back[row]:
                period = used[t] - snapshot_at[t]
            else:
                period = 0
            if period:
                copies = (max_epochs - used[t]) // period
                for column in columns[t]:
                    column.extend(column[-period:] * copies)
                used[t] += copies * period
            if used[t] == max_epochs:
                runs[t] = (max_epochs, False, *columns[t])
            elif used[t] & (used[t] - 1) == 0:
                snapshot[row] = current[row]
                snapshot_at[t] = used[t]
        previous = current
        keep = [runs[t] is None for t in trials]
        if not all(keep):
            trials = [t for t, k in zip(trials, keep) if k]
            if trials:
                keep = np.array(keep)
                previous, snapshot = previous[keep], snapshot[keep]
                shrink(keep)
    return runs
