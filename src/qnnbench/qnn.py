"""Quantum network: a trainable Hamiltonian schedule read out by measurement.

The forward pass, batch_outputs, propagates a stack of two-qubit density
matrices, the (n, 4, 4) arrays quantum.states_to_rhos builds from pure
states, through the piecewise-constant schedule and measures each one
through a Readout. The default readout is the
squared two-qubit correlation Tr(rho ZZ)^2; tasks may substitute any Hermitian
observable, optionally unsquared, through a Readout value. A projector readout
is what makes valence-style gates (AND, OR and their negations) reachable:
summed over the four basis inputs, the ZZ expectation after any one unitary is
the trace of ZZ, which is zero, so under the squared-correlation readout those
four truth tables can never all be matched at once.

Training is full-batch gradient descent where the gradient comes from
central finite differences on the mean squared error, five parameters per
slice. One epoch is one gradient step, and epochs repeat under the shared
stop rule of qnnbench.training. By default the step is the fixed learning
rate times the gradient. With QnnConfig.backtracking the step is chosen by
Armijo backtracking (Armijo 1966; Nocedal & Wright, Numerical
Optimization, ch. 3): the learning rate is tried first and halved until the
loss falls by at least ARMIJO_C1 times the rate times the squared gradient
norm, so the training loss never rises. The entanglement witness trains with
backtracking: a fixed step there follows a chaotic path, on which a
perturbation of the initial schedule in the last bit decides whether the run
converges. The gate and iris runs keep the fixed step. No randomness enters
after the initial schedule is drawn, so runs are reproducible from the seed
alone.

Every loss is evaluated by _losses, for a stack of parameter vectors at
once, each row bit for bit as it would come out alone, so the stacking
changes no trajectory: one stack serves the 10 S shifted schedules of the
finite-difference gradient, and at most two the epoch's candidate steps
(see train). train and batch_loss check a batch in one place, _batch, and
train hands gradient the parameter vector, density matrices and targets it
prepared once, so no epoch rebuilds a schedule or converts the batch again.
"""

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .quantum import (
    HamiltonianSchedule,
    PureState,
    ZZ,
    propagators,
    schedule_propagator,
    states_to_rhos,
)
from .training import check_positive, check_stop_rule, is_count, run_epochs

MAX_FD_STEP = 1e-2
DEFAULT_FD_STEP = 1e-3

# Sufficient-decrease constant of the Armijo condition, the textbook value.
ARMIJO_C1 = 1e-4
# Halvings of the learning rate tried in one epoch before backtracking gives
# up and leaves the schedule where it is.
MAX_HALVINGS = 40

TrainPair = Tuple[PureState, float]


@dataclass(frozen=True)
class QnnConfig:
    """Training settings. train never reads seed: it only lets the bench
    match each trained schedule to its CSV row, and goes once the bench
    stops wrapping qnn.train once per trial."""

    learning_rate: float
    max_epochs: int
    rms_target: float = 0.01
    seed: int = 0
    backtracking: bool = False

    def __post_init__(self):
        check_positive(self.learning_rate, "learning rate")
        check_stop_rule(self.rms_target, self.max_epochs)
        if not isinstance(self.backtracking, bool):
            raise ValidationError("backtracking must be a bool")


@dataclass(frozen=True)
class Readout:
    """Measurement functional: expectation of an observable, optionally
    squared, clipped into [0, 1]."""

    observable: np.ndarray
    square: bool = True

    def __post_init__(self):
        obs = np.asarray(self.observable, dtype=complex)
        if obs.shape != (4, 4) or not np.all(np.isfinite(obs)):
            raise ValidationError("observable must be a finite 4x4 matrix")
        if np.max(np.abs(obs - obs.conj().T)) > 1e-12:
            raise ValidationError("observable must be 4x4 Hermitian")
        object.__setattr__(self, "observable", obs)

    def values(self, rhos: np.ndarray) -> np.ndarray:
        """Measure a stack of density matrices, shape (n, 4, 4) -> (n,)."""
        expect = np.einsum("nij,ji->n", rhos, self.observable).real
        if self.square:
            expect = expect**2
        return np.clip(expect, 0.0, 1.0)


CORRELATION = Readout(ZZ, square=True)


def basis_projector(*indices: int) -> Readout:
    """Unsquared readout projecting onto a set of computational basis states."""
    diag = np.zeros(4)
    for i in indices:
        if not is_count(i) or i not in (0, 1, 2, 3):
            raise ValidationError("basis indices run from 0 to 3")
        diag[i] = 1.0
    return Readout(np.diag(diag).astype(complex), square=False)


def random_schedule(n_slices: int, total_time: float, rng) -> HamiltonianSchedule:
    """Initial schedule with every parameter uniform in [-1, 1]."""
    rng = np.random.default_rng(rng)
    return HamiltonianSchedule.from_array(
        rng.uniform(-1.0, 1.0, 5 * n_slices), total_time
    )


def batch_outputs(rhos, schedule, readout: Readout = CORRELATION) -> np.ndarray:
    return _outputs(schedule_propagator(schedule)[None], rhos, readout)[0]


def _outputs(us, rhos, readout):
    """Readouts of m states after each of n propagators: (n, 4, 4) -> (n, m)."""
    us = us[:, None]
    evolved = np.matmul(np.matmul(us, rhos), us.conj().swapaxes(-1, -2))
    return readout.values(evolved.reshape(-1, 4, 4)).reshape(len(us), -1)


def _losses(stack, dt, rhos, targets, readout) -> np.ndarray:
    """Batch mean squared errors of n schedules of dt slices: (n, 5 S) -> (n,)."""
    outputs = _outputs(propagators(stack, dt), rhos, readout)
    return np.mean((outputs - targets) ** 2, axis=1)


def _batch(batch: Sequence[TrainPair]) -> Tuple[np.ndarray, np.ndarray]:
    """Density matrices (n, 4, 4) and targets (n,) of a nonempty batch whose
    targets lie in [0, 1], the range of every readout: the one batch check."""
    if not batch:
        raise ValidationError("a qnn batch must be nonempty")
    targets = np.array([t for _, t in batch], dtype=float)
    if not all(0.0 <= t <= 1.0 for t in targets.tolist()):  # False for nan, inf
        if not np.all(np.isfinite(targets)):
            raise ValidationError("training targets must be finite")
        raise ValidationError("training targets must lie in the readout's [0, 1]")
    return states_to_rhos([s for s, _ in batch]), targets


def batch_loss(batch: Sequence[TrainPair], schedule, readout=CORRELATION) -> float:
    """Mean squared error of the schedule's readouts on a batch checked by _batch."""
    rhos, targets = _batch(batch)
    stack = schedule.as_array()[None]
    return float(_losses(stack, schedule.dt, rhos, targets, readout)[0])


def gradient(
    params: np.ndarray,
    dt: float,
    rhos: np.ndarray,
    targets: np.ndarray,
    readout: Readout = CORRELATION,
    fd_step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Central finite differences of the batch loss over params (5 S,), a
    schedule of dt slices, on the rhos and targets train prepares by _batch.

    The 2 P shifted parameter vectors (p + h, p - h for each parameter p)
    are one propagators stack, which rejects a length that is not a
    positive multiple of 5 and non-finite parameters."""
    if not 0 < fd_step <= MAX_FD_STEP:
        raise ValidationError(f"fd_step must lie in (0, {MAX_FD_STEP}]")
    base = np.asarray(params, dtype=float).ravel()
    p = np.arange(base.size)
    stack = np.repeat(base[None], 2 * base.size, axis=0)
    stack[2 * p, p] += fd_step
    stack[2 * p + 1, p] -= fd_step
    losses = _losses(stack, dt, rhos, targets, readout)
    return (losses[0::2] - losses[1::2]) / (2.0 * fd_step)


class TrainResult(NamedTuple):
    schedule: HamiltonianSchedule
    epochs_used: int
    converged: bool
    rms_history: List[float]


def train(
    trainset: Sequence[TrainPair],
    config: QnnConfig,
    initial_schedule: HamiltonianSchedule,
    readout: Readout = CORRELATION,
) -> TrainResult:
    """Full-batch descent; one epoch is one gradient step, and the epoch RMS
    (a fraction) is measured after the step.

    The candidate steps are learning_rate, and with config.backtracking its
    MAX_HALVINGS halvings too. The fixed step always takes learning_rate;
    the line search takes the first candidate that meets the Armijo
    condition, and when none does the schedule stays put. Each epoch
    evaluates one gradient stack and at most two stacks of candidates: the
    rates through one past the index the previous epoch took (the first
    rate alone in the first epoch), then, only if none of those passes, the
    rest. The trainset is checked and converted once, by _batch."""
    rhos, targets = _batch(trainset)
    params = initial_schedule.as_array()
    total_time, dt = initial_schedule.total_time, initial_schedule.dt
    loss = _losses(params[None], dt, rhos, targets, readout)[0]
    candidates = MAX_HALVINGS + 1 if config.backtracking else 1
    rates = config.learning_rate / 2.0 ** np.arange(candidates)
    # Candidates in the first stack: through one past the rate the last
    # epoch took. Not training state: the chosen row is the same either way.
    reach = 1

    def epoch():
        nonlocal params, loss, reach
        step = gradient(params, dt, rhos, targets, readout)
        decrease = ARMIJO_C1 * rates * float(step @ step)
        for stack in (slice(0, reach), slice(reach, rates.size)):
            trials = params - rates[stack, None] * step
            if not len(trials):
                break
            losses = _losses(trials, dt, rhos, targets, readout)
            # A loop trying one rate at a time would take the first that passes.
            armijo = losses <= loss - decrease[stack]
            passed = np.flatnonzero(armijo | (not config.backtracking))
            if passed.size:
                params, loss = trials[passed[0]], losses[passed[0]]
                reach = min(stack.start + passed[0] + 2, rates.size)
                break
        return ([float(np.sqrt(loss))],)

    # The carried loss is state too: the Armijo test compares against it.
    [run] = run_epochs(
        epoch,
        lambda: np.append(params, loss).view(np.uint64)[None],
        config.rms_target,
        config.max_epochs,
    )
    return TrainResult(HamiltonianSchedule.from_array(params, total_time), *run)
