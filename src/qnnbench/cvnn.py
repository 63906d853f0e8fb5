"""Complex-valued network with unit-circle activation and inverse-signal updates.

Signals live on the complex unit circle. A neuron sums its weighted inputs
plus a bias weight fed by 1+0i, and the activation projects the sum back onto
the circle. Learning is one rule: a neuron's error is split evenly over its
weights, each share times the inverse of its input. Given the error from the
raw sum, one correction lands the sum exactly on the target; training
measures the error from the activated signal instead, which leaves a fixed
point once the output angles are right. No learning rate is involved.

Real values in [0, 1] enter and leave the network through map_scalar/unmap
(half-turn encoding: 0 sits at angle 0, 1 at angle pi, and unmap reflects the
lower half-plane back). Binary targets may also be encoded with two antipodal
candidate points per class (periodic_candidates); training then corrects
toward whichever candidate is nearest, and doubled_angle_readout recovers the
class from the squared output. Multi-candidate targets are what let a single
layer separate parity-style tasks that the half-turn encoding cannot.

train_to_threshold, the one way to train, checks the pairs once, up front;
its pair step then checks only what training can break: a neuron sum at 0
and a zero weight carrying error back. Hidden signals fed to a correction
are activations on the unit circle, so they have inverses.
Epoch RMS is measured on the unmapped real outputs as pairs are visited,
before each pair's own update, and is returned as a fraction in [0, 1].
Epochs repeat under the shared stop rule of qnnbench.training.
"""

import cmath
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateActivationError, ValidationError
from .training import run_epochs

TargetSpec = Union[complex, Tuple[complex, ...]]


def map_scalar(r: float) -> complex:
    """Place a real value from [0, 1] on the unit circle at angle pi*r."""
    if not (np.isfinite(r) and 0.0 <= r <= 1.0):
        raise ValidationError("mapped scalars must lie in [0, 1]")
    return cmath.exp(1j * np.pi * r)


def unmap(z: complex) -> float:
    """Invert map_scalar: angle in [0, pi] maps back directly, below the real
    axis the point is reflected first, so conjugate points agree."""
    if z == 0:
        raise ValidationError("cannot unmap the origin")
    angle = cmath.phase(z)  # (-pi, pi]
    if angle < 0:
        angle = -angle
    return angle / np.pi


def activation(z):
    """Project a neuron sum, or an array of them, onto the unit circle."""
    a = np.abs(z)
    if not a.all():
        raise DegenerateActivationError("neuron sum landed exactly on 0")
    return z / a


def periodic_candidates(bit: int) -> Tuple[complex, complex]:
    """Two antipodal unit-circle targets encoding a bit at doubled angle.

    Squaring either candidate gives exp(i*pi*bit), so the pair is read back
    through doubled_angle_readout.
    """
    if bit not in (0, 1):
        raise ValidationError("periodic candidates encode bits only")
    base = cmath.exp(1j * np.pi * bit / 2)
    return (base, -base)


def doubled_angle_readout(z: complex) -> float:
    return unmap(z * z)


def nearest_target(spec: TargetSpec, z: complex) -> complex:
    if isinstance(spec, tuple):
        return min(spec, key=lambda t: abs(t - z))
    return spec


@dataclass
class ComplexLayerStack:
    """Complex weight matrices. Each matrix carries one extra trailing
    column, the bias weights, fed by a constant input of 1+0i."""

    weights: List[np.ndarray]

    def __post_init__(self):
        if not self.weights:
            raise ValidationError("need at least one layer")
        for k, w in enumerate(self.weights):
            if w.ndim != 2:
                raise ValidationError(f"layer {k}: weights must be a matrix")
            if not np.all(np.isfinite(w)):
                raise ValidationError(f"layer {k}: non-finite weights")
            if k > 0 and w.shape[1] - 1 != self.weights[k - 1].shape[0]:
                raise ValidationError(f"layer {k}: input width breaks the chain")

    @property
    def sizes(self):
        return (self.weights[0].shape[1] - 1,) + tuple(
            w.shape[0] for w in self.weights
        )


def random_stack(sizes: Sequence[int], rng) -> ComplexLayerStack:
    """Weights with modulus uniform in [0.1, 0.5] and uniform phase, so no
    starting weight sits at the origin (inverses are taken during training)."""
    rng = np.random.default_rng(rng)
    weights = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        mod = rng.uniform(0.1, 0.5, (n_out, n_in + 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, (n_out, n_in + 1))
        weights.append(mod * np.exp(1j * phase))
    return ComplexLayerStack(weights)


def _with_bias(x):
    return np.concatenate([x, [1.0 + 0.0j]])


def forward(net: ComplexLayerStack, x) -> np.ndarray:
    current = np.asarray(x, dtype=complex)
    if current.shape != (net.sizes[0],):
        raise ValidationError(f"expected input of length {net.sizes[0]}")
    for w in net.weights:
        current = activation(w @ _with_bias(current))
    return current


def _correct(weights, inputs, errors):
    """The error-correction rule for one layer; returns the new weights.

    Each neuron's error is split evenly over its incoming weights, and each
    share is multiplied by the inverse of the signal that weight carries.
    With errors = target - weights @ inputs, every new sum equals its target.
    Unchecked: training's checks keep every input signal nonzero.
    """
    return weights + (errors[:, None] / inputs.size) / inputs[None, :]


def _pair_errors(weights, outputs, targets):
    """Backward phase: per-layer neuron errors from pre-update weights.

    The output error is the vector from the activated output signal to the
    target. Measuring from the raw sum instead looks equivalent but is not:
    it demands an exact sum value rather than an exact angle, and for the
    linearly separable gates no weight vector satisfies all four sum
    equations at once, so training would circle forever without settling.
    """
    errors = [np.array([nearest_target(t, a) - a for t, a in zip(targets, outputs)])]
    for k in range(len(weights) - 1, 0, -1):
        w = weights[k]
        carriers = w[:, : weights[k - 1].shape[0]]
        if not carriers.all():
            raise DegenerateActivationError("zero weight cannot carry error")
        shares = (errors[0] / w.shape[1])[:, None] / carriers
        errors.insert(0, shares.sum(axis=0))
    return errors


class TrainResult(NamedTuple):
    net: ComplexLayerStack
    epochs_used: int
    converged: bool
    rms_history: List[float]
    skipped: int


def train_to_threshold(net, pairs, rms_target, max_epochs, readout=unmap):
    """Train under the shared stop rule of qnnbench.training; the training
    state is the weights. Before any update the pairs are checked once
    (widths, finite values, nonzero inputs, whose inverses the update takes)
    and each target's real value is read once through readout, from the
    spec's first candidate. Degenerate pairs are skipped with a warning and
    counted; an all-skipped epoch reports RMS 1.0, and skipped totals the
    skips of every epoch the run reports."""
    if not pairs:
        raise ValidationError("cannot train on an empty pair list")
    n_in, n_out = net.sizes[0], net.sizes[-1]
    data = []
    for k, (x, targets) in enumerate(pairs):
        x = np.asarray(x, dtype=complex)
        if x.shape != (n_in,) or len(targets) != n_out:
            raise ValidationError(
                f"pair {k}: expected input width {n_in} and {n_out} target specs"
            )
        if not all(np.all(np.isfinite(v)) for v in (x, *targets)):
            raise ValidationError(f"pair {k}: non-finite input or target")
        if np.any(x == 0):
            raise ValidationError(f"pair {k}: zero input signal has no inverse")
        wants = [readout(t[0] if isinstance(t, tuple) else t) for t in targets]
        data.append((_with_bias(x), targets, wants))
    # One bias-extended signal per hidden layer, written in place each pair.
    fed_hidden = [np.ones(n + 1, dtype=complex) for n in net.sizes[1:-1]]

    def epoch():
        sq_sum = 0.0
        skipped = 0
        for fed_in, targets, wants in data:
            # One pair: forward, errors from the pre-update weights, then each
            # layer corrected in order, fed by the corrected layers below it.
            # The net is written only once every layer is corrected, so a
            # pair that degenerates part-way leaves it untouched.
            weights = net.weights
            try:
                fed = fed_in
                for w, buf in zip(weights, fed_hidden):
                    buf[:-1] = activation(w @ fed)
                    fed = buf
                outs = activation(weights[-1] @ fed)
                errors = _pair_errors(weights, outs, targets)
                fed = fed_in
                corrected = [_correct(weights[0], fed, errors[0])]
                for w, e, buf in zip(weights[1:], errors[1:], fed_hidden):
                    buf[:-1] = activation(corrected[-1] @ fed)
                    fed = buf
                    corrected.append(_correct(w, fed, e))
            except DegenerateActivationError as exc:
                warnings.warn(f"skipping degenerate pair: {exc}")
                skipped += 1
                continue
            net.weights = corrected
            pair_sq = 0.0
            for z, want in zip(outs, wants):
                pair_sq += (readout(z) - want) ** 2
            sq_sum += pair_sq
        n_components = n_out * (len(data) - skipped)
        if n_components == 0:
            return [1.0], [skipped]
        return [float(np.sqrt(sq_sum / n_components))], [skipped]

    [(used, converged, history, skips)] = run_epochs(
        epoch,
        lambda: np.concatenate([w.ravel() for w in net.weights]).view(np.uint64)[None],
        rms_target,
        max_epochs,
    )
    return TrainResult(net, used, converged, history, sum(skips))
