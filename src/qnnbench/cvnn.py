"""Complex-valued network with unit-circle activation and inverse-signal updates.

Signals live on the complex unit circle. A neuron sums its weighted inputs and
the activation projects the sum back onto the circle; learning divides the
output error across the incoming weights through multiplication by the inverse
input signals. Applied with the raw weighted sum (update_output_neuron), one
such update moves the sum exactly onto the target; the training loop instead
measures the error from the activated signal, which leaves a fixed point once
the output angles are right. There is no learning rate anywhere in the rule.

Real values in [0, 1] enter and leave the network through map_scalar/unmap
(half-turn encoding: 0 sits at angle 0, 1 at angle pi, and unmap reflects the
lower half-plane back). Binary targets may also be encoded with two antipodal
candidate points per class (periodic_candidates); training then corrects
toward whichever candidate is nearest, and doubled_angle_readout recovers the
class from the squared output. Multi-candidate targets are what let a single
layer separate parity-style tasks that the half-turn encoding cannot.

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
    if np.any(z == 0):
        raise DegenerateActivationError("neuron sum landed exactly on 0")
    return z / abs(z)


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
    """Complex weight matrices; when use_bias is set, each matrix carries one
    extra trailing column fed by a constant input of 1+0i."""

    weights: List[np.ndarray]
    use_bias: bool = True

    def __post_init__(self):
        if not self.weights:
            raise ValidationError("need at least one layer")
        extra = 1 if self.use_bias else 0
        for k, w in enumerate(self.weights):
            if w.ndim != 2:
                raise ValidationError(f"layer {k}: weights must be a matrix")
            if not np.all(np.isfinite(w)):
                raise ValidationError(f"layer {k}: non-finite weights")
            if k > 0 and w.shape[1] - extra != self.weights[k - 1].shape[0]:
                raise ValidationError(f"layer {k}: input width breaks the chain")

    @property
    def sizes(self):
        extra = 1 if self.use_bias else 0
        return (self.weights[0].shape[1] - extra,) + tuple(
            w.shape[0] for w in self.weights
        )


def random_stack(sizes: Sequence[int], rng, bias: bool = True) -> ComplexLayerStack:
    """Weights with modulus uniform in [0.1, 0.5] and uniform phase, so no
    starting weight sits at the origin (inverses are taken during training)."""
    rng = np.random.default_rng(rng)
    extra = 1 if bias else 0
    weights = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        mod = rng.uniform(0.1, 0.5, (n_out, n_in + extra))
        phase = rng.uniform(0.0, 2.0 * np.pi, (n_out, n_in + extra))
        weights.append(mod * np.exp(1j * phase))
    return ComplexLayerStack(weights, bias)


def _with_bias(net, x):
    if net.use_bias:
        return np.concatenate([x, [1.0 + 0.0j]])
    return x


def _layer_signals(net, x):
    """Per layer: (inputs incl. bias slot, weighted sums, activations)."""
    signals = []
    current = np.asarray(x, dtype=complex)
    if current.shape != (net.sizes[0],):
        raise ValidationError(f"expected input of length {net.sizes[0]}")
    for w in net.weights:
        fed = _with_bias(net, current)
        sums = w @ fed
        acts = activation(sums)
        signals.append((fed, sums, acts))
        current = acts
    return signals


def forward(net: ComplexLayerStack, x) -> np.ndarray:
    return _layer_signals(net, x)[-1][2]


def update_output_neuron(weights, inputs, target: complex) -> np.ndarray:
    """One exact correction: returns weights whose new sum equals target.

    The error t - z is split evenly over the incoming weights, each share
    multiplied by the inverse of the signal that weight carries.
    """
    weights = np.asarray(weights, dtype=complex)
    inputs = np.asarray(inputs, dtype=complex)
    if weights.shape != inputs.shape or weights.ndim != 1:
        raise ValidationError("weights and inputs must be matching vectors")
    if np.any(inputs == 0):
        raise ValidationError("zero input signal has no inverse")
    z = np.dot(weights, inputs)
    e = target - z
    return weights + (e / inputs.size) / inputs


def _pair_errors(net, signals, targets):
    """Backward phase: per-layer neuron errors from pre-update weights.

    The output error is the vector from the activated output signal to the
    target. Measuring from the raw sum instead looks equivalent but is not:
    it demands an exact sum value rather than an exact angle, and for the
    linearly separable gates no weight vector satisfies all four sum
    equations at once, so training would circle forever without settling.
    """
    _, _, acts = signals[-1]
    out_errors = np.array(
        [nearest_target(spec, a) - a for spec, a in zip(targets, acts)]
    )
    errors = [out_errors]
    for k in range(len(net.weights) - 1, 0, -1):
        w = net.weights[k]
        carriers = w[:, : net.weights[k - 1].shape[0]]
        if np.any(carriers == 0):
            raise DegenerateActivationError("zero weight cannot carry error")
        shares = (errors[0] / w.shape[1])[:, None] / carriers
        errors.insert(0, shares.sum(axis=0))
    return errors


def _apply_pair(net, x, targets):
    """Correct every layer in order, refreshing the fed signals after each
    layer so later corrections see the weights already moved. Returns the
    output signals from before the update."""
    signals = _layer_signals(net, x)
    errors = _pair_errors(net, signals, targets)
    current = np.asarray(x, dtype=complex)
    last = len(net.weights) - 1
    for k, w in enumerate(net.weights):
        fed = _with_bias(net, current)
        if np.any(fed == 0):
            raise ValidationError("zero input signal has no inverse")
        w += (errors[k][:, None] / w.shape[1]) / fed[None, :]
        if k < last:
            current = activation(w @ fed)
    return signals[-1][2]


class EpochResult(NamedTuple):
    net: ComplexLayerStack
    rms: float
    skipped: int


def train_epoch(net, pairs, readout=unmap) -> EpochResult:
    """One in-order pass. Pairs whose forward or update pass degenerates are
    skipped with a warning and counted instead of aborting the epoch.

    readout turns each complex output into the real value entering the RMS;
    the matching real target is recovered by reading the target spec itself.
    """
    if not pairs:
        raise ValidationError("cannot train on an empty pair list")
    sq_sum = 0.0
    n_components = 0
    skipped = 0
    for x, targets in pairs:
        saved = [w.copy() for w in net.weights]
        try:
            outs = _apply_pair(net, x, targets)
            pair_sq = 0.0
            for z, spec in zip(outs, targets):
                want = spec[0] if isinstance(spec, tuple) else spec
                pair_sq += (readout(z) - readout(want)) ** 2
            sq_sum += pair_sq
            n_components += len(targets)
        except DegenerateActivationError as exc:
            for w, old in zip(net.weights, saved):
                w[...] = old
            warnings.warn(f"skipping degenerate pair: {exc}")
            skipped += 1
    if n_components == 0:
        return EpochResult(net, 1.0, skipped)
    return EpochResult(net, float(np.sqrt(sq_sum / n_components)), skipped)


class TrainResult(NamedTuple):
    net: ComplexLayerStack
    epochs_used: int
    converged: bool
    rms_history: List[float]
    skipped: int


def train_to_threshold(net, pairs, rms_target, max_epochs, readout=unmap):
    skipped = 0

    def epoch():
        nonlocal skipped
        _, rms, s = train_epoch(net, pairs, readout)
        skipped += s
        return rms

    used, converged, history = run_epochs(epoch, rms_target, max_epochs)
    return TrainResult(net, used, converged, history, skipped)
